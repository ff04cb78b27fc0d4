import itertools
import re
import subprocess
import sys

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import thermal
from sectorlab.algebra import State, full_matrix_algebra, vector_state
from sectorlab.channels import (
    ClassicalQuantumChannel,
    ProbabilityWeight,
    apply_cq,
    design_matrix,
    evaluation_matrix,
    forward_data,
    invert_cq,
    verify_positive_unital,
)
from sectorlab.models import (
    moment_grid,
    moment_hierarchy,
    moment_measured,
    moment_probes,
    moment_system,
    moment_true_weights,
    two_level_grid,
    two_level_hierarchy,
    two_level_measured,
    two_level_system,
)
from sectorlab.thermal import (
    HamiltonianSystem,
    ObservableHierarchy,
    ThermalGrid,
    beta_grid,
    build_thermal_channel,
    entropy_density,
    gibbs_state,
    hierarchy_report,
    kms_residual,
    log_partition,
    s_thermal_check,
    thermal_function,
)

from conftest import SX, SZ, I2, peak_mb


class TestHamiltonianSystem:
    def test_requires_hermitian(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_number_must_commute(self):
        with pytest.raises(ValueError):
            HamiltonianSystem(SZ, number=SX)

    def test_mu_without_number_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(HamiltonianSystem(SZ), 1.0, mu=0.5)


    def test_non_finite_hamiltonian_rejected(self):
        h = np.diag([0.0, 1.0, np.nan]).astype(complex)
        with pytest.raises(ValueError, match="Hamiltonian has non-finite entries"):
            HamiltonianSystem(h)

    def test_non_finite_number_rejected(self):
        with pytest.raises(ValueError, match="number operator has non-finite"):
            HamiltonianSystem(SZ, number=np.diag([np.inf, 0.0]))

    def test_stored_operators_are_read_only_copies(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        n = np.diag([1.0, 1.0, 0.0]).astype(complex)
        sys = HamiltonianSystem(h, number=n)
        expected = gibbs_state(HamiltonianSystem(h.copy(), number=n.copy()), 1.0, 0.5)
        h[2, 2] = -5.0  # changing the caller's arrays leaves the system alone
        n[0, 0] = 7.0
        assert not sys.hamiltonian.flags.writeable
        assert not sys.number.flags.writeable
        assert np.array_equal(gibbs_state(sys, 1.0, 0.5).density, expected.density)
        h[1, 1] = -9.0  # also once the spectrum is cached
        assert np.array_equal(gibbs_state(sys, 1.0, 0.5).density, expected.density)


class TestThermalGrid:
    @pytest.mark.parametrize("point", [
        (np.nan, None), (np.inf, None), (1.0, np.nan), (1.0, -np.inf)])
    def test_non_finite_point_rejected(self, point):
        pts = ((0.5, None if point[1] is None else 0.0), point)
        with pytest.raises(ValueError, match=r"grid point .* is not finite"):
            ThermalGrid(pts)

    @pytest.mark.parametrize("factor, accepted", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("point", [(1.0, None), (1.0, 1.0), (1.0, -1.0)],
                             ids=["beta", "mu", "-mu"])
    def test_coordinate_bound(self, factor, accepted, point):
        # beta and |mu| up to 1e150: a weight's moments stay finite
        b, m = point
        pt = (factor * 1e150 * b, None) if m is None else (1.0, factor * 1e150 * m)
        pts = ((0.5, None if m is None else 0.0), pt)
        if accepted:
            grid = ThermalGrid(pts)
            weight = ProbabilityWeight(grid.to_space(), np.array([0.5, 0.5]))
            assert all(np.isfinite(v) for mv in weight.moments().values() for v in mv)
        else:
            with pytest.raises(ValueError, match=r"beyond the bound 1e\+150"):
                ThermalGrid(pts)

    def test_boltzmann_weights_underflow_without_warning(self):
        # beta (E - E_0) = 1e310 overflows to inf: its weight is exp(-inf) = 0,
        # exactly; the suite turns a RuntimeWarning into a failure
        sys = HamiltonianSystem(np.diag([0.0, 1.0, 1e10]))
        assert np.array_equal(gibbs_state(sys, 1e300).density, np.diag([1.0, 0.0, 0.0]))
        (block,) = build_thermal_channel(sys, beta_grid([1e-300, 1e150])).spectra
        assert np.array_equal(block.weights[1], [1.0, 0.0, 0.0])

    def test_non_finite_beta_grid_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            beta_grid([1.0, np.nan])

    def test_positive_beta_required(self):
        with pytest.raises(ValueError):
            beta_grid([1.0, -0.5])

    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            beta_grid([1.0, 1.0])

    def test_mixed_mu_rejected(self):
        with pytest.raises(ValueError):
            ThermalGrid(((1.0, 0.5), (2.0, None)))

    def test_space_coordinates(self):
        grid = ThermalGrid(((1.0, 0.0), (2.0, 0.5)))
        space = grid.to_space()
        assert space.coord_names == ("beta", "mu")
        assert space.size == 2


class TestGibbsState:
    def test_zero_hamiltonian_maximally_mixed(self):
        st = gibbs_state(HamiltonianSystem(np.zeros((3, 3))), 1.0)
        assert np.allclose(st.density, np.eye(3) / 3)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_qubit_closed_form(self, beta):
        st = gibbs_state(two_level_system(), beta)
        assert np.trace(st.density @ SZ).real == pytest.approx(
            -np.tanh(beta), abs=1e-12)

    def test_large_beta_ground_state(self):
        st = gibbs_state(two_level_system(), 50.0)
        ground = np.zeros((2, 2)); ground[1, 1] = 1.0
        fidelity = np.trace(st.density @ ground).real
        assert fidelity >= 1 - 1e-10

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            gibbs_state(two_level_system(), 0.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    @pytest.mark.parametrize("func", [gibbs_state, log_partition])
    def test_non_finite_beta_rejected(self, func, beta):
        with pytest.raises(ValueError, match="inverse temperature must be finite"):
            func(two_level_system(), beta)

    def test_log_partition_needs_positive_beta(self):
        with pytest.raises(ValueError, match="must be positive"):
            log_partition(two_level_system(), -1.0)

    def test_non_finite_mu_rejected(self):
        sys = HamiltonianSystem(SZ, number=np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="chemical potential must be finite"):
            gibbs_state(sys, 1.0, mu=np.nan)

    def test_kms_identity_random_hamiltonians(self, rng):
        for d in (2, 5, 16):
            h = la.random_hermitian(rng, d)
            h /= np.linalg.norm(h, 2)
            sys = HamiltonianSystem(h)
            res = kms_residual(gibbs_state(sys, 1.3), sys, 1.3)
            assert res <= 1e-8

    def test_kms_wide_spectrum_stays_finite(self):
        # beta * spread = 800: exp(+beta H) would overflow
        sys = HamiltonianSystem(np.diag([0.0, 1.0, 2.0, 800.0]).astype(complex))
        with np.errstate(over="raise", invalid="raise"):
            res = kms_residual(gibbs_state(sys, 1.0), sys, 1.0)
        assert np.isfinite(res) and res <= 1e-12

    def test_kms_detects_coherent_state(self):
        plus = State(np.full((2, 2), 0.5, dtype=complex))
        assert kms_residual(plus, HamiltonianSystem(SZ), 1.0) > 1e-3

    def test_kms_matches_matrix_unit_loop(self, rng):
        # oracle: every pair of matrix units E_ij, E_kl of the eigenbasis,
        # with E_i >= E_j so that no factor exceeds 1
        h = la.random_hermitian(rng, 4)
        sys = HamiltonianSystem(h)
        evals, vecs = np.linalg.eigh(h)
        for beta in (0.4, 1.7):
            for state in (gibbs_state(sys, beta), gibbs_state(sys, 2 * beta),
                          vector_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))):
                r = vecs.conj().T @ state.density @ vecs
                loop = 0.0
                for i, j, k, l in itertools.product(range(4), repeat=4):
                    if evals[i] >= evals[j]:
                        lhs = (j == k) * r[l, i]
                        rhs = (l == i) * r[j, k] * np.exp(-beta * (evals[i] - evals[j]))
                        loop = max(loop, abs(lhs - rhs))
                assert kms_residual(state, sys, beta) == pytest.approx(loop, abs=1e-14)
        assert kms_residual(gibbs_state(sys, 0.4), sys, 0.4) <= 1e-14
        assert kms_residual(gibbs_state(sys, 0.8), sys, 0.4) > 1e-3

    def test_kms_reads_a_coherence(self):
        # the Gibbs diagonal with a coherence c between the levels: the
        # diagonal satisfies KMS and the residual is c
        sys = HamiltonianSystem(SZ)
        for c in (1e-9, 1e-3):
            rho = gibbs_state(sys, 1.0).density + c * SX
            assert kms_residual(State(rho), sys, 1.0) == pytest.approx(c, rel=1e-6)

    def test_kms_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            kms_residual(State(np.eye(3) / 3), HamiltonianSystem(SZ), 1.0)

    def test_kms_non_finite_is_never_a_pass(self):
        nan = State(np.full((2, 2), np.nan, dtype=complex))
        assert kms_residual(nan, HamiltonianSystem(SZ), 1.0) == np.inf

    def test_chemical_potential_shifts_weights(self):
        sys = HamiltonianSystem(SZ, number=np.diag([1.0, 0.0]).astype(complex))
        neutral = gibbs_state(sys, 1.0, mu=0.0)
        shifted = gibbs_state(sys, 1.0, mu=2.0)
        assert shifted.density[0, 0].real > neutral.density[0, 0].real


class TestCachedSpectrum:
    """One eigendecomposition per (system, mu), shared by every Gibbs quantity."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(1)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def mu_system():
        return HamiltonianSystem(np.diag([0.0, 1.0, 2.5]).astype(complex),
                                 number=np.diag([0.0, 1.0, 2.0]).astype(complex))

    MU_GRID = ThermalGrid(((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.3), (1.0, 0.3)))

    def test_channel_diagonalises_once_per_mu(self, eigh_calls):
        sys = self.mu_system()
        channel = build_thermal_channel(sys, self.MU_GRID)
        assert len(eigh_calls) == 2  # two distinct mu
        # one fibre per point, bit for bit its Gibbs state
        for (beta, mu), fibre in zip(self.MU_GRID.points, channel.fibre_states):
            direct = gibbs_state(sys, beta, mu)
            assert np.array_equal(fibre.density, direct.density)
            assert fibre.label == direct.label
        assert len(eigh_calls) == 2

    def test_fibres_equal_direct_diagonalisation(self, rng):
        # bit for bit the per-point formula exp(-beta (e - e_min)) / Z
        h = la.random_hermitian(rng, 6)
        sys = HamiltonianSystem(h)
        grid = beta_grid([0.1, 0.7, 2.0, 9.0])
        channel = build_thermal_channel(sys, grid)
        for (beta, _), rho in zip(grid.points, channel.densities()):
            evals, vecs = np.linalg.eigh(la.as_complex_matrix(h))
            w = np.exp(-beta * (evals - evals.min()))
            w /= w.sum()
            assert np.array_equal(rho, (vecs * w) @ la.dagger(vecs))

    def test_kms_residual_diagonalises_once(self, eigh_calls):
        sys = self.mu_system()
        for beta in (0.5, 1.0, 2.0):
            assert kms_residual(gibbs_state(sys, beta, 0.3), sys, beta, mu=0.3) <= 1e-10
        assert len(eigh_calls) == 1

    def test_entropy_density_diagonalises_once_per_mu(self, eigh_calls):
        s = entropy_density(self.mu_system(), self.MU_GRID)
        assert len(eigh_calls) == 2
        assert np.all(np.isfinite(s)) and np.all(s > 0)


def real_system(kind: str, with_number: bool):
    """A real H on C^6, diagonal or rotated by a seeded orthogonal matrix,
    with a real commuting N if ``with_number``; and a grid to match."""
    rng = np.random.default_rng(11)
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 3.0, 5))])
    number = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    q = np.eye(6) if kind == "diagonal" else np.linalg.qr(rng.standard_normal((6, 6)))[0]
    h = (q * energies) @ q.T
    n = (q * number) @ q.T if with_number else None
    betas = (0.3, 1.0, 2.5, 7.0)
    grid = (ThermalGrid(tuple((b, mu) for b in betas for mu in (0.0, 0.45)))
            if with_number else beta_grid(betas))
    return HamiltonianSystem(h, number=n), grid


def complex_reference(sys: HamiltonianSystem, beta: float, mu):
    """The Gibbs density and eigenbasis from a complex eigh of H - mu N."""
    evals, vecs = np.linalg.eigh(sys.effective_hamiltonian(mu).astype(complex))
    w = np.exp(-beta * (evals - evals.min()))
    return (vecs * (w / w.sum())) @ vecs.conj().T, evals, vecs


def kms_reference(rho, evals, vecs, beta):
    """The KMS residual of ``rho`` in a given complex eigenbasis."""
    r = vecs.conj().T @ rho @ vecs
    gap = np.subtract.outer(evals, evals)
    down = gap >= 0
    diag = np.diag(r)
    return max(np.abs(r - np.diag(diag)).max(),
               np.abs(diag[:, None] - np.exp(-beta * gap) * diag[None, :])[down].max())


class TestRealHamiltonians:
    """A real H - mu N is diagonalised in real arithmetic; the states agree
    with a complex diagonalisation to rounding."""

    CASES = [("diagonal", False), ("diagonal", True),
             ("rotated", False), ("rotated", True)]

    @pytest.mark.parametrize("kind, with_number", CASES)
    def test_spectrum_is_real(self, kind, with_number):
        sys, grid = real_system(kind, with_number)
        for _, mu in grid.points:
            evals, vecs = sys._spectrum(mu)
            assert evals.dtype == np.float64 and vecs.dtype == np.float64

    @pytest.mark.parametrize("kind, with_number", CASES)
    def test_fibres_are_gibbs_states_bit_for_bit(self, kind, with_number):
        sys, grid = real_system(kind, with_number)
        channel = build_thermal_channel(sys, grid)
        assert channel.densities().dtype == np.float64
        for (beta, mu), fibre in zip(grid.points, channel.fibre_states):
            assert np.array_equal(fibre.density, gibbs_state(sys, beta, mu).density)

    @pytest.mark.parametrize("kind, with_number", CASES)
    def test_agrees_with_complex_diagonalisation(self, kind, with_number):
        sys, grid = real_system(kind, with_number)
        rng = np.random.default_rng(5)
        coherent = vector_state(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        for beta, mu in grid.points:
            ref, evals, vecs = complex_reference(sys, beta, mu)
            state = gibbs_state(sys, beta, mu)
            assert np.abs(state.density - ref).max() <= 1e-13
            for probe in (state, coherent):
                expected = kms_reference(probe.density, evals, vecs, beta)
                assert abs(kms_residual(probe, sys, beta, mu) - expected) <= 1e-13

    @pytest.mark.parametrize("where", ["hamiltonian", "number"])
    def test_imaginary_entry_keeps_complex_vectors(self, where):
        # one imaginary pair in H, or in an N that acts inside a degenerate
        # eigenspace of a real H, makes H - mu N complex
        if where == "hamiltonian":
            h = real_system("rotated", False)[0].hamiltonian.copy()
            h[1, 4] += 1e-3j
            h[4, 1] -= 1e-3j
            sys, mu = HamiltonianSystem(h), None
        else:
            n = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
            n[1, 2], n[2, 1] = 0.3j, -0.3j
            sys, mu = HamiltonianSystem(np.diag([0.0, 1.5, 1.5, 2.0]), number=n), 0.45
        evals, vecs = sys._spectrum(mu)
        assert evals.dtype == np.float64 and vecs.dtype == np.complex128
        ref, _, _ = complex_reference(sys, 1.0, mu)
        assert np.abs(gibbs_state(sys, 1.0, mu).density - ref).max() <= 1e-13


class TestThermalFunctions:
    def test_unit_observable_is_one(self):
        vals = thermal_function(two_level_system(), two_level_grid(), I2)
        assert np.allclose(vals, 1.0)

    def test_sz_matches_tanh(self):
        vals = thermal_function(two_level_system(), two_level_grid(), SZ)
        assert np.allclose(vals, -np.tanh([0.5, 1.0, 2.0]), atol=1e-12)

    def test_internal_energy_monotone_decreasing(self):
        grid = beta_grid(np.linspace(0.2, 3.0, 12))
        vals = thermal_function(two_level_system(), grid, SZ)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] > -1.0

    def test_duality_identity(self, rng):
        # omega_rho(A) = rho(Xi(A)) for random weights and observables
        sys = two_level_system()
        grid = two_level_grid()
        channel = build_thermal_channel(sys, grid)
        for _ in range(100):
            w = ProbabilityWeight(channel.space, rng.dirichlet(np.ones(3)))
            a = la.random_hermitian(rng, 2)
            lhs = np.trace(apply_cq(channel, w).density @ a).real
            rhs = float(w.weights @ thermal_function(sys, grid, a))
            assert abs(lhs - rhs) <= 1e-12

    def test_positive_unital_for_every_grid(self):
        for sys, grid in [
            (two_level_system(), two_level_grid()),
            (moment_system(), moment_grid()),
        ]:
            channel = build_thermal_channel(sys, grid)
            alg = full_matrix_algebra(sys.dim)
            report = verify_positive_unital(
                evaluation_matrix(channel.densities(), alg), alg)
            assert report.passed

    def test_entropy_matches_von_neumann(self):
        grid = two_level_grid()
        s = entropy_density(two_level_system(), grid)
        for (beta, _), sval in zip(grid.points, s):
            rho = gibbs_state(two_level_system(), beta).density
            evals = np.linalg.eigvalsh(rho)
            vn = -(evals * np.log(evals)).sum()
            assert sval == pytest.approx(vn, abs=1e-12)


class TestHierarchy:
    def test_nesting_validation(self):
        good = two_level_hierarchy()
        good.validate_nesting()
        bad = ObservableHierarchy((
            ("fine", (("x", SX),)),
            ("coarse", (("z", SZ),)),
        ))
        with pytest.raises(ValueError):
            bad.validate_nesting()

    def test_nesting_accepts_combination_of_finer_probes(self, rng):
        fine = [la.random_hermitian(rng, 3) for _ in range(3)]
        coarse = 0.3 * fine[0] - 1.2 * fine[1] + 2.0 * fine[2]
        hier = ObservableHierarchy((
            ("coarse", (("c", coarse),)),
            ("fine", tuple((f"f{i}", m) for i, m in enumerate(fine))),
        ))
        hier.validate_nesting()

    def test_nesting_rejects_small_deviation(self, rng):
        fine = [la.random_hermitian(rng, 3) for _ in range(3)]
        off = la.random_hermitian(rng, 3)
        coarse = 0.3 * fine[0] - 1.2 * fine[1] + 2.0 * fine[2]
        coarse = coarse + 1e-6 * off / la.hs_norm(off)
        hier = ObservableHierarchy((
            ("coarse", (("c", coarse),)),
            ("fine", tuple((f"f{i}", m) for i, m in enumerate(fine))),
        ))
        with pytest.raises(ValueError, match="not within level 'fine'"):
            hier.validate_nesting()

    def test_on_grid_data_accepted(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        measured = two_level_measured(beta=1.0)
        level = two_level_hierarchy().levels[1][1]
        verdict = s_thermal_check(measured, level, channel, tol=1e-8)
        assert verdict.accepted
        assert verdict.residual <= 1e-10

    def test_out_of_hull_rejected(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        verdict = s_thermal_check({"energy": 2.0}, (("energy", SZ),),
                                  channel, tol=1e-6)
        assert not verdict.accepted
        assert verdict.residual >= 1.0

    def test_normalization_only_flagged_non_unique(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        verdict = s_thermal_check({"unit": 1.0}, (("unit", I2),), channel,
                                  tol=1e-8)
        assert verdict.accepted
        assert not verdict.unique
        assert verdict.nullspace_dim == 2

    def test_missing_probe_value_raises(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        with pytest.raises(KeyError):
            s_thermal_check({}, (("energy", SZ),), channel)

    def test_empty_hierarchy(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        report = hierarchy_report({}, ObservableHierarchy(()), channel)
        assert report.verdicts == ()
        assert report.max_accepted_level is None

    def test_exact_gibbs_accepted_at_all_levels(self):
        channel = build_thermal_channel(moment_system(), moment_grid())
        report = hierarchy_report(moment_measured(), moment_hierarchy(),
                                  channel, tol=1e-8)
        assert all(v.accepted for v in report.verdicts)
        assert report.max_accepted_level == "occupations"
        assert report.residual_monotone

    def test_perturbed_fine_probe_rejected_at_fine_level(self):
        channel = build_thermal_channel(moment_system(), moment_grid())
        measured = dict(moment_measured())
        measured["occ11"] += 0.1
        report = hierarchy_report(measured, moment_hierarchy(), channel,
                                  tol=1e-6)
        accepted = {v.level: v.accepted for v in report.verdicts}
        assert accepted["mean-energy"]
        assert not accepted["occupations"]
        assert report.max_accepted_level == "mean-energy"
        assert report.residual_monotone

    def test_weight_moments_reported(self):
        channel = build_thermal_channel(moment_system(), moment_grid())
        verdict = s_thermal_check(
            moment_measured(), moment_hierarchy().levels[1][1], channel,
            tol=1e-8)
        assert "beta" in verdict.moments
        mean, var = verdict.moments["beta"]
        truth = moment_true_weights().moments()["beta"]
        assert mean == pytest.approx(truth[0], abs=1e-6)
        assert var == pytest.approx(truth[1], abs=1e-6)


def gibbs_mixture_case(seed: int):
    """32 levels on [0, 10], 50 betas on [0.05, 5], 20 occupation probes and
    an exact mixture of three Gibbs states, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n, g, p = 32, 50, 20
    energies = np.sort(rng.uniform(0, 10, n))
    energies[0] = 0.0
    betas = np.geomspace(0.05, 5, g)
    levels = sorted(rng.choice(n, p, replace=False))
    weights = np.zeros(g)
    weights[rng.choice(g, 3, replace=False)] = rng.dirichlet(np.ones(3))
    pops = np.exp(-np.outer(betas, energies))
    pops /= pops.sum(axis=1, keepdims=True)
    state = weights @ pops
    probes = []
    for k in levels:
        occ = np.zeros((n, n), dtype=complex)
        occ[k, k] = 1.0
        probes.append((f"occ{k}", occ))
    measured = {f"occ{k}": float(state[k]) for k in levels}
    sys = HamiltonianSystem(np.diag(energies).astype(complex))
    return measured, probes, build_thermal_channel(sys, beta_grid(betas))


class TestIllConditionedGibbsMixtures:
    """Exact mixtures whose design is too ill-conditioned for normal equations."""

    @pytest.mark.parametrize("seed", [3, 6])
    def test_exact_mixture_accepted(self, seed):
        measured, probes, channel = gibbs_mixture_case(seed)
        verdict = s_thermal_check(measured, probes, channel, tol=1e-8)
        assert verdict.accepted
        assert verdict.residual <= 1e-10


def nested_occupations(seed: int, mu: bool = False, inverted: bool = False):
    """A rotated system, a grid wider than the coarse levels, nested
    occupation levels and the populations of a three-point Gibbs mixture
    (end for end if ``inverted``), all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n, g = int(rng.integers(4, 11)), int(rng.integers(6, 25))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 4.0, n - 1))])
    number = rng.integers(0, 3, n).astype(float)
    sys = HamiltonianSystem((v * energies) @ la.dagger(v),
                            number=(v * number) @ la.dagger(v) if mu else None)
    betas = np.geomspace(0.05, 10.0, g) * np.exp(rng.uniform(-0.05, 0.05, g))
    grid = (ThermalGrid(tuple((b, (0.0, 0.4)[i % 2]) for i, b in enumerate(betas)))
            if mu else beta_grid(betas))
    channel = build_thermal_channel(sys, grid)
    order = rng.permutation(n)
    sizes = sorted({1, 2, *rng.integers(2, n, 2).tolist(), n})
    hier = ObservableHierarchy(tuple(
        (f"L{s}", tuple((f"occ{k}", _occupation(n, k)) for k in order[:s]))
        for s in sizes))
    weights = np.zeros(g)
    weights[rng.choice(g, 3, replace=False)] = rng.dirichlet(np.ones(3))
    pops = np.tensordot(weights, channel.densities(), axes=1).diagonal().real
    if inverted:
        pops = pops[::-1]
    return {f"occ{k}": float(p) for k, p in enumerate(pops)}, hier, channel


def _occupation(n: int, k: int) -> np.ndarray:
    p = np.zeros((n, n), dtype=complex)
    p[k, k] = 1.0
    return p


def same_verdict_fields(v):
    """The fields a level's verdict shares with its own solve, sigma_min as bits."""
    return (v.level, v.accepted, v.unique, v.rank, v.nullspace_dim, v.converged,
            v.tolerance, float(v.sigma_min).hex())


class TestSharedDesign:
    """One design matrix per hierarchy; each level inverts on its own rows."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mu", [False, True])
    @pytest.mark.parametrize("inverted", [False, True])
    def test_report_equals_per_level_checks(self, seed, mu, inverted):
        # a level's solve continues from the coarser level's, so the optimum
        # it reaches agrees with the level's own solve to rounding; where the
        # level is rank-deficient it may be another optimum with the same fit
        measured, hier, channel = nested_occupations(seed, mu, inverted)
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        for v, (name, probes) in zip(report.verdicts, hier.levels):
            alone = s_thermal_check(measured, probes, channel, tol=1e-8, level_name=name)
            assert same_verdict_fields(v) == same_verdict_fields(alone)
            assert abs(v.residual - alone.residual) <= 1e-14
            m = design_matrix(channel, [p for _, p in probes])
            w, w_alone = v.weight_estimate.weights, alone.weight_estimate.weights
            assert np.abs(m @ w - m @ w_alone).max() <= 1e-14
            if v.unique:
                assert np.abs(w - w_alone).max() <= 1e-12
        assert not report.verdicts[0].unique  # the coarse levels are rank-deficient
        if inverted:
            assert not report.verdicts[-1].accepted
        else:
            assert all(v.accepted for v in report.verdicts)

    def test_dense_probes_agree_to_rounding(self, rng):
        # dense probes: the shared rows and a level's own rows may differ in
        # the last bit (the BLAS sums each block in its own order)
        sys = HamiltonianSystem(la.random_hermitian(rng, 5))
        channel = build_thermal_channel(sys, beta_grid(np.geomspace(0.1, 5.0, 8)))
        probes = [(f"p{i}", la.random_hermitian(rng, 5)) for i in range(6)]
        hier = ObservableHierarchy(tuple((f"L{s}", tuple(probes[:s])) for s in (1, 3, 6)))
        mix = channel.densities().mean(axis=0)
        measured = {name: float(np.trace(m @ mix).real) for name, m in probes}
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        for v, (name, level) in zip(report.verdicts, hier.levels):
            alone = s_thermal_check(measured, level, channel, tol=1e-8, level_name=name)
            assert (v.accepted, v.unique, v.rank) == (alone.accepted, alone.unique, alone.rank)
            assert v.accepted and v.residual <= 1e-12 and alone.residual <= 1e-12

    def test_one_design_matrix_per_report(self, monkeypatch):
        calls = []
        original = thermal.design_matrix

        def counted(channel, probes):
            calls.append(len(list(probes)))
            return original(channel, probes)

        monkeypatch.setattr(thermal, "design_matrix", counted)
        measured, hier, channel = nested_occupations(0)
        hierarchy_report(measured, hier, channel)
        assert calls == [len(hier.levels[-1][1])]  # the distinct probes, once

    def test_missing_value_error_unchanged(self):
        measured, hier, channel = nested_occupations(1)
        name = hier.levels[2][1][-1][0]
        del measured[name]
        with pytest.raises(KeyError) as alone:
            for _, probes in hier.levels:
                s_thermal_check(measured, probes, channel)
        with pytest.raises(KeyError) as shared:
            hierarchy_report(measured, hier, channel)
        assert str(shared.value) == str(alone.value)
        assert name in str(shared.value)

    def test_empty_level_rejected(self):
        channel = build_thermal_channel(two_level_system(), two_level_grid())
        hier = ObservableHierarchy((("unit", (("unit", I2),)), ("none", ())))
        with pytest.raises(ValueError, match="at least one probe"):
            hierarchy_report({"unit": 1.0}, hier, channel)


class TestLevelStarts:
    """Each level's solve continues from the coarser level's raw solution."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["reversed", "disjoint", "shuffled"])
    def test_any_level_order_reaches_each_levels_optimum(self, seed, order):
        # a start from a level that is not nested in this one is still a
        # feasible point: each level reaches its own optimum
        measured, hier, channel = nested_occupations(seed, inverted=bool(seed % 2))
        probes = hier.levels[-1][1]
        if order == "reversed":
            levels = hier.levels[::-1]
        elif order == "disjoint":
            levels = tuple((f"D{i}", probes[i::3]) for i in range(3))
        else:
            rng = np.random.default_rng(seed)
            levels = tuple(
                (f"R{i}", tuple(probes[k] for k in rng.choice(len(probes), size, replace=False)))
                for i, size in enumerate(rng.integers(1, len(probes) + 1, 4)))
        report = hierarchy_report(measured, ObservableHierarchy(levels), channel, tol=1e-8)
        for v, (name, level) in zip(report.verdicts, levels):
            alone = s_thermal_check(measured, level, channel, tol=1e-8, level_name=name)
            assert same_verdict_fields(v) == same_verdict_fields(alone)
            assert abs(v.residual - alone.residual) <= 1e-14
            assert v.kkt_residual <= 1e-12

    def test_nested_levels_save_solves(self):
        # exact mixtures of three Gibbs states on a 12-point grid, levels of
        # 12, 14 and 16 of the 16 occupations (every level unique): 37
        # least-squares solves over the four reports against 71 level by level
        warm, cold = [], []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n, g = 16, 12
            energies = np.concatenate([[0.0], np.geomspace(0.05, n, n - 1)])
            channel = build_thermal_channel(HamiltonianSystem(np.diag(energies).astype(complex)),
                                            beta_grid(np.geomspace(0.05, 20.0, g)))
            order = rng.permutation(n)
            hier = ObservableHierarchy(tuple(
                (f"L{s}", tuple((f"occ{k}", _occupation(n, k)) for k in order[:s]))
                for s in (12, 14, 16)))
            weights = np.zeros(g)
            weights[rng.choice(g, 3, replace=False)] = rng.dirichlet(np.ones(3))
            # the mixture summed in complex arithmetic, as when the pinned
            # counts were taken: a real sum moves the data's last bits
            pops = np.tensordot(weights, channel.densities().astype(complex),
                                axes=1).diagonal().real
            measured = {f"occ{k}": float(p) for k, p in enumerate(pops)}
            report = hierarchy_report(measured, hier, channel, tol=1e-8)
            assert all(v.accepted and v.unique for v in report.verdicts)
            warm.append([v.iterations for v in report.verdicts])
            cold.append([s_thermal_check(measured, probes, channel, tol=1e-8).iterations
                         for _, probes in hier.levels])
        assert warm == [[4, 3, 1], [7, 2, 1], [7, 2, 1], [6, 2, 1]]
        assert cold == [[4, 6, 6], [7, 7, 4], [7, 6, 6], [6, 6, 6]]


class TestProbeNames:
    def test_one_name_two_matrices_rejected(self):
        with pytest.raises(ValueError, match="'z' names two different matrices"):
            ObservableHierarchy((("a", (("z", SZ),)), ("b", (("z", SX), ("u", I2)))))

    def test_equal_copies_and_shared_arrays_accepted(self):
        hier = ObservableHierarchy((("a", (("z", SZ),)),
                                    ("b", (("z", SZ.copy()), ("u", I2))),
                                    ("c", (("z", SZ), ("u", I2)))))
        assert hier.n_levels == 3


class TestNonFiniteProbes:
    """A NaN, infinite or overflowing probe is an input error, raised at once."""

    SYSTEM = HamiltonianSystem(np.diag([0.0, 1.0, 2.0]).astype(complex))
    BETAS = (0.5, 1.0, 2.0)

    @pytest.mark.parametrize("entry, message", [
        (np.inf, "non-finite"), (np.nan, "non-finite"), (1e308, "overflowed")])
    def test_hierarchy_report(self, entry, message):
        channel = build_thermal_channel(self.SYSTEM, beta_grid(self.BETAS))
        probe = np.diag([1.0, entry, 0.0]).astype(complex)
        unit = np.eye(3, dtype=complex)
        hier = ObservableHierarchy((("unit", (("unit", unit),)),
                                    ("probe", (("unit", unit), ("p", probe)))))
        measured = {"unit": 1.0, "p": 0.5}
        with pytest.raises(ValueError, match=message):
            hierarchy_report(measured, hier, channel)
        with pytest.raises(ValueError, match=message):
            s_thermal_check(measured, hier.levels[1][1], channel)
        with pytest.raises(ValueError, match=message):
            invert_cq(channel, [unit, probe], np.array([1.0, 0.5]))

    def test_every_decade_reports_or_raises_without_warning(self):
        # an overflow inside the solve is the "overflowed" ValueError; the
        # pytest configuration turns any RuntimeWarning into a failure
        channel = build_thermal_channel(self.SYSTEM, beta_grid(self.BETAS))
        unit = np.eye(3, dtype=complex)
        for k in range(309):
            probe = np.diag([1.0, 10.0 ** k, 0.0]).astype(complex)
            try:
                result = invert_cq(channel, [unit, probe], np.array([1.0, 0.5]))
            except ValueError as err:
                assert "the inversion overflowed" in str(err)
            else:
                assert np.isfinite(result.residual)

    def test_nesting_check_rejects_nan(self):
        unit = np.eye(3, dtype=complex)
        probe = np.diag([1.0, np.nan, 0.0]).astype(complex)
        hier = ObservableHierarchy((("p", (("p", probe),)),
                                    ("all", (("unit", unit), ("p", probe)))))
        with pytest.raises(ValueError, match="probe 'p' of level 'p' has non-finite"):
            hier.validate_nesting()

    def test_nesting_check_rejects_mixed_shapes(self):
        # a 1 x 4 probe among 2 x 2 ones; the span check would stack them
        flat = np.array([[1.0, 0.0, 0.0, -1.0]], dtype=complex)
        hier = ObservableHierarchy((("unit", (("unit", I2),)),
                                    ("energy", (("unit", I2), ("energy", flat)))))
        with pytest.raises(ValueError, match=re.escape(
                "probe 'energy' of level 'energy' has shape (1, 4), but probe 'unit' has (2, 2)")):
            hier.validate_nesting()


class TestBatchedChannel:
    def test_fibres_are_read_only_views_of_the_stack(self, rng):
        sys = HamiltonianSystem(la.random_hermitian(rng, 4))
        channel = build_thermal_channel(sys, beta_grid([0.3, 1.0, 4.0]))
        stack = channel.densities()
        assert stack is channel.densities() and not stack.flags.writeable
        for i, fibre in enumerate(channel.fibre_states):
            assert np.shares_memory(fibre.density, stack[i])
            assert not fibre.density.flags.writeable

    def test_thermal_path_leaves_scipy_unloaded(self):
        code = (
            "import sys, numpy as np\n"
            "from sectorlab import thermal, channels\n"
            "sys_ = thermal.HamiltonianSystem(np.diag([0.0, 1.0, 2.0]).astype(complex))\n"
            "ch = thermal.build_thermal_channel(sys_, thermal.beta_grid([0.5, 1.0, 2.0]))\n"
            "occ = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]\n"
            "h = thermal.ObservableHierarchy((('a', (('o0', occ[0]),)),"
            " ('b', tuple((f'o{k}', occ[k]) for k in range(3)))))\n"
            "data = {f'o{k}': 1 / 3 for k in range(3)}\n"
            "thermal.hierarchy_report(data, h, ch)\n"
            "channels.invert_cq(ch, occ, np.full(3, 1 / 3))\n"
            "print('scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestFloatStack:
    """The density stack is float64 when every mu's H - mu N is real, and
    complex otherwise; fibre states are built only when read."""

    @pytest.mark.parametrize("kind", ["diagonal", "rotated"])
    def test_real_h_minus_mu_n_gives_a_float_stack(self, kind):
        for with_number in (False, True):
            sys, grid = real_system(kind, with_number)
            if with_number:
                assert {mu for _, mu in grid.points} == {0.0, 0.45}
            assert build_thermal_channel(sys, grid).densities().dtype == np.float64

    def test_imaginary_entry_gives_a_complex_stack(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        h[0, 2], h[2, 0] = 0.25j, -0.25j
        channel = build_thermal_channel(HamiltonianSystem(h), beta_grid([0.5, 2.0]))
        assert channel.densities().dtype == np.complex128

    def test_one_complex_mu_block_makes_the_stack_complex(self):
        # H - mu N = (1 - mu) sigma_y is real (zero) at mu = 1 only
        sy = np.array([[0, -1j], [1j, 0]])
        sys = HamiltonianSystem(sy, number=sy)
        grid = ThermalGrid(((0.5, 0.0), (2.0, 0.0), (0.5, 1.0)))
        channel = build_thermal_channel(sys, grid)
        assert channel.densities().dtype == np.complex128
        for (beta, mu), fibre in zip(grid.points, channel.fibre_states):
            assert np.array_equal(fibre.density, gibbs_state(sys, beta, mu).density)

    def test_report_builds_no_state(self, monkeypatch):
        made = []
        original = State.__post_init__

        def counted(state):
            made.append(state.label)
            original(state)

        monkeypatch.setattr(State, "__post_init__", counted)
        sys, grid = real_system("rotated", with_number=True)
        channel = build_thermal_channel(sys, grid)
        rng = np.random.default_rng(5)
        probes = [(f"p{i}", la.random_hermitian(rng, sys.dim)) for i in range(4)]
        hier = ObservableHierarchy((("coarse", tuple(probes[:2])), ("fine", tuple(probes))))
        mix = channel.densities().mean(axis=0)
        measured = {name: float(np.trace(m @ mix).real) for name, m in probes}
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        assert report.max_accepted_level == "fine"
        assert made == []
        fibres = channel.fibre_states
        assert len(made) == grid.size and channel.fibre_states is fibres
        for (beta, mu), fibre in zip(grid.points, fibres):
            direct = gibbs_state(sys, beta, mu)
            assert np.array_equal(fibre.density, direct.density)
            assert fibre.label == direct.label
            assert not fibre.density.flags.writeable



def eigenbasis_system(d: int, complex_basis: bool, with_number: bool, seed: int):
    """H = V diag(e) V* on C^d, with N = V diag(n) V* when ``with_number``,
    for a seeded random V, real orthogonal or complex unitary."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    if complex_basis:
        a = a + 1j * rng.standard_normal((d, d))
    v = np.linalg.qr(a)[0]
    h = (v * rng.uniform(-2.0, 3.0, d)) @ v.conj().T
    n = (v * rng.integers(0, 4, d)) @ v.conj().T if with_number else None
    return HamiltonianSystem((h + h.conj().T) / 2,
                             number=None if n is None else (n + n.conj().T) / 2)


class TestFactorisedDesign:
    """A Gibbs channel's design rows come from its spectral data,
    W Re diag(V* P V), and the criterion path forms no density."""

    BETAS = (0.05, 0.4, 1.3, 6.0)

    @pytest.mark.parametrize("complex_basis", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("with_number", [False, True], ids=["one-mu", "two-mu"])
    def test_rows_match_the_stack_route(self, complex_basis, with_number):
        # the same fibres held as states take the stack route; the rows
        # agree to d eps |P|_F (a Gibbs fibre has |F|_F <= 1)
        eps = np.finfo(float).eps
        for d in range(1, 33):
            sys = eigenbasis_system(d, complex_basis, with_number, seed=d)
            grid = (ThermalGrid(tuple((b, mu) for b in self.BETAS for mu in (0.0, 0.7)))
                    if with_number else beta_grid(self.BETAS))
            channel = build_thermal_channel(sys, grid)
            assert len(channel.spectra) == (2 if with_number else 1)
            # a 1 x 1 Hermitian H - mu N is real
            real = d == 1 or not complex_basis
            assert {b.vectors.dtype for b in channel.spectra} == {
                np.dtype(float if real else complex)}
            rng = np.random.default_rng(1000 + d)
            probes = [10.0 ** k * la.random_hermitian(rng, d) for k in (-3, 0, 4)]
            probes.append(probes[1].T)  # a view that is not C-contiguous
            stacked = ClassicalQuantumChannel(channel.space, channel.fibre_states)
            assert stacked.spectra is None
            got = design_matrix(channel, probes)
            reference = design_matrix(stacked, probes)
            norms = np.linalg.norm(probes, axis=(1, 2))
            assert np.all(np.abs(got - reference) <= d * eps * norms[:, None]), d

    @pytest.mark.parametrize("complex_basis", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("with_number", [False, True], ids=["one-mu", "two-mu"])
    def test_mixture_matches_the_stack_route(self, complex_basis, with_number):
        # apply_cq sums V diag(rho^T W) V* over the blocks and forms no
        # fibre; the stack's mixture agrees to d eps (each |F|_F <= 1)
        eps = np.finfo(float).eps
        for d in range(1, 33):
            sys = eigenbasis_system(d, complex_basis, with_number, seed=d)
            grid = (ThermalGrid(tuple((b, mu) for b in self.BETAS for mu in (0.0, 0.7)))
                    if with_number else beta_grid(self.BETAS))
            channel = build_thermal_channel(sys, grid)
            rho = ProbabilityWeight(channel.space,
                                    np.random.default_rng(d).dirichlet(np.ones(grid.size)))
            got = apply_cq(channel, rho).density
            assert channel._densities is None and channel._fibre_states is None
            reference = np.tensordot(rho.weights, channel.densities(), axes=(0, 0))
            assert np.abs(got - reference).max() <= d * eps, d

    def test_criterion_path_forms_no_density(self, monkeypatch):
        def refused(self):
            raise AssertionError("densities() read on the criterion path")

        monkeypatch.setattr(ClassicalQuantumChannel, "densities", refused)
        sys = eigenbasis_system(6, True, True, seed=3)
        grid = ThermalGrid(tuple((b, mu) for b in self.BETAS for mu in (0.0, 0.7)))
        channel = build_thermal_channel(sys, grid)
        rng = np.random.default_rng(4)
        probes = [(f"p{i}", la.random_hermitian(rng, 6)) for i in range(5)]
        hier = ObservableHierarchy((("coarse", tuple(probes[:2])), ("fine", tuple(probes))))
        weights = rng.dirichlet(np.ones(grid.size))
        mix = sum(w * gibbs_state(sys, b, mu).density
                  for w, (b, mu) in zip(weights, grid.points))
        measured = {name: float(np.trace(m @ mix).real) for name, m in probes}
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        assert report.max_accepted_level == "fine"
        mats = [m for _, m in probes]
        data = np.array([measured[name] for name, _ in probes])
        assert invert_cq(channel, mats, data).residual <= 1e-8
        assert s_thermal_check(measured, hier.levels[1][1], channel, tol=1e-8).accepted
        assert channel._densities is None and channel._fibre_states is None

    @pytest.mark.parametrize("c", [10.0 ** k for k in range(-9, 13)])
    def test_shift_and_scale_leave_the_design_the_same(self, c):
        # H + c 1 has the same Gibbs states; so has c H at beta / c
        for sys, grid, probes in [
                (two_level_system(), two_level_grid(), two_level_hierarchy().levels[-1][1]),
                (moment_system(), moment_grid(), moment_probes())]:
            mats = [m for _, m in probes]
            design = design_matrix(build_thermal_channel(sys, grid), mats)
            shifted = HamiltonianSystem(sys.hamiltonian + c * np.eye(sys.dim))
            scaled = HamiltonianSystem(c * sys.hamiltonian)
            slow = beta_grid([b / c for b, _ in grid.points])
            for other in (design_matrix(build_thermal_channel(shifted, grid), mats),
                          design_matrix(build_thermal_channel(scaled, slow), mats)):
                assert np.abs(other - design).max() <= np.finfo(float).eps

    def test_non_finite_probe_gives_a_nan_row_without_warning(self):
        # the configuration turns a RuntimeWarning into a failure
        channel = build_thermal_channel(eigenbasis_system(3, False, False, seed=1),
                                        beta_grid(self.BETAS))
        stacked = ClassicalQuantumChannel(channel.space, channel.fibre_states)
        unit = np.eye(3, dtype=complex)
        for entry in (np.inf, -np.inf, np.nan):
            probe = np.diag([1.0, entry, 0.0]).astype(complex)
            for ch in (channel, stacked):
                m = design_matrix(ch, [unit, probe])
                assert np.all(np.isnan(m[1]))
                assert np.allclose(m[0], 1.0, rtol=0, atol=1e-14)

    def test_read_stack_is_built_in_place(self):
        # d = 32, 50 points: the stack (400 KB) and one d x d buffer, no
        # batched temporary the size of the stack
        sys = eigenbasis_system(32, False, False, seed=2)
        grid = beta_grid(np.geomspace(0.05, 20.0, 50))
        channel = build_thermal_channel(sys, grid)
        stack, peak = peak_mb(channel.densities)
        assert stack.shape == (50, 32, 32) and stack.dtype == np.float64
        assert peak < (stack.nbytes + 4 * 32 * 32 * 8) / 2 ** 20
        for (beta, _), rho in zip(grid.points[::7], stack[::7]):
            assert np.array_equal(rho.astype(complex), gibbs_state(sys, beta).density)
