import subprocess
import sys
import types

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import thermal
from sectorlab.algebra import full_matrix_algebra
from sectorlab.channels import (
    ProbabilityWeight,
    apply_cq,
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

from conftest import SX, SZ, I2


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
            res = kms_residual(HamiltonianSystem(h), 1.3, n_samples=10)
            assert res <= 1e-8

    def test_kms_wide_spectrum_stays_finite(self):
        # beta * spread = 800: exp(+beta H) would overflow
        sys = HamiltonianSystem(np.diag([0.0, 1.0, 2.0, 800.0]).astype(complex))
        with np.errstate(over="raise", invalid="raise"):
            res = kms_residual(sys, 1.0)
        assert np.isfinite(res) and res <= 1e-12

    def test_kms_detects_coherent_state(self, monkeypatch):
        plus = np.full((2, 2), 0.5, dtype=complex)
        monkeypatch.setattr(thermal, "gibbs_state",
                            lambda *a: types.SimpleNamespace(density=plus))
        assert kms_residual(HamiltonianSystem(SZ), 1.0) > 1e-3

    def test_kms_non_finite_is_never_a_pass(self, monkeypatch):
        nan = np.full((2, 2), np.nan, dtype=complex)
        monkeypatch.setattr(thermal, "gibbs_state",
                            lambda *a: types.SimpleNamespace(density=nan))
        assert kms_residual(HamiltonianSystem(SZ), 1.0) == np.inf

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
            assert kms_residual(sys, beta, mu=0.3, n_samples=3) <= 1e-10
        assert len(eigh_calls) == 1

    def test_entropy_density_diagonalises_once_per_mu(self, eigh_calls):
        s = entropy_density(self.mu_system(), self.MU_GRID)
        assert len(eigh_calls) == 2
        assert np.all(np.isfinite(s)) and np.all(s > 0)


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


def verdict_bytes(v):
    """Every field of a verdict, floats and weights as their exact bytes."""
    return (v.level, v.accepted, v.weight_estimate.weights.tobytes(),
            float(v.residual).hex(), v.tolerance, v.unique, v.rank,
            float(v.sigma_min).hex(), v.nullspace_dim,
            [(k, float(m).hex(), float(s).hex()) for k, (m, s) in v.moments.items()],
            v.iterations, float(v.kkt_residual).hex(), v.converged)


class TestSharedDesign:
    """One design matrix per hierarchy; each level inverts on its own rows."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mu", [False, True])
    @pytest.mark.parametrize("inverted", [False, True])
    def test_report_equals_per_level_checks(self, seed, mu, inverted):
        measured, hier, channel = nested_occupations(seed, mu, inverted)
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        alone = [s_thermal_check(measured, probes, channel, tol=1e-8, level_name=name)
                 for name, probes in hier.levels]
        assert [verdict_bytes(v) for v in report.verdicts] == [verdict_bytes(v) for v in alone]
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
