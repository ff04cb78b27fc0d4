import itertools
import re

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import channels
from sectorlab.algebra import OperatorAlgebra, State, full_matrix_algebra, vector_state
from sectorlab.channels import (
    ClassicalQuantumChannel,
    ClassifyingSpace,
    ProbabilityWeight,
    apply_cq,
    design_matrix,
    evaluation_matrix,
    forward_data,
    invert_cq,
    point_mass,
    separation_check,
    uniform_weight,
    verify_positive_unital,
)
from sectorlab.thermal import (
    HamiltonianSystem,
    ObservableHierarchy,
    beta_grid,
    build_thermal_channel,
    hierarchy_report,
)

from conftest import SZ, I2, peak_mb


def _rotated(evals, seed):
    """V diag(evals) V* for a seeded random unitary V."""
    rng = np.random.default_rng(seed)
    d = len(evals)
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return (v * evals) @ v.conj().T


@pytest.fixture
def two_point_channel():
    space = ClassifyingSpace(("up", "down"))
    return ClassicalQuantumChannel(
        space, (vector_state([1, 0], "up"), vector_state([0, 1], "down"))
    )


def gibbs_channel(betas):
    """Diagonal qubit Gibbs fibres; closed-form tanh oracle applies."""
    fibres = []
    for b in betas:
        p = np.exp(-b) / (np.exp(-b) + np.exp(b))
        fibres.append(State(np.diag([p, 1 - p]), label=f"b={b}"))
    space = ClassifyingSpace(tuple((b,) for b in betas), coord_names=("beta",))
    return ClassicalQuantumChannel(space, tuple(fibres))


class TestSpacesAndWeights:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ClassifyingSpace(("a", "a"))

    def test_weight_validation(self):
        space = ClassifyingSpace(("a", "b"))
        with pytest.raises(ValueError):
            ProbabilityWeight(space, np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            ProbabilityWeight(space, np.array([1.5, -0.5]))

    def test_moments(self):
        space = ClassifyingSpace(((0.5,), (2.0,)), coord_names=("beta",))
        w = ProbabilityWeight(space, np.array([0.5, 0.5]))
        mean, var = w.moments()["beta"]
        assert mean == pytest.approx(1.25)
        assert var == pytest.approx(0.5625)


class TestApplyCq:
    def test_point_mass_returns_fibre(self, two_point_channel):
        ch = two_point_channel
        st = apply_cq(ch, point_mass(ch.space, "down"))
        assert np.allclose(st.density, ch.fibre_states[1].density)

    def test_uniform_mixture_is_maximally_mixed(self, two_point_channel):
        st = apply_cq(two_point_channel, uniform_weight(two_point_channel.space))
        assert np.allclose(st.density, I2 / 2)

    def test_gibbs_mixture_closed_form(self):
        ch = gibbs_channel([0.5, 2.0])
        w = ProbabilityWeight(ch.space, np.array([0.3, 0.7]))
        st = apply_cq(ch, w)
        expected = 0.3 * (-np.tanh(0.5)) + 0.7 * (-np.tanh(2.0))
        assert np.trace(st.density @ SZ).real == pytest.approx(expected, abs=1e-14)

    def test_affine(self, rng, two_point_channel):
        ch = two_point_channel
        for _ in range(20):
            w1 = rng.dirichlet([1, 1])
            w2 = rng.dirichlet([1, 1])
            t = rng.uniform()
            mix = apply_cq(ch, ProbabilityWeight(ch.space, t * w1 + (1 - t) * w2))
            direct = (
                t * apply_cq(ch, ProbabilityWeight(ch.space, w1)).density
                + (1 - t) * apply_cq(ch, ProbabilityWeight(ch.space, w2)).density
            )
            assert np.abs(mix.density - direct).max() <= 1e-12

    def test_space_mismatch(self, two_point_channel):
        other = ProbabilityWeight(ClassifyingSpace(("x", "y")), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            apply_cq(two_point_channel, other)


class TestVerifyPositiveUnital:
    def test_state_evaluation_map_passes(self, two_point_channel):
        alg = full_matrix_algebra(2)
        m = evaluation_matrix(two_point_channel.densities(), alg)
        report = verify_positive_unital(m, alg)
        assert report.passed
        assert report.unitality_residual <= 1e-12
        assert report.positivity_margin >= -1e-12

    def test_traceless_functional_fails_unitality(self):
        alg = full_matrix_algebra(2)
        m = evaluation_matrix([SZ], alg)
        report = verify_positive_unital(m, alg)
        assert not report.passed
        assert report.unitality_residual == pytest.approx(1.0)

    def test_gibbs_grid_channel_passes(self):
        ch = gibbs_channel(np.linspace(0.1, 2.0, 11))
        alg = full_matrix_algebra(2)
        report = verify_positive_unital(evaluation_matrix(ch.densities(), alg), alg)
        assert report.passed

    @pytest.mark.parametrize("kernel", [
        np.diag([1.01, -0.01]), np.diag([1.001, -0.001]),
        _rotated([0.5, 0.3, 0.201, -0.001], seed=0),
    ], ids=["1e-2", "1e-3", "rotated-4x4"])
    def test_one_negative_direction_fails(self, kernel):
        # unital but not positive: random positive samples miss the direction
        alg = full_matrix_algebra(len(kernel))
        report = verify_positive_unital(evaluation_matrix([kernel], alg), alg)
        assert report.unitality_residual <= 1e-12
        assert not report.passed
        assert report.positivity_margin == pytest.approx(
            np.linalg.eigvalsh(kernel).min(), abs=1e-12)

    def test_exact_forms_on_blocks(self, rng):
        # A = V (M_2 (x) 1_3 (+) M_3) V*; phi = tr(K .) on block a's pure
        # state v is v* M_a v, M_a[i, j] = tr(K V_a (E_ji (x) 1_n) V_a*)
        blocks = [(2, 3), (3, 1)]
        v, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        alg = OperatorAlgebra.from_blocks(v, blocks)
        ks = rng.standard_normal((2, 9, 9)) + 1j * rng.standard_normal((2, 9, 9))
        ks /= np.trace(ks, axis1=1, axis2=2)[:, None, None]
        table = evaluation_matrix(ks, alg)
        assert np.abs(table - np.einsum("kij,aji->ka", ks, alg.basis)).max() <= 1e-12
        forms, start = [], 0
        for k, n in blocks:
            va = v[:, start:start + k * n]
            start += k * n
            for kern in ks:
                unit = lambda i, j: np.kron(np.outer(np.eye(k)[j], np.eye(k)[i]), np.eye(n))
                forms.append(np.array([[np.trace(kern @ va @ unit(i, j) @ va.conj().T)
                                        for j in range(k)] for i in range(k)]))
        report = verify_positive_unital(table, alg)
        assert report.unitality_residual <= 1e-12
        assert report.positivity_margin == pytest.approx(
            min(np.linalg.eigvalsh((m + m.conj().T) / 2).min() for m in forms), abs=1e-12)
        assert report.imag_leakage == pytest.approx(
            max(np.abs(np.linalg.eigvalsh((m - m.conj().T) / 2j)).max() for m in forms), abs=1e-12)
        assert not report.passed


class TestSeparation:
    def test_distinct_pure_fibres_separate(self, two_point_channel):
        rep = separation_check(two_point_channel, [SZ])
        assert rep.passed and rep.rank == 2

    def test_identical_fibres_fail(self):
        space = ClassifyingSpace(("a", "b"))
        ch = ClassicalQuantumChannel(
            space, (vector_state([1, 0]), vector_state([1, 0]))
        )
        rep = separation_check(ch, [SZ])
        assert not rep.passed and rep.rank == 1

    def test_insufficient_probes_on_grid(self):
        # qubit Gibbs states span an affine line: 11 labels can never separate
        ch = gibbs_channel(np.linspace(0.1, 2.0, 11))
        probes = [SZ, SZ @ SZ, np.diag([1.0, 0.0])]
        rep = separation_check(ch, probes)
        assert not rep.passed
        assert rep.rank < 11


class TestInvertCq:
    def test_round_trip_recovery(self, rng):
        # twelve-level system with geometric gaps: well-separated design
        energies = np.concatenate([[0.0], 2.0 ** np.arange(11)])
        betas = 4.0 / 2.0 ** np.arange(11)
        fibres = []
        for b in betas:
            w = np.exp(-b * energies)
            fibres.append(State(np.diag(w / w.sum()), label=f"b={b}"))
        space = ClassifyingSpace(tuple((b,) for b in betas), coord_names=("beta",))
        ch = ClassicalQuantumChannel(space, tuple(fibres))
        probes = [np.diag((np.arange(12) == k).astype(complex)) for k in range(12)]
        assert separation_check(ch, probes).passed
        for _ in range(5):
            w0 = ProbabilityWeight(space, rng.dirichlet(np.ones(11)))
            result = invert_cq(ch, probes, forward_data(ch, probes, w0))
            assert result.weight.l1_distance(w0) <= 1e-6
            assert result.residual <= 1e-10
            assert result.kkt_residual <= 1e-10
            assert result.unique

    def test_identity_probe_non_unique(self, two_point_channel):
        result = invert_cq(two_point_channel, [I2], np.array([1.0]))
        assert result.residual <= 1e-12
        assert not result.unique
        assert result.nullspace_dim == 1
        # minimum-norm tie-break lands on the uniform weight
        assert np.allclose(result.weight.weights, [0.5, 0.5])

    def test_infeasible_data_reports_residual(self, two_point_channel):
        result = invert_cq(two_point_channel, [SZ], np.array([-2.0]))
        assert result.residual >= 1.0 - 1e-12
        assert result.weight.weights.min() >= 0.0

    def test_constraints_hold_exactly(self, rng, two_point_channel):
        for _ in range(10):
            data = rng.uniform(-2, 2, size=1)
            result = invert_cq(two_point_channel, [SZ], data)
            w = result.weight.weights
            assert w.min() >= 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_empty_probes_rejected(self, two_point_channel):
        with pytest.raises(ValueError):
            invert_cq(two_point_channel, [], np.array([]))

    def test_design_matrix_values(self, two_point_channel):
        m = design_matrix(two_point_channel, [SZ])
        assert np.allclose(m, [[1.0, -1.0]])

    def test_design_matrix_matches_trace_definition(self, rng):
        # non-Hermitian probes and fibres: the float-view product is exact
        # for any pair, not only for Hermitian ones
        d, p, k = 5, 4, 7
        probes = rng.standard_normal((p, d, d)) + 1j * rng.standard_normal((p, d, d))
        fibres = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        channel = ClassicalQuantumChannel(
            ClassifyingSpace(tuple(range(k))), tuple(State(f) for f in fibres))
        expected = np.einsum("pij,kji->pk", probes, fibres).real
        got = design_matrix(channel, list(probes))
        assert got.shape == (p, k)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), (3, 3), (4,)])
    def test_misshaped_probe_rejected(self, two_point_channel, shape):
        # (4, 1), (1, 4) and (4,) hold d^2 = 4 entries, the fibres' count
        probe = np.ones(shape)
        msg = re.escape(f"probe 1 has shape {shape}, but the fibres are (2, 2)")
        with pytest.raises(ValueError, match=msg):
            design_matrix(two_point_channel, [SZ, probe])
        with pytest.raises(ValueError, match=msg):
            invert_cq(two_point_channel, [SZ, probe], np.array([0.2, 0.1]))

    def test_design_matrix_holds_one_probe_stack(self, rng):
        # 128 probes at d = 128 are one 32 MB complex stack; each probe is
        # transposed into it and conjugated in place, so the peak is about
        # one stack (two when the stack was copied to transpose it)
        d, n = 128, 128
        base = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        probes = [base[j % 4] for j in range(n)]
        fibres = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        channel = ClassicalQuantumChannel.from_densities(
            ClassifyingSpace(("a", "b")), fibres, ["a", "b"])
        m, peak = peak_mb(lambda: design_matrix(channel, probes))
        stack = n * d * d * 16 / 2 ** 20
        assert peak < 1.25 * stack
        expected = np.einsum("pij,kji->pk", base, fibres).real
        assert np.abs(m[:4] - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.array_equal(m[4:8], m[:4])

    def test_densities_built_lazily_and_read_only(self, two_point_channel):
        assert two_point_channel._densities is None  # not built by __init__
        stack = two_point_channel.densities()
        assert stack is two_point_channel.densities()
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0

    def test_non_finite_data_rejected(self, two_point_channel):
        with pytest.raises(ValueError):
            invert_cq(two_point_channel, [SZ], np.array([np.nan]))

    def test_one_design_matrix_per_inversion(self, monkeypatch, two_point_channel):
        # the separation test reuses the inversion's own design matrix
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return design_matrix(*args, **kwargs)

        monkeypatch.setattr(channels, "design_matrix", counted)
        result = invert_cq(two_point_channel, [SZ], np.array([0.2]))
        assert result.unique and result.rank == 2
        assert len(calls) == 1


def simplex_optimum(m, b):
    """Brute-force oracle: least squares on every support of the simplex."""
    best = np.inf
    n = m.shape[1]
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            s = list(support)
            kkt = np.block([[m[:, s].T @ m[:, s], np.ones((k, 1))],
                            [np.ones((1, k)), np.zeros((1, 1))]])
            rhs = np.concatenate([m[:, s].T @ b, [1.0]])
            z = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if z.min() >= -1e-12:
                best = min(best, float(np.linalg.norm(m[:, s] @ z - b)))
    return best


class TestInconsistentData:
    """The reported weight is the simplex optimum, not just a fit of the data."""

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 5, 3
        fibres = [State(np.diag(w), label=str(i))
                  for i, w in enumerate(rng.dirichlet(np.ones(d), size=n))]
        ch = ClassicalQuantumChannel(ClassifyingSpace(tuple(range(n))), fibres)
        probes = [np.diag(rng.standard_normal(d)).astype(complex) for _ in range(3)]
        data = 3.0 * rng.standard_normal(3)
        result = invert_cq(ch, probes, data)
        oracle = simplex_optimum(design_matrix(ch, probes), data)
        assert result.residual == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert result.kkt_residual <= 1e-9
        assert result.converged and result.iterations >= 1


class TestWarmStart:
    """Lawson-Hanson from any feasible start reaches the optimum from x = 0."""

    @staticmethod
    def problem(seed, p):
        """Five diagonal fibres on C^5, ``p`` diagonal probes, inconsistent data."""
        rng = np.random.default_rng(seed)
        n = 5
        fibres = [State(np.diag(w), label=str(i))
                  for i, w in enumerate(rng.dirichlet(np.ones(n), size=n))]
        ch = ClassicalQuantumChannel(ClassifyingSpace(tuple(range(n))), fibres)
        probes = [np.diag(rng.standard_normal(n)).astype(complex) for _ in range(p)]
        return rng, design_matrix(ch, probes), 3.0 * rng.standard_normal(p), ch.space

    @staticmethod
    def system(m, data):
        """The [M - data 1^T; 1^T] system that invert_cq hands to _nnls."""
        a = np.vstack([m - data[:, None], np.ones(m.shape[1])])
        return a, np.concatenate([np.zeros(len(data)), [1.0]])

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["zero", "optimum", "random", "stale"])
    def test_every_start_reaches_the_optimum(self, seed, p, kind):
        # p = 2 and 4 are rank-deficient (a random support may be dependent,
        # and is then refused); p = 6 is unique
        rng, m, data, space = self.problem(seed, p)
        a, c = self.system(m, data)
        cold, cold_iters, _ = channels._nnls(a, c)
        if kind == "zero":
            start = np.zeros(m.shape[1])
        elif kind == "optimum":
            start = cold
        elif kind == "random":
            start = np.zeros(m.shape[1])
            support = rng.choice(m.shape[1], int(rng.integers(1, m.shape[1] + 1)), replace=False)
            start[support] = rng.uniform(0.1, 1.0, len(support))
        else:  # the optimum for other data
            start = channels._nnls(*self.system(m, 3.0 * rng.standard_normal(p)))[0]
        x, iters, converged = channels._nnls(a, c, start)
        assert converged
        assert abs(np.linalg.norm(a @ x - c) - np.linalg.norm(a @ cold - c)) <= 1e-14
        if kind == "zero":
            assert (x.tobytes(), iters) == (cold.tobytes(), cold_iters)
        if kind == "optimum":
            assert iters == 1
            assert np.abs(x - cold).max() <= 1e-14
        result = channels._invert(m, data, space, start)[0]
        assert result.residual == pytest.approx(simplex_optimum(m, data), rel=1e-9, abs=1e-12)
        assert result.kkt_residual <= 1e-9
        assert result.converged

    def test_dependent_support_starts_cold(self):
        # columns 0 and 1 are equal: a start on both costs the refused solve
        # and then runs as from x = 0; a start on the optimum's support
        # {0, 2} costs one solve
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        c = np.array([1.0, 2.0, 3.0])
        cold, cold_iters, _ = channels._nnls(a, c)
        x, iters, converged = channels._nnls(a, c, np.array([0.5, 0.5, 0.0]))
        assert converged and (x.tobytes(), iters) == (cold.tobytes(), cold_iters + 1)
        x, iters, converged = channels._nnls(a, c, np.array([0.5, 0.0, 1.0]))
        assert converged and iters == 1 and np.abs(x - cold).max() <= 1e-14


def lstsq_tie(aug, x):
    """Oracle: numpy's minimum-norm least-squares solution of aug y = aug x."""
    return np.linalg.lstsq(aug, aug @ x, rcond=None)[0]


class TestTieBreak:
    """The tie-break projects the NNLS optimum onto row([M; 1^T])."""

    N_LABELS = 8

    @classmethod
    def design(cls, kind, seed):
        """[M; 1^T] of a seeded channel on 8 labels; never separating.

        ``wide``: 4 random probes on generic qubit-pair fibres (full row
        rank); ``unit``: the unit and two random probes (a probe row equals
        the normalization row); ``duplicates``: two random probes twice and
        a third; ``tall``: 9 diagonal probes on diagonal fibres of C^4, more
        rows than labels but rank 4.
        """
        rng = np.random.default_rng(seed)
        n = cls.N_LABELS
        if kind == "tall":
            fibres = [State(np.diag(w)) for w in rng.dirichlet(np.ones(4), size=n)]
            probes = [np.diag(rng.standard_normal(4)).astype(complex) for _ in range(9)]
        else:
            fibres = [State((a @ la.dagger(a)) / np.trace(a @ la.dagger(a)))
                      for a in rng.standard_normal((n, 4, 4))
                      + 1j * rng.standard_normal((n, 4, 4))]
            rand = [la.random_hermitian(rng, 4) for _ in range(4)]
            probes = {"wide": rand,
                      "unit": [np.eye(4, dtype=complex), *rand[:2]],
                      "duplicates": [rand[0], rand[1], rand[0], rand[1], rand[2]]}[kind]
        ch = ClassicalQuantumChannel(ClassifyingSpace(tuple(range(n))), fibres)
        return channels._augmented(design_matrix(ch, probes))

    @pytest.mark.parametrize("kind, rank", [("wide", 5), ("unit", 3),
                                            ("duplicates", 4), ("tall", 4)])
    @pytest.mark.parametrize("seed", range(5))
    def test_projection_is_the_minimum_norm_solution(self, kind, rank, seed):
        aug = self.design(kind, seed)
        sep, vh = channels._separation(aug, self.N_LABELS)
        assert not sep.passed and sep.rank == rank
        # the rank test keeps its vectors exactly when rows < labels
        assert (vh is None) == (kind == "tall")
        x = np.random.default_rng(100 + seed).uniform(0.0, 1.0, self.N_LABELS)
        tie = channels._tie_break(aug, x, sep.rank, vh)
        assert np.abs(tie - lstsq_tie(aug, x)).max() <= 1e-12
        # same fitted values, to rounding at M's scale
        scale = np.linalg.norm(aug) * np.linalg.norm(x)
        assert np.abs(aug @ tie - aug @ x).max() <= 1e-14 * scale

    @pytest.mark.parametrize("kind", ["wide", "unit", "duplicates", "tall"])
    @pytest.mark.parametrize("seed", range(5))
    def test_inversion_takes_the_oracles_tie(self, kind, seed):
        # data of an interior weight: the NNLS optimum is one of many exact
        # fits, and the reported weight is the oracle's tie when non-negative
        aug = self.design(kind, seed)
        m = aug[:-1]
        rng = np.random.default_rng(200 + seed)
        data = m @ rng.dirichlet(np.ones(self.N_LABELS))
        space = ClassifyingSpace(tuple(range(self.N_LABELS)))
        result, raw = channels._invert(m, data, space)
        oracle = lstsq_tie(aug, raw)
        expected = raw if oracle.min() < -la.TIE_SLACK else np.clip(oracle, 0.0, None)
        assert np.abs(result.weight.weights - expected / expected.sum()).max() <= 1e-12
        assert not result.unique and result.residual <= 1e-12

    def test_a_second_svd_only_for_tall_rank_deficient_designs(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        space = ClassifyingSpace(tuple(range(self.N_LABELS)))
        for kind, expected in [("wide", [True]), ("tall", [False, True])]:
            calls.clear()
            m = self.design(kind, 0)[:-1]
            channels._invert(m, m @ np.full(self.N_LABELS, 1 / self.N_LABELS), space)
            assert calls == expected, kind

    def test_hierarchy_takes_one_svd_per_level_and_no_lstsq(self, monkeypatch):
        # 32 levels, 50 betas, 16 nested occupation levels: every level has
        # fewer rows than labels, so its rank test's SVD is its only one
        rng = np.random.default_rng(7)
        n, g = 32, 50
        energies = np.concatenate([[0.0], np.geomspace(0.05, n, n - 1)])
        channel = build_thermal_channel(HamiltonianSystem(np.diag(energies)),
                                        beta_grid(np.geomspace(0.05, 20.0, g)))
        order = rng.permutation(n)
        occ = {k: np.diag((np.arange(n) == k).astype(float)) for k in range(n)}
        hier = ObservableHierarchy(tuple(
            (f"L{s}", tuple((f"occ{k}", occ[k]) for k in order[:s]))
            for s in range(2, n + 1, 2)))
        pops = channel.densities()[[3, 20, 41]].mean(axis=0).diagonal().real
        measured = {f"occ{k}": float(p) for k, p in enumerate(pops)}
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        report = hierarchy_report(measured, hier, channel, tol=1e-8)
        assert len(report.verdicts) == 16
        assert len(calls) == 16
        assert all(v.accepted and not v.unique for v in report.verdicts)
