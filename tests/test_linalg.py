"""Every cut of ``_linalg`` and ``config``, just inside and outside.

Each test puts one input 1 % on either side of a cut, written out as a
number, so a change that moves a cut fails here instead of silently
changing a dimension or a verdict.  A scan of the package's source keeps
every cut in those two modules.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import channels
from sectorlab.config import DEFAULT_SEED, rng_from_seed

from conftest import nullspace

INSIDE, OUTSIDE = 0.99, 1.01


def _commutant_coefficients(k):
    """The seeded coefficients of the generic element in ``commutant_basis``."""
    rng = rng_from_seed(DEFAULT_SEED)
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


@pytest.mark.parametrize("smax", [1.0, 0.5, 4.0])
@pytest.mark.parametrize("factor, rank", [(INSIDE, 1), (OUTSIDE, 2)])
def test_span_rank_cut(smax, factor, rank):
    # singular values above 1e-9 * max(sigma_max, 1) span
    small = factor * 1e-9 * max(smax, 1.0)
    a = np.diag([smax, small]).astype(complex)
    assert la.row_space(a).shape[0] == rank
    assert nullspace(a).shape[0] == 2 - rank
    mats = np.array([np.diag([smax, 0.0]), np.diag([0.0, small])], dtype=complex)
    assert la.orthonormalize_mats(mats).shape[0] == rank


@pytest.mark.parametrize("factor, dim", [(INSIDE, 4), (OUTSIDE, 2)])
def test_refined_null_cut(factor, dim):
    # X = Re(c1) 1 is degenerate (c2 K is anti-Hermitian), so the whole
    # 2 x 2 block is unknown; K's commutator has singular value t on the
    # off-diagonal units, far under the Gram's resolution, and the null
    # space is cut at 1e-9 * max(sigma_max, 1) on recomputed commutators.
    # GRAM_WINDOW only selects the candidates (here all four unknowns), so
    # it has no test
    c = _commutant_coefficients(2)
    t = factor * 1e-9
    k = 1j * abs(c[1]) / c[1] * np.diag([t / 2, -t / 2])
    assert la.commutant_basis([np.eye(2, dtype=complex), k], 2).shape[0] == dim


@pytest.mark.parametrize("factor, dim", [(INSIDE, 4), (OUTSIDE, 2)])
def test_commutant_merge_gap(factor, dim):
    # GROUPING_GAP in the commutant solve, which merges instead of raising.
    # X = diag(s, s + Re c2 eps) with s = 0.01 Re c1: merged, the
    # off-diagonal units are unknowns whose commutator eps (about 1e-10)
    # is below the span cut; split, they are not solved for
    c = _commutant_coefficients(2)
    eps = factor * 1e-8 * 0.01 * abs(c[0].real) / abs(c[1].real)
    mats = [0.01 * np.eye(2, dtype=complex), np.diag([0.0, eps]).astype(complex)]
    assert la.commutant_basis(mats, 2).shape[0] == dim


@pytest.mark.parametrize("factor, leaders", [(INSIDE, [0, 1, -1]), (OUTSIDE, [0, 0, -1])])
def test_copy_linkage_cut(factor, leaders):
    # copies 0 and 1 are joined by t^2 against a total squared norm of
    # 2 + 2 t^2: linked above 1e-12 of it; copy 2, where the element
    # vanishes, is outside the algebra
    t = factor * 1e-6 * np.sqrt(2)
    ey = np.array([[1.0, t, 0.0], [t, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    assert la.copy_leaders(ey, np.array([0, 1, 2, 3])).tolist() == leaders


@pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("factor", [INSIDE, OUTSIDE])
def test_grouping_gap(scale, factor):
    # sorted eigenvalues more than 1e-8 * max|eigenvalue| apart split; a gap
    # inside that and above the ambiguity floor raises, at every scale
    vals = scale * np.array([-1.0, 0.0, factor * 1e-8])
    if factor == OUTSIDE:
        assert [g.tolist() for g in la.group_eigenvalues(vals)] == [[0], [1], [2]]
    else:
        with pytest.raises(la.EigenvalueGapError):
            la.group_eigenvalues(vals)


def test_ambiguity_floor():
    # differences up to 1e-12 * max|eigenvalue| are ties, at every scale
    for scale in (0.25, 1.0, 4.0):
        inside = scale * np.array([0.0, INSIDE * 1e-12, 1.0])
        groups = la.group_eigenvalues(inside)
        assert [g.tolist() for g in groups] == [[0, 1], [2]]
        with pytest.raises(la.EigenvalueGapError):
            la.group_eigenvalues(scale * np.array([0.0, OUTSIDE * 1e-12, 1.0]))


@pytest.mark.parametrize("value", [2.5, 0.0])
def test_equal_spectrum_is_one_group(value):
    groups = la.group_eigenvalues(np.full(4, value))
    assert [g.tolist() for g in groups] == [[0, 1, 2, 3]]


@pytest.mark.parametrize("shape", [(3, 2), (2, 5)])
@pytest.mark.parametrize("factor, rank", [(INSIDE, 1), (OUTSIDE, 2)])
def test_eps_rank(shape, factor, rank):
    # numpy's rule: above max(shape) * eps * sigma_max
    smax = 3.0
    s = np.array([smax, factor * max(shape) * np.finfo(float).eps * smax])
    assert la.eps_rank(s, shape) == rank


def test_separation_rank_is_numpys_rule():
    # [m; 1 1] = [[0, k eps], [1, 1]]: sigma_min crosses the cut near k = 4
    ranks = set()
    for k in range(1, 9):
        m = np.array([[0.0, k * np.finfo(float).eps]])
        aug = np.vstack([m, np.ones(2)])
        sep = channels._separation(aug, 2)[0]
        assert sep.rank == np.linalg.matrix_rank(aug)
        ranks.add(sep.rank)
    assert ranks == {1, 2}


@pytest.mark.parametrize("factor, weights", [(INSIDE, [0.5, 0.0]), (OUTSIDE, [0.0, 1.0])])
def test_nnls_dependence_cut(factor, weights):
    # after column 0 enters, column 1's part outside its span is eta against
    # 1 inside: a dependent column is refused, an independent one replaces
    # column 0 (it fits c = (1, 1) better)
    eta = factor * 100 * np.finfo(float).eps
    a = np.array([[2.0, 1.0], [0.0, eta]])
    x, _, converged = channels._nnls(a, np.array([1.0, 1.0]))
    assert converged
    assert np.allclose(x, weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("factor, solves", [(INSIDE, 1), (OUTSIDE, 2)])
def test_nnls_residual_floor(factor, solves):
    # a wide system (no solve on all columns): after column 0 enters, x =
    # (1, 0, 0) and the residual is eta, against 16 eps (||c|| + ||a||_F ||x||)
    # = 16 eps (1 + sqrt 2); at or under it the run stops, above it column 1
    # enters too
    eta = factor * 16 * np.finfo(float).eps * (1 + np.sqrt(2))
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    x, iters, converged = channels._nnls(a, np.array([1.0, eta]))
    assert converged and iters == solves
    assert x.tolist() == [1.0, 0.0 if solves == 1 else eta, 0.0]


@pytest.mark.parametrize("floor", [np.inf, np.nan])
def test_nnls_floor_that_is_not_finite_stops_nothing(monkeypatch, floor):
    # the run of test_nnls_residual_floor inside the floor, with the floor
    # not finite: it runs on as with no floor at all
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    c = np.array([1.0, 0.5 * 16 * np.finfo(float).eps])
    monkeypatch.setattr(la, "RESIDUAL_FLOOR", 0.0)
    unfloored = channels._nnls(a, c)
    monkeypatch.setattr(la, "RESIDUAL_FLOOR", floor)
    x, iters, converged = channels._nnls(a, c)
    assert converged and iters == unfloored[1] == 2
    assert x.tobytes() == unfloored[0].tobytes()
    assert channels._residual_floor(1.0, np.inf, np.ones(2)) == -np.inf


@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_morphism_cut(factor, accepted):
    # psi = (X + eps Z) (x) 1 on a 2-site Z2 chain leaves span{U(h)} by 2 eps
    # (HS / sqrt(d)), and psi = sqrt(1 + t) 1 misses unitality by t sqrt(d);
    # both are cut at 1e-9 (1e-9 * d for unitality), on the region's factor
    # in validate and on the bare multiplet in k_map
    from sectorlab.dhrnet import localized_morphism
    from sectorlab.models import z2_chain_net, z2_vacuum
    from sectorlab.sectors import k_map

    net, vac = z2_chain_net(2), z2_vacuum(2)
    sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    eps, t = factor * 1e-9 / 2, factor * 1e-9 * 2
    for name, region, f in (("x", [0], sx + eps * sz),
                            ("unit", [0, 1], np.sqrt(1 + t) * np.eye(4))):
        morph = localized_morphism(net, region, [f], name)
        verdicts = set()
        for check in (morph.validate,
                      lambda: k_map(np.eye(4), vac, [morph.multiplet], rep=net.global_rep)):
            try:
                check()
                verdicts.add(True)
            except ValueError:
                verdicts.add(False)
        assert verdicts == {accepted}, name


def test_no_literal_cuts_outside_linalg_and_config():
    # a float literal below 1e-6 is a cut, and so is a multiple of machine
    # epsilon (finfo, as in RESIDUAL_FLOOR and DEPENDENCE_CUT); they belong
    # with the named ones
    package = Path(__file__).resolve().parents[1] / "src" / "sectorlab"
    hits = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("_linalg.py", "config.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6)
        or (isinstance(node, (ast.Attribute, ast.Name))
            and getattr(node, "attr", getattr(node, "id", None)) in ("finfo", "_EPS"))
    ]
    assert not hits, f"{len(hits)} literal cuts: {hits}"


def _verdict(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_unitary_tol(factor, accepted):
    # ||X - Y||_F <= 1e-10 * d: sqrt(1 + t) times a unitary misses unitarity
    # by t ||1||_F = t sqrt(d), and a phase e^{i theta} X with X^2 = 1 misses
    # the relation X^2 = 1 by |e^{2 i theta} - 1| sqrt(d) = 2 sin(theta) sqrt(d)
    from sectorlab.algebra import OperatorAlgebra
    from sectorlab.cuntz import gauge_act, parse_expression
    from sectorlab.groups import UnitaryRep, cyclic_group, cyclic_rep_from_unitary

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for d in (2, 4):
        t = factor * 1e-10 * np.sqrt(d)
        eye = np.eye(d, dtype=complex)
        assert la.relation_holds((1 + t) * eye, eye) is accepted
        w = np.sqrt(1 + t) * eye
        assert _verdict(OperatorAlgebra.from_blocks(w, [(d, 1)]).validate) is accepted
        x = np.kron(sx, np.eye(d // 2))
        bad_unitary = UnitaryRep(cyclic_group(2), [eye, np.sqrt(1 + t) * x])
        phased = np.exp(1j * np.arcsin(t / 2)) * x
        bad_relation = UnitaryRep(cyclic_group(2), [eye, phased])
        assert _verdict(bad_unitary.validate) is accepted
        assert _verdict(bad_relation.validate) is accepted
        assert _verdict(lambda: cyclic_rep_from_unitary(phased, 2)) is accepted
        if d == 2:
            assert _verdict(lambda: gauge_act(w, parse_expression("s1", 2))) is accepted


def test_unitary_tol_is_frobenius():
    # np.allclose's default rtol let W = sqrt(1 + 5e-6) 1 pass at d = 4
    from sectorlab.algebra import OperatorAlgebra

    w = np.sqrt(1 + 5e-6) * np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="not a d x d unitary"):
        OperatorAlgebra.from_blocks(w, [(4, 1)]).validate()


def test_relations_reject_nan():
    from sectorlab.groups import UnitaryRep, cyclic_group, cyclic_rep_from_unitary

    bad = np.array([[0.0, np.nan], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryRep(cyclic_group(2), [np.eye(2), bad]).validate()
    with pytest.raises(ValueError, match="does not satisfy"):
        cyclic_rep_from_unitary(bad, 2)


def test_near_fails_an_overflowing_norm():
    # ||x - x*|| and ||x|| both overflow for a lone 1e308 off the diagonal;
    # a Hermitian x whose norm overflows cannot be told apart and fails too
    # (warnings are errors in this suite, so the verdict comes without one)
    lone = np.array([[0.0, 1e308], [0.0, 0.0]], dtype=complex)
    assert not la.near(lone, la.dagger(lone), 1e-10)
    big = np.full((2, 2), 1e308, dtype=complex)
    assert not la.near(big, big, 1e-10)
    assert not la.near(np.zeros((2, 2)), np.zeros((2, 2)), 1e-10, ref=big)
    assert la.near(np.eye(2) * 1e150, np.eye(2) * 1e150, 1e-10)


@pytest.mark.parametrize("scale", [0.25, 4.0])
@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_operator_tol(scale, factor, accepted):
    # ||x - y||_F <= 1e-10 * max(1, ||ref||) for H = scale diag(0, 2): an
    # entry e at (0, 1) alone is off Hermiticity by e sqrt(2) (for N = 1 +
    # e E_01, with ||N|| about sqrt(2)), and N = 1 + e (E_01 + E_10) fails to
    # commute with H by 2 sqrt(2) e scale
    from sectorlab.thermal import HamiltonianSystem

    cut = factor * 1e-10 * max(1.0, 2 * scale)
    h = scale * np.diag([0.0, 2.0]).astype(complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert _verdict(lambda: HamiltonianSystem(h + cut / np.sqrt(2) * skew)) is accepted
    n = np.eye(2) + factor * 1e-10 * skew
    assert _verdict(lambda: HamiltonianSystem(h, n)) is accepted
    flip = skew + skew.T
    assert _verdict(lambda: HamiltonianSystem(h, np.eye(2) + cut / (2 * np.sqrt(2) * scale)
                                              * flip)) is accepted


@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_state_tol(factor, accepted):
    # Hermiticity to 1e-10 * max(1, ||rho||), and a vacuum vector's norm
    # within 1e-10 of 1
    from sectorlab.algebra import State
    from sectorlab.dhrnet import identity_morphism
    from sectorlab.models import z2_chain_net
    from sectorlab.sectors import induce_charged_state

    e = factor * 1e-10 / np.sqrt(2)
    rho = np.array([[0.5, e], [0.0, 0.5]], dtype=complex)
    assert _verdict(State(rho).validate) is accepted
    net = z2_chain_net(2)
    nu = channels.ProbabilityWeight(channels.ClassifyingSpace(("id",)), np.ones(1))
    vac = (1 + factor * 1e-10) * np.eye(4)[0]
    mults = {"id": identity_morphism(net, "id").multiplet}
    assert _verdict(lambda: induce_charged_state(nu, mults, vac, net.global_rep)) is accepted


@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_weight_tols(factor, accepted):
    # entries >= -1e-12 and a sum within 1e-10 of 1, both absolute
    space = channels.ClassifyingSpace(("a", "b"))
    for w in ([1.0, -factor * 1e-12], [0.5, 0.5 + factor * 1e-10]):
        assert _verdict(lambda: channels.ProbabilityWeight(space, np.array(w))) is accepted


@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_membership_cut(factor, accepted):
    # ||m - P m|| <= 1e-9 * max(1, ||m||): 1 + e Z is off the scalars by
    # e sqrt(2) with ||m|| about sqrt(2); 1 + e X (x) 1 is off the Z (x) Z
    # invariant observables by 2 e with ||a|| about 2; diag(1, e) is off the
    # span of diag(1, 0) by e with ||m|| about 1
    from sectorlab.algebra import scalar_algebra
    from sectorlab.dhrnet import apply_morphism, identity_morphism
    from sectorlab.models import z2_chain_net
    from sectorlab.thermal import ObservableHierarchy

    e = factor * 1e-9
    z = np.diag([1.0, -1.0]).astype(complex)
    assert scalar_algebra(2).contains(np.eye(2) + e * z) is accepted
    morph = identity_morphism(z2_chain_net(2))
    a = np.eye(4) + e * np.kron([[0, 1], [1, 0]], np.eye(2))
    assert _verdict(lambda: apply_morphism(morph, a)) is accepted
    hier = ObservableHierarchy((("coarse", (("m", np.diag([1.0, e])),)),
                                ("fine", (("p", np.diag([1.0, 0.0])),))))
    assert _verdict(hier.validate_nesting) is accepted


@pytest.mark.parametrize("factor, passed", [(INSIDE, True), (OUTSIDE, False)])
def test_positive_unital_cut(factor, passed):
    # a row on B(C^2)'s units E_00, E_01, E_10, E_11: phi(1) is the sum of
    # the diagonal entries and the margin their least value
    from sectorlab.algebra import full_matrix_algebra

    e = factor * 1e-9
    alg = full_matrix_algebra(2)
    assert channels.verify_positive_unital(np.array([[0.5 + e, 0, 0, 0.5]]), alg).passed is passed
    assert channels.verify_positive_unital(np.array([[1 + e, 0, 0, -e]]), alg).passed is passed


@pytest.mark.parametrize("factor, real", [(INSIDE, True), (OUTSIDE, False)])
def test_hermitian_cut(factor, real):
    # diag(0, 1) + e E_01 is off Hermiticity by e sqrt(2), cut at 1e-12
    from sectorlab.thermal import HamiltonianSystem, beta_grid, thermal_function

    a = np.array([[0.0, factor * 1e-12 / np.sqrt(2)], [0.0, 1.0]], dtype=complex)
    vals = thermal_function(HamiltonianSystem(np.diag([0.0, 1.0])), beta_grid([1.0]), a)
    assert np.isrealobj(vals) is real


@pytest.mark.parametrize("factor, weights", [(INSIDE, [2 / 3, 1 / 3, 0.0]),
                                             (OUTSIDE, [5 / 6, 0.0, 1 / 6])])
def test_tie_slack(factor, weights):
    # probe values (0, 1, 2) and data 1/3 - 2 delta: the minimum-norm fit
    # is (2/3 + delta, 1/3, -delta), taken (and clipped) when -delta >= -1e-12;
    # otherwise the NNLS vertex stays
    delta = factor * 1e-12
    space = channels.ClassifyingSpace(("a", "b", "c"))
    result = channels._invert(np.array([[0.0, 1.0, 2.0]]), np.array([1 / 3 - 2 * delta]),
                              space)[0]
    assert not result.unique
    assert np.allclose(result.weight.weights, weights, rtol=0, atol=1e-9)


@pytest.mark.parametrize("factor, monotone", [(INSIDE, True), (OUTSIDE, False)])
def test_monotone_slack(factor, monotone):
    # the coarse probe's value lies delta above its largest thermal value,
    # so its residual is delta, against 0 at the consistent fine level
    from sectorlab.thermal import (HamiltonianSystem, ObservableHierarchy, beta_grid,
                                   build_thermal_channel, hierarchy_report, thermal_function)

    sys_, grid = HamiltonianSystem(np.diag([0.0, 1.0])), beta_grid([0.5, 1.0])
    a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    hier = ObservableHierarchy((("coarse", (("c", a),)), ("fine", (("a", a), ("b", b)))))
    vals = thermal_function(sys_, grid, a)
    measured = {"c": vals.max() + factor * 1e-12, "a": vals[1], "b": 1 - vals[1]}
    report = hierarchy_report(measured, hier, build_thermal_channel(sys_, grid))
    assert report.residual_monotone is monotone


@pytest.mark.parametrize("scale", [0.25, 4.0])
@pytest.mark.parametrize("factor, accepted", [(INSIDE, True), (OUTSIDE, False)])
def test_operator_tol_in_sector_energies(scale, factor, accepted):
    # sigma_z splits C^2 into two one-dimensional sectors; for H =
    # scale diag(0, 2), an entry e at (0, 1) alone is off Hermiticity by
    # e sqrt(2), and e at (0, 1) and (1, 0) mixes the sectors by e sqrt(2),
    # each against 1e-10 * max(1, ||H||)
    from sectorlab.algebra import full_matrix_algebra
    from sectorlab.groups import cyclic_rep_from_unitary
    from sectorlab.sectors import decompose_sectors, sector_energies

    decomp = decompose_sectors(full_matrix_algebra(2),
                               cyclic_rep_from_unitary(np.diag([1.0, -1.0]), 2))
    cut = factor * 1e-10 * max(1.0, 2 * scale)
    h = scale * np.diag([0.0, 2.0]).astype(complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert _verdict(lambda: sector_energies(decomp, h + cut / np.sqrt(2) * skew)) is accepted
    flip = skew + skew.T
    assert _verdict(lambda: sector_energies(decomp, h + cut / np.sqrt(2) * flip)) is accepted
