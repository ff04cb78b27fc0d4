"""Every rank, null, grouping and linkage cut of ``_linalg``, just inside and outside.

Each test puts one input 1 % on either side of a cut, written out as a
number, so a change that moves a cut fails here instead of silently
changing a dimension.
"""

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab import channels
from sectorlab.config import DEFAULT_SEED, rng_from_seed

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
    assert la.nullspace(a).shape[0] == 2 - rank
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
        sep = channels._separation(m, 2)
        assert sep.rank == np.linalg.matrix_rank(np.vstack([m, np.ones(2)]))
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
