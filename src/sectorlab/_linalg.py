"""Dense linear algebra helpers shared by the algebra/group/channel modules.

Matrices are numpy ``complex128`` arrays.  Subspaces of d x d matrices are
represented by stacked arrays of shape (k, d, d) whose slices are
orthonormal under the trace inner product <A, B> = tr(A* B).

This module makes every rank, null, eigenvalue-grouping and copy-linkage
decision of the package, at the fixed cuts below or by numpy's eps rule
(:func:`eps_rank`), and fixes the cuts of the verdicts the criteria report
(partial multiplets, positive unital maps, real thermal functions, the
inversion's tie-break, monotone residuals); no caller sets any of them.
Input checks use the cuts of :mod:`sectorlab.config`.  Three comparisons
that several checks share live here: :func:`relation_holds` (unitarity,
group relations), :func:`near` (Hermiticity, commutation) and
:func:`in_span` (membership).
Eigenvalues are grouped by one rule on one scale, relative to the largest
|eigenvalue|.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_SEED, UNITARY_TOL, rng_from_seed
from .errors import EigenvalueGapError

#: singular values above SPAN_RANK_CUT * max(sigma_max, 1) span; also the
#: relative residual of span membership
SPAN_RANK_CUT = 1e-9
#: a generic element links two copies of an algebra's block when the squared
#: norm of its part between them is above GRAM_NULL_CUT times its own
GRAM_NULL_CUT = 1e-12
#: commutant Gram eigenvalues <= GRAM_WINDOW * max(lambda_max, 1) are the
#: candidates whose recomputed commutators are cut at SPAN_RANK_CUT
GRAM_WINDOW = 1e-6
#: sorted eigenvalues more than GROUPING_GAP * max|eigenvalue| apart are in
#: different groups (eigenspaces, sectors, blocks of the commutant solve)
GROUPING_GAP = 1e-8
#: eigenvalue differences <= AMBIGUITY_FLOOR * max|eigenvalue| are ties
AMBIGUITY_FLOOR = 1e-12
#: machine epsilon of float64, read once (numpy's eps rule, :func:`eps_rank`)
_EPS = float(np.finfo(float).eps)
#: a vector whose part outside a span is <= DEPENDENCE_CUT times its part
#: inside lies in the span (the column test of Lawson-Hanson NNLS)
DEPENDENCE_CUT = 100 * _EPS
#: a multiplet implements a unital *-endomorphism of a representation's
#: commutant when its unitality defect is <= MORPHISM_CUT * d and its
#: residuals (:func:`~sectorlab.groups.endomorphism_residuals`) are <= MORPHISM_CUT
MORPHISM_CUT = 1e-9
#: a multiplet is partial when either Cuntz-relation defect (Frobenius) is
#: above ISOMETRY_CUT, absolute
ISOMETRY_CUT = 1e-10
#: a map is positive and unital when every phi(1) is within
#: POSITIVE_UNITAL_CUT of 1 and its smallest Hermitian-part eigenvalue is
#: >= -POSITIVE_UNITAL_CUT, both absolute
POSITIVE_UNITAL_CUT = 1e-9
#: a probe's thermal function is real when the probe is Hermitian to
#: HERMITIAN_CUT (:func:`near`, absolute below unit scale)
HERMITIAN_CUT = 1e-12
#: the inversion takes its minimum-norm tie-break when every entry is
#: >= -TIE_SLACK, absolute
TIE_SLACK = 1e-12
#: a hierarchy's residuals are monotone when each is <= the next one plus
#: MONOTONE_SLACK, absolute
MONOTONE_SLACK = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def relation_holds(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether ||x - y||_F <= ``UNITARY_TOL`` * d for d x d matrices: the test
    of unitarity (x = U* U, y = 1) and of a group's relations.  NaN fails."""
    return hs_norm(x - y) <= UNITARY_TOL * x.shape[-1]


def near(x: np.ndarray, y: np.ndarray, cut: float, ref: np.ndarray | None = None) -> bool:
    """Whether ||x - y||_F <= cut * max(1, ||ref||), ``ref`` defaulting to x:
    the test of Hermiticity (y = x*) and commutation.  NaN fails."""
    return hs_norm(x - y) <= cut * max(1.0, hs_norm(x if ref is None else ref))


def in_span(m: np.ndarray, pm: np.ndarray) -> bool:
    """Whether ``m`` lies in a span, given its projection ``pm`` onto it:
    :func:`near` at ``SPAN_RANK_CUT``."""
    return near(m, pm, SPAN_RANK_CUT)


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, broadcast over the leading ones: the
    same products, without np.kron's per-call overhead."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def mats_to_rows(mats: np.ndarray) -> np.ndarray:
    """Flatten a (k, d, d) stack to a (k, d*d) row matrix (row-major vec)."""
    mats = np.asarray(mats, dtype=complex)
    return mats.reshape(mats.shape[0], -1)


def rows_to_mats(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=complex)
    return rows.reshape(rows.shape[0], d, d)


def orthonormalize_mats(mats: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of a (k, d, d) stack, by one SVD.

    The rank is the SVD rank cut of :func:`row_space`.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.size == 0:
        return mats
    return rows_to_mats(row_space(mats_to_rows(mats)), mats.shape[-1])


def project_onto_span(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``m`` onto the span of an orthonormal stack."""
    if basis.shape[0] == 0:
        return np.zeros_like(m)
    return np.tensordot(mats_to_rows(basis).conj() @ m.reshape(-1), basis, axes=(0, 0))


def _svd_rank(s: np.ndarray) -> int:
    """Number of singular values above ``SPAN_RANK_CUT`` * max(sigma_max, 1)."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > SPAN_RANK_CUT * max(smax, 1.0)))


def eps_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of singular values above max(shape) * eps * sigma_max.

    numpy's ``matrix_rank`` rule, for the singular values ``s`` (descending)
    of a matrix of the given shape.
    """
    cutoff = max(shape) * _EPS * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > cutoff))


def row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of ``a``, via SVD."""
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=False)
    return vh[:_svd_rank(s)]


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def group_eigenvalues(vals: np.ndarray):
    """Partition real eigenvalues into clusters, in ascending order.

    With s = max|eigenvalue|, sorted neighbours more than ``GROUPING_GAP`` * s
    apart start a new cluster and those at most ``AMBIGUITY_FLOOR`` * s
    apart are ties.  Returns a list of index arrays.  Raises
    ``EigenvalueGapError`` for a gap between the two: such a spectrum cannot
    be clustered reliably and the caller is expected to retry with a fresh
    random element.
    """
    order = np.argsort(vals)
    sv = vals[order]
    scale = max(abs(sv[0]), abs(sv[-1]))
    diffs = np.diff(sv)
    ambiguous = (diffs > AMBIGUITY_FLOOR * scale) & (diffs <= GROUPING_GAP * scale)
    if ambiguous.any():
        diff = diffs[np.argmax(ambiguous)]
        raise EigenvalueGapError(
            f"eigenvalue gap {diff:.3e} between grouping threshold "
            f"{GROUPING_GAP * scale:.1e} and ambiguity floor "
            f"{AMBIGUITY_FLOOR * scale:.1e}"
        )
    return np.split(order, np.flatnonzero(diffs > GROUPING_GAP * scale) + 1)


def eigenspaces(h: np.ndarray) -> list[np.ndarray]:
    """Orthonormal column blocks of the eigenspaces of a Hermitian ``h``.

    One ``eigh``, grouped by :func:`group_eigenvalues` (whose
    ``EigenvalueGapError`` propagates); blocks in ascending eigenvalue order.
    """
    evals, evecs = np.linalg.eigh(h)
    return [evecs[:, g] for g in group_eigenvalues(evals)]


def copy_leaders(ey: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each copy, the first copy that ``ey`` links to it; -1 for none.

    ``ey`` is a generic element in the basis of the copies, copy j at
    indices ``starts[j]:starts[j + 1]``.  Copies i and j are linked when
    the (i, j) part of ``ey`` has squared Frobenius norm above
    ``GRAM_NULL_CUT`` times that of ``ey`` (1e-6 on the norms): the
    resolution of a commutant solve, so the rounding of an algebra's basis
    computed by one (about eps / SPAN_RANK_CUT at worst) links nothing.  A
    copy not linked even to itself lies outside the algebra.
    """
    sq = np.abs(ey) ** 2
    sq = np.add.reduceat(np.add.reduceat(sq, starts[:-1], axis=0), starts[:-1], axis=1)
    linked = sq > GRAM_NULL_CUT * np.sum(sq)
    return np.where(linked.any(axis=0), np.argmax(linked, axis=0), -1)


def commutant_basis(mats, d: int) -> np.ndarray:
    """Orthonormal basis of {Y : [Y, M] = 0 for every M in ``mats``}.

    A seeded generic Hermitian element X = (Z + Z*)/2, Z a random complex
    combination of ``mats``, satisfies A' <= {X}', so every solution is
    block-diagonal on X's eigenspaces (Murota, Kanno, Kojima & Kojima,
    Japan J. Indust. Appl. Math. 27, 2010).  Eigenvalues at most
    ``GROUPING_GAP`` times the largest |eigenvalue| apart share a block, the
    rule of :func:`group_eigenvalues` without its ambiguity error: merging
    only adds unknowns, so an unlucky X costs time, never correctness.  In
    X's eigenbasis the n = sum m_a^2 block entries are the only unknowns,
    and their Gram matrix G = sum_M L_M* L_M of the commutator maps is
    assembled from the rotated matrices directly.  It resolves singular
    values only to about sqrt(eps) and its entries carry rounding errors of
    eps * lambda_max, so its eigenvectors with eigenvalue <= ``GRAM_WINDOW``
    * max(lambda_max, 1) are only candidates: their commutators are
    recomputed from ``mats`` and their null space is cut at
    ``SPAN_RANK_CUT`` * max(sigma_max, 1), as a span would be, with null
    vectors off by about eps / GRAM_WINDOW.  Placing them into their blocks
    and rotating back is an isometry, so the result is orthonormal as it
    stands.  The recomputation costs (candidates) x len(mats) x d^3; the
    solve is meant for a few matrices of unit scale, such as an orthonormal
    generating set.
    """
    mats = np.asarray(list(mats), dtype=complex)
    rng = rng_from_seed(DEFAULT_SEED)
    coeff = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    z = np.tensordot(coeff, mats, axes=(0, 0))
    evals, q = np.linalg.eigh((z + dagger(z)) / 2)
    scale = max(abs(evals[0]), abs(evals[-1]))
    cuts = np.flatnonzero(np.diff(evals) > GROUPING_GAP * scale) + 1
    blocks = np.split(np.arange(d), cuts)
    # unknown j is the entry Y[row[j], col[j]] of one diagonal block
    row = np.concatenate([np.repeat(c, c.size) for c in blocks])
    col = np.concatenate([np.tile(c, c.size) for c in blocks])
    n, k = row.size, mats.shape[0]
    b = dagger(q) @ mats @ q
    wide = b.transpose(1, 0, 2).reshape(d, k * d)
    tall = b.reshape(k * d, d)
    bbd = wide @ dagger(wide)  # sum_M M M*
    bdb = dagger(tall) @ tall  # sum_M M* M
    gram = ((row[:, None] == row[None, :]) * bbd[col[None, :], col[:, None]]
            + (col[:, None] == col[None, :]) * bdb[row[:, None], row[None, :]])
    # T[i, j] = sum_M M[row_i, row_j] conj(M[col_i, col_j]), in chunks of mats
    t = np.zeros((n, n), dtype=complex)
    step = max(1, (1 << 20) // (n * n))
    for lo in range(0, k, step):
        chunk = b[lo:lo + step]
        t += np.einsum("kij,kij->ij", chunk[:, row[:, None], row[None, :]],
                       chunk[:, col[:, None], col[None, :]].conj())
    gram -= t + dagger(t)
    lam, vecs = np.linalg.eigh(gram)
    floor = max(float(lam[-1]), 1.0)
    null = vecs[:, lam <= GRAM_WINDOW * floor]
    c = null.shape[1]
    cand = np.zeros((c, d, d), dtype=complex)
    cand[:, row, col] = null.T
    step = max(1, (1 << 20) // max(1, c * d * d))

    def comms():  # rows: the candidates; columns: their commutators, chunked
        for lo in range(0, k, step):
            chunk = b[lo:lo + step, None]
            yield (chunk @ cand - cand @ chunk).transpose(1, 0, 2, 3).reshape(c, -1)

    cut = SPAN_RANK_CUT ** 2 * floor
    # when the candidates' commutators together are under the cut, so is each
    if sum(np.vdot(r, r).real for r in comms()) > cut:
        mu, u = np.linalg.eigh(sum(r.conj() @ r.T for r in comms()))
        null = null @ u[:, mu <= cut]
    y = np.zeros((null.shape[1], d, d), dtype=complex)
    y[:, row, col] = null.T
    return q @ y @ dagger(q)
