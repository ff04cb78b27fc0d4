"""Dense linear algebra helpers shared by the algebra/group/channel modules.

Matrices are numpy ``complex128`` arrays.  Subspaces of d x d matrices are
represented by stacked arrays of shape (k, d, d) whose slices are
orthonormal under the trace inner product <A, B> = tr(A* B).  Every span
is orthonormalised by one SVD, whose rank cut keeps the singular values
above ``tol_rank`` * max(sigma_max, 1) (:func:`row_space`).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace (Hilbert-Schmidt) inner product tr(a* b)."""
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def mats_to_rows(mats: np.ndarray) -> np.ndarray:
    """Flatten a (k, d, d) stack to a (k, d*d) row matrix (row-major vec)."""
    mats = np.asarray(mats, dtype=complex)
    return mats.reshape(mats.shape[0], -1)


def rows_to_mats(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=complex)
    return rows.reshape(rows.shape[0], d, d)


def orthonormalize_mats(mats: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Orthonormal basis of the span of a (k, d, d) stack, by one SVD.

    The rank is the SVD rank cut of :func:`row_space`: singular values
    above ``tol_rank`` * max(sigma_max, 1) are kept.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.size == 0:
        return mats
    return rows_to_mats(row_space(mats_to_rows(mats), tol_rank), mats.shape[-1])


def span_coefficients(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Coefficients of ``m`` against an orthonormal (k, d, d) basis stack."""
    return mats_to_rows(basis).conj() @ m.reshape(-1)


def project_onto_span(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``m`` onto the span of an orthonormal stack."""
    if basis.shape[0] == 0:
        return np.zeros_like(m)
    coeff = span_coefficients(basis, m)
    return np.tensordot(coeff, basis, axes=(0, 0))


def span_residual(basis: np.ndarray, m: np.ndarray) -> float:
    """Distance of ``m`` from the span of an orthonormal stack."""
    return hs_norm(m - project_onto_span(basis, m))


def span_contains(basis: np.ndarray, m: np.ndarray, tol: float) -> bool:
    return span_residual(basis, m) <= tol * max(1.0, hs_norm(m))


def same_span(b1: np.ndarray, b2: np.ndarray, tol: float) -> bool:
    if b1.shape[0] != b2.shape[0]:
        return False
    return all(span_contains(b2, m, tol) for m in b1) and all(
        span_contains(b1, m, tol) for m in b2
    )


def _svd_rank(s: np.ndarray, tol_rank: float | None) -> int:
    """Number of singular values above ``tol_rank`` * max(sigma_max, 1)."""
    tol = DEFAULT_TOL.rank if tol_rank is None else tol_rank
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > tol * max(smax, 1.0)))


def nullspace(a: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the nullspace of ``a``, via SVD."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a wide system needs the full V for its nullspace; a tall one never
    # needs the full U, which would be (rows x rows)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[_svd_rank(s, tol_rank):].conj()


def row_space(a: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of ``a``, via SVD."""
    _, s, vh = np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=False)
    return vh[:_svd_rank(s, tol_rank)]


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2.0


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def group_eigenvalues(vals: np.ndarray, gap: float, ambiguity_floor: float = 1e-12):
    """Partition sorted real eigenvalues into clusters separated by ``gap``.

    Returns a list of index arrays.  Raises ``EigenvalueGapError`` when two
    eigenvalues are closer than ``gap`` but farther apart than the ambiguity
    floor: such a spectrum cannot be clustered reliably and the caller is
    expected to retry with a fresh random element.
    """
    order = np.argsort(vals)
    sv = vals[order]
    groups: list[list[int]] = [[int(order[0])]]
    for prev, idx in zip(range(len(sv) - 1), order[1:]):
        diff = sv[prev + 1] - sv[prev]
        if diff < ambiguity_floor:
            groups[-1].append(int(idx))
        elif diff < gap:
            raise EigenvalueGapError(
                f"eigenvalue gap {diff:.3e} between grouping threshold "
                f"{gap:.1e} and ambiguity floor {ambiguity_floor:.1e}"
            )
        else:
            groups.append([int(idx)])
    return [np.array(g) for g in groups]


def eigenspaces(h: np.ndarray, gap: float) -> list[np.ndarray]:
    """Orthonormal column blocks of the eigenspaces of a Hermitian ``h``.

    One ``eigh``, grouped by :func:`group_eigenvalues` at ``gap`` (whose
    ``EigenvalueGapError`` propagates); blocks in ascending eigenvalue order.
    """
    evals, evecs = np.linalg.eigh(h)
    return [evecs[:, g] for g in group_eigenvalues(evals, gap)]


class EigenvalueGapError(RuntimeError):
    """Spectrum could not be clustered at the configured gap threshold."""
