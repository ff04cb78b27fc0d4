import itertools
import tracemalloc

import numpy as np
import pytest

from sectorlab import _linalg as la
from sectorlab.algebra import OperatorAlgebra, commutant, generate_algebra
from sectorlab.groups import rep_from_matrices, symmetric_group

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def bits(a):
    """The raw 64-bit words of an array, to compare floats bit for bit."""
    return np.ascontiguousarray(a).view(np.uint64)


def peak_mb(call):
    """(call(), the peak of memory traced during the call in MB)."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def kron_all(*mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def svd_rows(rows, tol=1e-9):
    """Oracle: orthonormal rows spanning the rows of ``rows``, by SVD."""
    _, s, vh = np.linalg.svd(np.asarray(rows, dtype=complex), full_matrices=False)
    return vh[: int(np.sum(s > tol * max(s[0], 1.0)))]


def averaged_span(basis, rep):
    """Oracle: orthonormal rows spanning the group averages of a (k, d, d) basis."""
    avg = np.einsum("gij,ajk,glk->ail", rep.matrices, basis,
                    rep.matrices.conj()) / rep.group.order
    return svd_rows(avg.reshape(len(avg), -1))


def nullspace(a):
    """Oracle: orthonormal rows spanning the nullspace of ``a``, by SVD with
    the library's span cut."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a wide system needs the full V for its nullspace; a tall one never
    # needs the full U, which would be (rows x rows)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[la._svd_rank(s):].conj()


def span_residual(basis, m):
    """Distance of ``m`` from the span of an orthonormal stack."""
    return la.hs_norm(m - la.project_onto_span(basis, m))


def assert_same_span(a, b, tol=1e-8):
    """Two orthonormal row stacks span the same space (equal projectors)."""
    assert a.shape == b.shape
    assert np.linalg.norm(a.T @ a.conj() - b.T @ b.conj()) <= tol


def assert_observable_generators(obs, rep):
    """The two recorded generators of a representation's commutant ``obs``:
    unit Hilbert-Schmidt norm, invariant under U(g), and generating ``obs``."""
    assert len(obs.generators) == 2
    u = rep.matrices
    for g in obs.generators:
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
        assert np.linalg.norm(u @ g @ u.conj().transpose(0, 2, 1) - g) <= 1e-10
    generated = generate_algebra(obs.generators)
    assert generated.dim == obs.dim
    assert_same_span(la.mats_to_rows(generated.basis), la.mats_to_rows(obs.basis))


def permutation_rep(n: int):
    """S_n permuting the basis of C^n, in the order of ``symmetric_group``."""
    mats = []
    for p in sorted(itertools.permutations(range(n))):
        m = np.zeros((n, n))
        m[list(p), range(n)] = 1.0
        mats.append(m)
    return rep_from_matrices(symmetric_group(n), mats)


def dense_fixed_points(f_alg, rep):
    """Oracle: F inter U' = (F' union {U(g)})', one dense commutant solve on
    a basis of F' stacked with the representation matrices."""
    d = f_alg.ambient_dim
    mats = np.concatenate([commutant(f_alg).basis, rep.matrices])
    return OperatorAlgebra(d, la.commutant_basis(mats, d))


def assert_same_algebra(alg, oracle):
    """Same blocks up to order, and each contains the other's generators."""
    assert sorted(alg.blocks) == sorted(oracle.blocks)
    for a, b in ((alg, oracle), (oracle, alg)):
        for g in b.generators:
            assert a.contains(g) and a.contains(g.conj().T)
