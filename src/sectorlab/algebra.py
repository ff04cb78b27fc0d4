"""Finite-dimensional matrix *-algebras, commutants, centres, and states.

An :class:`OperatorAlgebra` is held as its Wedderburn data: a unitary W
and block sizes (k_a, n_a) with A = W (+_a M_{k_a} (x) 1_{n_a}) W*.  Its
dimension, membership, commutant, centre, central projections and
generators are closed forms in those data; a basis is built only when
read.  All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .config import DIMENSION_CAP, SEED_RETRIES, STATE_TOL, rng_from_seed
from .errors import CentralProjectionError, DimensionCapError, GenerationError


def wedderburn_blocks(draw, leaders, seed: int, error, what: str):
    """Blocks of an algebra from two generic elements h (Hermitian) and y.

    The eigenspaces of h = W (+ X_a (x) 1) W*, grouped by
    :func:`~sectorlab._linalg.group_eigenvalues`, are the copies.
    ``leaders(e, starts, ey)``, given their columns ``e`` (copy j in columns
    ``starts[j]:starts[j + 1]``) and ey = e* y e, names each copy's first
    copy in its block, or raises ``error`` for the next seed.
    By Schur's lemma the (copy, leader) part of ey is a multiple of a
    unitary; scaled to norm sqrt(n_a), largest entry real and positive, it
    aligns the copy with its leader (Murota, Kanno, Kojima & Kojima, Japan
    J. Indust. Appl. Math. 27, 2010).  Returns (columns, k, n, leader) per
    block; raises ``error`` after ``SEED_RETRIES`` seeds from ``seed``.
    """
    last_err: Exception | None = None
    for attempt in range(SEED_RETRIES):
        h, y = draw(rng_from_seed(seed + attempt))
        try:
            copies = la.eigenspaces(h)
            e = np.concatenate(copies, axis=1)
            starts = np.cumsum([0] + [v.shape[1] for v in copies])
            ey = la.dagger(e) @ y @ e
            leader = leaders(e, starts, ey)
        except (la.EigenvalueGapError, error) as err:
            last_err = err
            continue
        blocks = []
        for lead in sorted(set(leader.tolist())):
            columns = []
            for j in np.flatnonzero(leader == lead):
                s = ey[starts[j]:starts[j + 1], starts[lead]:starts[lead + 1]]
                pivot = np.unravel_index(np.argmax(np.abs(s)), s.shape)
                s = s * (np.sqrt(s.shape[0]) / np.linalg.norm(s)
                         * np.exp(-1j * np.angle(s[pivot])))
                columns.append(copies[j] @ s)
            blocks.append((np.concatenate(columns, axis=1), len(columns),
                           copies[lead].shape[1], int(lead)))
        return blocks
    raise error(f"{what} unresolved after {SEED_RETRIES} seeds: {last_err}")


def algebra_of(draw) -> OperatorAlgebra:
    """The algebra of which ``draw(rng)`` returns two generic elements, a
    Hermitian one and a general one: :func:`wedderburn_blocks` with copies
    joining a block when the second links them
    (:func:`~sectorlab._linalg.copy_leaders`)."""
    found = wedderburn_blocks(draw, _linked_leaders, 0, CentralProjectionError,
                              "Wedderburn decomposition")
    return OperatorAlgebra.from_blocks(np.concatenate([b[0] for b in found], axis=1),
                                       [(k, n) for _, k, n, _ in found])


def _linked_leaders(e, starts, ey) -> np.ndarray:
    """``leaders`` for :func:`wedderburn_blocks`: the copies y links, cut by
    :func:`~sectorlab._linalg.copy_leaders`, when they are those of blocks."""
    leader = la.copy_leaders(ey, starts)
    if np.any(leader < 0):
        raise ValueError("the basis spans no unital algebra: a copy lies outside it")
    sizes = np.diff(starts)
    if np.any(leader[leader] != leader) or np.any(sizes[leader] != sizes):
        raise CentralProjectionError("the second element links copies inconsistently")
    return leader


class OperatorAlgebra:
    """A unital *-subalgebra A = W (+_a M_{k_a} (x) 1_{n_a}) W* of B(C^d).

    Held as its Wedderburn data: the unitary ``unitary`` W, block a's
    columns copy by copy (``W_a.reshape(d, k_a, n_a)[:, i, l]`` is copy i's
    l-th vector), and ``blocks``, the (k_a, n_a).  Everything else is a
    closed form in the data; :attr:`basis`, the matrix units, is an export
    built on first read, and no operation of the package reads it.

    ``OperatorAlgebra(d, basis)`` finds the data of the span of a (k, d, d)
    basis by :func:`algebra_of` on two random combinations and drops the
    basis; ``ValueError`` unless they fill C^d with sum k_a^2 = k.
    """

    def __init__(self, ambient_dim: int, basis, contains_unit: bool = True):
        d = int(ambient_dim)
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1:] != (d, d):
            raise ValueError("basis stack shape does not match ambient_dim")
        if not contains_unit:
            raise ValueError("only unital algebras are held")
        if len(basis) == 1:
            # C1: every seed would draw a multiple of the same element
            data = scalar_algebra(d)
        else:
            def draw(rng):
                c = rng.standard_normal((2, len(basis))) + 1j * rng.standard_normal((2, len(basis)))
                x, y = np.tensordot(c, basis, axes=(1, 0))
                return (x + la.dagger(x)) / 2, y

            data = algebra_of(draw)
        self.ambient_dim, self.unitary, self.blocks = d, data.unitary, data.blocks
        if self.dim != len(basis) or len(basis) == 1 and not self.contains(basis[0]):
            raise ValueError(f"a basis of {len(basis)} elements spans no *-algebra "
                             f"with unit: its blocks are {self.blocks}")

    @classmethod
    def from_blocks(cls, unitary: np.ndarray, blocks) -> OperatorAlgebra:
        """The algebra of given Wedderburn data."""
        alg = cls.__new__(cls)
        alg.ambient_dim, alg.unitary = unitary.shape[0], np.asarray(unitary, dtype=complex)
        alg.blocks = tuple((int(k), int(n)) for k, n in blocks)
        return alg

    def block_columns(self):
        """(W_a, k_a, n_a) per block."""
        start = 0
        for k, n in self.blocks:
            yield self.unitary[:, start:start + k * n], k, n
            start += k * n

    @property
    def dim(self) -> int:
        return sum(k * k for k, _ in self.blocks)

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis W_a (E_ij (x) 1) W_a* / sqrt(n_a), block by
        block with (i, j) in row-major order."""
        d = self.ambient_dim
        basis = np.empty((self.dim, d, d), dtype=complex)
        start = 0
        for w, k, n in self.block_columns():
            w = w.reshape(d, k, n)
            units = basis[start:start + k * k].reshape(k, k, d, d)
            np.einsum("iak,jbk->abij", w / np.sqrt(n), w.conj(), out=units)
            start += k * k
        return basis

    @cached_property
    def generators(self) -> tuple[np.ndarray, np.ndarray]:
        """Two elements generating the algebra, each of unit Hilbert-Schmidt norm.

        W (+ shift_k (x) 1) W* moves each copy of a block to the next; the
        copies are the spectral projections of W (+ diag (x) 1) W*, whose
        value 1, 2, ... differs on every copy of every block.
        """
        d = self.ambient_dim
        shifted, values, start = [], [], 1
        for w, k, n in self.block_columns():
            # column (i, l) of the shifted W is copy i + 1's l-th vector
            shifted.append(np.roll(w.reshape(d, k, n), -1, axis=1).reshape(d, k * n))
            values.append(np.repeat(np.arange(start, start + k), n))
            start += k
        w_star = la.dagger(self.unitary)
        shift = np.concatenate(shifted, axis=1) @ w_star
        diag = (self.unitary * np.concatenate(values)) @ w_star
        return shift / la.hs_norm(shift), diag / la.hs_norm(diag)

    def partial_traces(self, m: np.ndarray):
        """(W_a, k_a, n_a, tr_n(W_a* m W_a)) per block, for ``m`` one matrix or
        a stack (..., d, d).  tr(m B) on the matrix unit (a, i, j) of
        :attr:`basis` is tr_n(W_a* m W_a)[j, i] / sqrt(n_a)."""
        m = np.asarray(m, dtype=complex)
        for w, k, n in self.block_columns():
            wmw = (la.dagger(w) @ m @ w).reshape(m.shape[:-2] + (k, n, k, n))
            yield w, k, n, np.einsum("...ikjk->...ij", wmw)

    def project(self, m: np.ndarray) -> np.ndarray:
        """Trace-orthogonal projection, W_a (tr_n(W_a* m W_a) / n_a (x) 1) W_a*
        summed over the blocks."""
        d = self.ambient_dim
        out = np.zeros((d, d), dtype=complex)
        for w, k, n, t in self.partial_traces(m):
            # column (j, l) of v is sum_i t[i, j] / n times copy i's l-th vector
            v = np.tensordot(w.reshape(d, k, n), t / n, axes=(1, 0)).swapaxes(1, 2)
            out += v.reshape(d, k * n) @ la.dagger(w)
        return out

    def contains(self, m: np.ndarray) -> bool:
        """Whether ``m`` lies in the algebra (:func:`~sectorlab._linalg.in_span`)."""
        m = np.asarray(m, dtype=complex)
        return la.in_span(m, self.project(m))

    def validate(self) -> None:
        """Check that W is a d x d unitary to ``UNITARY_TOL`` * d: exactly when
        the matrix units of the algebra the data describe are orthonormal."""
        w, d = self.unitary, self.ambient_dim
        if w.shape != (d, d) or not la.relation_holds(la.dagger(w) @ w, np.eye(d)):
            raise ValueError("unitary is not a d x d unitary")


@dataclass(frozen=True)
class State:
    """A density matrix inducing a positive normalized functional."""

    density: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "density", la.as_complex_matrix(self.density))

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def check_finite(self) -> None:
        """Raise ``ValueError`` when the density has a NaN or infinite entry."""
        if not np.all(np.isfinite(self.density)):
            raise ValueError(f"density has non-finite entries ({self.label!r})")

    def validate(self) -> None:
        """Check Hermiticity, positivity and unit trace at ``STATE_TOL``."""
        self.check_finite()
        rho, t = self.density, STATE_TOL
        if not la.near(rho, la.dagger(rho), t):
            raise ValueError(f"density not Hermitian ({self.label!r})")
        evals = np.linalg.eigvalsh((rho + la.dagger(rho)) / 2)
        if evals.min() < -t:
            raise ValueError(f"density not positive semidefinite ({self.label!r})")
        if abs(np.trace(rho).real - 1.0) > t:
            raise ValueError(f"density trace != 1 ({self.label!r})")


def vector_state(vec: np.ndarray, label: str = "") -> State:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return State(np.outer(v, v.conj()), label=label)


def full_matrix_algebra(d: int) -> OperatorAlgebra:
    """B(C^d): W = 1 and one block (d, 1); its basis is the E_ab, row-major."""
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"ambient dimension {d} exceeds cap {DIMENSION_CAP}")
    return OperatorAlgebra.from_blocks(np.eye(d, dtype=complex), [(d, 1)])


def scalar_algebra(d: int) -> OperatorAlgebra:
    """C1: one block, k = 1 and n = d."""
    return OperatorAlgebra.from_blocks(np.eye(d, dtype=complex), [(1, d)])


def generate_algebra(generators) -> OperatorAlgebra:
    """Smallest unital *-closed subalgebra containing the generators.

    In finite dimensions this is S'' (von Neumann's bicommutant theorem).
    S' is one solve of :func:`~sectorlab._linalg.commutant_basis` on an
    orthonormal basis of span(S, 1, S*) at the rank cut of
    :func:`~sectorlab._linalg.row_space`: unit-norm directions, so the
    solve, which refines its null space at that same cut, resolves each
    generator rather than only the largest.  S'' is the :func:`commutant`
    of S''s Wedderburn data.  Raises ``GenerationError`` if those data do
    not resolve, or if a generator still falls outside the result.
    """
    gens = [la.as_complex_matrix(g) for g in generators]
    if gens:
        d = gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise ValueError("generators must be square with equal dimension")
    else:
        d = 1
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"ambient dimension {d} exceeds cap {DIMENSION_CAP}")

    span = la.orthonormalize_mats(np.array([*gens, np.eye(d), *(la.dagger(g) for g in gens)]))
    first = la.commutant_basis(span, d)
    try:
        alg = commutant(OperatorAlgebra(d, first))
    except (ValueError, CentralProjectionError) as err:
        raise GenerationError(f"the generators' commutant is not resolved: {err}") from err
    missing = [i for i, g in enumerate(gens) if not alg.contains(g)]
    if missing:
        raise GenerationError(f"generators {missing} lie outside the generated algebra")
    return alg


def commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    """The relative commutant {X : XB = BX for all B in alg} inside B(C^d).

    The same copies with k_a and n_a swapped: W (+ 1_k (x) M_n) W*.
    """
    d = alg.ambient_dim
    cols = [w.reshape(d, k, n).transpose(0, 2, 1).reshape(d, k * n)
            for w, k, n in alg.block_columns()]
    return OperatorAlgebra.from_blocks(np.concatenate(cols, axis=1),
                                       [(n, k) for k, n in alg.blocks])


def center(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Centre alg' inter alg: the span of the block projections, so the
    same W with blocks (1, k_a n_a)."""
    return OperatorAlgebra.from_blocks(
        alg.unitary, [(1, k * n) for k, n in alg.blocks])


def minimal_central_projections(alg: OperatorAlgebra) -> list[np.ndarray]:
    """The block projections P_a = W_a W_a*, the minimal projections of the centre.

    Canonically ordered by descending rank, then by lexicographically
    largest real diagonal.
    """
    def sort_key(p: np.ndarray):
        rank = int(round(np.trace(p).real))
        diag = tuple(np.round(np.diag(p).real, 9))
        return (-rank, tuple(-x for x in diag))
    return sorted((w @ la.dagger(w) for w, _, _ in alg.block_columns()), key=sort_key)

