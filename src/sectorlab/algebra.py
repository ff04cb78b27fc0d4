"""Finite-dimensional matrix *-algebras, commutants, centres, and states.

An :class:`OperatorAlgebra` is a unital *-closed subspace of d x d complex
matrices, stored as a stack of basis matrices orthonormal under the trace
inner product.  All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .config import DEFAULT_TOL, DIMENSION_CAP, SEED_RETRIES, STATE_TOL, rng_from_seed


class DimensionCapError(ValueError):
    """Ambient dimension exceeds the dense-matrix feasibility cap."""


class CentralProjectionError(RuntimeError):
    """Eigenvalue grouping stayed ambiguous after the retry budget."""


class GenerationError(RuntimeError):
    """A generated algebra does not contain one of its generators."""


@dataclass(frozen=True)
class OperatorAlgebra:
    """A *-closed subspace of B(C^d) with an orthonormal basis stack.

    ``basis`` has shape (k, d, d); slices are orthonormal under
    <A, B> = tr(A* B).  ``generators`` optionally records a few elements
    whose generated algebra equals the span; commutant computations use them
    to avoid stacking every basis element.  :func:`full_matrix_algebra` and
    :meth:`~sectorlab.groups.SectorDecomposition.observable_algebra` record
    two: a shift and a diagonal.

    Commutants (and through them centres and central projections) are
    solved on the eigenspace blocks of a seeded generic Hermitian element
    of the algebra by :func:`~sectorlab._linalg.commutant_basis`.
    """

    ambient_dim: int
    basis: np.ndarray
    contains_unit: bool = True
    generators: tuple[np.ndarray, ...] | None = None

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def contains(self, m: np.ndarray) -> bool:
        return la.span_contains(self.basis, np.asarray(m, dtype=complex),
                                la.SPAN_RANK_CUT)

    def project(self, m: np.ndarray) -> np.ndarray:
        """Trace-orthogonal projection onto the span of the algebra."""
        return la.project_onto_span(self.basis, np.asarray(m, dtype=complex))

    def validate(self) -> None:
        """Check orthonormality, *-closure, product closure, and the unit.

        Product closure is O(k^2) matrix products; intended for tests and
        input validation, not for hot paths.
        """
        k, d = self.dim, self.ambient_dim
        if self.basis.shape != (k, d, d):
            raise ValueError("basis stack shape does not match ambient_dim")
        gram = la.mats_to_rows(self.basis) @ la.mats_to_rows(self.basis).conj().T
        if not np.allclose(gram, np.eye(k), atol=1e-10):
            raise ValueError("basis is not orthonormal to 1e-10")
        for b in self.basis:
            if la.span_residual(self.basis, la.dagger(b)) > 1e-9:
                raise ValueError("basis not closed under adjoint")
        for b1 in self.basis:
            for b2 in self.basis:
                if la.span_residual(self.basis, b1 @ b2) > 1e-9:
                    raise ValueError("basis not closed under multiplication")
        if self.contains_unit:
            if la.span_residual(self.basis, np.eye(d, dtype=complex)) > 1e-10 * d:
                raise ValueError("unit not contained in span")
        if self.generators is not None:
            for g in self.generators:
                if not self.contains(g):
                    raise ValueError("declared generator outside the span")


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
        if np.linalg.norm(rho - la.dagger(rho)) > t * max(1.0, la.hs_norm(rho)):
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
    """B(C^d) with the matrix-unit basis (orthonormal as given).

    Records a two-element generating set (cyclic shift and a generic
    diagonal), which keeps commutant computations cheap.
    """
    if d > DIMENSION_CAP:
        raise DimensionCapError(f"ambient dimension {d} exceeds cap {DIMENSION_CAP}")
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    diag = np.diag(np.arange(1, d + 1, dtype=complex))
    gens = (shift, diag) if d > 1 else (np.eye(1, dtype=complex),)
    return OperatorAlgebra(d, basis, contains_unit=True, generators=gens)


def scalar_algebra(d: int) -> OperatorAlgebra:
    basis = np.eye(d, dtype=complex)[None, :, :] / np.sqrt(d)
    return OperatorAlgebra(d, basis, contains_unit=True,
                           generators=(np.eye(d, dtype=complex),))


def _seed_span(gens, d: int) -> np.ndarray:
    """Orthonormal basis of span(S, 1, S*) at the rank cut of ``row_space``.

    Unit-norm directions, so a commutant solve on it cuts relative to each
    generator rather than to the largest.  It contains the unit, so it is
    never empty.
    """
    seed = list(gens) + [np.eye(d, dtype=complex)] + [la.dagger(g) for g in gens]
    return la.orthonormalize_mats(np.array(seed))


def generate_algebra(generators) -> OperatorAlgebra:
    """Smallest unital *-closed subalgebra containing the generators.

    In finite dimensions this is S'' (von Neumann's bicommutant theorem):
    two solves of :func:`~sectorlab._linalg.commutant_basis`.  The first,
    on an orthonormal basis of span(S, 1, S*) at the rank cut of
    :func:`~sectorlab._linalg.row_space`, refines its null space at that
    same cut; the second, on S', needs only the Gram null cut.  Raises
    ``GenerationError`` if a generator still falls outside the result.
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

    span = _seed_span(gens, d)
    basis = la.commutant_basis(la.commutant_basis(span, d, refine=True), d)
    alg = OperatorAlgebra(
        d, basis, contains_unit=True,
        generators=tuple(gens) if gens else (np.eye(d, dtype=complex),),
    )
    missing = [i for i, g in enumerate(gens) if not alg.contains(g)]
    if missing:
        raise GenerationError(f"generators {missing} lie outside the generated algebra")
    return alg


def commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    """The relative commutant {X : XB = BX for all B in alg} inside B(C^d).

    Uses the algebra's recorded generating set when available (augmented
    with adjoints: the commutant of a self-adjoint set equals the
    commutant of the *-algebra it generates).  The solve runs on the same
    orthonormal span(S, 1, S*) that :func:`generate_algebra` starts from, so
    its null cut is relative to every generator, not to the largest, and a
    generator part below the span cut is dropped here as it was there.  The
    solve runs on the eigenspace blocks of a seeded generic Hermitian
    element of the algebra; see :func:`~sectorlab._linalg.commutant_basis`.
    The returned basis is orthonormal.
    """
    d = alg.ambient_dim
    mats = alg.basis if alg.generators is None else _seed_span(alg.generators, d)
    return OperatorAlgebra(d, la.commutant_basis(mats, d), contains_unit=True)


def center(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Centre alg' inter alg, via trace-orthogonal projection onto alg.

    For a unital *-subalgebra the trace projection is a conditional
    expectation, so projecting the commutant basis into alg lands exactly
    on the centre.  The rank is decided by one SVD of the projected stack,
    taken in alg's orthonormal coordinates, at the rank cut of
    :func:`~sectorlab._linalg.row_space`; the kept right singular vectors
    are the basis.
    """
    comm = la.mats_to_rows(commutant(alg).basis)
    own = la.mats_to_rows(alg.basis)
    rows = la.row_space(comm @ la.dagger(own)) @ own
    return OperatorAlgebra(alg.ambient_dim, la.rows_to_mats(rows, alg.ambient_dim),
                           contains_unit=True)


def minimal_central_projections(alg: OperatorAlgebra, seed: int = 0) -> list[np.ndarray]:
    """Spectral resolution of the centre into minimal orthogonal projections.

    The eigenspaces of a seeded pseudo-random Hermitian element of the
    centre, grouped at the default gap threshold by
    :func:`~sectorlab._linalg.eigenspaces`, generically separate every
    minimal projection.  Ambiguous spectra, and projections that leave the
    centre, are retried with a fresh seed, ``SEED_RETRIES`` seeds in all.

    Projections are canonically ordered by descending rank, then by
    lexicographically largest real diagonal.
    """
    z = center(alg)
    d = alg.ambient_dim
    if z.dim == 0:
        raise ValueError("algebra has an empty centre basis; not unital?")
    last_err: Exception | None = None
    for attempt in range(SEED_RETRIES):
        rng = rng_from_seed(seed + attempt)
        coeff = rng.standard_normal(z.dim) + 1j * rng.standard_normal(z.dim)
        h = np.tensordot(coeff, z.basis, axes=(0, 0))
        h = (h + la.dagger(h)) / 2
        try:
            spaces = la.eigenspaces(h, DEFAULT_TOL.gap)
        except la.EigenvalueGapError as err:
            last_err = err
            continue
        projs = [v @ la.dagger(v) for v in spaces]
        # sanity: each projection must itself lie in the centre
        if any(la.span_residual(z.basis, p) > 1e-7 * max(1.0, la.hs_norm(p))
               for p in projs):
            last_err = CentralProjectionError("eigenprojection left the centre")
            continue
        def sort_key(p: np.ndarray):
            rank = int(round(np.trace(p).real))
            diag = tuple(np.round(np.diag(p).real, 9))
            return (-rank, tuple(-x for x in diag))
        projs.sort(key=sort_key)
        return projs
    raise CentralProjectionError(
        f"could not resolve the centre after {SEED_RETRIES} seeds: {last_err}"
    )


def state_distance_mod(
    omega1: State, omega2: State, sub: OperatorAlgebra
) -> float:
    """max_B |omega1(B) - omega2(B)| over the orthonormal basis of ``sub``.

    Zero exactly when the two states agree on the subalgebra; a pseudo-metric
    on states for fixed ``sub``.
    """
    if omega1.dim != omega2.dim or omega1.dim != sub.ambient_dim:
        raise ValueError("states and subalgebra must share the ambient dimension")
    diff = omega1.density - omega2.density
    vals = np.einsum("kij,ji->k", sub.basis, diff)
    return float(np.max(np.abs(vals))) if vals.size else 0.0
