"""Classical<->quantum channels over a finite classifying space.

A c->q channel assigns a quantum state to every point of a finite label
set and extends affinely to probability weights.  The q->c direction is a
constrained moment problem: recover the weight from finitely many probe
expectations, solved as least squares on the probability simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _linalg as la
from .algebra import OperatorAlgebra, State
from .config import WEIGHT_SLACK, WEIGHT_SUM_TOL


@dataclass(frozen=True)
class ClassifyingSpace:
    """Ordered finite label set; labels are tuples of coordinates or strings."""

    labels: tuple
    coord_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("classifying-space labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class ProbabilityWeight:
    """A nonnegative normalized weight vector over a classifying space."""

    space: ClassifyingSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.space.size,):
            raise ValueError("weight vector length must match the label count")
        if w.min() < -WEIGHT_SLACK:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")

    def l1_distance(self, other: "ProbabilityWeight") -> float:
        return float(np.abs(self.weights - other.weights).sum())

    def moments(self) -> dict[str, tuple[float, float]]:
        """Mean and variance of each named coordinate under the weight."""
        if self.space.coord_names is None:
            return {}
        out = {}
        for k, name in enumerate(self.space.coord_names):
            xs = np.array([lab[k] for lab in self.space.labels], dtype=float)
            mean = float(self.weights @ xs)
            out[name] = (mean, float(self.weights @ (xs - mean) ** 2))
        return out


def point_mass(space: ClassifyingSpace, label) -> ProbabilityWeight:
    w = np.zeros(space.size)
    w[space.index(label)] = 1.0
    return ProbabilityWeight(space, w)


def uniform_weight(space: ClassifyingSpace) -> ProbabilityWeight:
    return ProbabilityWeight(space, np.full(space.size, 1.0 / space.size))


class SpectralBlock(NamedTuple):
    """Fibres that share one eigenbasis: fibre ``rows[i]`` is
    V diag(``weights[i]``) V*, with V = ``vectors`` unitary (real orthogonal
    when it is a float array) and ``weights`` a (len(rows), d) array."""

    rows: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


class ClassicalQuantumChannel:
    """A c->q channel: one fibre state per label of the classifying space.

    Made from its fibre states, or by :meth:`from_spectra` from the
    eigenbases and eigenvalue rows of its fibres, in which case the density
    stack and the states are built only when first read.  The criterion
    path (:attr:`dim`, :func:`design_matrix`) reads the spectral data of
    such a channel and the stack of any other.
    """

    def __init__(self, space: ClassifyingSpace, fibre_states):
        states = tuple(fibre_states)
        if len(states) != space.size:
            raise ValueError("need exactly one fibre state per label")
        if len({s.dim for s in states}) != 1:
            raise ValueError("fibre states must share one dimension")
        self.space = space
        self._fibre_states: tuple[State, ...] | None = states
        self._densities: np.ndarray | None = None
        self._labels = None
        self.spectra: tuple[SpectralBlock, ...] | None = None

    @property
    def dim(self) -> int:
        if self.spectra is not None:
            return self.spectra[0].vectors.shape[0]
        return self._fibre_states[0].dim

    @classmethod
    def from_spectra(cls, space: ClassifyingSpace, blocks,
                     labels) -> "ClassicalQuantumChannel":
        """The channel whose fibres are given by :class:`SpectralBlock` s.

        Every label's index is in exactly one block's ``rows``.  The blocks
        are kept as :attr:`spectra`, with read-only arrays.  ``labels``
        names the fibres in order; it is iterated, and the fibre states
        built, only when :attr:`fibre_states` is first read, so a generator
        defers formatting the names too.
        """
        blocks = tuple(SpectralBlock(np.asarray(b.rows, dtype=np.intp), b.vectors,
                                     b.weights) for b in blocks)
        d = blocks[0].vectors.shape[0]
        if sorted(i for b in blocks for i in b.rows) != list(range(space.size)):
            raise ValueError("need exactly one fibre state per label")
        for b in blocks:
            if b.vectors.shape != (d, d) or b.weights.shape != (len(b.rows), d):
                raise ValueError(f"a block of {b.vectors.shape} eigenvectors and "
                                 f"{b.weights.shape} eigenvalue rows does not give "
                                 f"{len(b.rows)} fibres of dimension {d}")
            for a in b:
                a.setflags(write=False)
        channel = cls.__new__(cls)
        channel.space = space
        channel._fibre_states = None
        channel._densities = None
        channel._labels = labels
        channel.spectra = blocks
        return channel

    @property
    def fibre_states(self) -> tuple[State, ...]:
        """The fibre states, one per label in the space's order.

        For a channel made by :meth:`from_spectra` they are built on first
        read and then kept, read-only: a fibre is a view of a complex stack's
        slice, or a complex copy of a real one.
        """
        if self._fibre_states is None:
            states = tuple(State(rho, label=name) for rho, name in
                           zip(self.densities(), self._labels, strict=True))
            for s in states:
                s.density.setflags(write=False)
            self._fibre_states, self._labels = states, None
        return self._fibre_states

    def densities(self) -> np.ndarray:
        """The read-only (labels, d, d) stack of fibre densities.

        Built on first use and kept; every call returns the same array, so
        it is read-only.  A channel made from states stacks them as complex
        matrices.  A channel made by :meth:`from_spectra` forms each fibre as
        (V w) V* in place in the stack, by the product :func:`gibbs_state
        <sectorlab.thermal.gibbs_state>` uses, so a fibre has its bits; the
        stack is float64 when every block's V is real, complex otherwise.
        """
        if self._densities is None:
            if self.spectra is None:
                stack = np.array([s.density for s in self._fibre_states], dtype=complex)
            else:
                stack = _spectral_stack(self.spectra, self.space.size, self.dim)
            stack.setflags(write=False)
            self._densities = stack
        return self._densities


def _spectral_stack(blocks, n: int, d: int) -> np.ndarray:
    """The (n, d, d) stack of the fibres V diag(w) V*, one product per fibre
    written into its slice: no temporary but one d x d buffer per block."""
    stack = np.empty((n, d, d), dtype=np.result_type(*(b.vectors for b in blocks)))
    for rows, vecs, weights in blocks:
        adjoint = la.dagger(vecs)
        scaled = np.empty_like(vecs)
        for i, w in zip(rows, weights):
            np.multiply(vecs, w, out=scaled)
            np.matmul(scaled, adjoint, out=stack[i])
    return stack


def apply_cq(channel: ClassicalQuantumChannel, rho: ProbabilityWeight) -> State:
    """The dual channel on weights: the mixture sum_i rho_i * fibre_i.

    On a channel made by :meth:`~ClassicalQuantumChannel.from_spectra` it is
    the sum over blocks of V diag(rho^T W) V*, one d x d product per block,
    and no fibre is formed; any other channel sums its stack.
    """
    if rho.space.labels != channel.space.labels:
        raise ValueError("weight and channel live on different classifying spaces")
    if channel.spectra is None:
        density = np.tensordot(rho.weights, channel.densities(), axes=(0, 0))
    else:
        density = sum((vecs * (rho.weights[rows] @ weights)) @ la.dagger(vecs)
                      for rows, vecs, weights in channel.spectra)
    return State(density, label="cq-mixture")


def evaluation_matrix(kernels, alg: OperatorAlgebra) -> np.ndarray:
    """Value table map[i, j] = tr(kernel_i basis_j) of a functional family.

    With the fibre densities as kernels this is the channel's map on the
    algebra's matrix units (value of the classical function at each label),
    read off :meth:`~sectorlab.algebra.OperatorAlgebra.partial_traces`.
    """
    ks = np.asarray(list(kernels), dtype=complex)
    return np.concatenate([(np.swapaxes(t, 1, 2) / np.sqrt(n)).reshape(len(ks), k * k)
                           for _, k, n, t in alg.partial_traces(ks)], axis=1)


@dataclass(frozen=True)
class PositiveUnitalReport:
    unitality_residual: float
    positivity_margin: float
    imag_leakage: float
    passed: bool


def verify_positive_unital(map_matrix: np.ndarray, alg: OperatorAlgebra) -> PositiveUnitalReport:
    """Check unitality and positivity of a map given on the algebra's matrix units.

    Exact, with no sampling: a row's values on block a's units give Y_a with
    phi(W (+ x_a (x) 1) W*) = sum_a tr(Y_a x_a), so phi(1) = sum_a tr Y_a,
    the margin is the least eigenvalue of the Hermitian parts of the Y_a
    (the least Re phi on a pure state of one block), and the leakage the
    largest |Im phi| there.  The codomain is commutative, so positivity is
    complete positivity.  Passes when every phi(1) is within
    ``POSITIVE_UNITAL_CUT`` of 1 and the margin is at least
    -``POSITIVE_UNITAL_CUT``; failures are reported, never raised.
    """
    m = np.asarray(map_matrix)
    if m.shape[1] != alg.dim:
        raise ValueError("map matrix columns must match the algebra dimension")
    unit, margin, leak, start = 0.0, np.inf, 0.0, 0
    for _, k, n in alg.block_columns():
        y = np.sqrt(n) * np.swapaxes(m[:, start:start + k * k].reshape(-1, k, k), 1, 2)
        start += k * k
        unit += np.trace(y, axis1=1, axis2=2)
        margin = min(margin, float(np.linalg.eigvalsh((y + la.dagger(y)) / 2).min()))
        leak = max(leak, float(np.abs(np.linalg.eigvalsh((y - la.dagger(y)) / 2j)).max()))
    unitality = float(np.max(np.abs(unit - 1.0)))
    passed = unitality <= la.POSITIVE_UNITAL_CUT and margin >= -la.POSITIVE_UNITAL_CUT
    return PositiveUnitalReport(unitality, margin, leak, passed)


# ---------------------------------------------------------------------------
# the moment problem: least squares on the probability simplex
# ---------------------------------------------------------------------------


def design_matrix(channel: ClassicalQuantumChannel, probes) -> np.ndarray:
    """M[j, i] = Re tr(probe_j fibre_i) (probes are Hermitian).

    Each probe's row is computed on its own, so it has the same bits
    whichever probes are asked with it.  No stack of the probes is made.

    On a channel made by :meth:`~ClassicalQuantumChannel.from_spectra` the
    row of P over a block is W d, d = Re diag(V* P V): for F_i = V diag(W_i)
    V*, Re tr(P F_i) = sum_k W_ik Re(V* P V)_kk.  That is one d x d product
    P V (Re(P) V for a real V) and one column reduction per block, and no
    fibre is formed.  Any other channel reads its complex stack: the real
    inner product of conj(P^T) and each fibre, read as float arrays.  Both
    are exact for any P, Hermitian or not.

    A probe with a NaN or infinite entry gets a row of NaN, computed with
    no floating-point warning.  Raises ``ValueError`` naming the probe's
    index and shape when a probe is not d x d, with d the fibres' dimension.
    """
    d = channel.dim
    probes = list(probes)
    m = np.empty((len(probes), channel.space.size))
    row = _stack_row(channel) if channel.spectra is None else _spectral_row(channel)
    for j, p in enumerate(probes):
        p = np.asarray(p)
        if p.shape != (d, d):
            raise ValueError(f"probe {j} has shape {p.shape}, but the fibres are {(d, d)}")
        if np.isfinite(p).all():
            row(p, m[j])
        else:
            m[j] = np.nan
    return m


def _spectral_row(channel: ClassicalQuantumChannel):
    """The row filler on the channel's spectral blocks: out[rows] = W d."""
    ones = np.ones(channel.dim)
    blocks = [(rows, vecs, weights, vecs.dtype == float)
              for rows, vecs, weights in channel.spectra]

    def row(p, out):
        for rows, vecs, weights, real in blocks:
            pv = (np.ascontiguousarray(p.real) if real else p) @ vecs
            # d_k = Re (V* P V)_kk: the column sums of Re(conj(V) * PV)
            pv *= vecs if real else vecs.conj()
            out[rows] = weights @ (ones @ pv).real
    return row


def _stack_row(channel: ClassicalQuantumChannel):
    """The row filler on the channel's complex stack, with its d x d buffer."""
    fibres = channel.densities()
    flat = fibres.view(float).reshape(len(fibres), -1)
    buf = np.empty(fibres.shape[1:], dtype=complex)

    def row(p, out):
        np.conjugate(p.T, out=buf)
        out[:] = flat @ buf.view(float).reshape(-1)
    return row


def forward_data(
    channel: ClassicalQuantumChannel, probes, rho: ProbabilityWeight
) -> np.ndarray:
    """Probe expectations of the mixed state apply_cq(channel, rho)."""
    return design_matrix(channel, probes) @ rho.weights


@dataclass(frozen=True)
class SeparationReport:
    passed: bool
    rank: int
    sigma_min: float
    n_labels: int


def separation_check(
    channel: ClassicalQuantumChannel, probes
) -> SeparationReport:
    """Rank test of the design matrix augmented with the normalization row.

    Full column rank means the probe family discriminates every weight on
    the grid, so the moment problem has a unique solution.
    """
    return _separation(_augmented(design_matrix(channel, probes)),
                       channel.space.size)[0]


def _augmented(m: np.ndarray) -> np.ndarray:
    """[M; 1^T]: the design rows and the normalization row."""
    aug = np.empty((m.shape[0] + 1, m.shape[1]))
    aug[:-1] = m
    aug[-1] = 1.0
    return aug


def _separation(aug: np.ndarray, n_labels: int):
    """The rank test of :func:`separation_check` on a given [M; 1^T].

    The rank is numpy's eps rule, :func:`~sectorlab._linalg.eps_rank`.
    Returns the report and, when ``aug`` has fewer rows than labels (such a
    design never separates), the right singular vectors (rows) of that same
    SVD, for the inversion's tie-break; otherwise None, and the singular
    values are computed without vectors.
    """
    vh = None
    if aug.shape[0] < n_labels:
        _, svals, vh = np.linalg.svd(aug, full_matrices=False)
    else:
        svals = np.linalg.svd(aug, compute_uv=False)
    rank = la.eps_rank(svals, aug.shape)
    sigma_min = float(svals[-1]) if svals.size else 0.0
    return SeparationReport(rank == n_labels, rank, sigma_min, n_labels), vh


def _tie_break(aug: np.ndarray, x: np.ndarray, rank: int,
               vh: np.ndarray | None) -> np.ndarray:
    """The minimum-norm solution of A y = A x, A = ``aug`` of eps rank ``rank``.

    It is V_r V_r^T x, the orthogonal projection of x onto row(A) =
    span(V_r), V_r the right singular vectors of A's ``rank`` largest
    singular values: the solutions are x + null(A), and null(A) is the
    orthogonal complement of row(A), so y = V_r V_r^T x + z with z in null(A)
    solves A y = A x and has |y|^2 = |V_r V_r^T x|^2 + |z|^2, least at z = 0
    (Lawson & Hanson 1974, ch. 7; Golub & Van Loan, *Matrix Computations*,
    5.5).  Singular values under numpy's eps rule count as zero, as in
    ``np.linalg.lstsq`` with its default cut.  ``vh`` holds A's right
    singular vectors (rows) when :func:`_separation` kept them; None takes
    one SVD with vectors here.
    """
    if vh is None:
        vh = np.linalg.svd(aug, full_matrices=False)[2]
    v = vh[:rank]
    return v.T @ (v @ x)


@dataclass(frozen=True)
class InversionResult:
    weight: ProbabilityWeight
    residual: float
    kkt_residual: float
    converged: bool
    iterations: int
    unique: bool
    rank: int
    sigma_min: float
    nullspace_dim: int


#: cap on the least-squares solves of one inversion (``converged=False``)
MAX_ITERATIONS = 100_000


def _solve_on(a: np.ndarray, c: np.ndarray, cols: list[int], check: bool = False):
    """Least squares on ``cols`` by complete QR: Q, the solution, and the
    residual's coordinates in the orthogonal complement of those columns.

    With ``check``, None instead when some column's part outside the span
    of the columns listed before it, |R_ii|, is at most ``DEPENDENCE_CUT``
    times its norm: the dependence test of :func:`_nnls`, to rounding.
    """
    q, r = np.linalg.qr(a[:, cols], mode="complete")
    k = len(cols)
    if check:
        if k > len(r):
            return None
        top = r[:k]
        outside = top.diagonal()
        if (outside * outside <= la.DEPENDENCE_CUT ** 2 * (top * top).sum(axis=0)).any():
            return None
    qc = q.T @ c
    z = np.zeros(a.shape[1])
    z[cols] = np.linalg.solve(r[:k], qc[:k])
    return q, z, qc[k:]


def _step_back(a, c, y, trial, solved, iters):
    """From the feasible ``y``, step towards the solution on ``trial`` until
    it is positive there.

    ``solved`` is :func:`_solve_on` of ``trial``.  While a coefficient of the
    solution z is <= 0, move y towards z until the first such coefficient
    of y hits zero, drop it from ``trial`` and solve again.  Returns
    (trial, Q, z, the residual's complement coordinates), or None when
    ``MAX_ITERATIONS`` cuts the loop short, and the solve count.
    """
    q, z, rest = solved
    while z[trial].min(initial=np.inf) <= 0:
        if iters >= MAX_ITERATIONS:
            return None, iters
        bad = [i for i in trial if z[i] <= 0]
        ratios = y[bad] / (y[bad] - z[bad])
        t = int(np.argmin(ratios))
        y = y + ratios[t] * (z - y)
        y[bad[t]] = 0.0
        trial = [i for i in trial if y[i] > 0]
        iters += 1
        q, z, rest = _solve_on(a, c, trial)
    return (trial, q, z, rest), iters


def _residual_floor(norm_c: float, norm_a: float, x: np.ndarray) -> float:
    """``RESIDUAL_FLOOR`` (||c|| + ||a||_F ||x||), the rounding level of a
    least-squares residual at x; -inf, which stops nothing, when that bound
    is not finite."""
    level = la.RESIDUAL_FLOOR * (norm_c + norm_a * float(np.linalg.norm(x)))
    return level if math.isfinite(level) else -math.inf


def _nnls(a: np.ndarray, c: np.ndarray, start: np.ndarray | None = None):
    """Lawson-Hanson argmin ||a x - c|| over x >= 0: x, solves, converged.

    Duals come from the residual's coordinates outside the passive span, so
    they stay accurate far below the rounding level of c - a x.  A column
    enters only if it passes the original dependence test (part outside the
    span > 100 eps times part inside, ``_linalg.DEPENDENCE_CUT``) and gets a
    positive trial coefficient; a refused column waits until x changes.  The
    solve stops when no dual is positive; when the residual is at most
    ``_linalg.RESIDUAL_FLOOR`` (||c|| + ||a||_F ||x||), the rounding level
    of a least-squares residual, so that every dual left is noise (a bound
    that is not finite, as when ||a||_F overflows, stops nothing; under the
    inversion's overflow check such an ||a||_F is an overflow); or when
    an outer step fails to reduce the residual (in exact arithmetic every
    step does, so the duals left are rounding noise).

    A non-negative ``start`` with a positive entry is a feasible point,
    which Lawson-Hanson accepts as well (Lawson & Hanson 1974, ch. 23): the
    solve begins on its support, stepping back towards ``start`` while a
    coefficient is <= 0, and keeps that point only if the support passes
    the dependence test and the residual there is below ||c||, the residual
    at x = 0; otherwise it begins at x = 0, and the solves spent on the
    start are counted all the same.

    With no such start (``start`` None or zero) on an ``a`` with at least
    as many rows as columns, the run first solves least squares on all
    columns, with the dependence test.  A solution that passes and is
    positive everywhere is the optimum and is kept with no second solve;
    one that passes with some positive coefficient hands its positive part
    to the start above; otherwise the run begins at x = 0.  This solve is
    counted too.  It replaces the walk of one column per solve that a start
    at zero takes through nearly collinear columns.
    """
    n = a.shape[1]
    x = np.zeros(n)
    cols: list[int] = []
    refused: list[int] = []
    # q is None while Q is the identity, so that Q^T a is a itself
    q, rest = None, c
    iters = 0
    support = [] if start is None else np.flatnonzero(start > 0).tolist()
    if not support and a.shape[0] >= n:
        iters = 1
        solved = _solve_on(a, c, list(range(n)), check=True)
        if solved is not None and np.isfinite(solved[1]).all():
            if (solved[1] > 0).all():
                cols, (q, x, rest) = list(range(n)), solved
            else:
                start = np.maximum(solved[1], 0.0)
                support = np.flatnonzero(start).tolist()
    norm_c, norm_a = float(np.linalg.norm(c)), float(np.linalg.norm(a))
    rest_norm = norm_c if q is None else float(np.linalg.norm(rest))
    if support:
        iters += 1
        solved = _solve_on(a, c, support, check=True)
        if solved is not None:
            warm, iters = _step_back(a, c, start, support, solved, iters)
            if warm is not None:
                warm_norm = float(np.linalg.norm(warm[3]))
                if warm_norm < norm_c:
                    (cols, q, x, rest), rest_norm = warm, warm_norm
    # at x = 0 the residual is ||c||, above the floor unless c = 0, where
    # no dual is positive either
    floor = _residual_floor(norm_c, norm_a, x) if cols else -math.inf
    while iters < MAX_ITERATIONS:
        if rest_norm <= floor:
            return x, iters, True
        k = len(cols)
        qa = a if q is None else q.T @ a
        dual = qa[k:].T @ rest
        dual[cols + refused] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= 0:
            return x, iters, True
        refused.append(j)
        if np.linalg.norm(qa[k:, j]) <= la.DEPENDENCE_CUT * np.linalg.norm(qa[:k, j]):
            continue
        trial = cols + [j]
        iters += 1
        solved = _solve_on(a, c, trial)
        if solved[1][j] <= 0:
            continue
        done, iters = _step_back(a, c, x, trial, solved, iters)
        if done is None:
            return x, iters, False
        trial, q_t, z, rest_t = done
        norm_t = float(np.linalg.norm(rest_t))
        if norm_t >= rest_norm:
            return x, iters, True
        x, cols, q, rest, rest_norm, refused = z, trial, q_t, rest_t, norm_t, []
        floor = _residual_floor(norm_c, norm_a, x)
    return x, iters, False


def invert_cq(
    channel: ClassicalQuantumChannel, probes, data: np.ndarray
) -> InversionResult:
    """Recover a probability weight from probe expectations.

    With M the channel's :func:`design_matrix` for the probes, minimizes
    ||M rho - data||_2 over the probability simplex, where
    M rho - data = (M - data 1^T) rho: one Lawson-Hanson NNLS solve on
    [M - data 1^T; 1^T] against (0, ..., 0, 1), scaled to sum 1, as for
    least-distance programming (Lawson & Hanson 1974, ch. 23); M^T M is
    never formed.  With at least as many probes as labels less one, the
    solve first takes least squares on every label, and begins at its
    positive part, or keeps it when it is positive everywhere; it stops once
    its residual is at the rounding level ``_linalg.RESIDUAL_FLOOR`` (see
    :func:`_nnls`).  ``iterations`` counts least-squares solves, that first
    one included; ``converged`` is False only if ``MAX_ITERATIONS`` cut the
    solve short, and True when it stopped at the floor; ``kkt_residual``
    is the largest violation of the simplex optimality conditions at the
    reported weight.  Inconsistent data gives a positive residual, never an
    exception.  If [M; 1^T] is rank-deficient (non-unique, nullspace
    dimension reported) the weight is the minimum-norm solution of
    [M; 1^T] rho = [M; 1^T] rho_hat for the NNLS optimum rho_hat when that
    is non-negative (it fits equally well), else rho_hat.

    That minimum-norm solution is V_r V_r^T rho_hat, the orthogonal
    projection of rho_hat onto row([M; 1^T]) = span(V_r): every solution is
    rho_hat plus a null vector, the null space is the row space's
    orthogonal complement, so the solution in the row space has the least
    norm (:func:`_tie_break`).  V_r is read off the rank test's own SVD
    when [M; 1^T] has fewer rows than labels; a rank-deficient design with
    at least as many rows takes one SVD with vectors more.

    Raises ``ValueError`` before any solve when M has no row, a NaN or
    infinite entry, or a shape that does not match the data and the space,
    or when the data are not finite; and when the solve overflows (a numpy
    overflow inside it, or a weight that is not finite), with no
    ``RuntimeWarning``.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("at least one probe is required")
    return _invert(design_matrix(channel, probes), data, channel.space)[0]


def _invert(m, data, space: ClassifyingSpace, start: np.ndarray | None = None):
    """:func:`invert_cq` on design rows M, with its NNLS begun at ``start`` (see
    :func:`_nnls`): the result, and the raw NNLS solution, taken before the
    tie-break and the scaling to sum 1, which is a feasible start for the
    same space under other design rows.
    """
    m = np.asarray(m, dtype=float)
    data = np.asarray(data, dtype=float).reshape(-1)
    if m.shape[0] == 0:
        raise ValueError("at least one probe is required")
    if data.shape[0] != m.shape[0]:
        raise ValueError("data length must match the probe count")
    n = space.size
    if m.shape[1] != n:
        raise ValueError("design columns must match the label count")
    if not np.isfinite(data).all():
        raise ValueError("probe data must be finite")
    if not np.isfinite(m).all():
        raise ValueError("design matrix has non-finite entries")
    aug = _augmented(m)
    target = np.zeros(len(aug))
    target[-1] = 1.0
    overflowed = ValueError("the inversion overflowed: the probes' scale gives "
                            "no finite weight")
    try:
        with np.errstate(over="raise"):
            raw, iters, converged = _nnls(aug - np.append(data, 0.0)[:, None],
                                          target, start)
    except FloatingPointError as err:
        raise overflowed from err
    total = raw.sum()
    if not (np.isfinite(total) and total > 0):
        raise overflowed
    x = raw
    sep, vh = _separation(aug, n)
    if not sep.passed:
        tie = _tie_break(aug, x, sep.rank, vh)
        if tie.min() >= -la.TIE_SLACK:
            x = np.clip(tie, 0.0, None)
    x = x / x.sum()
    # KKT: with g the gradient and lam the multiplier of sum x = 1,
    # g + lam = 0 on the support and g + lam >= 0 off it
    g = m.T @ (m @ x - data)
    g -= g[x > 0].mean()
    kkt = max(np.abs(g[x > 0]).max(), -g[x == 0].min(initial=0.0))
    return InversionResult(
        weight=ProbabilityWeight(space, x),
        residual=float(np.linalg.norm(m @ x - data)),
        kkt_residual=float(kkt),
        converged=converged,
        iterations=iters,
        unique=sep.passed,
        rank=sep.rank,
        sigma_min=sep.sigma_min,
        nullspace_dim=n - sep.rank,
    ), raw
