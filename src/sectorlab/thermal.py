"""Gibbs reference states, thermal functions, and the thermality criterion.

Equilibrium at finite dimension means the Gibbs state exp(-beta(H - mu N))/Z;
the KMS identity holds exactly and is exposed as a checkable residual.  A
grid of (beta, mu) points plays the classifying space of thermodynamic
pure phases; the induced channel and its constrained inverse implement the
thermal interpretation of states, level by level along a hierarchy of
probe sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _linalg as la
from .algebra import State
from .channels import (
    ClassicalQuantumChannel,
    ClassifyingSpace,
    InversionResult,
    ProbabilityWeight,
    SpectralBlock,
    _invert,
    design_matrix,
    invert_cq,
)
from .config import CRITERION_TOL, OPERATOR_TOL


@dataclass(frozen=True)
class HamiltonianSystem:
    """Energy operator, optionally with a commuting particle number.

    ``hamiltonian`` and ``number`` are stored as read-only copies, so a
    caller who later changes the array it passed in cannot change the
    system.  The eigendecomposition of H - mu N is computed once per mu
    asked about and kept; every Gibbs quantity of this module reads it.
    """

    hamiltonian: np.ndarray
    number: np.ndarray | None = None
    _spectra: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        h = _frozen_operator(self.hamiltonian, "Hamiltonian")
        object.__setattr__(self, "hamiltonian", h)
        if not la.near(h, la.dagger(h), OPERATOR_TOL):
            raise ValueError("Hamiltonian must be Hermitian")
        if self.number is not None:
            n = _frozen_operator(self.number, "number operator")
            object.__setattr__(self, "number", n)
            if not la.near(n, la.dagger(n), OPERATOR_TOL):
                raise ValueError("number operator must be Hermitian")
            if not la.near(h @ n, n @ h, OPERATOR_TOL, ref=h):
                raise ValueError("number operator must commute with H")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def effective_hamiltonian(self, mu: float | None) -> np.ndarray:
        if mu is None:
            return self.hamiltonian
        if self.number is None:
            raise ValueError("chemical potential given but no number operator")
        return self.hamiltonian - mu * self.number

    def _spectrum(self, mu: float | None) -> tuple[np.ndarray, np.ndarray]:
        """``eigh(H - mu N)``: eigenvalues and eigenvectors, cached per mu.

        An H - mu N with no imaginary part is diagonalised in real
        arithmetic, so its eigenvectors are a float array and the Gibbs
        products built from them are real.  The arrays are shared by every
        later call, so they are read-only.
        """
        cached = self._spectra.get(mu)
        if cached is None:
            _check_finite(mu, "chemical potential")
            h = self.effective_hamiltonian(mu)
            if not np.isfinite(h).all():
                raise ValueError(f"H - mu N has non-finite entries at mu={mu}")
            cached = np.linalg.eigh(h if h.imag.any() else h.real)
            for a in cached:
                a.setflags(write=False)
            self._spectra[mu] = cached
        return cached


def _frozen_operator(a, what: str) -> np.ndarray:
    m = la.as_complex_matrix(a).copy()
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    m.setflags(write=False)
    return m


def _check_finite(value: float | None, what: str) -> None:
    if value is not None and not np.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")


def _check_beta(beta: float) -> None:
    _check_finite(beta, "inverse temperature")
    if beta <= 0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")


@dataclass(frozen=True)
class ThermalGrid:
    """Finite list of (beta, mu) points; mu is None on mu-free grids."""

    points: tuple

    def __post_init__(self):
        pts = []
        for p in self.points:
            beta, mu = (p if len(p) == 2 else (p[0], None)) if isinstance(
                p, (tuple, list)
            ) else (float(p), None)
            beta, mu = float(beta), None if mu is None else float(mu)
            if not (np.isfinite(beta) and (mu is None or np.isfinite(mu))):
                raise ValueError(f"grid point {(beta, mu)} is not finite")
            if beta <= 0:
                raise ValueError(f"inverse temperature must be positive, got {beta}")
            pts.append((beta, mu))
        if len(set(pts)) != len(pts):
            raise ValueError("grid points must be distinct")
        has_mu = [p[1] is not None for p in pts]
        if any(has_mu) and not all(has_mu):
            raise ValueError("either every grid point carries mu or none does")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def has_mu(self) -> bool:
        return bool(self.points) and self.points[0][1] is not None

    def to_space(self) -> ClassifyingSpace:
        if self.has_mu:
            return ClassifyingSpace(self.points, coord_names=("beta", "mu"))
        return ClassifyingSpace(
            tuple((b,) for b, _ in self.points), coord_names=("beta",)
        )


def beta_grid(betas: Sequence[float]) -> ThermalGrid:
    return ThermalGrid(tuple((float(b), None) for b in betas))


def gibbs_state(
    sys: HamiltonianSystem, beta: float, mu: float | None = None
) -> State:
    """exp(-beta (H - mu N)) / Z, overflow-guarded by a spectral shift.

    Reads the system's cached spectrum of H - mu N, so repeated calls at
    one mu cost a scaled outer product each, not a diagonalisation; a real
    product when H - mu N is real.
    """
    _check_beta(beta)
    evals, vecs = sys._spectrum(mu)
    w = _boltzmann(evals, beta)
    return State((vecs * w) @ la.dagger(vecs), label=_gibbs_label(beta, mu))


def _gibbs_label(beta: float, mu: float | None) -> str:
    return f"gibbs(beta={beta:g}" + ("" if mu is None else f",mu={mu:g}") + ")"


def _boltzmann(evals: np.ndarray, beta) -> np.ndarray:
    """exp(-beta e) / Z, from the spectrum shifted to start at 0 (no overflow).

    For a (g,) array of betas, the (g, d) array of the g weight rows; each
    row is bit for bit the row of its beta alone.
    """
    w = np.exp(np.multiply.outer(-np.asarray(beta), evals - evals.min()))
    w /= w.sum(axis=-1, keepdims=True)
    return w


def log_partition(sys: HamiltonianSystem, beta: float, mu: float | None = None) -> float:
    """ln Z with the same spectral shift as gibbs_state."""
    _check_beta(beta)
    evals = sys._spectrum(mu)[0]
    shift = evals.min()
    return float(np.log(np.exp(-beta * (evals - shift)).sum()) - beta * shift)


def kms_residual(
    state: State, sys: HamiltonianSystem, beta: float, mu: float | None = None
) -> float:
    """Largest violation of the beta-KMS condition by ``state``, on matrix units.

    In the eigenbasis of H' = H - mu N (energies E_i, matrix units E_ij, r
    the state's density there) omega(E_ij E_kl) = delta_jk r_li and
    omega(E_kl e^{-bH'} E_ij e^{bH'}) = delta_li r_jk e^{-b(E_i - E_j)}.
    They agree for every i, j, k, l iff r is diagonal and r_ii =
    e^{-b(E_i - E_j)} r_jj: the Gibbs state, the only KMS state.  The
    residual is the largest |r_il|, i != l, and |r_ii - e^{-b(E_i - E_j)}
    r_jj| over the pairs with E_i >= E_j.  The reversed pair is the same
    equation times e^{b(E_i - E_j)} >= 1, so exp(+bH') is never formed.
    A density with a non-finite entry, or a non-finite residual, gives
    inf, never a pass.
    """
    _check_beta(beta)
    if state.dim != sys.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    if not np.isfinite(state.density).all():
        return np.inf
    evals, vecs = sys._spectrum(mu)
    r = la.dagger(vecs) @ state.density @ vecs
    diag = np.diag(r)
    gap = np.subtract.outer(evals, evals)  # E_i - E_j
    down = gap >= 0
    ratio = np.exp(-beta * np.where(down, gap, 0.0))
    # np.max keeps a NaN where the builtin max would drop it
    worst = float(np.max([np.abs(r - np.diag(diag)).max(),
                          np.abs(diag[:, None] - ratio * diag[None, :])[down].max()]))
    return worst if np.isfinite(worst) else np.inf


def thermal_function(
    sys: HamiltonianSystem, grid: ThermalGrid, a: np.ndarray
) -> np.ndarray:
    """The classical function (beta, mu) -> omega_{beta,mu}(A) over the grid.

    Real-valued for Hermitian A.
    """
    a = la.as_complex_matrix(a)
    vals = np.array([
        np.trace(gibbs_state(sys, b, m).density @ a) for b, m in grid.points
    ])
    if la.near(a, la.dagger(a), la.HERMITIAN_CUT):
        return vals.real
    return vals


def build_thermal_channel(
    sys: HamiltonianSystem, grid: ThermalGrid
) -> ClassicalQuantumChannel:
    """The c->q channel whose fibres are the grid's Gibbs states.

    Every Gibbs state at one mu is diagonal in the eigenbasis V of H - mu N,
    so the channel is held as its spectral data: for each distinct mu, the
    grid indices of its points, V from the system's cached ``eigh`` and the
    (points, d) Boltzmann weights (see
    :meth:`~sectorlab.channels.ClassicalQuantumChannel.from_spectra`).  No
    density is formed here.  The stack, the fibre states and their
    ``gibbs(...)`` labels are built only when first read; each fibre is then
    bit for bit :func:`gibbs_state` at its point, float64 when every mu's
    H - mu N is real.
    """
    by_mu: dict = {}
    for i, (_, mu) in enumerate(grid.points):
        by_mu.setdefault(mu, []).append(i)
    blocks = []
    for mu, idx in by_mu.items():
        evals, vecs = sys._spectrum(mu)
        w = _boltzmann(evals, [grid.points[i][0] for i in idx])
        blocks.append(SpectralBlock(idx, vecs, w))
    labels = (_gibbs_label(b, m) for b, m in grid.points)
    return ClassicalQuantumChannel.from_spectra(grid.to_space(), blocks, labels)


def entropy_density(
    sys: HamiltonianSystem, grid: ThermalGrid
) -> np.ndarray:
    """Derived report quantity s = beta (u' - f') from the Gibbs data.

    u' and f' are the internal energy and free energy of the effective
    Hamiltonian H - mu N.  This is the von Neumann entropy of the Gibbs
    state; it is a derived report, not a value of any single thermal
    function (no probe has it as its expectation).
    """
    out = []
    for beta, mu in grid.points:
        evals = sys._spectrum(mu)[0]
        u = float(_boltzmann(evals, beta) @ evals)
        f = -log_partition(sys, beta, mu) / beta
        out.append(beta * (u - f))
    return np.array(out)


# ---------------------------------------------------------------------------
# probe hierarchies and the thermality criterion
# ---------------------------------------------------------------------------

#: a probe set is a sequence of (name, Hermitian matrix) pairs
ProbeSet = Sequence[tuple[str, np.ndarray]]


@dataclass(frozen=True)
class ObservableHierarchy:
    """Nested, named probe sets S_1 <= S_2 <= ... ordered coarse to fine.

    A probe name names one matrix: measured values are keyed by name, so a
    name bound to two different matrices is a ``ValueError``.
    """

    levels: tuple  # of (level_name, ProbeSet)

    def __post_init__(self):
        norm = tuple(
            (str(name), tuple((str(pn), la.as_complex_matrix(pm)) for pn, pm in probes))
            for name, probes in self.levels
        )
        object.__setattr__(self, "levels", norm)
        first: dict[str, np.ndarray] = {}
        for _, probes in norm:
            for pname, m in probes:
                seen = first.setdefault(pname, m)
                if seen is not m and not np.array_equal(seen, m, equal_nan=True):
                    raise ValueError(f"probe {pname!r} names two different matrices")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def validate_nesting(self) -> None:
        """Span inclusion of consecutive levels (:func:`~sectorlab._linalg.in_span`).

        A probe with a NaN or infinite entry is a ``ValueError`` that says
        so, as is a probe whose shape differs from the first probe's.
        """
        first = None
        for lname, probes in self.levels:
            for pname, m in probes:
                if not np.isfinite(m).all():
                    raise ValueError(
                        f"probe {pname!r} of level {lname!r} has non-finite entries")
                first = first or (pname, m.shape)
                if m.shape != first[1]:
                    raise ValueError(f"probe {pname!r} of level {lname!r} has shape "
                                     f"{m.shape}, but probe {first[0]!r} has {first[1]}")
        for (n1, p1), (n2, p2) in zip(self.levels, self.levels[1:]):
            if not p2:
                raise ValueError(f"level {n2!r} is empty but follows {n1!r}")
            span = la.orthonormalize_mats([m for _, m in p2])
            for pname, m in p1:
                if not la.in_span(m, la.project_onto_span(span, m)):
                    raise ValueError(
                        f"probe {pname!r} of level {n1!r} not within level {n2!r}"
                    )


@dataclass(frozen=True)
class ThermalVerdict(InversionResult):
    """Outcome of the thermality check at one probe level: the level's
    inversion (``rank`` and ``sigma_min`` are those of its design matrix
    with the normalization row) and whether its residual is within
    ``tolerance``."""

    level: str
    accepted: bool
    tolerance: float

    @property
    def weight_estimate(self) -> ProbabilityWeight:
        return self.weight

    @property
    def moments(self) -> dict[str, tuple[float, float]]:
        return self.weight.moments()


def _verdict(level_name: str, result: InversionResult, tol: float) -> ThermalVerdict:
    return ThermalVerdict(**vars(result), level=level_name,
                          accepted=result.residual <= tol, tolerance=tol)


def _level_data(measured: Mapping[str, float], level: ProbeSet) -> tuple[list, np.ndarray]:
    """The level's probe names and their measured values; ``KeyError`` if any is missing."""
    names = [str(n) for n, _ in level]
    missing = [n for n in names if n not in measured]
    if missing:
        raise KeyError(f"probes without measured values: {missing}")
    return names, np.array([float(measured[n]) for n in names])


def s_thermal_check(
    measured: Mapping[str, float],
    level: ProbeSet,
    channel: ClassicalQuantumChannel,
    tol: float = CRITERION_TOL,
    level_name: str = "",
) -> ThermalVerdict:
    """Test whether the measured expectations look thermal at this level.

    Accepts iff some grid weight reproduces every probe value in the level
    to within ``tol`` (inversion residual); the witness weight is returned
    as the conditional thermal interpretation of the measured state.
    """
    _, data = _level_data(measured, level)
    result = invert_cq(channel, [m for _, m in level], data)
    return _verdict(level_name, result, tol)


@dataclass(frozen=True)
class HierarchyReport:
    """The verdicts level by level, and ``design_rows``: each probe name's
    row of the design matrix the levels inverted on, its values at the
    grid's points."""

    verdicts: tuple[ThermalVerdict, ...]
    max_accepted_level: str | None
    residual_monotone: bool
    design_rows: Mapping[str, np.ndarray] = field(default_factory=dict, repr=False,
                                                  compare=False)


def hierarchy_report(
    measured: Mapping[str, float],
    hierarchy: ObservableHierarchy,
    channel: ClassicalQuantumChannel,
    tol: float = CRITERION_TOL,
) -> HierarchyReport:
    """Run the thermality check at every level of the hierarchy.

    One :func:`~sectorlab.channels.design_matrix` over the hierarchy's
    distinct probe names serves every level, and each level inverts on its
    own rows of it, so a probe has one row however many levels list it.
    The design computes each probe's row on its own, so the rows are bit
    for bit those :func:`s_thermal_check` builds for the level alone.  On a
    channel from :func:`build_thermal_channel` it reads the spectral data,
    so no density and no state is built here.  The rows are kept in the
    report as ``design_rows``.

    Each level's NNLS solve begins at the coarser level's raw solution (see
    :func:`~sectorlab.channels._nnls`): a feasible point, so every level
    still reaches its own optimum, and on nested levels it usually lies
    close to it, which saves most of the solves a start at zero needs.  A
    level's residual and fitted values agree with :func:`s_thermal_check`
    to rounding, and so do its weights where the level is ``unique``; on a
    rank-deficient level the weights are an optimum with that fit, not
    necessarily the one :func:`s_thermal_check` returns.  Residuals are
    non-decreasing with the level (larger probe sets can only fit worse);
    the report records the finest accepted level, or None when even the
    coarsest fails (or the hierarchy is empty).
    """
    row: dict[str, int] = {}
    mats = []
    levels = []
    for name, probes in hierarchy.levels:
        names, data = _level_data(measured, probes)
        if not names:
            raise ValueError("at least one probe is required")
        for pname, m in probes:
            if pname not in row:
                row[pname] = len(mats)
                mats.append(m)
        levels.append((name, [row[n] for n in names], data))
    design = design_matrix(channel, mats) if mats else None
    verdicts = []
    start = None
    for name, idx, data in levels:
        result, start = _invert(design[idx], data, channel.space, start)
        verdicts.append(_verdict(name, result, tol))
    residuals = [v.residual for v in verdicts]
    monotone = all(
        r1 <= r2 + la.MONOTONE_SLACK for r1, r2 in zip(residuals, residuals[1:])
    )
    accepted = [v.level for v in verdicts if v.accepted]
    return HierarchyReport(
        verdicts=tuple(verdicts),
        max_accepted_level=accepted[-1] if accepted else None,
        residual_monotone=monotone,
        design_rows={pname: design[i] for pname, i in row.items()},
    )
