"""Toy lattice nets, the locality selection criterion, and localized morphisms.

Sites of a finite chain carry a common on-site dimension and a symmetry
action; regions are site subsets, region algebras are tensor factors
(fields) or their invariant parts (observables).  The observables are
the commutant of the symmetry on the sites, built from its isotypic
decomposition (:func:`~sectorlab.groups.isotypic_decomposition`), so the
sector grouping, not a commutant solve, sets their dimension.  Isotony
and locality hold by construction and are asserted by tests, not assumed
silently.  The "causal complement" of a region is its set complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import _linalg as la
from .algebra import (
    OperatorAlgebra,
    State,
    commutant,
    full_matrix_algebra,
    scalar_algebra,
)
from .config import CRITERION_TOL, DIMENSION_CAP
from .groups import (
    UnitaryRep,
    _intertwiners,
    average,
    endomorphism_residuals,
    isotypic_decomposition,
    tensor_power_rep,
)

if TYPE_CHECKING:  # sectors loads channels, which no lattice check runs
    from .sectors import ChargedMultiplet


@dataclass(frozen=True)
class LatticeNet:
    """A chain of ``n_sites`` sites with a per-site symmetry action."""

    n_sites: int
    onsite_rep: UnitaryRep

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.onsite_dim ** self.n_sites > DIMENSION_CAP:
            raise ValueError(
                f"total dimension {self.onsite_dim ** self.n_sites} exceeds "
                f"the cap {DIMENSION_CAP}"
            )

    @property
    def onsite_dim(self) -> int:
        return self.onsite_rep.dim

    @property
    def total_dim(self) -> int:
        return self.onsite_dim ** self.n_sites

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(self.n_sites))

    @cached_property
    def _cache(self) -> dict:
        # data that depend only on the net, each built once and read-only:
        # per site count k its rep and observables
        return {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _local_rep(self, k: int) -> UnitaryRep:
        """The symmetry on k sites, g acting by U(g) on each (on C,
        trivially, for k = 0)."""
        def build():
            # a copy: at k = 1 the power shares the caller's on-site matrices
            mats = np.array(tensor_power_rep(self.onsite_rep, k).matrices)
            return UnitaryRep(self.onsite_rep.group, _read_only(mats))
        return self._cached(("rep", k), build)

    def _local_observables(self, k: int) -> OperatorAlgebra:
        """The invariant part of k sites' tensor factor (see
        :meth:`observable_algebra`)."""
        def build():
            alg = isotypic_decomposition(self._local_rep(k)).observable_algebra()
            _read_only(alg.unitary)
            return alg
        return self._cached(("obs", k), build)

    @property
    def global_rep(self) -> UnitaryRep:
        return self._local_rep(self.n_sites)

    def observable_algebra(self) -> OperatorAlgebra:
        """Global invariant algebra (the full chain's observables).

        The commutant of ``global_rep``, held as the Wedderburn data of its
        isotypic decomposition, whose eigenvalue grouping sets the
        dimension (``IsotypicError`` when it stays ambiguous).  Built once
        per net, as the observables of every smaller site count are.
        """
        return self._local_observables(self.n_sites)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def normalize_region(net: LatticeNet, region) -> tuple[int, ...]:
    sites = tuple(sorted(set(int(s) for s in region)))
    if any(s < 0 or s >= net.n_sites for s in sites):
        raise ValueError(f"region {sites} not within the chain's sites")
    return sites


def complement_sites(net: LatticeNet, region) -> tuple[int, ...]:
    region = set(normalize_region(net, region))
    return tuple(s for s in net.sites if s not in region)


def _move_legs(net: LatticeNet, sites, m: np.ndarray, back: bool = False,
               cols: bool = True) -> np.ndarray:
    """``m`` with its site legs moved from the chain's site order to
    region-first order (the region's sites, then the rest, each ascending),
    or ``back``: the row and column legs of an operator, or with ``cols``
    false the row legs only (of a Wedderburn unitary W).  A transpose: every
    entry keeps its bits.  ``m`` may come with its legs grouped otherwise,
    as (k, rest, k, rest); the result is a d x c matrix."""
    n, d0 = net.n_sites, net.onsite_dim
    legs = list(sites) + [s for s in net.sites if s not in sites]
    if back:
        legs = np.argsort(legs).tolist()
    if cols:
        m = m.reshape([d0] * 2 * n).transpose(legs + [n + s for s in legs])
    else:
        m = m.reshape([d0] * n + [-1]).transpose(legs + [n])
    return m.reshape(net.total_dim, -1)


def embed_factor_operator(net: LatticeNet, region, m: np.ndarray) -> np.ndarray:
    """Embed an operator on the region's tensor factor, identity outside."""
    sites = normalize_region(net, region)
    m = la.as_complex_matrix(m)
    if m.shape[0] != net.onsite_dim ** len(sites):
        raise ValueError("operator dimension does not match the region factor")
    full = np.kron(m, np.eye(net.total_dim // m.shape[0], dtype=complex))
    return _move_legs(net, sites, full, back=True)


def region_algebra(
    net: LatticeNet, region, observable: bool = False
) -> OperatorAlgebra:
    """Local algebra of a site set: full factor, or its invariant part.

    The field version is the full factor, the observable version the
    commutant of the symmetry on the factor, from its isotypic
    decomposition (see :meth:`LatticeNet.observable_algebra`).  Either is
    tensored with the identity: the factor's data (W_f, (k, n)) become
    (W_f (x) 1, (k, n * rest)), rows in the chain's site order.  The
    empty region gives the scalars.
    """
    sites = normalize_region(net, region)
    d = net.total_dim
    if not sites:
        return scalar_algebra(d)
    k = net.onsite_dim ** len(sites)
    factor = net._local_observables(len(sites)) if observable else full_matrix_algebra(k)
    rest = d // k
    w = _move_legs(net, sites, np.kron(factor.unitary, np.eye(rest, dtype=complex)),
                   back=True, cols=False)
    return OperatorAlgebra.from_blocks(w, [(m, n * rest) for m, n in factor.blocks])


def enumerate_regions(
    net: LatticeNet, all_subsets: bool = False
) -> list[tuple[int, ...]]:
    """Candidate localization regions: proper subsets of the chain.

    Default: the empty region and every contiguous interval shorter than
    the chain (the lattice stand-in for bounded double cones).  With
    ``all_subsets`` every proper subset is enumerated (chains up to 8
    sites).
    """
    n = net.n_sites
    if all_subsets:
        if n > 8:
            raise ValueError("all-subsets enumeration is capped at 8 sites")
        out = []
        for r in range(n):
            out.extend(tuple(c) for c in itertools.combinations(range(n), r))
        return out
    regions: list[tuple[int, ...]] = [()]
    for length in range(1, n):
        for start in range(n - length + 1):
            regions.append(tuple(range(start, start + length)))
    return regions


def _check_states(omega: State, omega0: State, net: LatticeNet) -> None:
    if omega.dim != net.total_dim or omega0.dim != net.total_dim:
        raise ValueError("states must live on the net's total space")
    omega.check_finite()
    omega0.check_finite()


def _observable_distance(delta: np.ndarray, net: LatticeNet, sites) -> float:
    """Norm of the functional tr(delta .) restricted to A(sites).

    A(sites) is the invariant part of the sites' tensor factor.  The other
    sites are traced out, the reduced operator is averaged over the
    symmetry acting on ``sites`` (the trace-preserving conditional
    expectation onto A(sites)) and its trace norm is returned: that is
    sup |tr(delta A)| over A in A(sites) with ||A|| <= 1, with no basis of
    A(sites).  With no sites the algebra is the scalars and the norm is
    |tr delta|.
    """
    if not sites:
        return float(abs(np.trace(delta)))
    reduced = delta if len(sites) == net.n_sites else _partial_trace(delta, net, sites)
    averaged = average(reduced, net._local_rep(len(sites)))
    return float(np.linalg.svd(averaged, compute_uv=False).sum())


def _partial_trace(m: np.ndarray, net: LatticeNet, sites) -> np.ndarray:
    """Trace of a d x d operator over every site outside ``sites``.

    The result acts on the sites' tensor factor, in the site order of
    :func:`embed_factor_operator`; with no sites it is the 1 x 1 trace.
    """
    k = net.onsite_dim ** len(sites)
    rest = net.total_dim // k
    return np.trace(_move_legs(net, sites, m).reshape(k, rest, k, rest), axis1=1, axis2=3)


@dataclass(frozen=True)
class DhrReport:
    passes: bool
    witness_regions: tuple[tuple[int, ...], ...]
    distances: tuple[tuple[tuple[int, ...], float], ...]
    tol: float


def dhr_check(
    omega: State,
    omega0: State,
    net: LatticeNet,
    tol: float = CRITERION_TOL,
    all_subsets: bool = False,
) -> DhrReport:
    """Locality criterion: does omega match the vacuum outside some region?

    For every candidate region O the distance is the norm of the
    difference functional omega - omega0 restricted to the observables of
    the complement, ||omega - omega0|_A(O')||: the trace norm of the group
    average of tr_O(rho - rho0).  It does not depend on any basis of
    A(O') and is never below the largest difference on an orthonormal
    basis of A(O') (the distance of earlier versions).  O is a witness
    when the distance falls within ``tol``; the criterion passes when at
    least one witness exists.  Densities with non-finite entries raise
    ``ValueError``.
    """
    _check_states(omega, omega0, net)
    delta = omega.density - omega0.density
    distances = []
    witnesses = []
    for region in enumerate_regions(net, all_subsets):
        dist = _observable_distance(delta, net, complement_sites(net, region))
        distances.append((region, dist))
        if dist <= tol:
            witnesses.append(region)
    witnesses.sort(key=lambda r: (len(r), r))
    return DhrReport(
        passes=bool(witnesses),
        witness_regions=tuple(witnesses),
        distances=tuple(distances),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# localized morphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizedMorphism:
    """An endomorphism A -> sum_i psi_i A psi_i* with region-supported psi."""

    net: LatticeNet
    region: tuple[int, ...]
    multiplet: ChargedMultiplet

    @property
    def label(self) -> str:
        return self.multiplet.label

    def apply_raw(self, a: np.ndarray) -> np.ndarray:
        """The action without the observable-membership precondition."""
        return self.multiplet.apply(a)

    def validate(self) -> None:
        """Check unitality, localization, and that rho is a unital
        *-endomorphism of the observables.

        - unitality: sum psi_i psi_i* = 1, to MORPHISM_CUT * d;
        - localization: rho is trivial on the complement's fields F(O') exactly
          when every psi_i commutes with F(O'), i.e. equals f_i (x) 1 in
          region-first site order, f_i its normalised partial trace over O';
        - endomorphism: with unitality, rho maps the observables U' into
          themselves multiplicatively iff psi_i* U(g) psi_j lies in
          span{U(h)} for every i, j and g
          (:func:`~sectorlab.groups.endomorphism_residuals`, on the f_i in
          region-first site order).  The g = e blocks psi_i* psi_j alone
          decide multiplicativity and are checked first.

        Each check allows ``MORPHISM_CUT``; none reads a basis, a generator
        or a seed.
        """
        tol = la.MORPHISM_CUT
        net, psis = self.net, self.multiplet.matrices
        d = net.total_dim
        if self.multiplet.unit_defect() > tol * d:
            raise ValueError("multiplet is not unital (sum psi psi* != 1)")
        k = net.onsite_dim ** len(self.region)
        rest = d // k
        one = np.eye(rest, dtype=complex)
        factors = []
        for p in psis:
            q = _move_legs(net, self.region, p)
            f = np.trace(q.reshape(k, rest, k, rest), axis1=1, axis2=3) / rest
            if np.linalg.norm(q - np.kron(f, one)) > tol:
                raise ValueError("morphism does not act trivially on the complement")
            factors.append(f)
        residuals = endomorphism_residuals(factors, net.global_rep,
                                           _legs(net, len(self.region)))
        if residuals[net.onsite_rep.group.identity] > tol:
            raise ValueError("morphism is not multiplicative on the observables")
        if residuals.max() > tol:
            raise ValueError("morphism image leaves the observable algebra")


def _legs(net: LatticeNet, k: int) -> tuple[UnitaryRep, UnitaryRep]:
    """The symmetry on a k-site region and on the rest: in region-first
    site order the net's U(g) is A_g (x) B_g."""
    return net._local_rep(k), net._local_rep(net.n_sites - k)


def localized_morphism(
    net: LatticeNet, region, factor_matrices, label: str
) -> LocalizedMorphism:
    """Build a morphism from matrices given on the region's tensor factor."""
    from .sectors import ChargedMultiplet

    sites = normalize_region(net, region)
    mats = tuple(
        embed_factor_operator(net, sites, la.as_complex_matrix(m))
        for m in factor_matrices
    )
    return LocalizedMorphism(net, sites, ChargedMultiplet(label, mats))


def identity_morphism(net: LatticeNet, label: str = "identity") -> LocalizedMorphism:
    from .sectors import ChargedMultiplet

    return LocalizedMorphism(
        net, (), ChargedMultiplet(label, (np.eye(net.total_dim, dtype=complex),)))


def apply_morphism(morph: LocalizedMorphism, a: np.ndarray) -> np.ndarray:
    """Apply the morphism to an observable; rejects non-observables.

    ``a`` is an observable when it lies (:func:`~sectorlab._linalg.in_span`)
    in the observables, onto which the group average is the trace-orthogonal
    projection.
    """
    a = la.as_complex_matrix(a)
    avg = average(a, morph.net.global_rep)
    if not la.in_span(a, avg):
        raise ValueError("operator is outside the observable algebra "
                         f"(residual {la.hs_norm(a - avg):.3e})")
    return morph.apply_raw(a)


def selected_state(morph: LocalizedMorphism, omega0: State) -> State:
    """The state omega_0 o morphism, as a density on the ambient space."""
    rho = morph.multiplet.pullback_density(omega0.density)
    return State(rho, label=f"W({morph.label})")


def _check_same_net(m1: LocalizedMorphism, m2: LocalizedMorphism) -> None:
    """``ValueError`` unless the nets have one length and one on-site action."""
    if m1.net.n_sites != m2.net.n_sites or not np.array_equal(
            m1.net.onsite_rep.matrices, m2.net.onsite_rep.matrices):
        raise ValueError("morphisms live on different nets")


def compose_morphisms(
    m1: LocalizedMorphism, m2: LocalizedMorphism, label: str | None = None
) -> LocalizedMorphism:
    """Composition (doubling as the monoidal product of the category)."""
    from .sectors import ChargedMultiplet

    _check_same_net(m1, m2)
    mats = tuple(
        a @ b for a in m1.multiplet.matrices for b in m2.multiplet.matrices
    )
    region = tuple(sorted(set(m1.region) | set(m2.region)))
    lab = label if label is not None else f"{m1.label}*{m2.label}"
    return LocalizedMorphism(m1.net, region, ChargedMultiplet(lab, mats))


def solve_intertwiners(
    rho: LocalizedMorphism, sigma: LocalizedMorphism
) -> list[np.ndarray]:
    """Basis of {T observable : T rho(A) = sigma(A) T on the whole algebra}.

    :func:`~sectorlab.groups._intertwiners` of pi(A) U(G), pi = rho (+) sigma:
    its commutant holds the T that intertwine and commute with U (are
    observable), and sum_g pi(a_g) U(g), a_g group averages of random complex
    matrices, is generic in it.  Precondition: rho and sigma are unital
    *-homomorphisms of A = U' into A (:meth:`LocalizedMorphism.validate`), so
    U(g) commutes with pi(A) and pi(A) U(G) is a *-algebra.  ``ValueError``
    for morphisms on different nets.  An empty result means the morphisms
    are disjoint; the basis is orthonormal under the trace inner product.
    """
    _check_same_net(rho, sigma)
    rep = rho.net.global_rep

    def element(rng):
        shape = (rep.group.order, rep.dim, rep.dim)
        a = [average(z, rep) for z in rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
        return [sum(m.apply_raw(ag) @ u for ag, u in zip(a, rep.matrices)) for m in (rho, sigma)]

    return list(_intertwiners(element, rep.dim))


@dataclass(frozen=True)
class HaagReport:
    region: tuple[int, ...]
    observable: bool
    lhs_dim: int
    rhs_dim: int
    defect: int
    passes: bool


def haag_duality_check(
    net: LatticeNet, region, observable: bool = False
) -> HaagReport:
    """Compare A(O')' against A(O)'' for a region of the net.

    The defect dim LHS - dim RHS vanishes exactly on the field net; on the
    observable net a positive defect is the signature of superselection
    structure.  Both sides are closed forms from the data at every size:
    the commutant of the complement's algebra, and the double commutant of
    the region's algebra, each a swap of block sizes with no basis.
    """
    sites = normalize_region(net, region)
    comp = complement_sites(net, sites)
    lhs = commutant(region_algebra(net, comp, observable=observable))
    rhs = commutant(commutant(region_algebra(net, sites, observable=observable)))
    defect = lhs.dim - rhs.dim
    return HaagReport(
        region=sites,
        observable=observable,
        lhs_dim=lhs.dim,
        rhs_dim=rhs.dim,
        defect=defect,
        passes=defect == 0,
    )


# ---------------------------------------------------------------------------
# inverse search: from a selected state back to a localized morphism
# ---------------------------------------------------------------------------


def default_onsite_candidates(d0: int) -> list[tuple[str, np.ndarray]]:
    """Weyl shift/phase candidates generating charges on a d0-level site."""
    shift = np.roll(np.eye(d0, dtype=complex), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi * np.arange(d0) / d0))
    cands = [("X", shift), ("Z", phase)]
    if d0 > 1:
        cands.append(("XZ", shift @ phase))
    return cands


@dataclass(frozen=True)
class InversionSearchReport:
    found: bool
    morphism: LocalizedMorphism | None
    region: tuple[int, ...] | None
    distance: float
    n_tried: int
    miss: str | None = None


def invert_selected_state(
    omega: State,
    omega0: State,
    net: LatticeNet,
    candidates: list[tuple[str, np.ndarray]] | None = None,
    tol: float = CRITERION_TOL,
) -> InversionSearchReport:
    """Search for a localized morphism rho with omega = omega_0 o rho.

    Scans tensor products u of candidate on-site unitaries over the
    intervals that :func:`dhr_check` finds to be witnesses, keeping only
    those for which Ad u maps the observable algebra into itself: u* U(g) u
    must lie in the span of the U(h) for every g, the test of
    :meth:`LocalizedMorphism.validate` for the multiplet [u]
    (:func:`~sectorlab.groups.endomorphism_residuals`).  A hit must
    reproduce omega on the whole observable algebra: the distance is the
    norm of the difference functional restricted to it, the trace norm of
    the group average of rho - u* rho0 u (never below the largest
    difference on an orthonormal observable basis, the distance of earlier
    versions).  A candidate acts on its region's legs only, in the
    region-first site order where psi = u (x) 1: the endomorphism test and
    the pullback never embed it, and only the morphism returned is
    embedded.

    Only witness regions are searched, and that loses no hit: a rho
    localised in O is trivial on A(O'), so omega_0 o rho = omega_0 there
    and every candidate in O is at least ``dhr_check``'s distance for O,
    ||(omega - omega0)|A(O')||, away from omega.  Each region's bound is
    computed when the scan, in :func:`enumerate_regions` order, reaches it;
    the empty region's is the identity's own distance.  ``n_tried`` counts
    the identity and the words of the regions searched.  A miss names its
    kind in ``miss``: ``"excluded"`` when no region is a witness, a proof
    that no interval-localised morphism gives omega, with the smallest
    bound as its ``distance``; ``"not_found"`` otherwise, with the smallest
    distance seen, heuristic: not a proof that no morphism exists.  A
    candidate that is not a d0 x d0 matrix, or a density with non-finite
    entries, raises ``ValueError``.
    """
    _check_states(omega, omega0, net)
    d0 = net.onsite_dim
    cands = candidates if candidates is not None else default_onsite_candidates(d0)
    for name, m in cands:
        if la.as_complex_matrix(m).shape != (d0, d0):
            raise ValueError(f"candidate {name!r} is not a {d0} x {d0} on-site operator")
    sites = net.sites
    d = net.total_dim
    delta = omega.density - omega0.density
    tried = 0
    best = least = np.inf
    # the endomorphism verdict depends on the candidate word, not on where
    # its region lies
    normal: dict[tuple[int, ...], bool] = {}
    for region in enumerate_regions(net):
        bound = _observable_distance(delta, net, complement_sites(net, region))
        least = min(least, bound)
        if not region:
            best = bound
            tried += 1
            if bound <= tol:
                return InversionSearchReport(True, identity_morphism(net),
                                             (), bound, tried)
            continue
        if bound > tol:
            continue
        # in region-first order psi = u (x) 1, so psi* rho0 psi contracts u
        # on the region's legs only
        k = d0 ** len(region)
        rest = d // k
        rho0 = _move_legs(net, region, omega0.density).reshape(k, rest * k * rest)
        for word in itertools.product(range(len(cands)), repeat=len(region)):
            tried += 1
            u = np.asarray(cands[word[0]][1])
            for i in word[1:]:
                u = la.kron(u, np.asarray(cands[i][1]))
            u = la.as_complex_matrix(u)
            if word not in normal:
                normal[word] = endomorphism_residuals(
                    [u], net.global_rep, _legs(net, len(region))).max() <= la.MORPHISM_CUT
            if not normal[word]:
                continue
            rho = (la.dagger(u) @ rho0).reshape(k, rest, k, rest).transpose(0, 1, 3, 2) @ u
            rho = _move_legs(net, region, rho.transpose(0, 1, 3, 2), back=True)
            dist = _observable_distance(omega.density - rho, net, sites)
            best = min(best, dist)
            if dist <= tol:
                name = "".join(cands[i][0] for i in word)
                morph = localized_morphism(net, region, [u], f"{name}@{region}")
                return InversionSearchReport(True, morph, region, dist, tried)
    if least > tol:  # no region is a witness
        return InversionSearchReport(False, None, None, least, tried, "excluded")
    return InversionSearchReport(False, None, None, best, tried, "not_found")
