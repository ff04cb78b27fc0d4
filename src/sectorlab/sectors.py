"""Superselection sectors, the charging channel, and charge estimation.

A finite symmetry acting on a full matrix algebra splits the space into
charge blocks H_gamma (x) V_gamma.  Charge-carrying morphisms (given as
conjugation multiplets in the field algebra) turn classical weights over
the labels into states via the charging channel; central projections read
the charge distribution back off any state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _linalg as la
from .algebra import OperatorAlgebra, State
from .channels import (
    ClassicalQuantumChannel,
    ClassifyingSpace,
    ProbabilityWeight,
)
from .config import OPERATOR_TOL, STATE_TOL
# ChargedMultiplet and identity_multiplet live in groups; this path names
# them too
from .groups import (
    ChargedMultiplet,
    SectorDecomposition,
    UnitaryRep,
    average,
    endomorphism_failure,
    identity_multiplet,
    isotypic_decomposition,
)

#: a charge distribution is a probability weight over sector labels
ChargeDistribution = ProbabilityWeight


def charge_space(decomp: SectorDecomposition) -> ClassifyingSpace:
    return ClassifyingSpace(decomp.labels)


def decompose_sectors(f_alg: OperatorAlgebra, rep: UnitaryRep,
                      seed: int = 0) -> SectorDecomposition:
    """Sector decomposition of a symmetry acting on the full field algebra.

    The field algebra must be all of B(C^d) (``ValueError`` otherwise).
    Its fixed-point algebra, the observables, is then the representation's
    commutant, whose blocks are exactly the isotypic components of the
    implementing representation, and
    :meth:`SectorDecomposition.observable_algebra` builds it from them (no
    commutant solve).  For a smaller F the observables F^G have another
    centre.
    """
    d = f_alg.ambient_dim
    if rep.dim != d:
        raise ValueError("representation and field algebra dimensions differ")
    if f_alg.dim != d * d:
        raise ValueError(
            f"the field algebra must be the full matrix algebra B(C^{d}) "
            f"(dimension {d * d}), got dimension {f_alg.dim}"
        )
    return isotypic_decomposition(rep, seed)


def k_map(
    a: np.ndarray,
    vacuum: State,
    morphisms: Sequence[ChargedMultiplet],
    rep: UnitaryRep | None = None,
) -> np.ndarray:
    """The classifying map: label gamma -> omega_0(rho_gamma(A)).

    Unital and positive when each rho_gamma is a unital *-endomorphism of
    the observables.  Given the symmetry ``rep``, each morphism must be one
    of its commutant (:func:`~sectorlab.groups.endomorphism_failure`,
    ``ValueError`` otherwise).
    """
    a = la.as_complex_matrix(a)
    if rep is not None:
        for m in morphisms:
            failure = endomorphism_failure(m.matrices, rep)
            if failure is not None:
                raise ValueError(f"morphism {m.label!r} is {failure}")
    return np.array([
        np.trace(vacuum.density @ m.apply(a)) for m in morphisms
    ])


def charging_channel(
    decomp: SectorDecomposition,
    vacuum: State,
    morphisms: Sequence[ChargedMultiplet],
) -> ClassicalQuantumChannel:
    """The c->q channel nu -> sum_gamma nu_gamma (omega_0 o rho_gamma).

    Fibre densities are the pullbacks of the vacuum through each morphism;
    morphisms must be supplied in the decomposition's label order.
    """
    if tuple(m.label for m in morphisms) != decomp.labels:
        raise ValueError(
            "morphism labels must match the sector labels in order: "
            f"{[m.label for m in morphisms]} vs {list(decomp.labels)}"
        )
    fibres = tuple(
        State(m.pullback_density(vacuum.density), label=f"charged:{m.label}")
        for m in morphisms
    )
    return ClassicalQuantumChannel(charge_space(decomp), fibres)


def estimate_charge(
    omega: State, decomp: SectorDecomposition
) -> ChargeDistribution:
    """Charge distribution nu_gamma = tr(rho P_gamma) from the projections."""
    vals = np.einsum("kij,ji->k", decomp.projections, omega.density).real
    vals = np.clip(vals, 0.0, None)
    return ProbabilityWeight(charge_space(decomp), vals / vals.sum())


def vacuum_label(decomp: SectorDecomposition, omega0: State) -> str:
    """The sector carrying the designated vacuum; requires full support
    (a charge weight within ``STATE_TOL`` of one)."""
    nu = estimate_charge(omega0, decomp)
    idx = int(np.argmax(nu.weights))
    if abs(nu.weights[idx] - 1.0) > STATE_TOL:
        raise ValueError(
            f"vacuum state is not supported in a single sector: {nu.weights}"
        )
    return decomp.labels[idx]


@dataclass(frozen=True)
class InducedStateReport:
    """Verification record for the charged vector Psi."""

    psi: np.ndarray
    max_deviation: float
    norm_deviation: float
    n_checked: int


def induce_charged_state(
    nu: ChargeDistribution,
    multiplets: Mapping[str, ChargedMultiplet],
    omega0_vector: np.ndarray,
    rep: UnitaryRep,
) -> InducedStateReport:
    """Build Psi = sum_gamma sum_i sqrt(nu_gamma) psi_i* Omega_0 and verify it.

    Precondition: each multiplet with positive weight implements a unital
    *-endomorphism of the observables, the commutant of ``rep``
    (:func:`~sectorlab.groups.endomorphism_failure`, ``ValueError``
    otherwise).
    The returned report verifies, over the d^2 matrix units E_ab of the
    field algebra, that the charged mixture agrees with the vector state on
    group averages: |sum_gamma nu_gamma omega_0(rho_gamma(m(E_ab))) -
    <Psi|m(E_ab) Psi>|.  The group average is self-adjoint for the trace
    pairing, so with D the mixture's density minus |Psi><Psi| that
    deviation is |tr(D m(E_ab))| = |m(D)_ba|: one group average of D
    gives all d^2 of them.
    """
    omega0_vector = np.asarray(omega0_vector, dtype=complex).reshape(-1)
    d = omega0_vector.shape[0]
    if abs(np.linalg.norm(omega0_vector) - 1.0) > STATE_TOL:
        raise ValueError("vacuum vector must be normalized")
    active = [
        (lab, w) for lab, w in zip(nu.space.labels, nu.weights) if w > 0
    ]
    for lab, _ in active:
        if lab not in multiplets:
            raise ValueError(f"no multiplet supplied for charged label {lab!r}")
    for lab, _ in active:
        failure = endomorphism_failure(multiplets[lab].matrices, rep)
        if failure is not None:
            raise ValueError(f"morphism {lab!r} is {failure}")
    psi_vec = np.zeros(d, dtype=complex)
    for lab, w in active:
        for m in multiplets[lab].matrices:
            psi_vec += np.sqrt(w) * (la.dagger(m) @ omega0_vector)
    rho0 = np.outer(omega0_vector, omega0_vector.conj())
    mixture = np.zeros((d, d), dtype=complex)
    for lab, w in active:
        mixture += w * multiplets[lab].pullback_density(rho0)
    deviation = average(mixture - np.outer(psi_vec, psi_vec.conj()), rep)
    return InducedStateReport(
        psi=psi_vec,
        max_deviation=float(np.abs(deviation).max()),
        norm_deviation=float(abs(np.linalg.norm(psi_vec) - 1.0)),
        n_checked=d * d,
    )


def sector_energies(
    decomp: SectorDecomposition, hamiltonian: np.ndarray
) -> dict[str, float]:
    """Report: minimum of a supplied Hamiltonian's spectrum in each sector.

    Purely descriptive output (the relation between energy and charge is
    not a claim this package makes).  H must be a finite d x d matrix,
    Hermitian as :class:`~sectorlab.thermal.HamiltonianSystem` requires
    (:func:`~sectorlab._linalg.near` at ``OPERATOR_TOL``), and must not
    mix sectors: the blocks of W* H W between different sectors must be
    ``near`` zero at ``OPERATOR_TOL`` relative to H.  ``ValueError``
    otherwise, since a sector's minimum is then no property of H.
    """
    h = la.as_complex_matrix(hamiltonian)
    w = decomp.unitary
    d = w.shape[0]
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian must be {d} x {d}, got {h.shape[0]} x {h.shape[1]}")
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian has non-finite entries")
    if not la.near(h, la.dagger(h), OPERATOR_TOL):
        raise ValueError("Hamiltonian must be Hermitian")
    slices = decomp.block_slices()
    off = la.dagger(w) @ h @ w
    for sl in slices:
        off[sl, sl] = 0
    if not la.near(off, np.zeros_like(off), OPERATOR_TOL, ref=h):
        raise ValueError("Hamiltonian mixes sectors: W* H W has off-sector blocks")
    out = {}
    for label, sl in zip(decomp.labels, slices):
        # each sector's own product, not a slice of the whole one, whose
        # sums may round differently
        cols = w[:, sl]
        restricted = la.dagger(cols) @ h @ cols
        out[label] = float(np.linalg.eigvalsh(restricted).min())
    return out
