"""Finite groups, unitary representations, averaging, and isotypic structure.

Groups are explicit multiplication tables; Haar measure is uniform.  The
isotypic decomposition returns the data of the sector picture: labels, a
multiplicity space and an irrep space per label, and the change-of-basis
unitary realizing U(g) = direct sum of 1_H (x) gamma(g) blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _linalg as la
from .algebra import OperatorAlgebra, algebra_of, wedderburn_blocks
from .config import DIMENSION_CAP
from .errors import DimensionCapError, IsotypicError


def check_order(order: int) -> None:
    """``DimensionCapError`` for an order above ``DIMENSION_CAP``, whose
    regular representation would exceed the dense-matrix cap; checked
    before any multiplication table is built or read."""
    if order > DIMENSION_CAP:
        raise DimensionCapError(
            f"group order {order} exceeds the cap {DIMENSION_CAP}, the "
            "largest regular representation held")


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table of element indices."""

    table: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=int))

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def identity(self) -> int:
        n = self.order
        for e in range(n):
            if np.array_equal(self.table[e], np.arange(n)) and np.array_equal(
                self.table[:, e], np.arange(n)
            ):
                return e
        raise ValueError("multiplication table has no identity element")

    @cached_property
    def inverses(self) -> np.ndarray:
        e = self.identity
        inv = np.full(self.order, -1, dtype=int)
        rows, cols = np.nonzero(self.table == e)
        inv[rows] = cols
        if np.any(inv < 0):
            raise ValueError("multiplication table has non-invertible elements")
        inv.setflags(write=False)
        return inv

    def validate(self) -> None:
        """Check the order against the cap and every group law, associativity
        on every triple: (ab)c = a(bc) over blocks of columns c."""
        n = self.order
        check_order(n)
        if self.table.shape != (n, n) or self.table.min() < 0 or self.table.max() >= n:
            raise ValueError("table must be n x n with entries in range(n)")
        e = self.identity
        inv = self.inverses
        if not np.all(self.table[np.arange(n), inv] == e):
            raise ValueError("inverse law fails")
        t = self.table
        # k columns c at a time, (n, n, k) blocks of about 2**20 entries
        step = max(1, (1 << 20) // (n * n))
        for c0 in range(0, n, step):
            cs = slice(c0, c0 + step)
            # entry [a, b, c]: (ab)c != a(bc)
            bad = t[t, cs] != t[:, t[:, cs]]
            if bad.any():
                a, b, c = np.argwhere(bad)[0]
                raise ValueError(f"associativity fails at ({a},{b},{c0 + c})")

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Conjugacy classes as index arrays, ordered by smallest member."""
        n = self.order
        inv = self.inverses
        seen = np.zeros(n, dtype=bool)
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            orbit = {int(self.table[self.table[h, g], inv[h]]) for h in range(n)}
            cls = np.array(sorted(orbit))
            seen[cls] = True
            classes.append(cls)
        return classes


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"cyclic:{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as a table over lexicographically sorted permutation tuples."""
    if n > 5:
        raise ValueError("symmetric_group is intended for small n (<= 5)")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.zeros((m, m), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return FiniteGroup(table, name=f"symmetric:{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k}, built from the 2x2 unit-quaternion matrices."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    units = [np.eye(2, dtype=complex), 1j * sx, 1j * sy, 1j * sz]
    elements = [s * u for u in units for s in (1, -1)]
    m = len(elements)
    table = np.zeros((m, m), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            prod = a @ b
            matches = [k for k, c in enumerate(elements) if np.allclose(prod, c)]
            table[i, j] = matches[0]
    return FiniteGroup(table, name="quaternion:8")


BUILTIN_GROUPS = {
    "cyclic": cyclic_group,
    "symmetric": symmetric_group,
}


def builtin_group(spec: str) -> FiniteGroup:
    """Resolve a name like ``cyclic:2``, ``symmetric:3`` or ``quaternion:8``."""
    name, _, arg = spec.partition(":")
    if name == "quaternion":
        if arg and int(arg) != 8:
            raise ValueError("only quaternion:8 is available")
        return quaternion_group()
    if name not in BUILTIN_GROUPS:
        raise ValueError(f"unknown built-in group {spec!r}")
    if not arg:
        raise ValueError(f"built-in group {name!r} needs an order, e.g. {name}:2")
    n = int(arg)
    if name == "cyclic":
        check_order(n)
    return BUILTIN_GROUPS[name](n)


@dataclass(frozen=True)
class UnitaryRep:
    """A unitary representation: one d x d matrix per group element."""

    group: FiniteGroup
    matrices: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", np.asarray(self.matrices, dtype=complex)
        )

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[-1])

    def validate(self) -> None:
        """Check unitarity and the homomorphism law
        (:func:`~sectorlab._linalg.relation_holds`)."""
        n = self.group.order
        if self.matrices.shape != (n, self.dim, self.dim):
            raise ValueError("need one matrix per group element")
        m, t, eye = self.matrices, self.group.table, np.eye(self.dim)
        for g in range(n):
            if not la.relation_holds(la.dagger(m[g]) @ m[g], eye):
                raise ValueError(f"matrix for element {g} is not unitary")
        for g in range(n):
            for h in range(n):
                if not la.relation_holds(m[g] @ m[h], m[t[g, h]]):
                    raise ValueError(f"not a homomorphism at ({g},{h})")

    @cached_property
    def monomial(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(cols, phases) when every U(g) has one nonzero entry per row.

        Row i of U(g) is then phases[g, i] at column cols[g, i], and U(g)
        acts by index: (U(g) F)[i] = phases[g, i] F[cols[g, i]].  Entries
        are compared with exact zero, so a rep with any other entry, however
        small, is None and keeps the dense products.  Permutation, sign and
        clock representations are monomial.  Computed once per rep, whose
        matrices are taken as fixed (the dataclass is frozen).
        """
        nonzero = self.matrices != 0
        if not np.all(np.count_nonzero(nonzero, axis=2) == 1):
            return None
        cols = np.argmax(nonzero, axis=2)
        return cols, np.take_along_axis(self.matrices, cols[..., None], axis=2)[..., 0]

    def conjugate(self, g: int, f: np.ndarray) -> np.ndarray:
        """The action tau_g(F) = U(g) F U(g)*."""
        if self.monomial is None:
            u = self.matrices[g]
            return u @ f @ la.dagger(u)
        return self._conjugates_by_index(slice(g, g + 1), f)[0]

    def _conjugates_by_index(self, gs: slice, f: np.ndarray) -> np.ndarray:
        """The stack of U(g) F U(g)* over a slice of the group, for a
        monomial rep: entry (i, j) is phases_i F[cols_i, cols_j] conj(phases_j),
        multiplied in the dense product's order."""
        cols, phases = self.monomial[0][gs], self.monomial[1][gs]
        return (phases[:, :, None] * f[cols[:, :, None], cols[:, None, :]]
                * phases.conj()[:, None, :])

    def images(self, e: np.ndarray) -> np.ndarray:
        """The stack of U(g) e over the group, for a d x m matrix e."""
        if self.monomial is None:
            return self.matrices @ e
        cols, phases = self.monomial
        return phases[..., None] * e[cols]

    @cached_property
    def span(self) -> np.ndarray:
        """Orthonormal rows (row-major vec) spanning {U(g)}, the bicommutant
        U''; computed once per rep and read-only."""
        rows = la.mats_to_rows(la.orthonormalize_mats(self.matrices))
        rows.flags.writeable = False
        return rows


def trivial_rep(group: FiniteGroup, dim: int = 1) -> UnitaryRep:
    mats = np.broadcast_to(np.eye(dim, dtype=complex), (group.order, dim, dim))
    return UnitaryRep(group, np.array(mats))


def rep_from_matrices(group: FiniteGroup, matrices) -> UnitaryRep:
    return UnitaryRep(group, np.asarray(list(matrices), dtype=complex))


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation: U(g) e_h = e_{gh}."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.table[g], np.arange(n)] = 1.0
    return UnitaryRep(group, mats)


def cyclic_rep_from_unitary(u: np.ndarray, n: int) -> UnitaryRep:
    """Representation of cyclic:n generated by a unitary with u^n = 1."""
    u = la.as_complex_matrix(u)
    d = u.shape[0]
    if not la.relation_holds(np.linalg.matrix_power(u, n), np.eye(d)):
        raise ValueError(f"generator does not satisfy u^{n} = 1")
    mats = np.array([np.linalg.matrix_power(u, k) for k in range(n)])
    return UnitaryRep(cyclic_group(n), mats)


def tensor_power_rep(rep: UnitaryRep, sites: int) -> UnitaryRep:
    """Site-wise action on a chain: g acts by U(g) on every tensor factor.

    No sites is the trivial representation on C.
    """
    if sites < 0:
        raise ValueError(f"number of sites must be non-negative, got {sites}")
    if sites == 0:
        return trivial_rep(rep.group)
    mats = rep.matrices
    for _ in range(sites - 1):
        mats = np.array([np.kron(a, b) for a, b in zip(mats, rep.matrices)])
    return UnitaryRep(rep.group, mats)


# ---------------------------------------------------------------------------
# conditional expectation, fixed points and intertwiners
# ---------------------------------------------------------------------------


#: entries of one batch of conjugates in :func:`average` (1 MiB of complex)
_BATCH_ENTRIES = 1 << 16


def average(f: np.ndarray, rep: UnitaryRep) -> np.ndarray:
    """Group average m(F) = (1/|G|) sum_g U(g) F U(g)*.

    The projection of B(C^d) onto the commutant of the representation;
    restricted to an invariant algebra it is the conditional expectation
    onto the fixed points.
    """
    f = la.as_complex_matrix(f)
    if f.shape[0] != rep.dim:
        raise ValueError("dimension mismatch between F and the representation")
    n = rep.group.order
    out = np.zeros_like(f)
    if rep.monomial is None:
        for u in rep.matrices:
            out += u @ f @ la.dagger(u)
        return out / n
    # by index, in batches of about _BATCH_ENTRIES entries; adding out into
    # each batch's first term keeps the dense loop's order of sums
    step = max(1, _BATCH_ENTRIES // f.size)
    for start in range(0, n, step):
        terms = rep._conjugates_by_index(slice(start, start + step), f)
        terms[0] += out
        out = terms.sum(axis=0)
    return out / n


@dataclass(frozen=True)
class ChargedMultiplet:
    """A multiplet psi_1..psi_m in the field algebra implementing a morphism.

    The action is A -> sum_i psi_i A psi_i*; :func:`endomorphism_failure`
    decides whether it is a unital *-endomorphism of the observables.
    """

    label: str
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(la.as_complex_matrix(m) for m in self.matrices)
        if not mats:
            raise ValueError("multiplet needs at least one matrix")
        object.__setattr__(self, "matrices", mats)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """The morphism action sum_i psi_i A psi_i*."""
        out = np.zeros_like(self.matrices[0])
        for psi in self.matrices:
            out += psi @ a @ la.dagger(psi)
        return out

    def pullback_density(self, rho: np.ndarray) -> np.ndarray:
        """Density of omega o morphism for omega with density rho."""
        out = np.zeros_like(self.matrices[0])
        for psi in self.matrices:
            out += la.dagger(psi) @ rho @ psi
        return out


def identity_multiplet(label: str, dim: int) -> ChargedMultiplet:
    return ChargedMultiplet(label, (np.eye(dim, dtype=complex),))


def endomorphism_residuals(factors, rep: UnitaryRep,
                           legs: tuple[UnitaryRep, UnitaryRep] | None = None) -> np.ndarray:
    """Per group element g, max_ij ||(1 - Pi)(psi_i* U(g) psi_j)||_HS / sqrt(d).

    Pi projects onto span{U(h)} = U'' (``rep.span``).  With sum_i psi_i
    psi_i* = 1, rho = sum_i psi_i . psi_i* is a unital *-endomorphism of
    the commutant U' iff every residual vanishes.  Proof: V = sum_i e_i (x)
    psi_i* is an isometry with rho(A) = V* (1 (x) A) V.

    - rho is multiplicative on U' iff V V*, whose blocks are psi_i* psi_j,
      commutes with 1 (x) U': for A, B in U', rho(AB) - rho(A) rho(B) =
      V* (1 (x) A)(1 - V V*)(1 (x) B) V, which vanishes for every A, B iff
      (1 - V V*)(1 (x) A) V = 0, i.e. iff V V* commutes with 1 (x) U' (a
      *-algebra).  The commutant of 1 (x) U' is M_m (x) U'', so this is the
      g = e case: psi_i* psi_j in U''.
    - Given that, (1 (x) A) V = V rho(A) and V* (1 (x) A) = rho(A) V*, so
      rho(A) U(g) = U(g) rho(A) for every A in U' iff V U(g) V*, whose blocks
      are psi_i* U(g) psi_j, commutes with 1 (x) U', i.e. lies in M_m (x) U''.

    ``factors`` f_i act on the first leg of C^d = C^k (x) C^r with psi_i =
    f_i (x) 1, where ``legs`` = (A, B) gives U(g) = A_g (x) B_g as matrices
    (a net's symmetry in region-first site order, which is its symmetry in
    any order); the residual is then that of (f_i* A_g f_j) (x) B_g.  Without
    ``legs`` the factors are the bare multiplet: k = d and B trivial.  The
    verdict cut is ``MORPHISM_CUT``.
    """
    f = np.asarray(factors, dtype=complex)
    local, rest = legs if legs is not None else (rep, None)
    m, k = f.shape[0], f.shape[1]
    # A_g f_j for every g and j, as (g, j, k, k)
    af = local.images(f.transpose(1, 0, 2).reshape(k, m * k))
    af = af.reshape(-1, k, m, k).transpose(0, 2, 1, 3)
    blocks = la.dagger(f)[None, :, None] @ af[:, None]  # f_i* A_g f_j: (g, i, j, k, k)
    if rest is not None:
        blocks = la.kron(blocks, rest.matrices[:, None, None])
    rows = blocks.reshape(len(blocks), m * m, -1)
    span = rep.span
    residual = np.linalg.norm(rows - (rows @ span.conj().T) @ span, axis=-1)
    return residual.max(axis=1) / np.sqrt(rep.dim)


def endomorphism_failure(factors, rep: UnitaryRep,
                         legs: tuple[UnitaryRep, UnitaryRep] | None = None) -> str | None:
    """Why the multiplet psi_i = f_i (x) 1 implements no unital
    *-endomorphism of the commutant U' of ``rep``, or None when it does.

    ``factors`` and ``legs`` are those of :func:`endomorphism_residuals`,
    with C^d = C^k (x) C^rest.  Three checks, in this order:

    - unitality: ||sum_i psi_i psi_i* - 1||_HS = ||sum_i f_i f_i* - 1||_HS
      sqrt(rest) <= ``MORPHISM_CUT`` * d;
    - multiplicativity: the residual at g = e (the blocks psi_i* psi_j)
      <= ``MORPHISM_CUT``;
    - invariance: every residual <= ``MORPHISM_CUT``.

    NaN fails each.  Localized morphisms, the classifying map, the induced
    charged state and the locality inversion all decide by this test; the
    failure names the first check that fails, with its value.
    """
    f = np.asarray(factors, dtype=complex)
    k = f.shape[1]
    unit = la.hs_norm((f @ la.dagger(f)).sum(axis=0) - np.eye(k)) * np.sqrt(rep.dim // k)
    no = "no unital *-endomorphism of the observables: "
    if not unit <= la.MORPHISM_CUT * rep.dim:
        return no + f"not unital (||sum psi psi* - 1|| = {unit:.3e})"
    residuals = endomorphism_residuals(f, rep, legs)
    at_e = residuals[rep.group.identity]
    if not at_e <= la.MORPHISM_CUT:
        return no + f"not multiplicative on the observables (residual {at_e:.3e})"
    worst = residuals.max()
    if not worst <= la.MORPHISM_CUT:
        return no + f"its image leaves the observable algebra (residual {worst:.3e})"
    return None


def fixed_point_algebra(f_alg: OperatorAlgebra, rep: UnitaryRep) -> OperatorAlgebra:
    """The invariant subalgebra {A in F : tau_g(A) = A for all g}, F^G.

    Requires tau_g(F) = F, checked on F's two generators for every g
    (``ValueError`` otherwise).  The check is exact for any generating set:
    tau_g is a *-automorphism of B(C^d), so tau_g(F) is the *-algebra
    generated by the generators' images, which lies in F exactly when they
    do, and it has F's dimension, so it is then all of F.  The copy basis W
    the generators are built in moves only the rounding of the membership
    tests.  Then the group average maps F onto F^G, so the averages of F's
    projections of a random Hermitian and a random complex matrix are
    generic elements of F^G, from which
    :func:`~sectorlab.algebra.algebra_of` finds its Wedderburn data.  For
    F = B(C^d) this is U', which ``isotypic_decomposition(rep)`` labels.
    """
    if rep.dim != f_alg.ambient_dim:
        raise ValueError("representation dimension must match the ambient algebra")
    d = f_alg.ambient_dim
    for g in range(rep.group.order):
        if not all(f_alg.contains(rep.conjugate(g, x)) for x in f_alg.generators):
            raise ValueError(f"group element {g} does not map the algebra onto itself")

    def draw(rng):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (average(f_alg.project(la.random_hermitian(rng, d)), rep),
                average(f_alg.project(z), rep))

    return algebra_of(draw)


def _intertwiners(element, d1: int) -> np.ndarray:
    """Orthonormal basis (k, d2, d1) of {S : S x1 = x2 S for every (x1, x2) in B}.

    ``element(rng)`` returns a generic element of a *-algebra B as the pair
    (x1, x2) of its actions on C^d1 and C^d2.  The space is P2 B' P1, P1 the
    projection onto C^d1, and B' = W (+ 1_k (x) M_n) W* (Wedderburn data by
    :func:`~sectorlab.algebra.algebra_of`).  P1 acts on every copy of a block
    as one n x n projection p (eigenvalues 0 or 1 up to rounding, split at
    1/2).  In p's eigenbasis the units sum_i |copy i, l2><copy i, l1| / sqrt(k)
    with p(l1) = 1, p(l2) = 0 are an orthonormal basis of P2 B' P1.
    """
    def draw(rng):
        (x1, x2), (y1, y2) = element(rng), element(rng)
        z = np.zeros((d1, len(x2)))
        return (np.block([[x1 + la.dagger(x1), z], [z.T, x2 + la.dagger(x2)]]) / 2,
                np.block([[y1, z], [z.T, y2]]))

    alg = algebra_of(draw)
    units = []
    for w, k, n in alg.block_columns():
        mu, u = np.linalg.eigh(la.dagger(w[:d1, :n]) @ w[:d1, :n])  # copy 0
        w = w.reshape(-1, k, n) @ u
        one, zero = w[:d1, :, mu > 0.5], w[d1:, :, mu <= 0.5]
        s = np.einsum("yib,xia->bayx", zero, one.conj()) / np.sqrt(k)
        units.append(s.reshape(-1, len(w) - d1, d1))
    return np.concatenate(units)


def intertwiner_space(rep1: UnitaryRep, rep2: UnitaryRep) -> list[np.ndarray]:
    """Orthonormal basis of {S : S U1(g) = U2(g) S}; empty means disjoint.

    :func:`_intertwiners` of the group algebra, whose generic element is
    sum_g c_g (U1(g), U2(g)) for random complex c_g.
    """
    if not np.array_equal(rep1.group.table, rep2.group.table):
        raise ValueError("representations must share the group")

    def element(rng):
        c = rng.standard_normal(rep1.group.order) + 1j * rng.standard_normal(rep1.group.order)
        return [np.tensordot(c, rep.matrices, axes=(0, 0)) for rep in (rep1, rep2)]

    return list(_intertwiners(element, rep1.dim))


# ---------------------------------------------------------------------------
# isotypic decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorDecomposition:
    """Sector data of a representation: H_gamma (x) V_gamma blocks.

    ``unitary`` W satisfies W* U(g) W = direct_sum over labels of
    1_{mult} (x) irrep(g), with blocks in label order.  ``projections``
    are the minimal central projections P_gamma in the original basis.
    """

    group: FiniteGroup
    ambient_dim: int
    labels: tuple[str, ...]
    mult_dims: tuple[int, ...]
    irrep_dims: tuple[int, ...]
    unitary: np.ndarray
    projections: np.ndarray
    irreps: tuple[np.ndarray, ...]

    @property
    def n_sectors(self) -> int:
        return len(self.labels)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for m, dv in zip(self.mult_dims, self.irrep_dims):
            out.append(slice(start, start + m * dv))
            start += m * dv
        return out

    def characters(self) -> np.ndarray:
        """Character table slice: chi[label, g] = tr irrep_label(g)."""
        return np.array([[np.trace(u) for u in irr] for irr in self.irreps])

    def block_rep_matrix(self, g: int) -> np.ndarray:
        """The direct sum over labels of 1_mult (x) irrep(g)."""
        blocks = [
            np.kron(np.eye(m), irr[g])
            for m, irr in zip(self.mult_dims, self.irreps)
        ]
        d = self.ambient_dim
        out = np.zeros((d, d), dtype=complex)
        for sl, b in zip(self.block_slices(), blocks):
            out[sl, sl] = b
        return out

    def reconstruction_residual(self, rep: UnitaryRep) -> float:
        """max_g || U(g) - W (direct sum 1 (x) irrep(g)) W* ||_F."""
        w = self.unitary
        res = 0.0
        for g in range(self.group.order):
            rebuilt = w @ self.block_rep_matrix(g) @ la.dagger(w)
            res = max(res, float(np.linalg.norm(rep.matrices[g] - rebuilt)))
        return res

    def observable_algebra(self) -> OperatorAlgebra:
        """The commutant of the representation, W (+ M_mult (x) 1_V) W*.

        Held as these Wedderburn data: its dimension, sum of mult_dim^2
        over labels, is set by the eigenvalue grouping of
        :func:`isotypic_decomposition`, and no basis is built until read.
        """
        return OperatorAlgebra.from_blocks(
            self.unitary, list(zip(self.mult_dims, self.irrep_dims)))


def _character_sort_key(irrep: np.ndarray):
    chars = np.trace(irrep, axis1=1, axis2=2)
    return tuple((-round(re, 9), -round(im, 9))
                 for re, im in zip(chars.real.tolist(), chars.imag.tolist()))


def _twirl(ux: np.ndarray, irrep: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g U(g) x (1_mult (x) irrep(g))*, copy by copy, from the
    images ux[g] = U(g) x of a sector's d x (mult * dim) columns x."""
    n, d, width = ux.shape
    dim = irrep.shape[1]
    ux = ux.reshape(n, d * width // dim, dim).transpose(1, 0, 2).reshape(-1, n * dim)
    return (ux @ irrep.conj().transpose(0, 2, 1).reshape(n * dim, dim)).reshape(d, width) / n


def isotypic_decomposition(rep: UnitaryRep, seed: int = 0) -> SectorDecomposition:
    """Decompose a representation into isotypic blocks H_gamma (x) V_gamma.

    The blocks of the commutant U' by :func:`~sectorlab.algebra.wedderburn_blocks`:
    the generic Hermitian element is the group average K of a random
    Hermitian matrix, whose eigenspaces (grouped by
    :func:`~sectorlab._linalg.group_eigenvalues`) are the irreducible
    copies.  The characters chi_j(g) = tr V_j* U(g) V_j of the copies come
    from the diagonal of V* U(g) V alone; every copy must have
    <chi_j, chi_j> = |G|, else the next seed is tried.  These inner
    products are integers, so copies with <chi_i, chi_j> / |G| > 1/2 form
    one sector, exactly.  The copies are aligned with the group average of
    a random complex matrix.  Each sector's aligned columns X are then
    twirled, X -> (1/|G|) sum_g U(g) X (1 (x) irrep(g))*, the orthogonal
    projection onto the intertwiners of 1 (x) irrep into U: eigenvectors
    of K that are off by delta (about eps / the smallest eigenvalue gap of
    K) come back invariant, and orthonormal, to O(delta^2).  Labels are
    canonical: sorted by irrep
    dimension ascending, then by character values in descending
    lexicographic order (the trivial irrep sorts first among
    one-dimensional labels).
    """
    d = rep.dim
    n = rep.group.order
    seen = {}

    def draw(rng):
        k = average(la.random_hermitian(rng, d), rep)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return k, average(z, rep)

    def leaders(e, starts, ey):
        ue = rep.images(e)
        diag = np.einsum("dc,gdc->gc", e.conj(), ue)
        chars = np.add.reduceat(diag, starts[:-1], axis=1).T
        overlaps = (chars.conj() @ chars.T).real / n
        if not np.all(np.rint(np.diag(overlaps)) == 1):
            raise IsotypicError("an eigenspace of K is reducible")
        seen.update(e=e, starts=starts, ue=ue)
        # each copy's sector is led by the first copy equivalent to it
        return np.argmax(overlaps > 0.5, axis=0)

    found = wedderburn_blocks(draw, leaders, seed, IsotypicError,
                              "isotypic decomposition")
    e, starts, ue = seen["e"], seen["starts"], seen["ue"]
    ux = rep.images(np.concatenate([sec[0] for sec in found], axis=1))
    sectors, start = [], 0
    for cols, mult, dim, lead in found:
        lead_cols = slice(starts[lead], starts[lead + 1])
        irrep = la.dagger(e[:, lead_cols]) @ ue[:, :, lead_cols]
        twirled = _twirl(ux[:, :, start:start + cols.shape[1]], irrep)
        sectors.append((twirled, irrep, mult, dim))
        start += cols.shape[1]
    sectors.sort(key=lambda sec: (sec[3], _character_sort_key(sec[1])))
    return SectorDecomposition(
        group=rep.group,
        ambient_dim=d,
        labels=tuple(f"gamma{k}" for k in range(len(sectors))),
        mult_dims=tuple(sec[2] for sec in sectors),
        irrep_dims=tuple(sec[3] for sec in sectors),
        unitary=np.concatenate([sec[0] for sec in sectors], axis=1),
        projections=np.array([sec[0] @ la.dagger(sec[0]) for sec in sectors]),
        irreps=tuple(sec[1] for sec in sectors),
    )
