"""`lattice` workload: sectors and locality on Z2 chains and finite groups.

Dense linear algebra does the work here (commutant solves, group averages,
Gram-Schmidt).  Sizes are fixed per slot; the seed moves flip sites,
regions, random unitaries and retry seeds, so every seed costs about the
same.  The three chains (LatticeNet of 3, 4 and 5 sites) are the models
under study and are shared by the whole run, as a user keeps one net for
many states; every other sectorlab object is built anew per operation.
"""

from __future__ import annotations

import numpy as np

import oracles as orc
from common import Op, cycle, require
from sectorlab import algebra, dhrnet, groups, sectors
from sectorlab.algebra import OperatorAlgebra, State

NOMINAL_ROUND_S = 6.5

BLOCKS = {
    8: [(2, 1), (1, 2), (2, 2)],
    12: [(2, 2), (1, 3), (1, 5)],
    16: [(3, 2), (2, 3), (4, 1)],
    "16b": [(1, 4), (2, 2), (2, 2), (2, 1), (1, 2)],
    24: [(2, 4), (3, 3), (5, 1), (1, 2)],
    32: [(4, 3), (3, 4), (2, 2), (2, 2)],
}

GROUPS = {
    "symmetric:3": orc.permutation_table(3),
    "symmetric:4": orc.permutation_table(4),
    "quaternion:8": orc.quaternion_table(),
    "cyclic:2": orc.cyclic_table(2),
}


def prepare(seed: int):
    """The nets shared by all rounds, with their observable algebras."""
    ctx = {"nets": {n: z2_net(n) for n in (3, 4, 5)}}
    for n in (3, 4):
        ctx["nets"][n].observable_algebra()  # cached on the net, as users see it
    return ctx


def z2_net(n: int) -> dhrnet.LatticeNet:
    return dhrnet.LatticeNet(n, groups.cyclic_rep_from_unitary(orc.SIGMA_Z, 2))


def f1_rep(name: str):
    """An F1 input (cyclic:3 to 6, clock:3): non-real characters, fixed inputs."""
    if name == "clock:3":
        w = np.exp(2j * np.pi / 3)
        return groups.cyclic_rep_from_unitary(np.diag([1, w, w * w]), 3)
    return groups.regular_rep(groups.builtin_group(name))


def chain4_parts():
    """Field algebra and parity of the 4-site chain, as new objects."""
    return algebra.full_matrix_algebra(16), z2_net(4).global_rep


# ---------------------------------------------------------------------------
# slot factories
# ---------------------------------------------------------------------------


def _flip_state(n: int, flips) -> State:
    bits = [1 if s in flips else 0 for s in range(n)]
    return State(orc.basis_density(bits))


def dhr_slot(ctx, n: int, both_ends: bool):
    net = ctx["nets"][n]
    vac = State(orc.basis_density([0] * n))

    def make(rng, k):
        flips = (0, n - 1) if both_ends else (cycle(range(n), k),)
        omega = _flip_state(n, flips)

        def check(rep):
            seen = orc.flipped_sites(omega.density, n)
            expected = orc.expected_witnesses(seen, n)
            require(set(rep.witness_regions) == expected,
                    f"witnesses {rep.witness_regions} != {sorted(expected)}")
            require(rep.passes == bool(expected), "verdict disagrees with witnesses")
            require(len(rep.distances) == len(orc.chain_intervals(n)),
                    "not every region was scanned")
        return Op("dhr_check", lambda: dhrnet.dhr_check(omega, vac, net), check)
    return make


def invert_slot(ctx, n: int, both_ends: bool):
    net = ctx["nets"][n]
    vac = State(orc.basis_density([0] * n))

    def make(rng, k):
        flips = (0, n - 1) if both_ends else (cycle(range(n), k),)
        omega = _flip_state(n, flips)

        def check(rep):
            region = orc.expected_inversion_region(orc.flipped_sites(omega.density, n), n)
            require(rep.found == (region is not None), f"found={rep.found}, expected {region}")
            if region is None:
                return
            require(tuple(rep.region) == region, f"region {rep.region} != {region}")
            u = rep.morphism.multiplet.matrices[0]
            diff = orc.even_part(u.conj().T @ vac.density @ u - omega.density, n)
            require(np.abs(diff).max() < 1e-10, "morphism does not reproduce the state")
        return Op("invert_selected_state",
                  lambda: dhrnet.invert_selected_state(omega, vac, net), check)
    return make


def haag_slot(ctx, n: int, m: int, observable: bool):
    net = ctx["nets"][n]

    def make(rng, k):
        start = cycle(range(n - m + 1), k)
        region = list(range(start, start + m))
        lhs, rhs = orc.haag_dims(n, m, observable)

        def check(rep):
            require((rep.lhs_dim, rep.rhs_dim) == (lhs, rhs),
                    f"dims {(rep.lhs_dim, rep.rhs_dim)} != {(lhs, rhs)}")
            require(rep.defect == lhs - rhs and rep.passes == (lhs == rhs),
                    "defect or verdict inconsistent")
        return Op("haag_duality_check",
                  lambda: dhrnet.haag_duality_check(net, region, observable), check)
    return make


def isotypic_slot(ctx, name: str):
    table = GROUPS[name]

    def make(rng, k):
        seed = int(rng.integers(1 << 16))
        rep = groups.regular_rep(groups.builtin_group(name))

        def check(dec):
            require(dec.n_sectors == orc.conjugacy_class_count(table),
                    f"{dec.n_sectors} sectors for {name}")
            require(tuple(sorted(dec.irrep_dims)) == orc.IRREP_DIMS[name], "irrep dims")
            require(dec.mult_dims == dec.irrep_dims, "regular rep: mult != irrep dim")
            require(sum(v * v for v in dec.irrep_dims) == table.shape[0], "sum d^2 != |G|")
        return Op("isotypic_decomposition",
                  lambda: groups.isotypic_decomposition(rep, seed=seed), check)
    return make


def f1_slot(ctx, name: str):
    order = int(name.split(":")[1])

    def make(rng, k):
        rep = f1_rep(name)

        def check(dec):
            require(dec.n_sectors == orc.conjugacy_class_count(orc.cyclic_table(order)),
                    "sector count")
            require(sum(m * v for m, v in zip(dec.mult_dims, dec.irrep_dims)) == rep.dim,
                    "block sizes")
        return Op("isotypic_decomposition",
                  lambda: groups.isotypic_decomposition(rep), check, fault="F1",
                  fault_errors=(groups.IsotypicError,))
    return make


def decompose_slot(ctx):
    def make(rng, k):
        seed = int(rng.integers(1 << 16))
        field, rep = chain4_parts()

        def check(dec):
            require(dec.n_sectors == orc.conjugacy_class_count(orc.cyclic_table(2)),
                    "two parity sectors")
            require(dec.mult_dims == (8, 8) and dec.irrep_dims == (1, 1), "block dims")
        return Op("decompose_sectors",
                  lambda: sectors.decompose_sectors(field, rep, seed=seed), check)
    return make


def charge_chain_slot(ctx):
    def make(rng, k):
        dec = sectors.decompose_sectors(*chain4_parts())
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = z @ z.conj().T
        omega = State(rho / np.trace(rho).real)
        even = float(np.trace(omega.density @ (np.eye(16) + orc.parity(4))).real / 2)

        def check(nu):
            require(abs(nu.weights[0] - even) < 1e-10 and abs(nu.weights[1] - (1 - even)) < 1e-10,
                    f"charges {nu.weights} != parity weights {even}")
        return Op("estimate_charge", lambda: sectors.estimate_charge(omega, dec), check)
    return make


def charge_group_slot(ctx):
    expected = sorted(v * v / 24 for v in orc.IRREP_DIMS["symmetric:4"])

    def make(rng, k):
        dec = groups.isotypic_decomposition(
            groups.regular_rep(groups.builtin_group("symmetric:4")))
        rho = np.zeros((24, 24), dtype=complex)
        h = int(rng.integers(24))
        rho[h, h] = 1.0
        omega = State(rho)

        def check(nu):
            require(np.allclose(sorted(nu.weights), expected, atol=1e-10),
                    f"charges {nu.weights} != d^2/|G|")
        return Op("estimate_charge", lambda: sectors.estimate_charge(omega, dec), check)
    return make


def block_slot(d, kind: str):
    blocks = BLOCKS[d]

    def make(rng, k):
        order = rng.permutation(len(blocks))
        blk = [blocks[i] for i in order]
        dim, basis, gens = orc.block_algebra(blk, rng)
        alg = OperatorAlgebra(dim, basis, contains_unit=True)

        def commutes(stack):
            return max(np.abs(c @ g - g @ c).max() for c in stack for g in gens) < 1e-8

        if kind == "commutant":
            def check(c):
                require(c.dim == sum(m * m for _, m in blk), f"commutant dim {c.dim}")
                require(commutes(c.basis), "commutant element fails to commute")
            return Op("commutant", lambda: algebra.commutant(alg), check)
        if kind == "center":
            def check(z):
                require(z.dim == len(blk), f"centre dim {z.dim} != {len(blk)}")
                require(commutes(z.basis), "centre element fails to commute")
            return Op("center", lambda: algebra.center(alg), check)

        def check(projs):
            require(len(projs) == len(blk), f"{len(projs)} projections")
            require(np.abs(sum(projs) - np.eye(dim)).max() < 1e-9, "projections do not sum to 1")
            for p in projs:
                require(np.abs(p @ p - p).max() < 1e-9 and np.abs(p - p.conj().T).max() < 1e-9,
                        "not an orthogonal projection")
            ranks = sorted(int(round(np.trace(p).real)) for p in projs)
            require(ranks == sorted(k * m for k, m in blk), f"ranks {ranks}")
        return Op("minimal_central_projections",
                  lambda: algebra.minimal_central_projections(alg), check)
    return make


def pauli_slot(rank: int):
    def make(rng, k):
        while True:
            words = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(rank)]
            if orc.pauli_algebra_dim(words) == 2 ** rank:
                break
        mats = [orc.pauli_matrix(w) for w in words]

        def check(alg):
            require(alg.dim == orc.pauli_algebra_dim(words), f"dim {alg.dim} for {words}")
        return Op("generate_algebra", lambda: algebra.generate_algebra(mats), check)
    return make


def slots(ctx):
    """One round, kinds interleaved; F1 cases are the fixed-input failures."""
    return [
        dhr_slot(ctx, 3, False),
        haag_slot(ctx, 3, 1, False),
        isotypic_slot(ctx, "symmetric:3"),
        block_slot(8, "commutant"),
        invert_slot(ctx, 3, False),
        f1_slot(ctx, "cyclic:3"),
        dhr_slot(ctx, 4, False),
        haag_slot(ctx, 4, 2, True),
        isotypic_slot(ctx, "quaternion:8"),
        block_slot(8, "center"),
        decompose_slot(ctx),
        f1_slot(ctx, "cyclic:4"),
        invert_slot(ctx, 4, False),
        dhr_slot(ctx, 4, True),
        isotypic_slot(ctx, "symmetric:4"),
        block_slot(8, "mcp"),
        charge_chain_slot(ctx),
        f1_slot(ctx, "cyclic:5"),
        haag_slot(ctx, 4, 2, False),
        invert_slot(ctx, 3, True),
        isotypic_slot(ctx, "cyclic:2"),
        block_slot(16, "commutant"),
        charge_group_slot(ctx),
        f1_slot(ctx, "cyclic:6"),
        haag_slot(ctx, 3, 2, True),
        block_slot(16, "center"),
        pauli_slot(4),
        f1_slot(ctx, "clock:3"),
        block_slot(16, "mcp"),
        block_slot(12, "commutant"),
        block_slot("16b", "center"),
        block_slot(12, "center"),
        block_slot("16b", "mcp"),
        block_slot(12, "mcp"),
        block_slot("16b", "commutant"),
        block_slot(24, "commutant"),
        block_slot(32, "commutant"),
        haag_slot(ctx, 5, 2, True),
        pauli_slot(6),
    ]
