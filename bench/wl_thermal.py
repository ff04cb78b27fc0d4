"""`thermal` workload: Gibbs channels, thermality hierarchies, q->c inversion.

The active-set solver and the Gibbs evaluations do the work; no matrix is
larger than 32.  Exact Gibbs mixtures are drawn only where the design is
well determined (every probe level has at least as many probes as grid
points), because that is where the current solver is exact on every seed.
The F2 cases, where it is not, are fixed inputs.
"""

from __future__ import annotations

import numpy as np

import oracles as orc
from common import KnownFault, Op, require
from sectorlab import channels, thermal

NOMINAL_ROUND_S = 0.85
COPIES = 4
TOL = 1e-8

#: F2: exact mixtures on 32 levels, a 50-point grid and 20 occupation
#: probes that the solver rejects at tol 1e-8 (see README.md)
F2_SEEDS = (3, 6)


def geometric_system(rng, n: int) -> np.ndarray:
    """Level 0 and n-1 levels spaced geometrically from 0.05 to about n.

    Spread energy scales keep every Gibbs design well conditioned; with an
    evenly spaced spectrum the current solver misses 1e-8 on about one seed
    in a hundred even for square designs (see F2).
    """
    return np.concatenate([[0.0], np.geomspace(0.05, n, n - 1)]) * rng.uniform(0.9, 1.1)


def beta_points(rng, g: int, lo: float, hi: float) -> np.ndarray:
    return np.sort(np.geomspace(lo, hi, g) * np.exp(rng.uniform(-0.05, 0.05, g)))


_OCCUPATIONS: dict[tuple[int, int], np.ndarray] = {}


def occupation(n: int, k: int) -> np.ndarray:
    """|k><k| on n levels; one read-only array per (n, k), shared by all inputs."""
    p = _OCCUPATIONS.get((n, k))
    if p is None:
        p = np.zeros((n, n), dtype=complex)
        p[k, k] = 1.0
        p.setflags(write=False)
        _OCCUPATIONS[(n, k)] = p
    return p


def mixture_case(rng, n: int, g: int, sizes, inverted: bool = False):
    """A diagonal system, grid, nested occupation levels and measured data.

    ``inverted`` swaps the populations end for end, which no mixture of
    positive-temperature Gibbs states can reproduce once a level probes
    two occupations.
    """
    energies = geometric_system(rng, n)
    betas = beta_points(rng, g, 0.05, 20.0)
    order = [0, n - 1] + list(rng.permutation(np.arange(1, n - 1)))
    levels = [order[:s] for s in sizes]
    pops = orc.gibbs_populations(energies, betas)
    k = min(3, g)
    weights = np.zeros(g)
    weights[rng.choice(g, k, replace=False)] = rng.dirichlet(np.ones(k))
    state = weights @ pops
    if inverted:
        state = state[::-1]
    return energies, betas, levels, state, pops


def hierarchy_slot(n: int, g: int, sizes, inverted: bool = False):
    def make(rng, k):
        energies, betas, levels, state, pops = mixture_case(rng, n, g, sizes, inverted)
        return _hierarchy_op(energies, betas, levels, state, pops)
    return make


def _hierarchy_op(energies, betas, levels, state, pops, fault=None):
    """Channel build plus hierarchy report: one thermality verdict per level."""
    n = len(energies)
    sys_ = thermal.HamiltonianSystem(np.diag(energies).astype(complex))
    grid = thermal.beta_grid(betas)
    hier = thermal.ObservableHierarchy(tuple(
        (f"L{i}", tuple((f"occ{k}", occupation(n, k)) for k in lev))
        for i, lev in enumerate(levels)))
    measured = {f"occ{k}": float(state[k]) for k in range(n)}

    def call():
        channel = thermal.build_thermal_channel(sys_, grid)
        return thermal.hierarchy_report(measured, hier, channel, tol=TOL)

    def check(rep):
        expected = [orc.nnls_residual(pops[:, lev].T, state[lev]) <= TOL for lev in levels]
        got = [v.accepted for v in rep.verdicts]
        require(len(got) == len(expected), f"{len(got)} verdicts for {len(expected)} levels")
        for v, lev, ok in zip(rep.verdicts, levels, got):
            if ok:
                fitted = v.weight_estimate.weights @ pops
                require(np.abs(fitted[lev] - state[lev]).max() < 1e-7,
                        "accepted weight does not reproduce the data")
        missed = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        if fault == "F2" and missed and all(expected[i] for i in missed):
            raise KnownFault(f"levels {missed} rejected where NNLS accepts")
        require(not missed, f"verdicts {got} != oracle {expected}")
    return Op("hierarchy_report", call, check, fault)


def f2_slot(seed: int):
    """A fixed exact mixture the solver wrongly rejects (fault F2)."""
    def make(_rng, k):
        rng = np.random.default_rng(seed)
        n, g, p = 32, 50, 20
        energies = np.sort(rng.uniform(0, 10, n))
        energies[0] = 0.0
        betas = np.geomspace(0.05, 5, g)
        probes = sorted(rng.choice(n, p, replace=False))
        pops = orc.gibbs_populations(energies, betas)
        weights = np.zeros(g)
        weights[rng.choice(g, 3, replace=False)] = rng.dirichlet(np.ones(3))
        return _hierarchy_op(energies, betas, [probes], weights @ pops, pops, fault="F2")
    return make


def channel_slot(n: int, g: int):
    def make(rng, k):
        energies = geometric_system(rng, n)
        v = orc.random_unitary(rng, n)
        h = (v * energies) @ v.conj().T
        h = (h + h.conj().T) / 2
        betas = beta_points(rng, g, 0.05, 20.0)
        sys_ = thermal.HamiltonianSystem(h)
        grid = thermal.beta_grid(betas)

        def check(ch):
            require(ch.space.size == g, "one fibre per grid point")
            for beta, fibre in zip(betas[:: max(1, g // 6)], ch.fibre_states[:: max(1, g // 6)]):
                require(np.abs(fibre.density - orc.gibbs_density(h, beta)).max() < 1e-10,
                        f"fibre at beta={beta} differs from exp(-beta H)/Z")
        return Op("build_thermal_channel", lambda: thermal.build_thermal_channel(sys_, grid),
                  check)
    return make


def moment_model():
    """The bundled 12-level moment model, rebuilt from its definition."""
    energies = np.concatenate([[0.0], 2.0 ** np.arange(11)])
    betas = 4.0 / 2.0 ** np.arange(11)
    return energies, betas


def moment_invert_slot():
    energies, betas = moment_model()
    probes = [occupation(12, k) for k in range(12)]
    pops = orc.gibbs_populations(energies, betas)

    def make(rng, k):
        weights = rng.dirichlet(np.ones(11))
        data = pops.T @ weights
        sys_ = thermal.HamiltonianSystem(np.diag(energies).astype(complex))
        channel = thermal.build_thermal_channel(sys_, thermal.beta_grid(betas))

        def check(res):
            require(orc.nnls_residual(pops.T, data) <= 1e-10, "oracle: data not thermal")
            require(res.residual <= 1e-10, f"residual {res.residual}")
            require(res.unique, "moment grid must separate")
            require(np.abs(res.weight.weights - weights).max() < 1e-6, "weights not recovered")
        return Op("invert_cq", lambda: channels.invert_cq(channel, probes, data), check)
    return make


def moment_hierarchy_slot():
    energies, betas = moment_model()
    pops = orc.gibbs_populations(energies, betas)

    def make(rng, k):
        weights = rng.dirichlet(np.ones(11))
        return _hierarchy_op(energies, betas, [[0, 11], list(range(12))],
                             weights @ pops, pops)
    return make


def two_level_slot():
    energies, betas = np.array([1.0, -1.0]), np.array([0.5, 1.0, 2.0])
    pops = orc.gibbs_populations(energies, betas)

    def make(rng, k):
        # sigma_z = diag(1, -1): level 1 is the ground state
        weights = rng.dirichlet(np.ones(3))
        return _hierarchy_op(energies, betas, [[0], [0, 1]], weights @ pops, pops)
    return make


def prepare(seed: int):
    return {}


def slots(ctx):
    """One heavy verdict series, then the light slots in four seeded copies.

    The heavy slot appears once per round, so its instances are the run's
    slowest operations, more than ten of them, and ``op_tail_s`` is the
    heavy slot's cost rather than that of whichever light kind a slow
    stretch of the machine pushed into the tail.
    """
    light = [
        channel_slot(16, 50),
        hierarchy_slot(16, 12, (12, 14, 16)),
        moment_invert_slot(),
        hierarchy_slot(8, 50, (2, 4, 8), inverted=True),
        two_level_slot(),
        hierarchy_slot(24, 12, (16, 20, 24)),
        f2_slot(F2_SEEDS[0]),
        channel_slot(32, 50),
        moment_hierarchy_slot(),
        hierarchy_slot(32, 12, (12, 20, 32)),
        hierarchy_slot(16, 25, (2, 8, 16), inverted=True),
        hierarchy_slot(32, 50, (2, 8, 20), inverted=True),
        f2_slot(F2_SEEDS[1]),
    ]
    heavy = hierarchy_slot(32, 50, tuple(range(2, 33, 2)), inverted=True)
    return [heavy] + light * COPIES
