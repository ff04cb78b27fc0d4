"""Bundled worked models: spin chains, Gibbs systems, and sample expressions.

These are the concrete models the tests, demos, and the ``examples init``
command share.  Everything here is deterministic, so the written example
tree is byte-identical across runs.
"""

from __future__ import annotations

import os

import numpy as np

from . import serialize as io
from .algebra import State, full_matrix_algebra, vector_state
from .channels import ProbabilityWeight, forward_data
from .cuntz import parse_expression
from .dhrnet import LatticeNet, LocalizedMorphism, localized_morphism, selected_state
from .groups import ChargedMultiplet, UnitaryRep, cyclic_rep_from_unitary, identity_multiplet
from .thermal import (
    HamiltonianSystem,
    ObservableHierarchy,
    ThermalGrid,
    beta_grid,
    build_thermal_channel,
    thermal_function,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def z2_onsite_rep() -> UnitaryRep:
    return cyclic_rep_from_unitary(SIGMA_Z, 2)


def z2_chain_net(n_sites: int) -> LatticeNet:
    """Chain of two-level sites with the parity action Ad(sigma_z x...x sigma_z)."""
    return LatticeNet(n_sites, z2_onsite_rep())


def z2_vacuum(n_sites: int) -> State:
    vec = np.zeros(2 ** n_sites)
    vec[0] = 1.0
    return vector_state(vec, label="vacuum")


def z2_flip_morphism(net: LatticeNet, site: int) -> LocalizedMorphism:
    return localized_morphism(net, [site], [SIGMA_X], f"flip{site}")


def z2_chain_sector_model(n_sites: int, seed: int = 0) -> dict:
    """Everything the sector analysis of the parity chain needs.

    The charged morphism is conjugation by a single-site spin flip; its
    multiplet together with the identity covers both parity sectors.
    """
    from .sectors import decompose_sectors

    net = z2_chain_net(n_sites)
    field = full_matrix_algebra(net.total_dim)
    decomp = decompose_sectors(field, net.global_rep, seed=seed)
    vacuum = z2_vacuum(n_sites)
    flip = z2_flip_morphism(net, 0)
    morphisms = [
        identity_multiplet(decomp.labels[0], net.total_dim),
        ChargedMultiplet(decomp.labels[1], flip.multiplet.matrices),
    ]
    return {
        "net": net,
        "field": field,
        "decomposition": decomp,
        "vacuum": vacuum,
        "flip_morphism": flip,
        "charge_morphisms": morphisms,
    }


def coupled_chain_hamiltonian(n_sites: int) -> np.ndarray:
    """Nearest-neighbour Ising coupling -sum sigma_z sigma_z on the chain."""
    d = 2 ** n_sites
    h = np.zeros((d, d), dtype=complex)
    for i in range(n_sites - 1):
        term = np.eye(1, dtype=complex)
        for s in range(n_sites):
            factor = SIGMA_Z if s in (i, i + 1) else np.eye(2, dtype=complex)
            term = np.kron(term, factor)
        h -= term
    return h


# ---------------------------------------------------------------------------
# thermal models
# ---------------------------------------------------------------------------


def two_level_system() -> HamiltonianSystem:
    return HamiltonianSystem(SIGMA_Z)


def two_level_grid() -> ThermalGrid:
    return beta_grid([0.5, 1.0, 2.0])


def two_level_probes() -> list[tuple[str, np.ndarray]]:
    return [("unit", np.eye(2, dtype=complex)), ("energy", SIGMA_Z.copy())]


def two_level_hierarchy() -> ObservableHierarchy:
    probes = two_level_probes()
    return ObservableHierarchy((
        ("normalization", (probes[0],)),
        ("energy", tuple(probes)),
    ))


def two_level_measured(beta: float = 1.0) -> dict[str, float]:
    sys = two_level_system()
    vals = {}
    for name, m in two_level_probes():
        # exact Gibbs value of the probe at the given beta
        full = thermal_function(sys, beta_grid([beta]), m)
        vals[name] = float(full[0])
    return vals


def moment_system() -> HamiltonianSystem:
    """Twelve levels with geometrically spread gaps: 0, 1, 2, 4, ..., 1024.

    Each grid temperature resolves one energy scale, which keeps the
    Gibbs design matrix far from the near-degeneracy a smooth spectrum
    produces; the 11-point grid below separates with condition ~1e4.
    """
    energies = np.concatenate([[0.0], 2.0 ** np.arange(11)])
    return HamiltonianSystem(np.diag(energies).astype(complex))


def moment_grid() -> ThermalGrid:
    return beta_grid(list(4.0 / 2.0 ** np.arange(11)))


def moment_probes() -> list[tuple[str, np.ndarray]]:
    eye = np.eye(12, dtype=complex)
    return [
        (f"occ{k}", np.outer(eye[k], eye[k])) for k in range(12)
    ]


def moment_hierarchy() -> ObservableHierarchy:
    sys = moment_system()
    coarse = (("energy", sys.hamiltonian.copy()),)
    fine = coarse + tuple(moment_probes())
    return ObservableHierarchy((
        ("mean-energy", coarse),
        ("occupations", fine),
    ))


def moment_true_weights() -> ProbabilityWeight:
    """A fixed smooth bump over the grid, used by the worked example."""
    grid = moment_grid()
    x = np.arange(grid.size, dtype=float)
    w = np.exp(-((x - 5.0) / 2.0) ** 2)
    return ProbabilityWeight(grid.to_space(), w / w.sum())


def moment_measured() -> dict[str, float]:
    """Forward-simulated probe data of the bump mixture (hierarchy probes)."""
    channel = build_thermal_channel(moment_system(), moment_grid())
    weights = moment_true_weights()
    hierarchy = moment_hierarchy()
    names = [n for n, _ in hierarchy.levels[-1][1]]
    mats = [m for _, m in hierarchy.levels[-1][1]]
    data = forward_data(channel, mats, weights)
    return {n: float(v) for n, v in zip(names, data)}


# ---------------------------------------------------------------------------
# sample expressions and the example tree
# ---------------------------------------------------------------------------


def cuntz_samples() -> list[dict]:
    samples = [
        {"d": 2, "expr": "s1* s1"},
        {"d": 2, "expr": "s1* s2"},
        {"d": 2, "expr": "s1 s1* + s2 s2*"},
        {"d": 2, "expr": "(s1 s2*) (s2 s1*)"},
        {"d": 2, "expr": "1/2 s1 + 1/2 s2"},
        {"d": 3, "expr": "s2* (s1 s1* + s2 s2* + s3 s3*) s2"},
    ]
    for s in samples:
        s["normal_form"] = str(parse_expression(s["expr"], s["d"]))
    return samples


def bundle_examples(base_dir: str) -> list[str]:
    """Write the worked models under ``base_dir``; returns the directories.

    Idempotent: regenerating produces byte-identical files.
    """
    net, vac = z2_chain_net(2), z2_vacuum(2)
    net3, vac3 = z2_chain_net(3), z2_vacuum(3)
    files = {
        "z2_chain_2": {
            "net.json": io.net_to_json(net),
            "group.json": {"name": "cyclic:2"},
            "rep.json": io.rep_to_json(net.global_rep),
            "field.json": {"full_dim": net.total_dim},
            "vacuum.json": io.state_to_json(vac),
            "charged_state.json": io.state_to_json(selected_state(z2_flip_morphism(net, 0), vac)),
            "hamiltonian.json": io.matrix_to_json(coupled_chain_hamiltonian(2)),
        },
        "z2_chain_3": {
            "net.json": io.net_to_json(net3),
            "vacuum.json": io.state_to_json(vac3),
            "flipped_state.json": io.state_to_json(
                selected_state(z2_flip_morphism(net3, 1), vac3)),
        },
        "gibbs_two_level": {
            "system.json": io.system_to_json(two_level_system()),
            "grid.json": io.grid_to_json(two_level_grid()),
            "probes.json": io.probes_to_json(two_level_probes()),
            "hierarchy.json": io.hierarchy_to_json(two_level_hierarchy()),
            "measured.json": {"values": two_level_measured()},
        },
        "moment_grid_12": {
            "system.json": io.system_to_json(moment_system()),
            "grid.json": io.grid_to_json(moment_grid()),
            "probes.json": io.probes_to_json(moment_probes()),
            "hierarchy.json": io.hierarchy_to_json(moment_hierarchy()),
            "measured.json": {"values": moment_measured()},
            "true_weights.json": {"weights": [float(w) for w in moment_true_weights().weights]},
            "channel.json": io.channel_to_json(
                build_thermal_channel(moment_system(), moment_grid())),
        },
        "cuntz_d2": {"expressions.json": {"samples": cuntz_samples()}},
    }
    written = []
    for name, payloads in files.items():
        d = os.path.join(base_dir, name)
        os.makedirs(d, exist_ok=True)
        for fname, payload in payloads.items():
            io.write_report(os.path.join(d, fname), payload)
        written.append(d)
    return written
