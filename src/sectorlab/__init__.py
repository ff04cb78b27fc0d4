"""sectorlab: a finite-dimensional operator-algebra laboratory.

Channels between classical classifying data and quantum states,
superselection-sector decomposition for finite symmetry groups, thermal
selection criteria, DHR-style checks on toy lattice nets, and exact
Cuntz-algebra rewriting.

The public names below are resolved lazily (PEP 562): ``import sectorlab``
loads no engine, and the first use of a name loads the submodule that
defines it.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "algebra": (
        "OperatorAlgebra", "State", "center", "commutant", "full_matrix_algebra",
        "generate_algebra", "minimal_central_projections", "scalar_algebra",
        "state_distance_mod", "vector_state",
    ),
    "channels": (
        "ClassicalQuantumChannel", "ClassifyingSpace", "ProbabilityWeight",
        "apply_cq", "invert_cq", "separation_check", "verify_positive_unital",
    ),
    "config": ("DEFAULT_SEED", "DIMENSION_CAP"),
    "cuntz": ("CuntzPolynomial", "canonical_endomorphism", "fock_matrix", "gauge_act"),
    "dhrnet": (
        "LatticeNet", "LocalizedMorphism", "dhr_check", "haag_duality_check",
        "localized_morphism", "region_algebra", "selected_state",
        "solve_intertwiners",
    ),
    "groups": (
        "FiniteGroup", "SectorDecomposition", "UnitaryRep", "average",
        "builtin_group", "fixed_point_algebra", "intertwiner_space",
        "isotypic_decomposition",
    ),
    "sectors": (
        "ChargedMultiplet", "charging_channel", "decompose_sectors",
        "estimate_charge", "induce_charged_state", "k_map",
    ),
    "thermal": (
        "HamiltonianSystem", "ObservableHierarchy", "ThermalGrid",
        "build_thermal_channel", "gibbs_state", "hierarchy_report",
        "s_thermal_check", "thermal_function",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
