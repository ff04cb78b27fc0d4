"""sectorlab: a finite-dimensional operator-algebra laboratory.

Channels between classical classifying data and quantum states,
superselection-sector decomposition for finite symmetry groups, thermal
selection criteria, DHR-style checks on toy lattice nets, and exact
Cuntz-algebra rewriting.
"""

__version__ = "0.1.0"

from .algebra import (
    OperatorAlgebra,
    State,
    center,
    commutant,
    full_matrix_algebra,
    generate_algebra,
    minimal_central_projections,
    scalar_algebra,
    state_distance_mod,
    vector_state,
)
from .channels import (
    ClassicalQuantumChannel,
    ClassifyingSpace,
    ProbabilityWeight,
    apply_cq,
    invert_cq,
    separation_check,
    verify_positive_unital,
)
from .config import DEFAULT_SEED, DIMENSION_CAP
from .cuntz import CuntzPolynomial, canonical_endomorphism, fock_matrix, gauge_act
from .dhrnet import (
    LatticeNet,
    LocalizedMorphism,
    dhr_check,
    haag_duality_check,
    localized_morphism,
    region_algebra,
    selected_state,
    solve_intertwiners,
)
from .groups import (
    FiniteGroup,
    SectorDecomposition,
    UnitaryRep,
    average,
    builtin_group,
    fixed_point_algebra,
    intertwiner_space,
    isotypic_decomposition,
)
from .sectors import (
    ChargedMultiplet,
    charging_channel,
    decompose_sectors,
    estimate_charge,
    induce_charged_state,
    k_map,
)
from .thermal import (
    HamiltonianSystem,
    ObservableHierarchy,
    ThermalGrid,
    build_thermal_channel,
    gibbs_state,
    hierarchy_report,
    s_thermal_check,
    thermal_function,
)

__all__ = [
    "__version__",
    # algebra
    "OperatorAlgebra", "State", "center", "commutant", "full_matrix_algebra",
    "generate_algebra", "minimal_central_projections", "scalar_algebra",
    "state_distance_mod", "vector_state",
    # channels
    "ClassicalQuantumChannel", "ClassifyingSpace", "ProbabilityWeight",
    "apply_cq", "invert_cq", "separation_check", "verify_positive_unital",
    # config
    "DEFAULT_SEED", "DIMENSION_CAP",
    # cuntz
    "CuntzPolynomial", "canonical_endomorphism", "fock_matrix", "gauge_act",
    # dhrnet
    "LatticeNet", "LocalizedMorphism", "dhr_check", "haag_duality_check",
    "localized_morphism", "region_algebra", "selected_state",
    "solve_intertwiners",
    # groups
    "FiniteGroup", "SectorDecomposition", "UnitaryRep", "average",
    "builtin_group", "fixed_point_algebra", "intertwiner_space",
    "isotypic_decomposition",
    # sectors
    "ChargedMultiplet", "charging_channel", "decompose_sectors",
    "estimate_charge", "induce_charged_state", "k_map",
    # thermal
    "HamiltonianSystem", "ObservableHierarchy", "ThermalGrid",
    "build_thermal_channel", "gibbs_state", "hierarchy_report",
    "s_thermal_check", "thermal_function",
]
