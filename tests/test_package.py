"""The package's public surface: lazy names, star import and error classes."""

import importlib
import json
import subprocess
import sys

import pytest

import sectorlab
from sectorlab import errors

#: defining module of every public name
DEFINED_IN = {
    "algebra": ["OperatorAlgebra", "State", "center", "commutant",
                "full_matrix_algebra", "generate_algebra",
                "minimal_central_projections", "scalar_algebra",
                "state_distance_mod", "vector_state"],
    "channels": ["ClassicalQuantumChannel", "ClassifyingSpace", "ProbabilityWeight",
                 "apply_cq", "invert_cq", "separation_check",
                 "verify_positive_unital"],
    "config": ["DEFAULT_SEED", "DIMENSION_CAP"],
    "cuntz": ["CuntzPolynomial", "canonical_endomorphism", "fock_matrix", "gauge_act"],
    "dhrnet": ["LatticeNet", "LocalizedMorphism", "dhr_check", "haag_duality_check",
               "localized_morphism", "region_algebra", "selected_state",
               "solve_intertwiners"],
    "groups": ["FiniteGroup", "SectorDecomposition", "UnitaryRep", "average",
               "builtin_group", "fixed_point_algebra", "intertwiner_space",
               "isotypic_decomposition"],
    "sectors": ["ChargedMultiplet", "charging_channel", "decompose_sectors",
                "estimate_charge", "induce_charged_state", "k_map"],
    "thermal": ["HamiltonianSystem", "ObservableHierarchy", "ThermalGrid",
                "build_thermal_channel", "gibbs_state", "hierarchy_report",
                "s_thermal_check", "thermal_function"],
}

#: (old path, base) of each error class the command line catches
ERROR_HOMES = {
    "InputFormatError": ("serialize", ValueError),
    "ExpressionError": ("cuntz", ValueError),
    "DimensionCapError": ("algebra", ValueError),
    "CentralProjectionError": ("algebra", RuntimeError),
    "GenerationError": ("algebra", RuntimeError),
    "IsotypicError": ("groups", RuntimeError),
    "EigenvalueGapError": ("_linalg", RuntimeError),
}


def _loaded_after(code: str) -> list[str]:
    """sectorlab submodules a fresh interpreter holds after running ``code``."""
    script = code + (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('sectorlab.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_all_lists_every_public_name_once():
    names = [n for names in DEFINED_IN.values() for n in names]
    assert sectorlab.__all__ == ["__version__", *names]
    assert sectorlab.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_names_are_the_defining_modules_objects(module):
    mod = importlib.import_module(f"sectorlab.{module}")
    for name in DEFINED_IN[module]:
        assert getattr(sectorlab, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from sectorlab import *", namespace)
    for name in sectorlab.__all__:
        assert namespace[name] is getattr(sectorlab, name), name


def test_dir_lists_every_name():
    assert set(sectorlab.__all__) <= set(dir(sectorlab))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sectorlab.no_such_name
    assert not hasattr(sectorlab, "cuntz_nf")


def test_submodules_still_import_through_the_package():
    from sectorlab import cli, models

    assert cli.main and models.bundle_examples


def test_import_loads_a_submodule_on_first_use():
    assert _loaded_after("import sectorlab") == []
    loaded = _loaded_after("import sectorlab; sectorlab.gauge_act")
    assert "sectorlab.cuntz" in loaded
    assert "sectorlab.thermal" not in loaded and "sectorlab.algebra" not in loaded


def test_errors_module_imports_nothing_from_the_package():
    assert _loaded_after("import sectorlab.errors") == ["sectorlab.errors"]


@pytest.mark.parametrize("name", sorted(ERROR_HOMES))
def test_error_classes_keep_their_old_paths_and_bases(name):
    module, base = ERROR_HOMES[name]
    cls = getattr(errors, name)
    assert getattr(importlib.import_module(f"sectorlab.{module}"), name) is cls
    assert cls.__bases__ == (base,)
