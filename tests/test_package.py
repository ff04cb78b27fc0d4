"""The package's public surface: lazy names, star import and error classes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sectorlab
from sectorlab import errors

#: defining module of every public name
DEFINED_IN = {
    "algebra": ["OperatorAlgebra", "State", "center", "commutant",
                "full_matrix_algebra", "generate_algebra",
                "minimal_central_projections", "scalar_algebra", "vector_state"],
    "channels": ["ClassicalQuantumChannel", "ClassifyingSpace", "ProbabilityWeight",
                 "apply_cq", "invert_cq", "separation_check",
                 "verify_positive_unital"],
    "config": ["DEFAULT_SEED", "DIMENSION_CAP"],
    "cuntz": ["CuntzPolynomial", "canonical_endomorphism", "gauge_act"],
    "dhrnet": ["LatticeNet", "LocalizedMorphism", "dhr_check", "haag_duality_check",
               "localized_morphism", "region_algebra", "selected_state",
               "solve_intertwiners"],
    "groups": ["ChargedMultiplet", "FiniteGroup", "SectorDecomposition", "UnitaryRep", "average",
               "builtin_group", "intertwiner_space",
               "isotypic_decomposition"],
    "sectors": ["charging_channel", "decompose_sectors",
                "estimate_charge", "induce_charged_state", "k_map"],
    "thermal": ["HamiltonianSystem", "ObservableHierarchy", "ThermalGrid",
                "build_thermal_channel", "gibbs_state", "hierarchy_report",
                "s_thermal_check", "thermal_function"],
}

ROOT = Path(__file__).resolve().parents[1]

#: every subcommand, on the models ``examples init`` writes to models/
COMMANDS = [
    ["examples", "init", "--dir", "models"],
    ["sectors", "analyze", "--field", "models/z2_chain_2/field.json",
     "--group", "cyclic:2", "--rep", "models/z2_chain_2/rep.json",
     "--state", "models/z2_chain_2/charged_state.json",
     "--hamiltonian", "models/z2_chain_2/hamiltonian.json"],
    ["thermal", "estimate", "--system", "models/gibbs_two_level/system.json",
     "--grid", "models/gibbs_two_level/grid.json",
     "--measured", "models/gibbs_two_level/measured.json",
     "--hierarchy", "models/gibbs_two_level/hierarchy.json", "--csv", "thermal.csv"],
    ["dhr", "check", "--net", "models/z2_chain_3/net.json",
     "--state", "models/z2_chain_3/flipped_state.json",
     "--vacuum", "models/z2_chain_3/vacuum.json"],
    ["dhr", "invert", "--net", "models/z2_chain_3/net.json",
     "--state", "models/z2_chain_3/flipped_state.json",
     "--vacuum", "models/z2_chain_3/vacuum.json"],
    ["cuntz", "nf", "--d", "2", "--expr", "1/2 s1 s2* + s1 s1* + s2 s2*", "--json"],
    ["channels", "invert", "--channel", "models/moment_grid_12/channel.json",
     "--probes", "models/moment_grid_12/probes.json",
     "--data", "models/moment_grid_12/measured.json", "--design-csv", "design.csv"],
]

#: runs COMMANDS and every demo in one interpreter, scipy blocked if asked,
#: and prints [name, exit code, stdout] for each as JSON
RUN_ALL = """
import contextlib, io, json, runpy, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None  # any import of scipy now fails
from sectorlab import cli
commands, demos = json.loads(sys.argv[2]), json.loads(sys.argv[3])

def run(fn):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = fn()
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue()

def demo(path):
    runpy.run_path(path, run_name="__main__")
    return 0

runs = [[" ".join(argv[:2]), *run(lambda: cli.main(argv))] for argv in commands]
runs += [[path, *run(lambda: demo(path))] for path in demos]
print(json.dumps({"runs": runs, "scipy_loaded": sys.modules.get("scipy") is not None}))
"""

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


def test_charged_multiplet_resolves_through_groups():
    # the lattice checks use the class without the sector and channel engines
    from sectorlab import groups, sectors

    assert sectors.ChargedMultiplet is groups.ChargedMultiplet
    assert sectors.identity_multiplet is groups.identity_multiplet
    loaded = _loaded_after("import sectorlab; sectorlab.ChargedMultiplet")
    assert "sectorlab.groups" in loaded
    assert "sectorlab.sectors" not in loaded and "sectorlab.channels" not in loaded


def test_folded_and_deleted_names_are_gone():
    from sectorlab import _linalg, channels, groups

    assert not hasattr(channels, "invert_design")  # folded into invert_cq
    assert not hasattr(_linalg, "ISOMETRY_CUT")
    for name in ("is_partial", "isometry_defect", "unit_defect"):
        assert not hasattr(groups.ChargedMultiplet, name)


def test_errors_module_imports_nothing_from_the_package():
    assert _loaded_after("import sectorlab.errors") == ["sectorlab.errors"]


@pytest.mark.parametrize("name", sorted(ERROR_HOMES))
def test_error_classes_keep_their_old_paths_and_bases(name):
    module, base = ERROR_HOMES[name]
    cls = getattr(errors, name)
    assert getattr(importlib.import_module(f"sectorlab.{module}"), name) is cls
    assert cls.__bases__ == (base,)


def test_every_subcommand_and_demo_runs_without_scipy(tmp_path):
    demos = sorted(str(p) for p in (ROOT / "demos").glob("demo_*.py"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    for mode in ("plain", "block"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL, mode, json.dumps(COMMANDS), json.dumps(demos)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    plain, blocked = results["plain"], results["block"]
    assert not plain["scipy_loaded"] and not blocked["scipy_loaded"]
    assert len(blocked["runs"]) == len(COMMANDS) + len(demos) == 12
    assert blocked["runs"] == plain["runs"]
    assert all(isinstance(code, int) for _, code, _ in plain["runs"])
    assert all(out for _, _, out in plain["runs"])
