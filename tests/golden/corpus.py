"""Golden reports of the CLI: exit codes and report bytes.

Each case runs one CLI command in process on the ``examples init`` tree,
once with ``--format json`` and once with ``--format text``, and keeps the
exit code and every byte the command writes: the report (through
``--out``) and the CSV of ``--csv`` or ``--design-csv``.  The stored
corpus sits next to this file, one ``<case>.json``, ``<case>.txt`` and
(when the case writes one) ``<case>.csv`` per case, with the exit codes
in ``exit_codes.json`` and the Python, numpy and BLAS that made it in
``provenance.json``.  ``tests/test_golden.py`` reruns every case and
compares the bytes exactly.

Regenerate with::

    PYTHONPATH=src python tests/golden/corpus.py          # print moved fields
    PYTHONPATH=src python tests/golden/corpus.py --write  # and store them

Every field that moved is printed as ``<case>.<ext> <field>: old -> new``.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: case name -> the CLI arguments; {tree} is the example tree, {csv} the
#: CSV path, and a case without {csv} writes no CSV
CASES = {
    "thermal_estimate_moment_grid_12": [
        "thermal", "estimate", "--system", "{tree}/moment_grid_12/system.json",
        "--grid", "{tree}/moment_grid_12/grid.json",
        "--measured", "{tree}/moment_grid_12/measured.json",
        "--hierarchy", "{tree}/moment_grid_12/hierarchy.json", "--csv", "{csv}"],
    "thermal_estimate_gibbs_two_level": [
        "thermal", "estimate", "--system", "{tree}/gibbs_two_level/system.json",
        "--grid", "{tree}/gibbs_two_level/grid.json",
        "--measured", "{tree}/gibbs_two_level/measured.json",
        "--hierarchy", "{tree}/gibbs_two_level/hierarchy.json"],
    "channels_invert_moment_grid_12": [
        "channels", "invert", "--channel", "{tree}/moment_grid_12/channel.json",
        "--probes", "{tree}/moment_grid_12/probes.json",
        "--data", "{tree}/moment_grid_12/measured.json", "--design-csv", "{csv}"],
    "sectors_analyze_z2_chain_2": [
        "sectors", "analyze", "--field", "{tree}/z2_chain_2/field.json",
        "--group", "{tree}/z2_chain_2/group.json", "--rep", "{tree}/z2_chain_2/rep.json",
        "--state", "{tree}/z2_chain_2/charged_state.json",
        "--hamiltonian", "{tree}/z2_chain_2/hamiltonian.json"],
    "dhr_check_z2_chain_3": [
        "dhr", "check", "--net", "{tree}/z2_chain_3/net.json",
        "--state", "{tree}/z2_chain_3/flipped_state.json",
        "--vacuum", "{tree}/z2_chain_3/vacuum.json"],
    "dhr_check_all_subsets_z2_chain_3": [
        "dhr", "check", "--net", "{tree}/z2_chain_3/net.json",
        "--state", "{tree}/z2_chain_3/flipped_state.json",
        "--vacuum", "{tree}/z2_chain_3/vacuum.json", "--all-subsets"],
    "dhr_invert_z2_chain_3": [
        "dhr", "invert", "--net", "{tree}/z2_chain_3/net.json",
        "--state", "{tree}/z2_chain_3/flipped_state.json",
        "--vacuum", "{tree}/z2_chain_3/vacuum.json"],
    # the fourth sample of the tree's cuntz_d2/expressions.json
    "cuntz_nf": ["cuntz", "nf", "--d", "2", "--expr", "(s1 s2*) (s2 s1*)"],
    "cuntz_nf_json": ["cuntz", "nf", "--d", "2", "--expr", "(s1 s2*) (s2 s1*)", "--json"],
}


def example_tree(base: Path) -> Path:
    """Write the ``examples init`` tree under ``base``; returns ``base``."""
    from sectorlab.models import bundle_examples

    bundle_examples(str(base))
    return base


def run_case(name: str, tree: Path, work: Path) -> dict[str, bytes]:
    """The case's outputs: ``exit``, ``json``, ``txt`` and maybe ``csv``.

    Raises ``AssertionError`` when the two formats disagree on the exit
    code or on the CSV bytes, which do not depend on the format.
    """
    from sectorlab import cli

    out: dict[str, bytes] = {}
    for fmt, ext in (("json", "json"), ("text", "txt")):
        report, table = work / f"{name}.{ext}", work / f"{name}.{ext}.csv"
        argv = [a.format(tree=tree, csv=table) for a in CASES[name]]
        code = cli.main(["--format", fmt, "--out", str(report), *argv])
        exit_code = str(code).encode()
        assert out.setdefault("exit", exit_code) == exit_code, f"{name}: exit codes differ"
        out[ext] = report.read_bytes()
        if "{csv}" in CASES[name]:
            assert out.setdefault("csv", table.read_bytes()) == table.read_bytes(), (
                f"{name}: the CSV depends on --format")
    return out


def run_all(base: Path) -> dict[str, dict[str, bytes]]:
    tree = example_tree(base / "examples")
    work = base / "work"
    work.mkdir()
    return {name: run_case(name, tree, work) for name in CASES}


def stored(name: str) -> dict[str, bytes]:
    """The case's stored outputs, keyed like :func:`run_case`'s; empty for a
    case the corpus does not hold yet."""
    codes = json.loads((HERE / "exit_codes.json").read_text())
    if name not in codes:
        return {}
    out = {"exit": str(codes[name]).encode()}
    for ext in ("json", "txt", "csv"):
        path = HERE / f"{name}.{ext}"
        if path.exists():
            out[ext] = path.read_bytes()
    return out


def _fields(ext: str, data: bytes) -> dict[str, str]:
    """A report's leaves by field name, as text."""
    text = data.decode()
    if ext == "json":
        leaves: dict[str, str] = {}

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(f"{prefix}[{i}]", v)
            else:
                leaves[prefix] = json.dumps(obj)
        walk("", json.loads(text))
        return leaves
    if ext == "txt":
        # a plain-text normal form has no " = ": keyed by its line number
        return dict(line.split(" = ", 1) if " = " in line else (f"line {i}", line)
                    for i, line in enumerate(text.splitlines()))
    if ext == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return {f"{row[0]}.{col}": cell for row in rows[1:]
                for col, cell in zip(rows[0][1:], row[1:], strict=True)}
    return {"": text}


def moved_fields(name: str, old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per field of the case that differs between two runs."""
    lines = []
    for ext in sorted(set(old) | set(new)):
        a, b = old.get(ext), new.get(ext)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}.{ext}: {'added' if a is None else 'removed'}")
            continue
        fa, fb = _fields(ext, a), _fields(ext, b)
        for key in sorted(set(fa) | set(fb)):
            if fa.get(key) != fb.get(key):
                lines.append(f"{name}.{ext} {key}: {fa.get(key)} -> {fb.get(key)}")
    return lines


def provenance() -> dict[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def write(runs: dict[str, dict[str, bytes]]) -> None:
    for name, out in runs.items():
        for ext in ("json", "txt", "csv"):
            path = HERE / f"{name}.{ext}"
            if ext in out:
                path.write_bytes(out[ext])
            elif path.exists():
                path.unlink()
    codes = {name: int(out["exit"]) for name, out in sorted(runs.items())}
    (HERE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    (HERE / "provenance.json").write_text(json.dumps(provenance(), indent=2) + "\n")


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(Path(tmp))
    has_corpus = (HERE / "exit_codes.json").exists()
    moved = [line for name, out in runs.items()
             for line in moved_fields(name, stored(name) if has_corpus else {}, out)]
    print("\n".join(moved) if moved else "no field moved")
    if "--write" in argv:
        write(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
