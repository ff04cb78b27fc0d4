"""`cli` workload: every `sectorlab` subcommand in a fresh interpreter.

Interpreter start, imports, JSON parsing and report rendering dominate, so
kernel speed barely matters here.  Inputs are the `examples init` tree plus
a Z3 sectors input and seeded states, measurements and expressions.  Each
call runs through launcher.py; its peak RSS comes from wait4.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles as orc
from common import KnownFault, Op, cycle, require
from wl_thermal import moment_model

NOMINAL_ROUND_S = 5.4
#: no warm-up command: the set-up probes' fresh interpreters (run.py) have
#: loaded the interpreter and library files into cache before round 0, and
#: a command in set-up would run in another process than the one whose
#: slowness calibrates the set-up
WARMUP_OPS = 0
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")
#: a command still running after this long is killed (and fails its check)
CALL_TIMEOUT_S = 60


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    #: (seconds, slowness) the command's process spent on and measured in
    #: calibrating itself (launcher.py); None if it was killed first
    calibration: tuple[float, float] | None = None

    def report(self) -> dict:
        return json.loads(self.stdout)


def _matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": [float(x) for x in m.real.reshape(-1)],
            "im": [float(x) for x in m.imag.reshape(-1)]}


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def prepare(seed: int):
    """Work directory with the examples tree and the Z3 sectors input."""
    work = os.path.join(BENCH_DIR, ".work", f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    from sectorlab import cli

    models = os.path.join(work, "models")
    code = cli.main(["--out", os.path.join(work, "init.json"), "examples", "init",
                     "--dir", models])
    if code != 0:
        raise RuntimeError(f"examples init exited with {code}")
    w = np.exp(2j * np.pi / 3)
    clock = np.diag([1, w, w * w])
    z3 = os.path.join(work, "z3")
    os.makedirs(z3)
    _write(os.path.join(z3, "field.json"), {"full_dim": 3})
    _write(os.path.join(z3, "rep.json"), {
        "group": "cyclic:3",
        "matrices": [_matrix(np.linalg.matrix_power(clock, k)) for k in range(3)]})
    return {"work": work, "models": models, "z3": z3, "count": [0], "max_rss_kb": 0,
            "trace_prefix": None, "trace_raw": {}, "child_import_s": []}


def cleanup(ctx) -> None:
    shutil.rmtree(ctx["work"], ignore_errors=True)


def peak_child_rss_kb(ctx) -> int:
    return ctx["max_rss_kb"]


def _run(ctx, argv) -> CliResult:
    """One command in a fresh interpreter; records its peak RSS."""
    ctx["count"][0] += 1
    tag = os.path.join(ctx["work"], f"call{ctx['count'][0]}")
    env = dict(os.environ, SECTORLAB_BENCH_CALIB=tag + ".cal")
    trace = ctx["trace_prefix"] and f"{ctx['trace_prefix']}-call{ctx['count'][0]}"
    if trace:
        env["SECTORLAB_BENCH_TRACE"] = trace
    with open(tag + ".out", "w") as out, open(tag + ".err", "w") as err:
        proc = subprocess.Popen([sys.executable, LAUNCHER, *argv], stdout=out,
                                stderr=err, cwd=ctx["work"], env=env)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx["max_rss_kb"] = max(ctx["max_rss_kb"], usage.ru_maxrss)
    with open(tag + ".out") as fh:
        stdout = fh.read()
    with open(tag + ".err") as fh:
        stderr = fh.read()
    calibration = None
    if os.path.exists(tag + ".cal"):
        with open(tag + ".cal") as fh:
            cal = json.load(fh)
        calibration = (cal["seconds"], cal["slowness"])
    if trace:
        with open(trace + ".json") as fh:
            raw = json.load(fh)
        ctx["child_import_s"].append(raw.pop("cli.import_s"))
        for key, val in raw.items():
            if key.endswith("_max"):
                ctx["trace_raw"][key] = max(ctx["trace_raw"].get(key, 0), val)
            else:
                ctx["trace_raw"][key] = ctx["trace_raw"].get(key, 0) + val
    return CliResult(proc.returncode, stdout, stderr, calibration)


def trace_totals(ctx) -> dict:
    out = dict(ctx["trace_raw"])
    out["import_median_s"] = float(np.median(ctx["child_import_s"]))
    return out


def _op(ctx, kind: str, argv, check, fault=None) -> Op:
    return Op(kind, lambda: _run(ctx, argv), check, fault)


def _expect_code(res: CliResult, code: int) -> None:
    require(res.code == code, f"exit {res.code}, expected {code}: {res.stderr[-300:]}")


# ---------------------------------------------------------------------------
# slots
# ---------------------------------------------------------------------------


def examples_slot(ctx):
    def make(rng, k):
        target = os.path.join(ctx["work"], f"ex{int(rng.integers(1 << 30))}")

        def check(res):
            _expect_code(res, 0)
            dirs = res.report()["directories"]
            require(len(dirs) == 5, f"{len(dirs)} example directories")
            for rel in ("z2_chain_2/rep.json", "moment_grid_12/channel.json"):
                require(os.path.exists(os.path.join(target, rel)), f"missing {rel}")
        return _op(ctx, "examples init", ["examples", "init", "--dir", target], check)
    return make


def sectors_slot(ctx):
    m = os.path.join(ctx["models"], "z2_chain_2")

    def make(rng, k):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        state = _write(os.path.join(ctx["work"], f"rho{int(rng.integers(1 << 30))}.json"),
                       {"label": "seeded", "density": _matrix(rho)})
        even = float(np.trace(rho @ (np.eye(4) + orc.parity(2))).real / 2)

        def check(res):
            _expect_code(res, 0)
            rep = res.report()
            require(len(rep["labels"]) == orc.conjugacy_class_count(orc.cyclic_table(2)),
                    "two sectors")
            require([(x["dim_H"], x["dim_V"]) for x in rep["dims"]] == [(2, 1), (2, 1)],
                    f"dims {rep['dims']}")
            got = rep["charges"]
            require(abs(got["gamma0"] - even) < 1e-10 and abs(got["gamma1"] - (1 - even)) < 1e-10,
                    f"charges {got} != parity weights {even}")
        return _op(ctx, "sectors analyze",
                   ["sectors", "analyze", "--field", f"{m}/field.json", "--group", "cyclic:2",
                    "--rep", f"{m}/rep.json", "--state", state], check)
    return make


def z3_slot(ctx):
    """F1: the Z3 clock representation; sectors cannot be computed today."""
    z3 = ctx["z3"]

    def make(rng, k):
        def check(res):
            last = (res.stderr.strip().splitlines() or [""])[-1]
            if res.code == 1 and "IsotypicError" in last:
                raise KnownFault(f"sectors analyze died: {last}")
            _expect_code(res, 0)
            rep = res.report()
            require(len(rep["labels"]) == orc.conjugacy_class_count(orc.cyclic_table(3)),
                    "three sectors")
        return _op(ctx, "sectors analyze",
                   ["sectors", "analyze", "--field", f"{z3}/field.json", "--group", "cyclic:3",
                    "--rep", f"{z3}/rep.json"], check, fault="F1")
    return make


def _thermal_check(levels_rows, data, csv_path=None, csv_rows=None):
    """Verdicts against NNLS; optional CSV against directly computed values."""
    def check(res):
        _expect_code(res, 0)
        rep = res.report()
        expected = [orc.nnls_residual(rows, data[:len(rows)]) <= 1e-8 for rows in levels_rows]
        got = [lv["accepted"] for lv in rep["levels"]]
        require(got == expected, f"verdicts {got} != oracle {expected}")
        if csv_path is not None:
            with open(csv_path, newline="") as fh:
                table = list(csv.reader(fh))
            vals = np.array([[float(x) for x in row] for row in table[1:]])
            require(np.abs(vals - csv_rows).max() < 1e-12, "thermal functions differ")
    return check


def two_level_slot(ctx):
    g = os.path.join(ctx["models"], "gibbs_two_level")
    betas = np.array([0.5, 1.0, 2.0])
    pops = orc.gibbs_populations(np.array([1.0, -1.0]), betas)
    energy = pops @ np.array([1.0, -1.0])

    def make(rng, k):
        w = rng.dirichlet(np.ones(3))
        data = np.array([1.0, w @ energy])
        tag = int(rng.integers(1 << 30))
        measured = _write(os.path.join(ctx["work"], f"two{tag}.json"),
                          {"values": {"unit": data[0], "energy": data[1]}})
        csv_path = os.path.join(ctx["work"], f"two{tag}.csv")
        rows = [np.ones((1, 3)), np.vstack([np.ones(3), energy])]
        table = np.column_stack([betas, np.zeros(3), np.ones(3), energy])
        return _op(ctx, "thermal estimate",
                   ["thermal", "estimate", "--system", f"{g}/system.json",
                    "--grid", f"{g}/grid.json", "--measured", measured,
                    "--hierarchy", f"{g}/hierarchy.json", "--csv", csv_path],
                   _thermal_check(rows, data, csv_path, table))
    return make


def moment_thermal_slot(ctx):
    g = os.path.join(ctx["models"], "moment_grid_12")
    energies, betas = moment_model()
    pops = orc.gibbs_populations(energies, betas)

    def make(rng, k):
        state = rng.dirichlet(np.ones(11)) @ pops
        values = {"energy": float(state @ energies)}
        values.update({f"occ{k}": float(state[k]) for k in range(12)})
        measured = _write(os.path.join(ctx["work"], f"mom{int(rng.integers(1 << 30))}.json"),
                          {"values": values})
        design = np.vstack([pops @ energies, pops.T])
        data = np.concatenate([[values["energy"]], state])
        return _op(ctx, "thermal estimate",
                   ["thermal", "estimate", "--system", f"{g}/system.json",
                    "--grid", f"{g}/grid.json", "--measured", measured,
                    "--hierarchy", f"{g}/hierarchy.json"],
                   _thermal_check([design[:1], design], data))
    return make


def channels_slot(ctx):
    g = os.path.join(ctx["models"], "moment_grid_12")
    pops = orc.gibbs_populations(*moment_model())

    def make(rng, k):
        w = rng.dirichlet(np.ones(11))
        state = w @ pops
        data = _write(os.path.join(ctx["work"], f"ch{int(rng.integers(1 << 30))}.json"),
                      {"values": {f"occ{k}": float(state[k]) for k in range(12)}})

        def check(res):
            _expect_code(res, 0)
            rep = res.report()
            require(orc.nnls_residual(pops.T, state) <= 1e-10, "oracle: data not thermal")
            require(rep["unique"] and rep["residual"] <= 1e-6, "not a unique fit")
            require(np.abs(np.array(rep["weights"]) - w).max() < 1e-6, "weights not recovered")
        return _op(ctx, "channels invert",
                   ["channels", "invert", "--channel", f"{g}/channel.json",
                    "--probes", f"{g}/probes.json", "--data", data, "--tol", "1e-6"], check)
    return make


def _flip_file(ctx, rng, flips) -> str:
    bits = [1 if s in flips else 0 for s in range(3)]
    return _write(os.path.join(ctx["work"], f"flip{int(rng.integers(1 << 30))}.json"),
                  {"label": "flipped", "density": _matrix(orc.basis_density(bits))})


def dhr_check_slot(ctx, both_ends: bool, all_subsets: bool = False):
    m = os.path.join(ctx["models"], "z2_chain_3")

    def make(rng, k):
        flips = (0, 2) if both_ends else (cycle(range(3), k),)
        state = _flip_file(ctx, rng, flips)

        def check(res):
            expected = orc.expected_witnesses(flips, 3, all_subsets)
            _expect_code(res, 0 if expected else 1)
            rep = res.report()
            got = {tuple(r) for r in rep["witness_regions"]}
            require(got == expected, f"witnesses {sorted(got)} != {sorted(expected)}")
            require(len(rep["distances"]) == len(orc.chain_regions(3, all_subsets)),
                    "regions scanned")
        argv = ["dhr", "check", "--net", f"{m}/net.json", "--state", state,
                "--vacuum", f"{m}/vacuum.json"] + (["--all-subsets"] if all_subsets else [])
        return _op(ctx, "dhr check", argv, check)
    return make


def dhr_invert_slot(ctx):
    m = os.path.join(ctx["models"], "z2_chain_3")

    def make(rng, k):
        flips = (cycle(range(3), k),)
        state = _flip_file(ctx, rng, flips)

        def check(res):
            region = orc.expected_inversion_region(flips, 3)
            _expect_code(res, 1 if region is None else 0)
            rep = res.report()
            require(rep["found"] == (region is not None), "found flag")
            if region is not None:
                require(tuple(rep["region"]) == region, f"region {rep['region']} != {region}")
        return _op(ctx, "dhr invert", ["dhr", "invert", "--net", f"{m}/net.json", "--state",
                                       state, "--vacuum", f"{m}/vacuum.json"], check)
    return make


def cuntz_slot(ctx, d: int):
    def make(rng, k):
        terms = []
        for _ in range(3):
            coeff = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            letters = [(int(rng.integers(1, d + 1)), bool(rng.integers(2)))
                       for _ in range(int(rng.integers(2, 6)))]
            terms.append((coeff, letters))
        expr = " + ".join(f"{c} " + " ".join(f"s{i}{'*' if st else ''}" for i, st in lt)
                          for c, lt in terms)
        longest = max(len(lt) for _, lt in terms)

        def check(res):
            _expect_code(res, 0)
            rep = res.report()
            got_terms = [(tuple(t["mu"]), tuple(t["nu"]),
                          float(Fraction(t["re"])) + 1j * float(Fraction(t["im"])))
                         for t in rep["terms"]]
            require(rep["exact"], "rational input must stay exact")
            for s in orc.strings(d, longest + 1):
                want: dict = {}
                for c, lt in terms:
                    for k, a in orc.act_letters(lt, {s: 1}).items():
                        want[k] = want.get(k, 0) + float(c) * a
                got = orc.act(got_terms, {s: 1})
                require(orc.vec_distance(got, want) < 1e-12, f"normal form of {expr!r}")
        return _op(ctx, "cuntz nf", ["cuntz", "nf", "--d", str(d), "--expr", expr, "--json"],
                   check)
    return make


def slots(ctx):
    """Ten commands, so a run's minimum of 40 operations is four rounds."""
    return [
        examples_slot(ctx),
        dhr_check_slot(ctx, False, all_subsets=True),
        sectors_slot(ctx),
        two_level_slot(ctx),
        dhr_invert_slot(ctx),
        z3_slot(ctx),
        channels_slot(ctx),
        dhr_check_slot(ctx, True),
        moment_thermal_slot(ctx),
        cuntz_slot(ctx, 3),
    ]
