"""Benchmark entry point for sectorlab.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread: with more, CPU time and wall time drift apart and the
# timings swing with whatever else runs on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("lattice", "thermal", "words", "cli")
#: address-space cap for the benchmark and its children; runs peak below
#: 200 MB, so a runaway input fails here instead of exhausting the machine
MEMORY_CAP = 4 << 30
SETUP_SAMPLES = 5
OUT_DIR = os.path.join(BENCH_DIR, ".out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time (used internally)")
    return p.parse_args(argv)


def setup(args):
    """Import, round 0's inputs and warm-up.

    Returns the workload module, its context, its slots, the number of
    rounds and round 0.  The warm-up calls one operation of each kind on
    inputs of its own (those of the round after the run's last), so no
    timed operation reuses a warmed-up object.  Later rounds are built
    between rounds, untimed.
    """
    sys.path[:0] = [SRC, BENCH_DIR]
    t = time.perf_counter()
    importlib.import_module("sectorlab.cli")
    import_s = time.perf_counter() - t
    from common import build_round, rounds_for

    wl = importlib.import_module(f"wl_{args.workload}")
    ctx = wl.prepare(args.seed)
    slots = wl.slots(ctx)
    n_rounds = rounds_for(args.seconds, wl.NOMINAL_ROUND_S, len(slots))
    first = build_round(slots, args.seed, 0)
    warmed = set()
    for op in build_round(slots, args.seed, n_rounds)[:getattr(wl, "WARMUP_OPS", None)]:
        if op.kind not in warmed and op.fault is None:
            warmed.add(op.kind)
            op.call()
    ctx["import_s"] = import_s
    return wl, ctx, slots, n_rounds, first


def setup_slowness() -> float:
    """The machine's slowness just after set-up (calib.py), untimed."""
    import calib

    return calib.slowness_now()


def setup_samples(args) -> list[tuple[float, float]]:
    """(set-up time, slowness) of fresh interpreters doing this run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((float(res["setup_s"]), float(res["slowness"])))
    return out


def run_ops(args, slots, n_rounds, first):
    """Run ``n_rounds`` rounds, round 0 being ``first``; time and check each op.

    Returns durations, the machine's slowness during each operation
    (calib.py), check times, the failed count, correctness, notes and the
    peak resident memory (kB) before any check ran: the checks of round 0
    wait until the whole round has run, so that figure covers set-up and a
    round of operations but nothing the checks load or allocate (oracle
    imports, dense Fock matrices).
    """
    from calib import Timeline
    from common import build_round

    durations = np.zeros((n_rounds, len(slots)))
    midpoints = np.zeros_like(durations)
    own_slow = np.zeros_like(durations)
    check_s = np.zeros_like(durations)
    timeline = Timeline()
    failed, notes, pending, ops_rss_kb = 0, [], [], 0

    def settle(r, k, op, out, err):
        nonlocal failed
        t0 = time.perf_counter()
        if err is None:
            try:
                op.check(out)
            except Exception as exc:
                err = exc
        check_s[r, k] = time.perf_counter() - t0
        if err is not None:
            failed += 1
            if not op.shows_fault(err):
                notes.append(f"{op.kind} (round {r}, slot {k}): {type(err).__name__}: {err}")

    for r in range(n_rounds):
        ops = first if r == 0 else build_round(slots, args.seed, r)
        # the garbage of input generation and checks is collected here, untimed,
        # instead of in whichever timed operation crosses the collector's threshold
        gc.collect()
        for k, op in enumerate(ops):
            timeline.sample()
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, err = None, exc
            t1 = time.perf_counter()
            durations[r, k], midpoints[r, k] = t1 - t0, (t0 + t1) / 2
            own = getattr(out, "calibration", None)
            if own is not None:  # measured by the operation's own process (cli)
                durations[r, k] -= own[0]
                own_slow[r, k] = own[1]
            if r == 0:
                pending.append((k, op, out, err))
            else:
                settle(r, k, op, out, err)
            del out
        if r == 0:
            ops_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for item in pending:
                settle(0, *item)
            pending.clear()
    timeline.sample(force=True)
    slow = np.where(own_slow > 0, own_slow, np.vectorize(timeline.at)(midpoints))
    return durations, slow, check_s, failed, not notes, notes, ops_rss_kb


def end_to_end(durations, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics, each operation counted at its slot's cost.

    ``durations`` and ``setup_s`` are calibrated: divided by the machine's
    slowness when they were measured (calib.py).

    A slot's R operations do the same work on inputs of one size profile,
    while the machine's speed swings by up to 2x over stretches of seconds.
    A slot's cost is the median of its R durations, which ignores the slow
    stretches until they fill half the run; percentiles of the raw
    durations follow every change in the slow share instead.
    """
    n_rounds = durations.shape[0]
    cost = np.median(durations, axis=0)
    flat = np.sort(np.repeat(cost, n_rounds))
    return {
        "wall_s": {"value": n_rounds * float(cost.sum()), "unit": "s"},
        "op_p50_s": {"value": float(np.median(flat)), "unit": "s"},
        # highest percentile with at least ten operations beyond it
        "op_tail_s": {"value": float(flat[flat.size - 11]), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def report_notes(notes) -> None:
    for note in notes[:10]:
        print(f"check failed: {note}", file=sys.stderr)


def traced_run(args, wl, ctx, slots, n_rounds, first):
    """The same operations with layer spans and counts; per-layer metrics.

    Self times are raw seconds; the slowness is kept for the result file,
    where calibrated operation times give the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    prefix = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}")
    ctx["trace_prefix"] = prefix
    tracer = Tracer()
    tracer.install()
    try:
        durations, slow, check_s, failed, correct, notes, _ = run_ops(
            args, slots, n_rounds, first)
    finally:
        tracer.uninstall()
    report_notes(notes)
    tracer.write_spans(prefix + ".npz")
    raw = wl.trace_totals(ctx) if hasattr(wl, "trace_totals") else tracer.summary()
    import_s = raw.pop("import_median_s", ctx["import_s"])
    return layer_metrics(raw, import_s), durations, slow, check_s, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.RLIM_INFINITY))
    if not os.path.isdir(os.path.join(SRC, "sectorlab")):
        print(f"error: no sectorlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        wl, ctx, *_ = setup(args)
        setup_s = time.perf_counter() - T_START
        if hasattr(wl, "cleanup"):
            wl.cleanup(ctx)
        print(json.dumps({"setup_s": setup_s, "slowness": setup_slowness()}))
        return 0

    wl, ctx, slots, n_rounds, first = setup(args)
    setup_s = time.perf_counter() - T_START
    setup_slow = setup_slowness()
    kinds = [op.kind for op in first]
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            metrics, durations, slow, check_s, failed, correct = traced_run(
                args, wl, ctx, slots, n_rounds, first)
            samples = []
        else:
            samples = setup_samples(args)
            durations, slow, check_s, failed, correct, notes, rss_kb = run_ops(
                args, slots, n_rounds, first)
            report_notes(notes)
            if hasattr(wl, "peak_child_rss_kb"):
                rss_kb = wl.peak_child_rss_kb(ctx)
            metrics = end_to_end(
                durations / slow,
                statistics.median(t / k for t, k in [(setup_s, setup_slow)] + samples),
                rss_kb / 1024.0)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(ctx)

    result = {"correct": correct, "attempted": int(durations.size), "failed": failed,
              "metrics": metrics}
    calibrated = durations / slow
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=n_rounds, slots=len(slots),
                  ops_total_s=float(durations.sum()),
                  ops_calibrated_s=float(calibrated.sum()),
                  round_s=[float(x) for x in durations.sum(axis=1)],
                  durations_s=durations.tolist(),
                  slowness=slow.tolist(),
                  raw_metrics=end_to_end(durations, setup_s, 0.0),
                  setup_samples=[(setup_s, setup_slow)] + samples,
                  slots_median_s=[[kind, float(m), float(c), float(ch)]
                                  for kind, m, c, ch in
                                  zip(kinds, np.median(durations, axis=0),
                                      np.median(calibrated, axis=0),
                                      np.median(check_s, axis=0))])
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
