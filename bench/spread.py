"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads lattice cli --seeds 1 2 3 4 5

Runs bench/run.py once per (workload, seed), one after another, for the
run length BENCHMARK.json gives (RUN_SECONDS), and prints
for each metric the median, the quartiles and (Q3 - Q1) / median as given by
``statistics.quantiles(values, n=4)``, plus the failed share of operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_SECONDS = 20


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    args = p.parse_args()
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["elapsed_s"] = time.perf_counter() - t0
            runs.append(res)
        print(f"{wl}: correct={all(r['correct'] for r in runs)} "
              f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in runs})} "
              f"elapsed={statistics.median(r['elapsed_s'] for r in runs):.1f}s")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:12s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
