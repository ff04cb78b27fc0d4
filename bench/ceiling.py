"""Scale ceilings: the largest size of each ladder that fits the budget.

    python3 bench/ceiling.py

Each size runs in its own child interpreter whose address space is capped
at MEMORY_MB with setrlimit(RLIMIT_AS) (ulimit -v) in that child only; a
size passes when the child exits cleanly within SECONDS.  Each
ladder stops at its first failure.  Not part of the gated benchmark.
"""

import json
import os
import resource
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SECONDS = 60
MEMORY_MB = 2048

LADDERS = {
    "dhr_check_sites": [3, 4, 5, 6, 7, 8],
    "commutant_d": [16, 32, 48, 64, 96, 128, 256],
    "generate_algebra_d": [4, 8, 16, 32, 64],
}

CHILD = r"""
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import oracles as orc
from sectorlab import algebra, dhrnet, groups
from sectorlab.algebra import State
ladder, size = {ladder!r}, {size}
if ladder == "dhr_check_sites":
    net = dhrnet.LatticeNet(size, groups.cyclic_rep_from_unitary(orc.SIGMA_Z, 2))
    bits = [0] * size
    bits[size // 2] = 1
    rep = dhrnet.dhr_check(State(orc.basis_density(bits)),
                           State(orc.basis_density([0] * size)), net)
    assert rep.passes
elif ladder == "commutant_d":
    alg = algebra.full_matrix_algebra(size)
    assert algebra.commutant(alg).dim == 1
else:
    n = size.bit_length() - 1
    words = ["I" * k + p + "I" * (n - k - 1) for k in range(n) for p in "XZ"]
    alg = algebra.generate_algebra([orc.pauli_matrix(w) for w in words])
    assert alg.dim == size * size
"""


def run_one(ladder: str, size: int) -> dict:
    limit = MEMORY_MB * 1024 * 1024

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = CHILD.format(src=os.path.join(ROOT, "src"), bench=BENCH_DIR,
                        ladder=ladder, size=size)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", code], preexec_fn=cap, env=env,
                              capture_output=True, text=True, timeout=SECONDS)
        ok = proc.returncode == 0
        why = "ok" if ok else proc.stderr.strip().splitlines()[-1][:120]
    except subprocess.TimeoutExpired:
        ok, why = False, f"over {SECONDS} s"
    return {"size": size, "ok": ok, "seconds": round(time.perf_counter() - t0, 2),
            "note": why}


def main() -> int:
    report = {"budget": {"seconds": SECONDS, "memory_mb": MEMORY_MB}}
    for ladder, sizes in LADDERS.items():
        steps = []
        for size in sizes:
            steps.append(run_one(ladder, size))
            print(ladder, steps[-1], flush=True)
            if not steps[-1]["ok"]:
                break
        passed = [s["size"] for s in steps if s["ok"]]
        report[ladder] = {"ceiling": max(passed) if passed else None, "steps": steps}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
