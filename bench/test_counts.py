"""The exact per-layer counts repeat between two traced runs with one seed.

    python3 -m pytest bench -q

Each workload runs twice with --trace 1 and the shortest run length
(whole rounds, at least 40 operations); this takes a couple of minutes.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["lattice", "thermal", "words", "cli"])
def test_counts_repeat(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = {k: v for k, v in first["metrics"].items() if not k.endswith("_s")}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert any(v["value"] > 0 for v in counts.values())
