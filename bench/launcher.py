"""Run one `sectorlab` command, as the console script would.

    python3 bench/launcher.py <sectorlab arguments>

With SECTORLAB_BENCH_TRACE set to a path prefix, the layer wrappers of
tracer.py are installed before ``sectorlab.cli.main`` runs; at exit their
raw sums and the import time of ``sectorlab.cli`` go to <prefix>.json and
the spans to <prefix>.npz.  With SECTORLAB_BENCH_CALIB set to a path, the
command's process measures its own slowness (calib.py) once the command
has run, and writes it there with the seconds that took, which the parent
takes off the command's duration: the parent sleeps while the command runs
and may sit on another, differently loaded core.
"""

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]


def calibrate(path: str) -> None:
    t0 = time.perf_counter()
    import calib

    slowness = calib.slowness_now()
    with open(path, "w") as fh:
        json.dump({"slowness": slowness, "seconds": time.perf_counter() - t0}, fh)


def main() -> int:
    calib_out = os.environ.get("SECTORLAB_BENCH_CALIB")
    try:
        return run()
    finally:
        if calib_out:
            calibrate(calib_out)


def run() -> int:
    trace_out = os.environ.get("SECTORLAB_BENCH_TRACE")
    t0 = time.perf_counter()
    import sectorlab.cli as cli

    import_s = time.perf_counter() - t0
    if not trace_out:
        return cli.main(sys.argv[1:])
    from tracer import Tracer

    tracer = Tracer()
    tracer.import_s = import_s
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.write_spans(trace_out + ".npz")
        with open(trace_out + ".json", "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
