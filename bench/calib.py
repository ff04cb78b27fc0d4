"""Machine-speed calibration: a fixed kernel timed between the operations.

The reference machine is a few cores of a shared host whose speed swings
by up to 2x, over stretches of seconds within a run and between runs
minutes apart, with CPU time following wall time (so no clock of the
process removes it).  The benchmark therefore times a fixed kernel that
does not touch sectorlab -- pure-Python dictionary arithmetic plus small
LAPACK and BLAS calls, the two kinds of work the workloads do -- every
``INTERVAL_S`` between operations, and divides each operation's duration
by the machine's slowness at that moment: the median kernel time of the
samples around it over the kernel's reference time.  A calibrated duration
reads in seconds at the reference speed (the kernel's time when the host
was quiet).  No change to sectorlab can move the kernel, so a faster or
slower program moves the calibrated figures as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: kernel times, Python part and numpy part, on the quiet reference machine
REF_PY_S = 0.88e-3
REF_NP_S = 0.71e-3
#: least time between two kernel samples during a run
INTERVAL_S = 0.05
#: half-width of the window whose samples set an operation's slowness
WINDOW_S = 1.0
#: fewest samples that set an operation's slowness
MIN_SAMPLES = 5
#: untimed kernel calls before the first sample of a process
WARMUP_CALLS = 20
#: kernel timings whose median gives the slowness of a set-up or a command
NOW_SAMPLES = 25

_rng = np.random.default_rng(12345)
_H = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_H = _H + _H.conj().T
_M = _rng.standard_normal((48, 48))


def kernel() -> tuple[float, float]:
    """One timing of the kernel: (Python part, numpy part) in seconds."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(4000):
        key = ((i * 7919) % 97, i % 5)
        acc[key] = acc.get(key, 0) + i * 3 - 1
        if not acc[key]:
            del acc[key]
    t1 = time.perf_counter()
    for _ in range(2):
        np.linalg.eigh(_H)
        np.linalg.svd(_M)
        _M @ _M
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def slowness(py_s: float, np_s: float) -> float:
    """The machine's slowness from one kernel timing; 1.0 at reference speed."""
    return float(np.sqrt((py_s / REF_PY_S) * (np_s / REF_NP_S)))


def slowness_now() -> float:
    """The machine's slowness now, in a process that has not run the kernel:
    the median over ``NOW_SAMPLES`` timings after ``WARMUP_CALLS`` calls."""
    for _ in range(WARMUP_CALLS):
        kernel()
    return float(np.median([slowness(*kernel()) for _ in range(NOW_SAMPLES)]))


class Timeline:
    """Kernel samples taken during a run, and each operation's slowness."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []
        self._last = -np.inf

    def sample(self, force: bool = False) -> None:
        """Time the kernel if ``INTERVAL_S`` has passed since the last sample."""
        now = time.perf_counter()
        if not force and now - self._last < INTERVAL_S:
            return
        kernel()  # refills the caches the operations have used; untimed
        py_s, np_s = kernel()
        self._last = time.perf_counter()
        self.times.append((now + self._last) / 2)
        self.values.append(slowness(py_s, np_s))

    def at(self, t: float) -> float:
        """Median slowness of the samples within ``WINDOW_S`` of ``t``
        (at least the ``MIN_SAMPLES`` nearest)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi >= len(self.times)
                           or t - self.times[lo - 1] <= self.times[hi] - t):
                lo -= 1
            else:
                hi += 1
        return float(np.median(self.values[lo:hi]))
