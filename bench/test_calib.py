"""The calibration kernel and the slowness of an operation (calib.py)."""

import calib


def timeline(times, values):
    tl = calib.Timeline()
    tl.times, tl.values = list(times), list(values)
    return tl


def test_slowness_is_one_at_reference_times():
    assert calib.slowness(calib.REF_PY_S, calib.REF_NP_S) == 1.0
    assert calib.slowness(2 * calib.REF_PY_S, 2 * calib.REF_NP_S) == 2.0


def test_window_median_follows_a_slow_stretch():
    # ten samples a second at 1.0, then ten at 2.0: an operation well inside
    # either stretch takes that stretch's slowness
    times = [0.1 * i for i in range(40)]
    values = [1.0] * 20 + [2.0] * 20
    tl = timeline(times, values)
    assert tl.at(0.5) == 1.0
    assert tl.at(3.5) == 2.0


def test_sparse_samples_use_the_nearest():
    tl = timeline([0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
                  [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0])
    # no sample within WINDOW_S of t = 52: the five nearest (30 to 60, 20)
    assert tl.at(52.0) == 3.0
    assert tl.at(0.0) == 1.0


def test_timeline_samples_at_most_every_interval():
    tl = calib.Timeline()
    tl.sample()
    tl.sample()
    assert len(tl.values) == 1
    tl.sample(force=True)
    assert len(tl.values) == 2 and all(v > 0 for v in tl.values)
