"""Machine-speed calibration.

The machines this benchmark runs on share their cores, and their speed
drifts by a quarter or more within minutes; CPU time drifts with wall
time, so it is no remedy.  The benchmark therefore times a fixed mix of
interpreter and small-array work (the same kinds of work fatpanel does)
between measured operations and reports times scaled to a machine on
which that mix takes ``REFERENCE_S``::

    scaled = wall * (REFERENCE_S / cal) ** EXPONENT

with ``cal`` the mean of all calibrations of the run.  When the machine
slows, the mix slows more than fatpanel's work does: across runs of all
three workloads, mean operation time grew as the mean calibration to the
power 0.80 to 0.92, hence ``EXPONENT``.  The speed flips between a fast
and a slow state every few seconds, so a run's mean wall time over its
mean calibration is steadier than any single operation scaled by the
calibrations next to it, or than medians, which jump between the two
states.  A change to fatpanel cannot change the calibration, so it moves
scaled times as it moves wall times at a fixed machine speed.  The mix
keeps its table small, so it adds nothing to the worker's peak memory.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1
EXPONENT = 0.85


def calibrate() -> float:
    """Wall time of the fixed work mix, in seconds."""
    t0 = time.perf_counter()
    for _ in range(100):
        table = {}
        for i in range(1000):
            table[f"u{i}"] = i * 0.5
    total = 0.0
    a = np.arange(12.0)
    for i in range(20_000):
        total += float(a[i % 6:i % 6 + 4] @ a[:4]) + table[f"u{i % 1000}"]
    return time.perf_counter() - t0


def scale(cals) -> float:
    """Factor turning wall seconds into reference seconds, given a run's
    calibrations."""
    return (REFERENCE_S * len(cals) / sum(cals)) ** EXPONENT
