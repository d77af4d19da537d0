"""Host-speed calibration for the benchmark's time metrics.

The 2-vCPU VM the benchmark was built on runs the same op up to 1.6x
slower for minutes at a time (contention for the physical core: CPU
time grows with wall time, so CPU time is no steadier).  Medians over a
run cannot average that out, so every timed op is paired with
:func:`calibrate`, a fixed pure-Python loop that shares nothing with the
program, timed just before the op.  The benchmark reports host times
scaled to the loop's reference time::

    scaled_s = measured_s * CAL_REF_S / calibration_s

A change to the program moves the measured time and not the
calibration, so it moves the scaled time by the same factor; a slow
phase of the host moves both and cancels out.
"""

from __future__ import annotations

from time import perf_counter

#: Iterations of the calibration loop (about 12 ms on the reference host).
CAL_ITERATIONS = 50_000

#: Seconds the loop takes on the reference host in a quiet phase; the
#: scale of every reported host time.
CAL_REF_S = 0.012


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    table = {}
    total = 0
    start = perf_counter()
    for key in range(CAL_ITERATIONS):
        table[key & 1023] = table.get(key & 511, 0) + key
        total += len(table)
    return perf_counter() - start


def scaled(measured_s: float, calibration_s: float) -> float:
    """``measured_s`` at the reference host speed."""
    return measured_s * CAL_REF_S / calibration_s
