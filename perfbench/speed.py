"""Machine speed, measured by the benchmark's own calibration loop.

On a shared machine the CPU speed drifts, by half or more between runs a
minute apart.  The benchmark therefore times a fixed slice of interpreter work
next to every command and reports the command's wall time t as
t * CAL_REF_S / c, with c the mean of the calibrations taken around and during
it: seconds at the reference speed, at which the loop takes CAL_REF_S.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy

#: the calibration time that defines the reference speed
CAL_REF_S = 0.01

#: a command that runs longer than this is also calibrated while it runs
PROBE_PERIOD_S = 1.0


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter work of the kind the program's
    hot loops do: complex arithmetic, math calls and small numpy operations."""
    t0 = perf_counter()
    acc = 0j
    for k in range(1, 10000):
        z = complex(k * 1e-3, 0.5)
        acc += 0.5 / (z - 0.25) - 0.3 / (z + 1.5) + math.log(abs(z)) + math.sqrt(k)
    v = numpy.arange(16.0)
    for _ in range(400):
        acc += float(numpy.dot(v, v))
    return perf_counter() - t0


class SpeedProbe:
    """Calibrations taken while a command runs: a timer signal every
    PROBE_PERIOD_S interrupts the command and runs one calibration in the main
    thread.  ``spent`` is the time the probes took, to take off the command."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
