"""A clock that reads in seconds of a reference host speed.

The shared host the benchmark runs on executes the same code at speeds up to
twice apart, in spells from milliseconds to minutes, so plain wall time
says as much about the neighbours as about ellspec.  HostClock samples the
host's speed every TICK_S seconds by timing a short, fixed calibration loop
in a SIGALRM handler, and advances by each interval's wall time scaled by
the speed sampled at its start:

    now() = sum over intervals of  wall * CAL_REF_S / calibration

The calibration time itself is left out.  The loop uses only the standard
library, so no change to ellspec moves it, and an ellspec change that saves
work shows in full.  Unix only (setitimer).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

TICK_S = 0.05
CAL_STEPS = 150
# The calibration loop's time on the 2-core host the benchmark was sized on,
# in its fast state (CPython 3.11.7).  It only sets the unit: a normalised
# time reads as the wall time that host would show in that state.
CAL_REF_S = 0.00125


def calibrate() -> float:
    """Time one pass of the calibration loop: Fraction arithmetic, tuples
    and a dict, the kind of work ellspec does."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, CAL_STEPS + 1):
        term = Fraction(i % 7 - 3, i) * Fraction(3, i + 1) + Fraction(1, i % 5 + 1)
        acc += term
        seen[i % 31, i % 17] = term
    return time.perf_counter() - start


class HostClock:
    """Normalised time since start(); use as a context manager."""

    def __init__(self) -> None:
        self.ticks = 0
        self.calibration_s = 0.0  # wall time spent calibrating
        self._norm = 0.0  # normalised seconds up to _mark
        self._mark = 0.0  # wall time the current interval began
        self._factor = 1.0  # CAL_REF_S over the current interval's calibration
        self._previous = None

    def __enter__(self) -> HostClock:
        calibrate()  # warm-up
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # collect the program's garbage on its own time
        try:
            took = calibrate()
        finally:
            if enabled:
                gc.enable()
        self._factor = CAL_REF_S / took
        self.calibration_s += took
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._norm += (time.perf_counter() - self._mark) * self._factor
        self._sample()
        self.ticks += 1

    def now(self) -> float:
        """Normalised seconds; a tick during the read makes it read again."""
        while True:
            ticks = self.ticks
            value = self._norm + (time.perf_counter() - self._mark) * self._factor
            if ticks == self.ticks:
                return value
