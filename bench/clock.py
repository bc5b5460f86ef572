"""A clock that reads seconds at a fixed reference speed of the host.

On a shared host the speed of the same single-threaded Python code moves
by up to 2x within seconds, as other tenants load the machine, and both
``perf_counter`` and ``process_time`` move with it.  This clock corrects
for that: every ``PERIOD_S`` a SIGALRM handler times a small, fixed
``Fraction`` kernel (the arithmetic the exact simplex spends its time on),
and each stretch of time between two calibrations is scaled by
``REFERENCE_S / mean(kernel time at its two ends)``.  The time spent in
calibrations is left out.  A reading is therefore the time the code would
have taken had one kernel always taken ``REFERENCE_S``, about the fastest
it takes on an idle 2-vCPU Intel Xeon VM under Python 3.11.

Timestamps are taken with ``perf_counter`` while the clock runs and
converted with ``seconds(t0, t1)`` after ``stop()``, when the
calibrations on both sides of every timestamp are known.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
REFERENCE_S = 0.002
KERNEL_N = 9


def _kernel_matrix() -> list[list[Fraction]]:
    rng = random.Random(7)
    return [[Fraction(rng.randint(-9, 9)) for _ in range(KERNEL_N + 1)] for _ in range(KERNEL_N)]


def kernel(matrix: list[list[Fraction]]) -> None:
    """Gauss-Jordan elimination of a copy of ``matrix`` in exact arithmetic."""
    a = [row[:] for row in matrix]
    for c in range(KERNEL_N):
        p = next(r for r in range(c, KERNEL_N) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(KERNEL_N):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]


class SpeedClock:
    def __init__(self) -> None:
        self._matrix = _kernel_matrix()
        self.starts: list[float] = []  # perf_counter when each calibration began
        self.costs: list[float] = []  # how long its kernel took
        self._at: list[float] = []  # clock reading at each calibration
        self._previous_handler = None

    def _calibrate(self, *_) -> None:
        t = time.perf_counter()
        kernel(self._matrix)
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self) -> None:
        self._calibrate()
        self._previous_handler = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @property
    def running(self) -> bool:
        return self._previous_handler is not None

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._previous_handler = None
        self._calibrate()
        self._at = [0.0]
        for k in range(1, len(self.starts)):
            self._at.append(self._at[-1] + self._gap(k - 1) * self._rate(k - 1))

    def _gap(self, k: int) -> float:
        """Time between the end of calibration k and the start of k + 1."""
        return self.starts[k + 1] - self.starts[k] - self.costs[k]

    def _rate(self, k: int) -> float:
        k = min(k, len(self.starts) - 2)
        return REFERENCE_S / ((self.costs[k] + self.costs[k + 1]) / 2)

    def reading(self, t: float) -> float:
        """The clock's reading at ``perf_counter`` time ``t``."""
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        ran = t - self.starts[k] - self.costs[k]
        return self._at[k] + max(ran, 0.0) * self._rate(k)

    def seconds(self, t0: float, t1: float) -> float:
        return self.reading(t1) - self.reading(t0)

    @property
    def calibrations(self) -> int:
        return len(self.starts)
