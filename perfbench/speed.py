"""Machine-speed calibration for timings on a shared, fluctuating CPU.

On a small shared machine the same solve can take 25% longer from one
second to the next while the process is never descheduled, so neither wall
time nor CPU time repeats.  While a `Sampler` is active, a SIGALRM handler
times a fixed pure-Python loop of complex arithmetic (the same kind of work
as ptwell's integrators) every INTERVAL_S.  A timed stretch of work is
reported twice: raw, its wall time minus the time spent in the handler, and
scaled, raw times REFERENCE_S over the mean loop time sampled during it
(or, for work too short to hold two samples, up to WINDOW_S either side).
The scaled time is the work's time on the machine running at its reference
speed.  The loop runs no ptwell code, so a change to the package cannot
move it.
"""

from __future__ import annotations

import bisect
import cmath
import signal
import time

LOOP_ITERATIONS = 2_000
# The loop's time on the 2-core machine the baseline was recorded on, when
# it was otherwise idle (about its 10th percentile).
REFERENCE_S = 0.7e-3
INTERVAL_S = 0.05
# Work that holds fewer than two samples is scaled by the mean of all samples
# from WINDOW_S before it starts to WINDOW_S after it ends, since a single
# 1 ms sample is noisy.
WINDOW_S = 0.5


def _loop() -> float:
    start = time.perf_counter()
    z = 0.3 + 0.1j
    acc = 0j
    for i in range(LOOP_ITERATIONS):
        acc += cmath.exp(z * (i % 7)) * z ** 3 / (1.0 + z)
    return time.perf_counter() - start


class Sampler:
    """Context manager sampling the loop every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.when: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        seconds = _loop()
        end = time.perf_counter()
        self.when.append(end)
        self.seconds.append(seconds)
        self.spent += end - start

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def timed(self, start: tuple[float, float],
              end: tuple[float, float]) -> tuple[float, float]:
        """(raw, scaled) seconds of the work between two marks; call it
        after the sampler has exited, so that the window is complete."""
        (t0, spent0), (t1, spent1) = start, end
        raw = (t1 - t0) - (spent1 - spent0)
        inside = self.seconds[bisect.bisect_left(self.when, t0):
                              bisect.bisect_right(self.when, t1)]
        if len(inside) < 2:
            inside = self.seconds[bisect.bisect_left(self.when, t0 - WINDOW_S):
                                  bisect.bisect_right(self.when, t1 + WINDOW_S)]
        return raw, raw * REFERENCE_S * len(inside) / sum(inside)
