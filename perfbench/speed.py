"""Timings rescaled to a reference machine speed.

On the shared 2-core machine this benchmark was written on, the same
Python code runs up to twice as fast in one tenth of a second as in the
next, and the slowdown is invisible to the process: CPU time equals wall
time and no steal is accounted.  Raw wall times of a run spread by 20-50%
between runs.  A fixed calibration kernel, timed every SAMPLE_EVERY_S
seconds from a SIGALRM handler while the workload runs, slows down by the
same factor, so a duration is reported as

    (wall time - time spent calibrating) * mean(REFERENCE_S / kernel time)

over the kernel samples taken during it, widened by WINDOW_S on each side
(further, for a very short interval, until it holds two samples).  Reported seconds are the time the same work would take at the
speed at which the kernel takes REFERENCE_S.  The kernel touches no
hopfrec code and runs with the cyclic garbage collector off, so neither
the program's heap nor its speed changes the kernel's time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction
from typing import NamedTuple

SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.05
REFERENCE_S = 0.001


class Deadline(Exception):
    """Raised inside the running job when it overruns its time limit."""


def kernel() -> None:
    """Fixed interpreter work of the kind hopfrec does: small-rational
    Fraction arithmetic and dict updates."""
    acc = Fraction(0)
    d = {}
    for i in range(1, 125):
        x = Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
        acc = x + (acc if i % 16 else 0)
        d[i % 31] = acc


class Mark(NamedTuple):
    t: float  # perf_counter
    spent: float  # seconds spent calibrating so far


class Sampler:
    """Samples the kernel while started; `seconds(a, b)` rescales the
    interval between two marks.  `deadline` (a perf_counter value) makes
    the next sample after it raise Deadline.  In a traced run each sample
    falls in whatever span it interrupts: samples come at a fixed rate, so
    every span's self time grows by the same share."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints
        self.speed: list[float] = []  # REFERENCE_S / kernel seconds
        self.spent = 0.0
        self.deadline: float | None = None
        self._old = None

    def _sample(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            kernel()
        finally:
            t1 = time.perf_counter()
            if collecting:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.speed.append(REFERENCE_S / (t1 - t0))
        self.spent += t1 - t0
        if self.deadline is not None and t1 > self.deadline:
            self.deadline = None
            raise Deadline

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.spent)

    def seconds(self, a: Mark, b: Mark) -> float:
        """Reference-speed seconds of the work between marks a and b."""
        if len(self.times) < 2:
            raise RuntimeError("fewer than two speed samples; was the sampler started?")
        widen = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.times, a.t - widen)
            hi = bisect.bisect_right(self.times, b.t + widen)
            if hi - lo >= 2:
                break
            widen *= 2
        window = self.speed[lo:hi]
        return (b.t - a.t - (b.spent - a.spent)) * sum(window) / len(window)
