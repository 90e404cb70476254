"""Reference speed of the host, for scaling times measured on a shared machine.

On a host shared with other tenants the same Python code runs up to
twice as slowly in some stretches of seconds to minutes as in others, so
raw wall times of identical runs spread far more than the changes the
benchmark must resolve.  The benchmark therefore times a fixed reference
kernel, which does not use cpcshuffle, beside every measurement, and
scales the measurement to the speed at which the kernel takes
NOMINAL_KERNEL_S:

    scaled time = raw time * NOMINAL_KERNEL_S / kernel time measured beside it

A change to cpcshuffle cannot change the kernel's time, so a scaled time
moves only when the measured code does, while the host's stretches of
slowness cancel.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_KERNEL_S = 0.001
SAMPLE_PERIOD_S = 0.1


def kernel() -> int:
    """Fixed work in the mix the package does: Fractions, tuple-keyed
    dicts and int/bytes conversions (about 1 ms)."""
    table = {}
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
        table[(i, i & 7)] = total
    acc = 0
    for i in range(1500):
        acc ^= int.from_bytes((i * 2654435761 & 0xFFFFFFFF).to_bytes(4, "little"), "big")
    return acc + len(table)


def time_kernel(repeat: int) -> float:
    """Mean time of `repeat` kernel runs."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        kernel()
    return (time.perf_counter() - t0) / repeat


class SpeedSampler:
    """Times the kernel every SAMPLE_PERIOD_S seconds from a SIGALRM
    handler, but only while `active` is set, so every sample falls inside
    the measurement it is taken beside and its time can be subtracted."""

    def __init__(self) -> None:
        self.active = False
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self.active:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """The samples so far, clearing them."""
        samples, self.samples = self.samples, []
        return samples


def scale(samples: list[float]) -> float:
    """Factor that turns a raw time into a scaled time."""
    return NOMINAL_KERNEL_S / statistics.mean(samples)
