"""Machine speed, read from a fixed kernel while the operations run.

The shared machines this benchmark runs on change speed by up to half,
both within seconds and over minutes: one solve took 12.4 s and, half an
hour later on the same input, 19.5 s.  A fixed kernel slows down with
them, so an operation's time multiplied by the kernel's speed during it
changes far less than the time itself.

A reference second is the time in which the kernel runs REF_UNIT_S per
unit of work.  ``Meter`` runs a short kernel from a CPU-time timer
signal, every SAMPLE_CPU_S seconds of the process's CPU time, and keeps
its speed readings and the wall time the readings took, so that callers
can take that time out of what they measure.  The kernel is the
benchmark's own code, so no change to the package changes it.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# one unit of the kernel, on 2 cores in a fast spell
REF_UNIT_S = 0.0038
SAMPLE_CPU_S = 0.5

_MASKS = [random.Random(f"calibration/{i}").getrandbits(16384) for i in range(8)]


def _kernel(units: int) -> int:
    """Work of the kinds the package does: bit operations on 16384-bit
    masks, and an interpreter loop over small integers."""
    acc = 0
    for _ in range(units):
        for r in range(40):
            for i, m in enumerate(_MASKS):
                x = m & _MASKS[i - 1]
                acc ^= (x & -x).bit_length() + (x >> r).bit_count()
        for i in range(25_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def speed(units: int = 1) -> float:
    """Reference seconds per wall second, now."""
    t0 = perf_counter()
    _kernel(units)
    return REF_UNIT_S * units / (perf_counter() - t0)


class Meter:
    """Speed readings taken from a CPU-time timer signal."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0  # wall seconds spent taking readings

    def _read(self, signum, frame):
        t0 = perf_counter()
        self.readings.append(speed())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._read)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def mark(self) -> tuple[int, float]:
        """A point to measure from: readings so far, time spent so far."""
        self._read(None, None)
        return len(self.readings), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """The median speed of the readings from ``mark`` to now, and
        the wall time taken by the readings in between."""
        first, spent = mark
        during = self.spent - spent
        self._read(None, None)
        return statistics.median(self.readings[first - 1:]), during
