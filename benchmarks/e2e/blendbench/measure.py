"""Sample statistics shared by the runner, the layer rows and compare.py,
and the machine-speed calibration the end-to-end times are scaled by."""

from __future__ import annotations

import math
import statistics
import time
from typing import Optional, Sequence

# A percentile is reported only when this many samples lie beyond it:
# fewer, and the value is one or two outliers rather than a tail.
MIN_TAIL_SAMPLES = 10
PERCENTILE_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75, 0.50)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


median = statistics.median


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def lower_quartile(values: Sequence[float]) -> float:
    """Nearest-rank first quartile: an observed value, the minimum of up
    to four values and the second smallest of eight."""
    return sorted(values)[(len(values) - 1) // 4]


def supported_percentile(n: int, ladder: Sequence[float] = PERCENTILE_LADDER) -> Optional[float]:
    """The highest percentile of *ladder* with at least
    ``MIN_TAIL_SAMPLES`` of *n* samples beyond it, or ``None``."""
    for q in ladder:
        if n - int(q * n) - 1 >= MIN_TAIL_SAMPLES:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median -- the run-to-run spread the acceptance rule is stated in.
    ``None`` with fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return None
    return (q3 - q1) / abs(mid)


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and count of one metric over repeated runs."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=quartile_spread(values))
    return out


# -- machine-speed calibration ------------------------------------------------------

# What one call of the calibration kernel takes on the quiet reference box.
KERNEL_NOMINAL = 1.0e-3  # seconds


class Calibrator:
    """How fast is this machine *right now*, relative to the reference?

    The reference box is a shared VM whose speed drifts by 20-40 % over
    minutes (README, "Noise"): the same run repeated gave a geometric-mean
    latency anywhere between 1.59 and 2.17 ms. No statistic taken inside a
    run can remove a drift that outlasts the run, so the run also times a
    fixed kernel -- dict counting, an integer loop, a NumPy sort and
    unique: the instruction mix of the program under test -- in short
    bursts around each phase. The lower quartile of a phase's samples over
    ``KERNEL_NOMINAL`` is that phase's *slowdown*, and the end-to-end
    times are divided by it: they read as "on the reference box at its
    nominal speed". Over a stretch in which the raw latency moved by 36 %
    the scaled one moved by 4 % (two outliers at 10 %). The kernel belongs
    to the benchmark, so a change to the program cannot move it; the raw
    values and the slowdown are reported beside the scaled ones."""

    BURST = 25  # kernel calls per sample() -- about 25 ms

    def __init__(self) -> None:
        import numpy

        self._numpy = numpy
        self._words = [f"w{i % 500}" for i in range(3000)]
        self._array = numpy.arange(20000)[::-1].copy()
        self.samples: dict[str, list[float]] = {}

    def _kernel(self) -> float:
        started = time.perf_counter()
        counts: dict[str, int] = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        total = 0
        for i in range(3000):
            total += i * i
        self._numpy.sort(self._array)
        self._numpy.unique(self._array % 977)
        return time.perf_counter() - started

    def sample(self, phase: str) -> None:
        """Time one burst of the kernel and file it under *phase*."""
        self.samples.setdefault(phase, []).extend(self._kernel() for _ in range(self.BURST))

    def slowdown(self, phase: str) -> float:
        """This machine's time per unit of work during *phase*, as a
        multiple of the reference box's (1.0 when never sampled)."""
        found = self.samples.get(phase)
        return lower_quartile(found) / KERNEL_NOMINAL if found else 1.0
