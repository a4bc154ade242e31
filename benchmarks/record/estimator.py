"""The estimator: rounds, speed normalisation, block timing.

A run is R interleaved *rounds*. Every round replays the same seeded op
multiset (reshuffled), so rounds do equal work and the run's value for a
metric is the **median over rounds** of the round's own value. The
calibration kernel (``calib.py``) runs between rounds; a round's timings
are multiplied by ``calib_ref_ms / mean(kernel before, kernel after)`` so
that a box running 20 % slow for a minute reports the same numbers.

Ops faster than a millisecond are never timed one by one: they are issued
as a block of consecutive calls, the block is timed whole, and the result
divided — a single sub-millisecond ``perf_counter`` difference on a shared
box is mostly scheduler noise.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from . import calib


@dataclass
class RoundSample:
    """What one round measured (raw, un-normalised)."""

    wall_s: float
    ops: int
    #: metric family -> per-op latencies in ms (block-timed families
    #: contribute one value per block: block time / block size)
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    calib_before_ms: float = 0.0
    calib_after_ms: float = 0.0
    traced: bool = False

    def speed(self, calib_ref_ms: float) -> float:
        """Factor that converts this round's timings to reference speed."""
        return calib_ref_ms / ((self.calib_before_ms + self.calib_after_ms) / 2.0)


def timed_ms(fn: Callable[[], object]):
    """(elapsed ms, result) of one call."""
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1e3, result


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_ratio(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the acceptance rule looks at."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def p95(values: Sequence[float]) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(round(0.95 * (len(ranked) - 1))))]


class Calibrator:
    """Runs the kernel between rounds and remembers every reading."""

    def __init__(self, calib_ref_ms: float, lanes: int = 1):
        self.ref_ms = calib_ref_ms
        self.readings_ms: List[float] = []
        self._lanes = calib.Lanes(lanes)

    def read(self) -> float:
        value = self._lanes.measure_ms()
        self.readings_ms.append(value)
        return value

    def burst(self, n: int) -> float:
        """Median of ``n`` readings (used around set-up)."""
        return median([self.read() for _ in range(n)])

    def close(self) -> None:
        self._lanes.close()


def run_values(
    rounds: Sequence[RoundSample], family: str, calib_ref_ms: float, normalise: bool = True
) -> List[float]:
    """Per-round value of a latency family: the round's median, at
    reference speed when ``normalise``."""
    out = []
    for sample in rounds:
        values = sample.latencies_ms.get(family)
        if values:
            factor = sample.speed(calib_ref_ms) if normalise else 1.0
            out.append(median(values) * factor)
    return out


def all_values(rounds: Sequence[RoundSample], family: str, calib_ref_ms: float) -> List[float]:
    """Every sample of a family across rounds, at reference speed."""
    return [
        value * sample.speed(calib_ref_ms)
        for sample in rounds
        for value in sample.latencies_ms.get(family, ())
    ]


def throughput_values(
    rounds: Sequence[RoundSample], calib_ref_ms: float, normalise: bool = True
) -> List[float]:
    return [
        sample.ops / (sample.wall_s * (sample.speed(calib_ref_ms) if normalise else 1.0))
        for sample in rounds
    ]
