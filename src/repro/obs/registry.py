"""The process-global metrics registry.

One place for every counter, gauge, and histogram the warehouse emits —
the serving tier's request counts, the resilience machinery's breaker
trips and retry exhaustions, the ETL pipeline's load figures. Families
are **labeled** (Prometheus style): one family per metric name, one
child per label-value combination, so ``mdw_service_requests_total``
carries ``{service="mdw", event="completed"}`` samples for every
service instance in the process.

Safety properties:

* **thread-safe** — family creation and child resolution take the
  registry/family lock; each child guards its own numbers with its own
  lock (observations are a lock acquire plus integer bumps);
* **fork-safe** — ``os.register_at_fork`` reinstalls fresh locks in the
  child, so a fork taken while another thread held a metrics lock can
  never deadlock the child. The child's numbers start as a
  copy-on-write image of the parent's and diverge from there (fork-mode
  query workers ship *results* back, not metrics; the parent's registry
  stays the authoritative one);
* **idempotent registration** — asking for an existing family with the
  same type and label names returns it; a mismatch raises, because two
  call sites disagreeing about a metric is a bug worth failing loudly
  on.

Rendering lives in :mod:`repro.obs.exporter` (Prometheus text format
and a structured JSON snapshot); this module only accumulates.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Histogram bucket upper bounds in seconds (log-spaced, ~1ms .. 60s).
#: The last implicit bucket is +inf. Shared with the serving tier's
#: latency histograms so one bucket layout serves the whole process.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation.

    Log-spaced buckets keep the memory constant and the percentile
    error proportional to bucket width — plenty for "p99 jumped from
    20ms to 2s" style observations. With no observations every
    statistic is a defined 0.0 (an empty histogram is a dashboard's
    steady state, not an error).
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be a non-empty ascending sequence")
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        idx = 0
        for bound in self._bounds:
            if seconds <= bound:
                break
            idx += 1
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds
            if self._min is None or seconds < self._min:
                self._min = seconds
            if self._max is None or seconds > self._max:
                self._max = seconds

    def mean(self) -> float:
        """Arithmetic mean of the observations; 0.0 with none."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated latency at quantile ``q`` in [0, 1] (bucket upper bound).

        0.0 on an empty histogram. ``q=0`` reports the first *occupied*
        bucket (the smallest observation's bucket), not the first bucket
        of the layout; the +Inf bucket answers with the recorded max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            counts, hi = list(self._counts), self._max
        return bucket_percentile(self._bounds, counts, q, hi)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            counts, total = list(self._counts), self._sum
            lo = self._min if self._min is not None else 0.0
            hi = self._max if self._max is not None else 0.0
        return {
            **bucket_summary(self._bounds, counts, total, hi),
            "min": lo,
            "max": hi,
        }

    def state(self) -> Dict[str, object]:
        """A consistent raw view for exporters: per-bucket counts
        (non-cumulative, last entry is the +Inf bucket), count, sum."""
        with self._lock:
            return {
                "bounds": self._bounds,
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
            }

    def _reinit_lock(self) -> None:
        self._lock = threading.Lock()


def bucket_percentile(
    bounds: Sequence[float],
    counts: Sequence[float],
    q: float,
    overflow: Optional[float] = None,
) -> float:
    """Quantile ``q`` over per-bucket ``counts`` (a :meth:`LatencyHistogram.state`
    or the difference of two): the answering bucket's upper bound, 0.0
    with no observations. ``overflow`` answers for the +Inf bucket (the
    last finite bound when the maximum is unknown, as it is for a delta).
    """
    total = sum(counts)
    if not total:
        return 0.0
    # the rank of the observation answering the quantile; at least 1 so
    # q=0 lands on the first occupied bucket
    rank = max(1.0, q * total)
    seen = 0.0
    for idx, n in enumerate(counts[: len(bounds)]):
        seen += n
        if seen >= rank:
            return bounds[idx]
    return bounds[-1] if overflow is None else overflow


def bucket_summary(
    bounds: Sequence[float],
    counts: Sequence[float],
    total_seconds: float,
    overflow: Optional[float] = None,
) -> Dict[str, float]:
    """count / mean / p50 / p95 / p99 of per-bucket ``counts``."""
    count = sum(counts)
    return {
        "count": count,
        "mean": total_seconds / count if count else 0.0,
        "p50": bucket_percentile(bounds, counts, 0.50, overflow),
        "p95": bucket_percentile(bounds, counts, 0.95, overflow),
        "p99": bucket_percentile(bounds, counts, 0.99, overflow),
    }


class _Counter:
    """One child of a counter family (a monotonically increasing float)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reinit_lock(self) -> None:
        self._lock = threading.Lock()


class _Gauge:
    """One child of a gauge family: a settable value or a callback.

    ``set_function`` turns the child into a scrape-time computed gauge
    (plan-cache hit rate, snapshot pin counts, breaker state); re-setting
    the function replaces the previous one — last registration wins.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below it (a high-water
        mark that concurrent writers cannot lower)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return float(fn())
            except Exception:
                return float("nan")  # a broken callback must not break the scrape
        return self._value

    def _reinit_lock(self) -> None:
        self._lock = threading.Lock()


class MetricFamily:
    """One named metric with a fixed label-name set and typed children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help = help
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def child(self, **labels):
        """The child at these label values (created on first use)."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "counter":
                    child = _Counter()
                elif self.kind == "gauge":
                    child = _Gauge()
                else:
                    child = LatencyHistogram(self._buckets)
                self._children[key] = child
            return child

    # -- convenience (resolve child + act in one call) ---------------------

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.child(**labels).inc(amount)

    def set(self, value: float, **labels) -> None:
        self.child(**labels).set(value)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        self.child(**labels).set_function(fn)

    def observe(self, seconds: float, **labels) -> None:
        self.child(**labels).observe(seconds)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())

    def _reinit_locks(self) -> None:
        self._lock = threading.Lock()
        for child in self._children.values():
            child._reinit_lock()

    def __repr__(self) -> str:
        return (
            f"<MetricFamily {self.name!r} {self.kind} "
            f"labels={self.label_names} children={len(self._children)}>"
        )


class MetricsRegistry:
    """A set of metric families; see the module docstring.

    Instantiable for isolated tests; production code shares the
    process-global instance from :func:`get_registry`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}; requested {kind} "
                        f"with {tuple(labels)}"
                    )
                return family
            family = MetricFamily(name, kind, help=help, label_names=labels, buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    def collect(self) -> List[MetricFamily]:
        """Every family, sorted by name (the exporters' entry point)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, object]:
        """A structured, JSON-friendly view of every sample."""
        out: Dict[str, object] = {}
        for family in self.collect():
            entries = []
            for values, child in family.samples():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    entry = {"labels": labels, **child.summary()}
                else:
                    entry = {"labels": labels, "value": child.value}
                entries.append(entry)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": entries,
            }
        return out

    def reset(self) -> None:
        """Drop every family (test isolation helper; never in serving code)."""
        with self._lock:
            self._families.clear()

    def _after_fork(self) -> None:
        # the forking thread may not have held any metrics lock, but
        # another thread might have: every lock is replaced wholesale
        self._lock = threading.Lock()
        for family in self._families.values():
            family._reinit_locks()

    def __repr__(self) -> str:
        with self._lock:
            return f"<MetricsRegistry families={len(self._families)}>"


# -- the process-global registry ---------------------------------------------

_default = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every subsystem records into."""
    return _default


def _reinit_after_fork() -> None:
    _default._after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_reinit_after_fork)
