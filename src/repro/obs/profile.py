"""Per-query execution statistics.

A :class:`QueryProfile` rides along with one query's evaluation in a
context variable and collects what the static plan cannot show: rows in
and out of every join/path operator, which join strategy actually ran,
how often the dictionary/plan/regex/hierarchy caches hit, and how many
cancellation checks the evaluator performed. The serving tier attaches
the profile to ``explain``-style output (``EXPLAIN ANALYZE``) and to
slow-query log entries, so an offending Listing-1/Listing-2 query
captures its actual runtime behaviour at the moment it was slow.

The instrumentation contract that keeps this cheap: hooks fire at
**stage granularity** (once per BGP, once per join stage, once per
cache probe), never per row — row counts come from ``len()`` on
materialized id-row lists or from one :func:`count_rows` wrapper around
a lazily-consumed stream. An operator that runs many times in one query
(the right side of a join or OPTIONAL is re-run per left row) folds
into one record, so a profile's size follows the plan, not the data.
With no profile installed every hook is one contextvar read returning
None.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

_CURRENT: ContextVar[Optional["QueryProfile"]] = ContextVar(
    "repro_obs_profile", default=None
)


class OperatorStats:
    """One executed operator: a join stage, a path step, a filter —
    totalled over the ``calls`` times it ran in one query.

    ``est_rows_out`` is the planner's cardinality estimate for the
    stage, summed over the calls like ``rows_out`` (None when the
    operator ran without a cost-based plan); the estimate-vs-actual
    pair is what EXPLAIN ANALYZE renders.
    """

    __slots__ = (
        "op", "detail", "rows_in", "rows_out", "seconds", "est_rows_out", "calls",
    )

    def __init__(self, op: str, detail: str = "", rows_in: int = 0,
                 rows_out: int = 0, seconds: float = 0.0,
                 est_rows_out: Optional[float] = None, calls: int = 1):
        self.op = op
        self.detail = detail
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.seconds = seconds
        self.est_rows_out = est_rows_out
        self.calls = calls

    def snapshot(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "detail": self.detail,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "est_rows_out": self.est_rows_out,
            "calls": self.calls,
        }

    def __repr__(self) -> str:
        return (
            f"<OperatorStats {self.op} {self.detail!r} "
            f"{self.rows_in}->{self.rows_out} rows {self.seconds * 1e3:.2f}ms>"
        )


class QueryProfile:
    """Counters for one query evaluation (picklable snapshot via
    :meth:`snapshot`; fork workers ship the snapshot dict back)."""

    __slots__ = (
        "_lock", "operators", "_by_key", "bgps", "rows_out",
        "parse_cache_hits", "parse_cache_misses",
        "plan_cache_hits", "plan_cache_misses",
        "regex_cache_hits", "regex_cache_misses",
        "hierarchy_cache_hits", "hierarchy_cache_misses",
        "dict_lookups", "cancel_checks",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self.operators: List[OperatorStats] = []
        self._by_key: Dict[Tuple[str, str], OperatorStats] = {}
        self.bgps = 0
        self.rows_out = 0
        self.parse_cache_hits = 0
        self.parse_cache_misses = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.regex_cache_hits = 0
        self.regex_cache_misses = 0
        self.hierarchy_cache_hits = 0
        self.hierarchy_cache_misses = 0
        self.dict_lookups = 0
        self.cancel_checks = 0

    # -- recording hooks (all rare-path; see module docstring) -------------

    def operator(self, op: str, detail: str = "", rows_in: int = 0,
                 rows_out: int = 0, seconds: float = 0.0,
                 est_rows_out: Optional[float] = None) -> OperatorStats:
        """The record of ``(op, detail)`` with this run folded in."""
        with self._lock:
            return self._fold(op, detail, rows_in, rows_out, seconds,
                              est_rows_out, 1)

    def _fold(self, op, detail, rows_in, rows_out, seconds, est_rows_out,
              calls) -> OperatorStats:
        stats = self._by_key.get((op, detail))
        if stats is None:
            stats = OperatorStats(op, detail, rows_in, rows_out, seconds,
                                  est_rows_out, calls)
            self._by_key[(op, detail)] = stats
            self.operators.append(stats)
        else:
            stats.rows_in += rows_in
            stats.rows_out += rows_out
            stats.seconds += seconds
            if est_rows_out is not None:
                stats.est_rows_out = (stats.est_rows_out or 0.0) + est_rows_out
            stats.calls += calls
        return stats

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    # -- views -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "bgps": self.bgps,
                "rows_out": self.rows_out,
                "operators": [op.snapshot() for op in self.operators],
                "caches": {
                    "parse": {"hits": self.parse_cache_hits,
                              "misses": self.parse_cache_misses},
                    "plan": {"hits": self.plan_cache_hits,
                             "misses": self.plan_cache_misses},
                    "regex": {"hits": self.regex_cache_hits,
                              "misses": self.regex_cache_misses},
                    "hierarchy": {"hits": self.hierarchy_cache_hits,
                                  "misses": self.hierarchy_cache_misses},
                },
                "dict_lookups": self.dict_lookups,
                "cancel_checks": self.cancel_checks,
            }

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a snapshot dict (e.g. shipped back from a fork worker)
        into this profile."""
        with self._lock:
            self.bgps += data.get("bgps", 0)
            self.rows_out += data.get("rows_out", 0)
            for op in data.get("operators", ()):
                self._fold(
                    op.get("op", "?"), op.get("detail", ""),
                    op.get("rows_in", 0), op.get("rows_out", 0),
                    op.get("seconds", 0.0), op.get("est_rows_out"),
                    op.get("calls", 1),
                )
            caches = data.get("caches", {})
            for cache, attr in (("parse", "parse_cache"), ("plan", "plan_cache"),
                                ("regex", "regex_cache"), ("hierarchy", "hierarchy_cache")):
                entry = caches.get(cache, {})
                setattr(self, f"{attr}_hits",
                        getattr(self, f"{attr}_hits") + entry.get("hits", 0))
                setattr(self, f"{attr}_misses",
                        getattr(self, f"{attr}_misses") + entry.get("misses", 0))
            self.dict_lookups += data.get("dict_lookups", 0)
            self.cancel_checks += data.get("cancel_checks", 0)

    def render(self, indent: str = "  ") -> str:
        """Human-readable block appended to EXPLAIN ANALYZE output and
        slow-query reports."""
        snap = self.snapshot()
        lines = [f"runtime profile ({snap['bgps']} BGP(s), {snap['rows_out']} row(s) out):"]
        for op in snap["operators"]:
            detail = f" {op['detail']}" if op["detail"] else ""
            est = op.get("est_rows_out")
            if est is None:
                est_bit = ""
            else:
                actual = op["rows_out"]
                error = (max(est, actual) + 1.0) / (min(est, actual) + 1.0)
                est_bit = f" (est {est:.0f}"
                est_bit += f", {error:.1f}x off)" if error >= 1.05 else ")"
            calls = f" over {op['calls']} calls" if op["calls"] > 1 else ""
            lines.append(
                f"{indent}{op['op']}{detail}: "
                f"{op['rows_in']} -> {op['rows_out']} rows{est_bit} "
                f"in {op['seconds'] * 1e3:.2f} ms{calls}"
            )
        caches = snap["caches"]
        cache_bits = ", ".join(
            f"{name} {entry['hits']}/{entry['hits'] + entry['misses']}"
            for name, entry in caches.items()
            if entry["hits"] or entry["misses"]
        )
        if cache_bits:
            lines.append(f"{indent}cache hits: {cache_bits}")
        lines.append(
            f"{indent}dictionary lookups: {snap['dict_lookups']}, "
            f"cancel checks: {snap['cancel_checks']}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<QueryProfile bgps={self.bgps} operators={len(self.operators)} "
            f"rows_out={self.rows_out}>"
        )


def current_profile() -> Optional[QueryProfile]:
    """The profile riding with this evaluation, or None (the fast path:
    one contextvar read)."""
    return _CURRENT.get()


@contextmanager
def profile_scope(profile: Optional[QueryProfile] = None) -> Iterator[QueryProfile]:
    """Install a profile for the duration of the block; yields it."""
    profile = profile if profile is not None else QueryProfile()
    token = _CURRENT.set(profile)
    try:
        yield profile
    finally:
        _CURRENT.reset(token)


def count_rows(rows: Iterable, stats: OperatorStats) -> Iterator:
    """Wrap a lazily-consumed row stream, adding how many rows pass
    through to ``stats.rows_out`` — including on early exit (LIMIT,
    cancellation), thanks to the finally clause."""
    n = 0
    try:
        for row in rows:
            n += 1
            yield row
    finally:
        stats.rows_out += n
