"""LRU cache of parsed queries and prepared execution plans.

Parsing a SPARQL query and join-ordering its BGPs are pure functions of
(query text, namespace bindings) and (query, graph statistics)
respectively, so both are worth caching across the repeated template
queries the warehouse services issue (the Listing 1 search and Listing 2
lineage shapes run once per user interaction with only the bindings
changing).

Two cache levels:

* **parse cache** — keyed on (query text, namespace fingerprint); holds
  the parsed algebra tree. Survives graph updates.
* **plan cache** — keyed on (query text, namespace fingerprint, graph
  generation); holds a :class:`PreparedQuery` whose per-BGP join orders
  are computed once. Any mutation of the underlying graph bumps its
  generation counter and naturally invalidates the entry (the stale
  entry ages out of the LRU).

``graph.generation`` is an int for :class:`~repro.rdf.Graph` and a
tuple of per-layer ``(id(layer), generation)`` pairs for
:class:`~repro.rdf.GraphView`, so a view plan is reused only while every
layer is unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.obs.profile import current_profile
from repro.obs.trace import span
from repro.sparql.algebra import BGP, Query
from repro.sparql.parser import parse_query
from repro.sparql.planner import BGPPlan, plan_bgp

_DEFAULT_MAXSIZE = 128

#: A plan that keeps mis-estimating is re-costed at most this many
#: times; beyond that the corrections have plainly stopped converging
#: and replanning every execution would only churn the cache.
MAX_REPLAN_ROUNDS = 5

_METRIC_CACHE = None


def _replans_counter():
    """mdw_planner_replans_total, re-resolved if the registry is swapped."""
    global _METRIC_CACHE
    from repro.obs.registry import get_registry

    registry = get_registry()
    if _METRIC_CACHE is None or _METRIC_CACHE[0] is not registry:
        family = registry.counter(
            "mdw_planner_replans_total",
            help="Cached plans re-costed after estimate-vs-actual drift",
            labels=("reason",),
        )
        _METRIC_CACHE = (registry, family)
    return _METRIC_CACHE[1]


def _nsm_fingerprint(nsm) -> Tuple:
    """A hashable digest of the namespace bindings a parse depends on."""
    if nsm is None:
        return ()
    return tuple(sorted((prefix, ns.base) for prefix, ns in nsm.bindings()))


class PreparedQuery:
    """A parsed query plus memoized cost-based plans for one graph
    generation.

    Per BGP (and per bound-variable combination — an enclosing join or
    initial binding changes the probe estimates) one
    :class:`~repro.sparql.planner.BGPPlan` is computed lazily and
    reused. The executor reports actual row counts back into those
    plans; :attr:`needs_recost` then tells the cache the estimates blew
    past the replan threshold, and :meth:`corrections` hands the
    observed fanouts to the next planning round.
    """

    __slots__ = (
        "text", "query", "generation", "replan_round",
        "_plans", "_corrections", "_lock",
    )

    def __init__(self, text: str, query: Query, generation,
                 corrections: Optional[Dict] = None, replan_round: int = 0):
        self.text = text
        self.query = query
        self.generation = generation
        self.replan_round = replan_round
        # (id(bgp), bound names) -> BGPPlan; the BGP nodes live as long
        # as self.query does, so ids are stable
        self._plans: Dict[Tuple, BGPPlan] = {}
        self._corrections: Dict = dict(corrections) if corrections else {}
        # a shared plan may be executed by several workers at once; the
        # lock makes the memoized plan visible exactly-once
        self._lock = threading.Lock()

    def bgp_plan(self, graph, bgp: BGP, bound=frozenset()) -> BGPPlan:
        """The cost-based plan for ``bgp`` with ``bound`` variable names
        already bound by the caller, computed once per combination."""
        key = (id(bgp), bound)
        plan = self._plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = plan_bgp(
                        graph, list(bgp.patterns), bound=bound,
                        corrections=self._corrections or None,
                    )
                    self._plans[key] = plan
        return plan

    @property
    def needs_recost(self) -> bool:
        """True when an executed BGP's estimates were off by more than
        the replan threshold (and the replan budget is not exhausted)."""
        if self.replan_round >= MAX_REPLAN_ROUNDS:
            return False
        return any(plan.mis_estimated for plan in list(self._plans.values()))

    def corrections(self) -> Dict:
        """The corrections the next planning round should start from:
        what this plan was given, overlaid with what it observed."""
        merged = dict(self._corrections)
        for plan in list(self._plans.values()):
            merged.update(plan.observed)
        return merged

    def max_error(self) -> float:
        """Worst estimate-vs-actual ratio any of this query's BGPs saw."""
        errors = [plan.max_error for plan in list(self._plans.values())]
        return max(errors) if errors else 1.0

    def plan_snapshots(self) -> List[Dict]:
        """Per-BGP plan summaries (EXPLAIN / debugging)."""
        return [plan.snapshot() for plan in list(self._plans.values())]


class PlanCache:
    """LRU parse + plan cache for repeated query templates.

    Thread-safe: the query service shares one instance across all its
    workers, so a hot template is parsed and join-ordered once no matter
    how many concurrent requests replay it. All cache state (both LRU
    maps and the hit/miss counters) is guarded by one re-entrant lock;
    evaluation itself happens outside the lock.
    """

    def __init__(self, maxsize: int = _DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._parses: "OrderedDict[Tuple, Query]" = OrderedDict()
        self._plans: "OrderedDict[Tuple, PreparedQuery]" = OrderedDict()
        self.parse_hits = 0
        self.parse_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.replans = 0

    # -- parse level -------------------------------------------------------

    def parse(self, text: str, nsm=None) -> Query:
        key = (text, _nsm_fingerprint(nsm))
        with self._lock:
            cached = self._parses.get(key)
            if cached is not None:
                self.parse_hits += 1
                self._parses.move_to_end(key)
                prof = current_profile()
                if prof is not None:
                    prof.count("parse_cache_hits")
                return cached
            self.parse_misses += 1
        prof = current_profile()
        if prof is not None:
            prof.count("parse_cache_misses")
        # parse outside the lock: it is pure, and a duplicate parse under
        # contention is cheaper than serializing every miss
        with span("parse", "sparql"):
            query = parse_query(text, nsm=nsm)
        with self._lock:
            self._parses[key] = query
            if len(self._parses) > self.maxsize:
                self._parses.popitem(last=False)
        return query

    # -- plan level --------------------------------------------------------

    def prepare(self, graph, text: str, nsm=None) -> PreparedQuery:
        """A :class:`PreparedQuery` valid for the graph's current state.

        A cached entry whose executed estimates drifted past the replan
        threshold is **re-costed** instead of returned: a fresh
        :class:`PreparedQuery` takes its place, seeded with the observed
        per-stage fanouts as correction factors, so the next execution
        plans from actuals (``mdw_planner_replans_total``).
        """
        generation = graph.generation
        key = (text, _nsm_fingerprint(nsm), generation)
        replaced = None
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                if cached.needs_recost:
                    self.replans += 1
                    replaced = PreparedQuery(
                        cached.text, cached.query, generation,
                        corrections=cached.corrections(),
                        replan_round=cached.replan_round + 1,
                    )
                    self._plans[key] = replaced
                    self._plans.move_to_end(key)
                else:
                    self.plan_hits += 1
                    self._plans.move_to_end(key)
                    prof = current_profile()
                    if prof is not None:
                        prof.count("plan_cache_hits")
                    return cached
            else:
                self.plan_misses += 1
        if replaced is not None:
            # metrics outside the cache lock: the registry's exporters
            # run callbacks of their own and must not nest under us
            try:
                _replans_counter().inc(reason="estimate-error")
                from repro.obs.fleet import get_journal

                get_journal().record(
                    "planner-replan",
                    reason="estimate-error",
                    round=replaced.replan_round,
                )
            except Exception:
                pass
            prof = current_profile()
            if prof is not None:
                prof.count("replans")
            return replaced
        prof = current_profile()
        if prof is not None:
            prof.count("plan_cache_misses")
        plan = PreparedQuery(text, self.parse(text, nsm=nsm), generation)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                return existing
            self._plans[key] = plan
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
        return plan

    def execute(self, graph, text: str, nsm=None, bindings=None):
        """Parse/plan through the cache, then evaluate."""
        from repro.sparql.evaluator import evaluate

        plan = self.prepare(graph, text, nsm=nsm)
        return evaluate(graph, plan.query, initial_bindings=bindings, plan=plan)

    # -- introspection -----------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._parses.clear()
            self._plans.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "parse_hits": self.parse_hits,
                "parse_misses": self.parse_misses,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "replans": self.replans,
                "parse_entries": len(self._parses),
                "plan_entries": len(self._plans),
            }

    def hit_rate(self) -> float:
        """Fraction of :meth:`prepare` calls answered from the cache."""
        with self._lock:
            total = self.plan_hits + self.plan_misses
            return self.plan_hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<PlanCache plans={s['plan_entries']}/{self.maxsize} "
            f"hits={s['plan_hits']} misses={s['plan_misses']}>"
        )
