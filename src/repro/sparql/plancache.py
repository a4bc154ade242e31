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
from typing import Dict, Optional, Tuple

from repro.obs.profile import current_profile
from repro.obs.trace import span
from repro.sparql.algebra import BGP, Query
from repro.sparql.parser import parse_query
from repro.sparql.planner import BGPPlan, plan_bgp

_DEFAULT_MAXSIZE = 128

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
    :class:`~repro.sparql.planner.BGPPlan` is computed lazily from the
    statistics catalog and reused for as long as the entry lives.
    """

    __slots__ = ("text", "query", "generation", "_plans", "_lock")

    def __init__(self, text: Optional[str], query: Optional[Query], generation):
        self.text = text
        self.query = query
        self.generation = generation
        # (id(bgp), bound names) -> BGPPlan; the BGP nodes live as long
        # as self.query does, so ids are stable
        self._plans: Dict[Tuple, BGPPlan] = {}
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
                    plan = plan_bgp(graph, list(bgp.patterns), bound=bound)
                    self._plans[key] = plan
        return plan


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
        """A :class:`PreparedQuery` valid for the graph's current state."""
        generation = graph.generation
        key = (text, _nsm_fingerprint(nsm), generation)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.plan_hits += 1
                self._plans.move_to_end(key)
                prof = current_profile()
                if prof is not None:
                    prof.count("plan_cache_hits")
                return cached
            self.plan_misses += 1
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
