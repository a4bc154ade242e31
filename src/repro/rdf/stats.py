"""Index statistics for the cost-based query optimizer.

Oracle's optimizer orders SEM_MATCH triple patterns from statistics it
gathers over the RDF model tables; this module is that catalog for the
in-memory graph. Per predicate it records the triple count, the number
of distinct subjects and objects, and a top-k heavy-hitter histogram of
the most frequent subjects/objects — enough for the planner to turn
"``?x dm:isMappedTo ?y`` with ``?x`` already bound" into a per-binding
probe estimate instead of a full wildcard scan (the Koch meta-level
indexing idea from PAPERS.md, applied to our own planner).

One :class:`StatsCatalog` serves every graph — in-memory, mapped or
copied — because it reads only the graph read contract: a predicate is
collected lazily, on first request, in one pass over its triples
(``triples_ids(None, pid, None)``), once per predicate per graph
generation. The memo is keyed on the graph's ``generation``, the rule
the plan cache, ``cached_count`` and the hierarchy cache follow: a write
forgets every collected predicate, and each one is collected again when
the next plan asks for it, so a plan never reads statistics of an older
graph.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

#: Keep this many heavy hitters per predicate and position.
TOP_K = 8


class PredicateStats:
    """Statistics of one predicate: cardinality, distincts, heavy hitters.

    ``top_subjects`` / ``top_objects`` are ``(term id, frequency)``
    pairs sorted by descending frequency — the selectivity histogram's
    heavy-hitter buckets; everything below them is assumed uniform.
    """

    __slots__ = (
        "predicate_id", "count", "distinct_subjects", "distinct_objects",
        "top_subjects", "top_objects", "_wsub", "_wobj",
    )

    def __init__(
        self,
        predicate_id: int,
        count: int,
        distinct_subjects: int,
        distinct_objects: int,
        top_subjects: Tuple[Tuple[int, int], ...] = (),
        top_objects: Tuple[Tuple[int, int], ...] = (),
    ):
        self.predicate_id = predicate_id
        self.count = count
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects
        self.top_subjects = top_subjects
        self.top_objects = top_objects
        self._wsub: Optional[float] = None
        self._wobj: Optional[float] = None

    def object_fanout(self) -> float:
        """Mean triples per distinct object (uniform assumption)."""
        return self.count / self.distinct_objects if self.distinct_objects else 0.0

    def _weighted(self, top: Tuple[Tuple[int, int], ...], distinct: int) -> float:
        """Expected matches for a probe value drawn frequency-weighted
        (sum f_i^2 / count): heavy hitters exact, the tail uniform."""
        if not self.count or not distinct:
            return 0.0
        head_sq = sum(f * f for _, f in top)
        head_total = sum(f for _, f in top)
        tail_values = distinct - len(top)
        tail_total = self.count - head_total
        tail_sq = (tail_total * tail_total / tail_values) if tail_values > 0 else 0.0
        return (head_sq + tail_sq) / self.count

    def weighted_subject_fanout(self) -> float:
        """Skew-aware per-subject fanout: what a probe should *expect*
        when its bindings are correlated with the data (worst common case)."""
        if self._wsub is None:
            self._wsub = self._weighted(self.top_subjects, self.distinct_subjects)
        return self._wsub

    def weighted_object_fanout(self) -> float:
        if self._wobj is None:
            self._wobj = self._weighted(self.top_objects, self.distinct_objects)
        return self._wobj

    def __repr__(self) -> str:
        return (
            f"<PredicateStats p={self.predicate_id} n={self.count} "
            f"ds={self.distinct_subjects} do={self.distinct_objects}>"
        )


class StatsCatalog:
    """The per-graph statistics catalog the planner costs plans from.

    One catalog serves every kind of graph: a predicate is collected on
    first request, by one pass over ``triples_ids(None, pid, None)`` —
    the read contract, not any index layout — and the collected
    predicates are forgotten when the graph's generation moves.
    """

    _serials = itertools.count(1)

    def __init__(self, graph):
        self._serial = next(StatsCatalog._serials)
        self._graph = graph
        self._predicates: Dict[int, Optional[PredicateStats]] = {}
        self._generation = graph.generation

    # -- lookups ------------------------------------------------------------

    def _collect(self, predicate_id: int) -> Optional[PredicateStats]:
        """One pass over the predicate's triples: count, distincts and
        the top-k heavy hitters on both sides."""
        subjects: Dict[int, int] = {}
        objects: Dict[int, int] = {}
        for s, _, o in self._graph.triples_ids(None, predicate_id, None):
            subjects[s] = subjects.get(s, 0) + 1
            objects[o] = objects.get(o, 0) + 1
        count = sum(subjects.values())
        if not count:
            return None

        def top(freq: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
            return tuple(sorted(freq.items(), key=lambda t: (-t[1], t[0]))[:TOP_K])

        return PredicateStats(
            predicate_id,
            count,
            distinct_subjects=len(subjects),
            distinct_objects=len(objects),
            top_subjects=top(subjects),
            top_objects=top(objects),
        )

    def predicate(self, predicate_id: int) -> Optional[PredicateStats]:
        """Stats for a predicate id, collected on first request at the
        graph's current generation."""
        generation = self._graph.generation
        if generation != self._generation:
            self._predicates.clear()
            self._generation = generation
        if predicate_id not in self._predicates:
            self._predicates[predicate_id] = self._collect(predicate_id)
        return self._predicates[predicate_id]

    def __repr__(self) -> str:
        return (
            f"<StatsCatalog {self._graph.name!r} "
            f"predicates={len(self._predicates)} generation={self._generation}>"
        )


class CombinedStats:
    """Per-predicate statistics merged over a :class:`GraphView`'s layers.

    Counts add exactly; heavy hitters merge by id. Distinct counts take
    the **max** across layers (a union lower bound): the usual layering
    is the base model plus its entailment index, which share nearly all
    their subjects, so summing would double-count terms and halve every
    estimated fanout — the classic way an optimizer talks itself into a
    cheap-looking anchor that explodes downstream. Undercounting skews
    the other way (overestimated fanouts), which only makes plans more
    conservative.
    """

    # Merged results cached across instances: GraphView.stats() builds a
    # fresh CombinedStats per call, so the cache must outlive any one
    # wrapper. Keyed by each layer catalog's serial (monotonic, never a
    # reusable id()) and its graph's generation — any change that could
    # alter a layer's answer moves the key.
    _merge_cache: Dict[tuple, Optional[PredicateStats]] = {}
    _MERGE_CACHE_CAP = 4096

    def __init__(self, catalogs):
        self._catalogs = tuple(catalogs)

    def predicate(self, predicate_id: int) -> Optional[PredicateStats]:
        key = (predicate_id, *((c._serial, c._graph.generation) for c in self._catalogs))
        cache = CombinedStats._merge_cache
        if key in cache:
            return cache[key]
        merged = self._merge(predicate_id)
        if len(cache) >= CombinedStats._MERGE_CACHE_CAP:
            cache.clear()
        cache[key] = merged
        return merged

    def _merge(self, predicate_id: int) -> Optional[PredicateStats]:
        parts = [
            stats
            for catalog in self._catalogs
            if (stats := catalog.predicate(predicate_id)) is not None
        ]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        merged_subjects: Dict[int, int] = {}
        merged_objects: Dict[int, int] = {}
        for stats in parts:
            for sid, n in stats.top_subjects:
                merged_subjects[sid] = merged_subjects.get(sid, 0) + n
            for oid, n in stats.top_objects:
                merged_objects[oid] = merged_objects.get(oid, 0) + n
        top_k = max(len(p.top_subjects) for p in parts)
        top_subjects = tuple(
            sorted(merged_subjects.items(), key=lambda t: (-t[1], t[0]))[:top_k]
        )
        top_objects = tuple(
            sorted(merged_objects.items(), key=lambda t: (-t[1], t[0]))[:top_k]
        )
        return PredicateStats(
            predicate_id,
            sum(p.count for p in parts),
            distinct_subjects=max(p.distinct_subjects for p in parts),
            distinct_objects=max(p.distinct_objects for p in parts),
            top_subjects=top_subjects,
            top_objects=top_objects,
        )

    def __repr__(self) -> str:
        return f"<CombinedStats layers={len(self._catalogs)}>"
