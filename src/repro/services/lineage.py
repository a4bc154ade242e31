"""The lineage / provenance tool (use case IV.B).

The path that drives this tool is ``(isMappedTo)* rdf:type`` (Figure 8):
from a start item, mapping edges are followed transitively, and the
reached items are filtered by the valid target classes computed exactly
like the search algorithm's steps 1 and 2.

Beyond the paper's productive feature set, the Section V lessons are
implemented too:

* **rule-condition filters** — every mapping edge can carry the rule and
  condition text of its transformation (reified by the fact manager);
  traces and path enumeration accept a filter so "the number of
  potential data paths [...] will stay small even with a significant
  number of steps and stages";
* **drill-down** (Figure 7) — flows can be aggregated at any granularity
  of the ``dm:belongsTo`` containment chain (attribute → entity/table →
  schema → application), on the source and target side independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InvalidOption
from repro.obs.trace import span
from repro.rdf.terms import IRI, Literal, Term

from repro.core.vocabulary import TERMS

if TYPE_CHECKING:  # annotations only: the warehouse imports this module
    from repro.core.warehouse import MetadataWarehouse

ConditionFilter = Callable[["LineageEdge"], bool]


class PathExplosionError(RuntimeError):
    """Path enumeration exceeded the caller's budget.

    The paper's Section V lesson: unfiltered path counts grow
    exponentially with pipeline depth. Catch this and re-run with a
    rule-condition filter or a smaller scope.
    """

    def __init__(self, budget: int):
        super().__init__(
            f"more than {budget} lineage paths; narrow the scope or apply "
            "a rule-condition filter"
        )
        self.budget = budget


@dataclass(frozen=True)
class LineageEdge:
    """One mapping edge with its transformation meta-data."""

    source: Term
    target: Term
    rule: Optional[str] = None
    condition: Optional[str] = None


@dataclass
class LineageTrace:
    """The reachable lineage sub-graph from one start item."""

    start: Term
    direction: str                      # "upstream" | "downstream"
    edges: List[LineageEdge] = field(default_factory=list)
    depth: Dict[Term, int] = field(default_factory=dict)
    #: set by the serving tier when the trace is partial: the owner
    #: shard was down, or the in-process fallback answered it after the
    #: request's worker attempts ran out
    degraded: bool = False

    def items(self) -> Set[Term]:
        """Every item in the trace (including the start)."""
        out = {self.start}
        for edge in self.edges:
            out.add(edge.source)
            out.add(edge.target)
        return out

    def endpoints(self) -> Set[Term]:
        """Items with no further hop in the trace direction."""
        if self.direction == "downstream":
            non_terminal = {e.source for e in self.edges}
        else:
            non_terminal = {e.target for e in self.edges}
        return self.items() - non_terminal

    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, item: Term) -> bool:
        return item in self.items()


class LineageService:
    """Lineage queries over one warehouse."""

    def __init__(self, warehouse: MetadataWarehouse):
        self._mdw = warehouse

    # -- edge access ------------------------------------------------------

    def edge(self, source: Term, target: Term) -> LineageEdge:
        """The mapping edge (source → target) with rule/condition text."""
        ids = _MappingIds(self._mdw.graph)
        s, t = ids.lookup(source), ids.lookup(target)
        if s is None or t is None:
            return LineageEdge(source, target)
        return ids.edge(s, t, source, target)

    # -- traces ------------------------------------------------------------

    def trace(
        self,
        item: Term,
        direction: str = "upstream",
        max_depth: Optional[int] = None,
        condition_filter: Optional[ConditionFilter] = None,
    ) -> LineageTrace:
        """BFS over mapping edges from ``item``.

        ``upstream`` answers "where does this come from" (audit);
        ``downstream`` answers "what depends on this" (impact, Figure 8).
        ``condition_filter`` drops mapping edges whose rule/condition
        meta-data it rejects.
        """
        if direction not in ("upstream", "downstream"):
            raise InvalidOption("direction must be 'upstream' or 'downstream'")
        trace = LineageTrace(start=item, direction=direction)
        trace.depth[item] = 0
        downstream = direction == "downstream"
        with span("operator", "lineage", op="trace", direction=direction) as attrs:
            ids = _MappingIds(self._mdw.graph)
            start = ids.lookup(item)
            # every node of one BFS level sits at the same depth
            frontier = [] if start is None else [(start, item)]
            visited = {start}
            level = 0
            while frontier and (max_depth is None or level < max_depth):
                level += 1
                nxt: List[Tuple[int, Term]] = []
                for current_id, current in frontier:
                    for neighbour_id, neighbour in ids.neighbours(current_id, direction):
                        if downstream:
                            edge = ids.edge(current_id, neighbour_id, current, neighbour)
                        else:
                            edge = ids.edge(neighbour_id, current_id, neighbour, current)
                        if condition_filter is not None and not condition_filter(edge):
                            continue
                        trace.edges.append(edge)
                        if neighbour_id not in visited:
                            visited.add(neighbour_id)
                            trace.depth[neighbour] = level
                            nxt.append((neighbour_id, neighbour))
                frontier = nxt
            attrs["edges"] = len(trace.edges)
        return trace

    def upstream(self, item: Term, **kw) -> LineageTrace:
        """Backward lineage: the sources ``item`` is derived from."""
        return self.trace(item, "upstream", **kw)

    def downstream(self, item: Term, **kw) -> LineageTrace:
        """Forward lineage: the items derived from ``item``."""
        return self.trace(item, "downstream", **kw)

    # -- the IV.B algorithm --------------------------------------------------

    def dependents_of_type(
        self,
        item: Term,
        class_filters: Sequence[Union[IRI, str]],
        direction: str = "downstream",
        condition_filter: Optional[ConditionFilter] = None,
    ) -> List[Term]:
        """Steps 1–3 of the provenance algorithm (Listing 2 / Figure 8).

        1) expand each filter class down the hierarchy, 2) intersect to
        the valid target types, 3) collect items reachable from ``item``
        over ``(isMappedTo)*`` whose ``rdf:type`` lies in the valid set.
        """
        from repro.services.search import SearchFilters

        valid = self._mdw.search.valid_classes(SearchFilters(classes=class_filters))
        trace = self.trace(item, direction, condition_filter=condition_filter)
        hierarchy = self._mdw.hierarchy
        out = []
        for candidate in sorted(trace.items() - {item}, key=lambda t: t.sort_key()):
            classes = hierarchy.classes_of(candidate)
            if valid is None or classes & valid:
                out.append(candidate)
        return out

    # -- path enumeration -------------------------------------------------------

    def paths(
        self,
        source: Term,
        target: Term,
        condition_filter: Optional[ConditionFilter] = None,
        max_paths: int = 10_000,
    ) -> List[List[Term]]:
        """All simple mapping paths from ``source`` to ``target``.

        Raises :class:`PathExplosionError` beyond ``max_paths``.
        """
        ids = _MappingIds(self._mdw.graph)
        source_id, target_id = ids.lookup(source), ids.lookup(target)
        if source_id is None:
            return [[source]] if source == target else []
        out: List[List[Term]] = []

        def walk(node: int, path: List[Term], seen: Set[int]):
            if node == target_id:
                out.append(list(path))
                if len(out) > max_paths:
                    raise PathExplosionError(max_paths)
                return
            for neighbour_id, neighbour in ids.neighbours(node, "downstream"):
                if neighbour_id in seen:
                    continue
                edge = ids.edge(node, neighbour_id, path[-1], neighbour)
                if condition_filter is not None and not condition_filter(edge):
                    continue
                path.append(neighbour)
                seen.add(neighbour_id)
                walk(neighbour_id, path, seen)
                seen.discard(neighbour_id)
                path.pop()

        walk(source_id, [source], {source_id})
        return out

    def count_paths(
        self,
        item: Term,
        direction: str = "downstream",
        condition_filter: Optional[ConditionFilter] = None,
    ) -> int:
        """The number of distinct mapping paths from ``item`` to all
        endpoints — computed by DAG dynamic programming, so exponential
        counts are returned without enumerating them (the A3 ablation
        measures exactly this growth).

        Falls back to bounded enumeration when the flow graph has cycles.
        """
        ids = _MappingIds(self._mdw.graph)
        start = ids.lookup(item)
        if start is None:
            return 1
        downstream = direction == "downstream"
        memo: Dict[int, int] = {}
        on_stack: Set[int] = set()

        def count(node: int, term: Term) -> int:
            if node in memo:
                return memo[node]
            if node in on_stack:
                raise _CycleFound()
            on_stack.add(node)
            neighbours = []
            for neighbour_id, neighbour in ids.neighbours(node, direction):
                if downstream:
                    edge = ids.edge(node, neighbour_id, term, neighbour)
                else:
                    edge = ids.edge(neighbour_id, node, neighbour, term)
                if condition_filter is None or condition_filter(edge):
                    neighbours.append((neighbour_id, neighbour))
            total = 1 if not neighbours else sum(count(*n) for n in neighbours)
            on_stack.discard(node)
            memo[node] = total
            return total

        try:
            return count(start, item)
        except _CycleFound:
            # cycles: count simple paths by bounded DFS
            total = 0
            stack = [(start, {start})]
            while stack:
                node, seen = stack.pop()
                neighbours = [
                    n for n, _ in ids.neighbours(node, direction) if n not in seen
                ]
                if not neighbours:
                    total += 1
                    continue
                for n in neighbours:
                    stack.append((n, seen | {n}))
            return total

    # -- drill-down (Figure 7) ------------------------------------------------------

    def container_chain(self, item: Term) -> List[Term]:
        """``item`` plus its ``dm:belongsTo`` ancestors, innermost first."""
        chain = [item]
        seen = {item}
        current = item
        graph = self._mdw.graph
        while True:
            parent = graph.value(current, TERMS.belongs_to, None)
            if parent is None or parent in seen:
                return chain
            chain.append(parent)
            seen.add(parent)
            current = parent

    def at_granularity(self, item: Term, levels_up: int) -> Term:
        """The container ``levels_up`` steps above ``item`` (clamped)."""
        chain = self.container_chain(item)
        return chain[min(levels_up, len(chain) - 1)]

    def flows(
        self,
        source_granularity: int = 0,
        target_granularity: int = 0,
        source_scope: Optional[Term] = None,
        target_scope: Optional[Term] = None,
    ) -> List[Tuple[Term, Term, int]]:
        """Aggregated data flows for the two Figure 7 panes.

        Every attribute-level mapping edge is lifted ``*_granularity``
        containment levels on each side, then grouped and counted.
        ``*_scope`` restricts to flows whose lifted source/target chain
        contains the scope item (the pane's "adjust the scope" action).
        Returns (source container, target container, mapping count),
        sorted by count descending.
        """
        graph = self._mdw.graph
        counts: Dict[Tuple[Term, Term], int] = {}
        for triple in graph.triples(None, TERMS.is_mapped_to, None):
            source_chain = self.container_chain(triple.subject)
            target_chain = self.container_chain(triple.object)
            if source_scope is not None and source_scope not in source_chain:
                continue
            if target_scope is not None and target_scope not in target_chain:
                continue
            lifted = (
                source_chain[min(source_granularity, len(source_chain) - 1)],
                target_chain[min(target_granularity, len(target_chain) - 1)],
            )
            counts[lifted] = counts.get(lifted, 0) + 1
        return sorted(
            ((s, t, n) for (s, t), n in counts.items()),
            key=lambda row: (-row[2], row[0].sort_key(), row[1].sort_key()),
        )


class _CycleFound(Exception):
    pass


class _MappingIds:
    """One call's id-space view of the mapping edges.

    The mapping predicates are looked up once; the walks follow
    ``triples_ids`` and decode only the terms a :class:`LineageEdge`
    returns: each neighbour, and the rule and condition literals.
    """

    __slots__ = (
        "lookup", "_rows", "_term", "_mapped_to", "_has_mapping",
        "_target", "_rule", "_condition",
    )

    def __init__(self, graph):
        dictionary = graph.dictionary
        self.lookup = lookup = dictionary.lookup
        self._rows = graph.triples_ids
        self._term = dictionary.term
        self._mapped_to = lookup(TERMS.is_mapped_to)
        self._has_mapping = lookup(TERMS.has_mapping)
        self._target = lookup(TERMS.mapping_target)
        self._rule = lookup(TERMS.mapping_rule)
        self._condition = lookup(TERMS.mapping_condition)

    def neighbours(self, node: int, direction: str) -> List[Tuple[int, Term]]:
        """``(id, term)`` of each item one mapping hop away, in term order."""
        if self._mapped_to is None:
            return []
        if direction == "downstream":
            found = [o for _, _, o in self._rows(node, self._mapped_to, None)]
        else:
            found = [s for s, _, _ in self._rows(None, self._mapped_to, node)]
        term = self._term
        pairs = [(i, term(i)) for i in found]
        pairs.sort(key=lambda pair: pair[1].sort_key())
        return pairs

    def edge(self, s: int, t: int, source: Term, target: Term) -> LineageEdge:
        """The edge ``s → t`` read from the first ``hasMapping`` node of
        ``s`` whose first ``mappingTarget`` is ``t``."""
        if self._has_mapping is not None and self._target is not None:
            rows = self._rows
            for _, _, mapping in rows(s, self._has_mapping, None):
                # one read of the mapping node's rows; a predicate's
                # first row is the one a bound-predicate read yields first
                first: Dict[int, int] = {}
                for _, p, o in rows(mapping, None, None):
                    first.setdefault(p, o)
                if first.get(self._target) == t:
                    return LineageEdge(
                        source,
                        target,
                        self._lexical(first.get(self._rule)),
                        self._lexical(first.get(self._condition)),
                    )
        return LineageEdge(source, target)

    def _lexical(self, tid: Optional[int]) -> Optional[str]:
        if tid is None:
            return None
        value = self._term(tid)
        return value.lexical if isinstance(value, Literal) else None
