"""Hierarchy navigation: class and property subsumption.

The hierarchies are the topmost layer of the warehouse graph (Figure 3);
they exist so business users can search with the terms *they* use and
still reach the technical meta-data. This manager answers the
reachability questions the search and lineage algorithms need (ancestors,
descendants, roots, least common subsumers) directly from the graph —
independent of whether an entailment index has been built.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from repro.obs.profile import current_profile
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.terms import IRI, Term

#: More per-instance invalidations pending than this and a flush just
#: clears the whole cache — tracking stops paying for itself.
_DIRTY_LIMIT = 1024


class HierarchyManager:
    """Transitive navigation over ``rdfs:subClassOf`` / ``subPropertyOf``.

    Reachability results are memoized: the search algorithm asks for the
    same subclass closures and instance memberships once per hit, so
    repeated BFS walks are answered from the cache until the graph
    changes. Invalidation is **delta-aware**: the manager subscribes to
    the graph's change events, notes the changed predicate ids (and, for
    ``rdf:type``, the subject ids) and, on the next lookup, decodes just
    those to drop only the entries the changed triples can affect — an
    incremental release that retypes a handful of instances leaves every
    reach set cached, and fact-level changes (names, areas, mappings)
    evict nothing at all. Graphs without change notification (duck-typed
    doubles) fall back to wholesale clearing on generation change.
    """

    def __init__(self, graph):
        self._graph = graph
        self._cache: Dict[Tuple, Set] = {}
        self._cache_generation = None
        self._dirty_preds: Set = set()
        self._dirty_instances: Set = set()
        self._dirty_all = False
        self._tracked = False
        subscribe = getattr(graph, "subscribe", None)
        if callable(subscribe):
            subscribe(self._on_change)
            self._tracked = True

    def close(self) -> None:
        """Detach from the graph (stops delta tracking)."""
        if self._tracked:
            self._graph.unsubscribe(self._on_change)
            self._tracked = False

    def _on_change(self, action: str, s: int, p: int, o: int) -> None:
        if self._dirty_all:
            return
        if p == self._graph.dictionary.lookup(RDF.type):
            self._dirty_instances.add(s)
            if len(self._dirty_instances) > _DIRTY_LIMIT:
                self._dirty_all = True
                self._dirty_instances.clear()
                self._dirty_preds.clear()
        else:
            # only reach keys over this predicate (and, for subClassOf,
            # the classes_of expansions) can be affected
            self._dirty_preds.add(p)

    def _flush_dirty(self) -> None:
        """Evict exactly the entries the pending delta can affect."""
        if self._dirty_all:
            self._cache.clear()
        elif self._dirty_preds or self._dirty_instances:
            term = self._graph.dictionary.term
            preds = {term(p) for p in self._dirty_preds}
            instances = {term(s) for s in self._dirty_instances}
            classes_dirty = RDFS.subClassOf in preds
            doomed = [
                key
                for key in self._cache
                if (
                    (key[0] == "reach" and key[2] in preds)
                    or (key[0] == "classes_of" and (classes_dirty or key[1] in instances))
                )
            ]
            for key in doomed:
                del self._cache[key]
        self._dirty_all = False
        self._dirty_preds.clear()
        self._dirty_instances.clear()

    def _cached(self, key: Tuple, compute: Callable[[], Set]) -> Set:
        """Memoize ``compute()`` under ``key`` until the graph mutates.

        Returns a copy so callers may mutate their result freely. Graphs
        without a generation counter (duck-typed test doubles) are never
        cached.
        """
        generation = getattr(self._graph, "generation", None)
        if generation is None:
            return compute()
        if generation != self._cache_generation:
            if self._tracked:
                self._flush_dirty()
            else:
                self._cache.clear()
            self._cache_generation = generation
        result = self._cache.get(key)
        prof = current_profile()
        if result is None:
            if prof is not None:
                prof.count("hierarchy_cache_misses")
            result = compute()
            self._cache[key] = result
        elif prof is not None:
            prof.count("hierarchy_cache_hits")
        return set(result)

    # -- class hierarchy ----------------------------------------------------

    def superclasses(self, cls: IRI, include_self: bool = False) -> Set[IRI]:
        """All transitive superclasses of ``cls``."""
        return self._reach(cls, RDFS.subClassOf, up=True, include_self=include_self)

    def subclasses(self, cls: IRI, include_self: bool = False) -> Set[IRI]:
        """All transitive subclasses of ``cls``."""
        return self._reach(cls, RDFS.subClassOf, up=False, include_self=include_self)

    def direct_superclasses(self, cls: IRI) -> List[IRI]:
        return sorted(self._graph.objects(cls, RDFS.subClassOf), key=_key)

    def direct_subclasses(self, cls: IRI) -> List[IRI]:
        return sorted(self._graph.subjects(RDFS.subClassOf, cls), key=_key)

    def is_subclass_of(self, child: IRI, ancestor: IRI) -> bool:
        """True when ``child`` is ``ancestor`` or below it."""
        return child == ancestor or ancestor in self.superclasses(child)

    def class_roots(self) -> List[IRI]:
        """Classes that participate in the hierarchy but have no parent."""
        children = set(self._graph.subjects(RDFS.subClassOf, None))
        parents = set(self._graph.objects(None, RDFS.subClassOf))
        return sorted(
            (node for node in children | parents if not any(self._graph.objects(node, RDFS.subClassOf))),
            key=_key,
        )

    def depth(self, cls: IRI) -> int:
        """Longest upward path length from ``cls`` to any root (0 = root)."""
        best = 0
        stack = [(cls, 0, frozenset([cls]))]
        while stack:
            node, d, seen = stack.pop()
            parents = [p for p in self._graph.objects(node, RDFS.subClassOf) if p not in seen]
            if not parents:
                best = max(best, d)
            for p in parents:
                stack.append((p, d + 1, seen | {p}))
        return best

    def least_common_subsumers(self, a: IRI, b: IRI) -> List[IRI]:
        """Minimal classes subsuming both ``a`` and ``b``."""
        common = self.superclasses(a, include_self=True) & self.superclasses(
            b, include_self=True
        )
        # a common subsumer is minimal when no other common subsumer lies
        # strictly below it
        minimal = [
            c
            for c in common
            if not any(other != c and self.is_subclass_of(other, c) for other in common)
        ]
        return sorted(minimal, key=_key)

    # -- property hierarchy ------------------------------------------------------

    def superproperties(self, prop: IRI, include_self: bool = False) -> Set[IRI]:
        return self._reach(prop, RDFS.subPropertyOf, up=True, include_self=include_self)

    def subproperties(self, prop: IRI, include_self: bool = False) -> Set[IRI]:
        return self._reach(prop, RDFS.subPropertyOf, up=False, include_self=include_self)

    def is_subproperty_of(self, child: IRI, ancestor: IRI) -> bool:
        return child == ancestor or ancestor in self.superproperties(child)

    # -- instances through the hierarchy --------------------------------------------

    def instances_of(self, cls: IRI, direct: bool = False) -> Set[Term]:
        """Instances typed by ``cls`` or (unless ``direct``) any subclass.

        This is the graph-walking equivalent of querying ``rdf:type``
        with the OWLPRIME entailment index in place.
        """
        classes = {cls} if direct else self.subclasses(cls, include_self=True)
        out: Set[Term] = set()
        for c in classes:
            out |= set(self._graph.subjects(RDF.type, c))
        return out

    def classes_of(self, instance: Term, direct: bool = False) -> Set[IRI]:
        """The classes of ``instance``, expanded upward unless ``direct``.

        Multiple inheritance is the norm in the warehouse ("most
        instances are members of several classes", Section IV.A).
        """
        direct_classes = set(self._graph.objects(instance, RDF.type))
        if direct:
            return direct_classes

        def compute() -> Set[IRI]:
            out: Set[IRI] = set()
            for c in direct_classes:
                out |= self.superclasses(c, include_self=True)
            return out

        return self._cached(("classes_of", instance), compute)

    # -- internals ----------------------------------------------------------------

    def _reach(self, start: Term, predicate: IRI, up: bool, include_self: bool) -> Set:
        """Transitive reachability along ``predicate``.

        ``start`` itself is excluded unless ``include_self`` is set or a
        cycle makes it reachable from itself (then it genuinely is its
        own ancestor/descendant).
        """
        out = self._cached(
            ("reach", start, predicate, up),
            lambda: self._reach_uncached(start, predicate, up),
        )
        if include_self:
            out.add(start)
        return out

    def _reach_uncached(self, start: Term, predicate: IRI, up: bool) -> Set:
        out: Set = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if up:
                neighbours = self._graph.objects(node, predicate)
            else:
                neighbours = self._graph.subjects(predicate, node)
            for neighbour in neighbours:
                if neighbour not in out:
                    out.add(neighbour)
                    stack.append(neighbour)
        return out


def _key(term: Term):
    return term.sort_key()
