"""The search facility (use case IV.A).

The paper's three-step algorithm:

1. find all classes in the meta-data **hierarchy** that are relevant for
   the search (the user's filter classes, expanded downward);
2. find all classes of the **meta-data schema** in the *intersection* of
   those hierarchy classes — the valid search-result types, also used to
   group the results (Figure 6);
3. find all **instances** of those classes (``rdf:type`` is the path
   that drives the search) whose ``dm:hasName`` matches the search term
   (Listing 1's ``regexp_like``).

Because of multiple inheritance, a hit inherits membership in every
superclass of its classes and is therefore counted in each group —
exactly the grouped counts of Figure 6.

The Section V lesson ("the search has to become semantic") is available
through synonym expansion: with ``expand_synonyms=True`` the term is
widened with the thesaurus edges the DBpedia import materialized.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InvalidPattern, UnknownName
from repro.rdf.terms import IRI, Literal, Term
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import compile_regex

from repro.core.model import World
from repro.core.vocabulary import TERMS
from repro.etl.dbpedia import SynonymThesaurus

if TYPE_CHECKING:  # annotations only: the warehouse imports this module
    from repro.core.warehouse import MetadataWarehouse


@dataclass
class SearchFilters:
    """The filter panel of the search frontend (Figure 6, left side).

    ``classes``: hierarchy classes (IRIs or labels) the search narrows
    to — an instance must belong to the intersection of all of them.
    ``areas`` / ``levels``: DWH pipeline stages and abstraction levels.
    ``world``: restrict result classes to the business or technical
    world. ``freshness`` keeps only items with one of the listed
    guarantees; ``min_quality`` drops items below the score (items
    without quality meta-data are kept — absence of a guarantee is not
    a failed guarantee).
    """

    classes: Sequence[Union[IRI, str]] = ()
    areas: Sequence[IRI] = ()
    levels: Sequence[IRI] = ()
    world: Optional[World] = None
    freshness: Sequence[str] = ()
    min_quality: Optional[float] = None


@dataclass(frozen=True)
class SearchHit:
    """One matching instance."""

    instance: Term
    name: str
    matched_term: str          # which (possibly synonym-expanded) term hit
    direct_classes: Tuple[IRI, ...]
    all_classes: Tuple[IRI, ...]  # including inherited memberships


class SearchResults:
    """Hits plus the Figure 6 grouping."""

    def __init__(
        self,
        term: str,
        expanded_terms: List[str],
        hits: List[SearchHit],
        labels: Dict[IRI, str],
        homonym_warnings: Optional[List[str]] = None,
    ):
        self.term = term
        self.expanded_terms = expanded_terms
        self.hits = hits
        self._labels = labels
        #: known homonyms of the search term — the results may mix
        #: meanings ("disentangling homonyms", Section VI)
        self.homonym_warnings = list(homonym_warnings or [])
        #: set by the serving tier when the answer is partial: shards
        #: missing from a gateway scatter, or the in-process fallback
        #: after a request's worker attempts ran out
        self.degraded = False

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self):
        return iter(self.hits)

    def __bool__(self) -> bool:
        return bool(self.hits)

    def label(self, cls: IRI) -> str:
        return self._labels.get(cls, cls.local_name)

    def groups(self) -> List[Tuple[IRI, str, int]]:
        """(class, label, hit count) rows, like the Figure 6 listing.

        Sorted by label. A hit counts in every class it (transitively)
        belongs to.
        """
        counts: Dict[IRI, int] = {}
        for hit in self.hits:
            for cls in hit.all_classes:
                counts[cls] = counts.get(cls, 0) + 1
        return sorted(
            ((cls, self.label(cls), n) for cls, n in counts.items()),
            key=lambda row: (row[1], row[0].value),
        )

    def group_members(self, cls: IRI) -> List[SearchHit]:
        """The hits listed when one Figure 6 group is expanded."""
        return [h for h in self.hits if cls in h.all_classes]

    def instance_names(self) -> List[str]:
        return sorted(h.name for h in self.hits)


class SearchService:
    """The search facility over one warehouse."""

    def __init__(self, warehouse: MetadataWarehouse, thesaurus: Optional[SynonymThesaurus] = None):
        self._mdw = warehouse
        self._thesaurus = thesaurus
        # guards the lazy thesaurus build: concurrent first searches on a
        # shared snapshot facade must not each rebuild it
        self._thesaurus_lock = threading.Lock()
        # delta-aware invalidation: a graph-built thesaurus only goes
        # stale when a synonym/homonym edge changes, so an incremental
        # release that touches no thesaurus edges keeps it cached
        subscribe = getattr(warehouse.graph, "subscribe", None)
        if thesaurus is None and callable(subscribe):
            subscribe(self._on_graph_change)

    def _on_graph_change(self, action: str, s: int, p: int, o: int) -> None:
        lookup = self._mdw.graph.dictionary.lookup
        if p == lookup(TERMS.synonym_of) or p == lookup(TERMS.homonym_of):
            self._thesaurus = None

    @property
    def thesaurus(self) -> SynonymThesaurus:
        """The synonym thesaurus (lazily rebuilt from the graph)."""
        if self._thesaurus is None:
            with self._thesaurus_lock:
                if self._thesaurus is None:
                    self._thesaurus = SynonymThesaurus.from_graph(self._mdw.graph)
        return self._thesaurus

    def invalidate_thesaurus(self) -> None:
        """Forget the cached thesaurus (after a DBpedia re-import)."""
        self._thesaurus = None

    # -- the algorithm ------------------------------------------------------

    def search(
        self,
        term: str,
        filters: Optional[SearchFilters] = None,
        expand_synonyms: bool = False,
        regex: bool = False,
    ) -> SearchResults:
        """Run the three-step search for ``term``.

        ``term`` is matched case-insensitively as a substring of each
        instance's ``dm:hasName`` (set ``regex=True`` to pass a raw
        regular expression, as Listing 1 does; a malformed one raises
        :class:`~repro.errors.InvalidPattern`, an ``InvalidOption``).
        """
        filters = filters or SearchFilters()
        hierarchy = self._mdw.hierarchy

        # Step 1 — relevant hierarchy classes per filter, expanded downward.
        # Step 2 — the intersection across filters = valid result classes.
        valid = self.valid_classes(filters)

        # Step 3 — instances of the valid classes matching the term.
        terms = [term]
        homonym_warnings: List[str] = []
        if expand_synonyms:
            terms = self.thesaurus.expand(term)
            homonym_warnings = sorted(self.thesaurus.homonyms(term))
        try:
            patterns = [compile_regex(t if regex else re.escape(t), "i") for t in terms]
        except ExpressionError as exc:
            raise InvalidPattern(f"search term {term!r}: {exc}") from None

        area_set = set(filters.areas)
        level_set = set(filters.levels)
        graph = self._mdw.graph
        hits: List[SearchHit] = []
        matched_names, candidates = self._candidates(patterns, terms)
        for instance in candidates:
            # an item with several names is judged by the one name_of
            # reports, which need not be the name that made it a candidate
            name = self._mdw.facts.name_of(instance)
            matched = matched_names.get(name)
            if matched is None:
                continue
            if area_set and graph.value(instance, TERMS.in_area, None) not in area_set:
                continue
            if level_set and graph.value(instance, TERMS.at_level, None) not in level_set:
                continue
            if filters.freshness:
                grade = graph.value(instance, TERMS.freshness, None)
                if grade is None or grade.lexical not in filters.freshness:
                    continue
            if filters.min_quality is not None:
                score = graph.value(instance, TERMS.quality_score, None)
                if score is not None and float(score.to_python()) < filters.min_quality:
                    continue
            direct = tuple(sorted(hierarchy.classes_of(instance, direct=True), key=lambda c: c.value))
            if valid is not None and not any(c in valid for c in direct):
                continue
            all_classes = tuple(sorted(hierarchy.classes_of(instance), key=lambda c: c.value))
            hits.append(
                SearchHit(
                    instance=instance,
                    name=name,
                    matched_term=matched,
                    direct_classes=direct,
                    all_classes=all_classes,
                )
            )

        labels = {}
        for hit in hits:
            for cls in hit.all_classes:
                if cls not in labels:
                    labels[cls] = self._mdw.schema.label(cls) or cls.local_name
        return SearchResults(term, terms, hits, labels, homonym_warnings)

    def valid_classes(self, filters: SearchFilters) -> Optional[Set[IRI]]:
        """Steps 1+2 of the search: the classes ``filters`` admits, each
        with its subclasses. None means 'no narrowing' (every class is
        valid)."""
        hierarchy = self._mdw.hierarchy
        sets: List[Set[IRI]] = []
        for class_filter in filters.classes:
            cls = self._resolve_class(class_filter)
            sets.append(hierarchy.subclasses(cls, include_self=True))
        if filters.world is not None:
            world_classes = {
                cls
                for cls in self._mdw.schema.classes()
                if self._mdw.schema.world(cls) is filters.world
            }
            sets.append(world_classes)
        if not sets:
            return None
        valid = sets[0]
        for s in sets[1:]:
            valid = valid & s
        return valid

    def _resolve_class(self, class_filter: Union[IRI, str]) -> IRI:
        if isinstance(class_filter, IRI):
            return class_filter
        cls = self._mdw.schema.class_by_label(class_filter)
        if cls is None:
            # tolerate identifier-style names ("Source_Column")
            candidate = self._mdw.schema.namespace.term(class_filter.replace(" ", "_"))
            if self._mdw.schema.is_class(candidate):
                return candidate
            raise UnknownName(f"no class with label or name {class_filter!r}")
        return cls

    def _candidates(self, patterns, terms) -> Tuple[Dict[str, str], List[Term]]:
        """Each ``dm:hasName`` value some pattern matches, mapped to the
        first term that matches it, and the items carrying those names
        in term order. Every distinct name is tested once, however many
        items share it."""
        graph = self._mdw.graph
        dictionary = graph.dictionary
        name_id = dictionary.lookup(TERMS.has_name)
        matched: Dict[str, str] = {}
        items: Set[int] = set()
        if name_id is None:
            return matched, []
        for tid in graph.distinct_object_ids(name_id):
            name = dictionary.term(tid)
            if not isinstance(name, Literal):
                continue
            for pattern, searched in zip(patterns, terms):
                if pattern.search(name.lexical):
                    matched[name.lexical] = searched
                    items.update(s for s, _, _ in graph.triples_ids(None, name_id, tid))
                    break
        return matched, sorted(map(dictionary.term, items), key=lambda t: t.sort_key())
