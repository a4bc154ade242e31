"""Delta-aware invalidation of the hierarchy manager's memo cache.

An incremental release load should leave unrelated cached reach sets in
place; these tests observe the cache directly (white box) to pin the
eviction policy: fact-level changes evict nothing, ``rdf:type`` changes
evict only the touched instance's expansion, hierarchy-edge changes
evict the reach sets over that predicate.
"""

from repro.core.hierarchy import HierarchyManager
from repro.rdf import Graph, Namespace, RDF, RDFS, Literal, Triple

EX = Namespace("http://x/")


def build():
    g = Graph()
    g.add(Triple(EX.Column, RDFS.subClassOf, EX.Attribute))
    g.add(Triple(EX.Attribute, RDFS.subClassOf, EX.Item))
    g.add(Triple(EX.narrow, RDFS.subPropertyOf, EX.wide))
    g.add(Triple(EX.c1, RDF.type, EX.Column))
    g.add(Triple(EX.c2, RDF.type, EX.Column))
    return g, HierarchyManager(g)


def warm(h):
    h.subclasses(EX.Item)
    h.superclasses(EX.Column)
    h.subproperties(EX.wide)
    h.classes_of(EX.c1)
    h.classes_of(EX.c2)


class TestDeltaInvalidation:
    def test_fact_level_change_evicts_nothing(self):
        g, h = build()
        warm(h)
        cached = dict(h._cache)
        g.add(Triple(EX.c1, EX.hasName, Literal("customer_id")))
        h.subclasses(EX.Item)  # triggers the flush
        assert h._cache == cached

    def test_retype_evicts_only_that_instance(self):
        g, h = build()
        warm(h)
        g.add(Triple(EX.c1, RDF.type, EX.Item))
        # the change event is an id triple: the retyped subject's id waits
        # for the next lookup, which decodes it to evict its expansion
        assert h._dirty_instances == {g.dictionary.lookup(EX.c1)} and not h._dirty_preds
        assert h.classes_of(EX.c1) == {EX.Column, EX.Attribute, EX.Item}
        # c2's expansion and every reach set survived the flush
        assert ("classes_of", EX.c2) in h._cache
        assert ("reach", EX.Item, RDFS.subClassOf, False) in h._cache

    def test_subclass_edge_evicts_reach_and_expansions(self):
        g, h = build()
        warm(h)
        g.add(Triple(EX.Item, RDFS.subClassOf, EX.Root))
        assert h._dirty_preds == {g.dictionary.lookup(RDFS.subClassOf)}
        assert EX.Root in h.superclasses(EX.Column)
        assert h.classes_of(EX.c1) == {EX.Column, EX.Attribute, EX.Item, EX.Root}
        # the property hierarchy is over a different predicate: untouched
        assert ("reach", EX.wide, RDFS.subPropertyOf, False) in h._cache

    def test_subproperty_edge_leaves_class_reach_cached(self):
        g, h = build()
        warm(h)
        g.add(Triple(EX.narrower, RDFS.subPropertyOf, EX.narrow))
        assert h.subproperties(EX.wide) == {EX.narrow, EX.narrower}
        assert ("reach", EX.Item, RDFS.subClassOf, False) in h._cache
        assert ("classes_of", EX.c1) in h._cache

    def test_overflow_falls_back_to_full_clear(self):
        import repro.core.hierarchy as hierarchy_module

        g, h = build()
        warm(h)
        original = hierarchy_module._DIRTY_LIMIT
        hierarchy_module._DIRTY_LIMIT = 3
        try:
            for i in range(5):
                g.add(Triple(EX.term(f"i{i}"), RDF.type, EX.Column))
            assert h._dirty_all
            h.subclasses(EX.Item)
            assert not h._dirty_all  # flushed via wholesale clear
        finally:
            hierarchy_module._DIRTY_LIMIT = original

    def test_untracked_graph_still_correct(self):
        class Duck:
            """Minimal graph double without subscribe()."""

            def __init__(self, graph):
                self._g = graph

            def __getattr__(self, name):
                if name == "subscribe":
                    raise AttributeError(name)
                return getattr(self._g, name)

        g = Graph()
        g.add(Triple(EX.Column, RDFS.subClassOf, EX.Item))
        g.add(Triple(EX.c1, RDF.type, EX.Column))
        h = HierarchyManager(Duck(g))
        assert h.classes_of(EX.c1) == {EX.Column, EX.Item}
        g.add(Triple(EX.Item, RDFS.subClassOf, EX.Root))
        assert h.classes_of(EX.c1) == {EX.Column, EX.Item, EX.Root}

    def test_close_detaches_listener(self):
        g, h = build()
        warm(h)
        h.close()
        g.add(Triple(EX.c1, RDF.type, EX.Item))
        # untracked now: generation change wipes the cache wholesale
        assert h.classes_of(EX.c1) == {EX.Column, EX.Attribute, EX.Item}
