"""Property-based tests for the reasoner (hypothesis + networkx oracle)."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.rdf import BNode, Graph, IRI, Literal, Namespace, OWL, RDF, RDFS, Triple, Variable
from repro.reasoning import OWLPRIME, RDFS_RULEBASE, closure, maintain_closure

EX = Namespace("http://x/")


def id_rows(graph, triples):
    """``triples`` as id triples in ``graph``'s dictionary: the delta
    ``maintain_closure`` takes."""
    intern = graph.dictionary.intern
    return [tuple(intern(x) for x in t) for t in triples]

# small vocabularies keep the closure sizes manageable while still
# exercising cycles, diamonds, and self-loops
_classes = st.sampled_from([EX[f"C{i}"] for i in range(6)])
_instances = st.sampled_from([EX[f"i{i}"] for i in range(6)])

subclass_edges = st.lists(st.tuples(_classes, _classes), max_size=12)
type_edges = st.lists(st.tuples(_instances, _classes), max_size=8)


def build_graph(subclasses, types):
    g = Graph()
    for c, d in subclasses:
        g.add(Triple(c, RDFS.subClassOf, d))
    for x, c in types:
        g.add(Triple(x, RDF.type, c))
    return g


@settings(max_examples=100)
@given(subclass_edges, type_edges)
def test_subclass_closure_matches_networkx(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)

    nxg = nx.DiGraph()
    nxg.add_nodes_from({c for e in subclasses for c in e})
    nxg.add_edges_from(subclasses)
    expected = set()
    for c, d in nx.transitive_closure(nxg).edges():
        t = Triple(c, RDFS.subClassOf, d)
        if t not in g:
            expected.add(t)
    got = set(derived.triples(None, RDFS.subClassOf, None))
    assert got == expected


@settings(max_examples=100)
@given(subclass_edges, type_edges)
def test_type_inheritance_matches_reachability(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)

    nxg = nx.DiGraph()
    nxg.add_nodes_from({c for e in subclasses for c in e} | {c for _, c in types})
    nxg.add_edges_from(subclasses)
    expected = set()
    for x, c in types:
        for ancestor in nx.descendants(nxg, c):
            t = Triple(x, RDF.type, ancestor)
            if t not in g:
                expected.add(t)
    got = set(derived.triples(None, RDF.type, None))
    assert got == expected


@settings(max_examples=60)
@given(subclass_edges, type_edges)
def test_fixpoint_idempotence(subclasses, types):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, OWLPRIME)
    again, _ = closure(g | derived, OWLPRIME)
    assert len(again) == 0


@settings(max_examples=60)
@given(subclass_edges, type_edges)
def test_monotonicity(subclasses, types):
    """Adding facts never removes derived facts."""
    g = build_graph(subclasses, types)
    derived_small, _ = closure(g, RDFS_RULEBASE)
    extra = Triple(EX.C0, RDFS.subClassOf, EX.C5)
    bigger = g.copy()
    bigger.add(extra)
    derived_big, _ = closure(bigger, RDFS_RULEBASE)
    missing = {t for t in derived_small if t not in derived_big and t not in bigger}
    assert not missing


@settings(max_examples=60)
@given(subclass_edges, type_edges, st.tuples(_classes, _classes))
def test_incremental_equals_batch(subclasses, types, new_edge):
    g = build_graph(subclasses, types)
    derived, _ = closure(g, RDFS_RULEBASE)
    added = Triple(new_edge[0], RDFS.subClassOf, new_edge[1])
    if added in g:
        return
    g.add(added)
    maintain_closure(g, derived, id_rows(g, [added]), (), RDFS_RULEBASE)
    batch, _ = closure(g, RDFS_RULEBASE)
    # incremental result may retain triples that the batch run would
    # classify as base (added edge could equal a previously-derived one);
    # after removing base triples both must agree
    incremental = {t for t in derived if t not in g}
    assert incremental == set(batch)


# -- the full OWLPRIME vocabulary ---------------------------------------------

_props = [EX[f"p{i}"] for i in range(3)]
_owl_classes = [EX[f"K{i}"] for i in range(3)]
_individuals = [EX[f"a{i}"] for i in range(3)] + [BNode("b0")]
# objects may be literals: rdfs3 over a literal object and sameAs toward
# a literal would conclude triples with a literal subject, which the
# engine must drop
_objects = _individuals + [Literal("v")]

_prop = st.sampled_from(_props)
_owl_class = st.sampled_from(_owl_classes)
owl_triples = st.one_of(
    st.builds(Triple, st.sampled_from(_individuals), _prop, st.sampled_from(_objects)),
    st.builds(Triple, st.sampled_from(_individuals), st.just(RDF.type), _owl_class),
    st.builds(
        Triple, _owl_class, st.sampled_from([RDFS.subClassOf, OWL.equivalentClass]), _owl_class
    ),
    st.builds(
        Triple,
        _prop,
        st.sampled_from([RDFS.subPropertyOf, OWL.equivalentProperty, OWL.inverseOf]),
        _prop,
    ),
    st.builds(
        Triple,
        _prop,
        st.just(RDF.type),
        st.sampled_from([OWL.SymmetricProperty, OWL.TransitiveProperty]),
    ),
    st.builds(Triple, _prop, st.sampled_from([RDFS.domain, RDFS.range]), _owl_class),
    st.builds(
        Triple, st.sampled_from(_individuals), st.just(OWL.sameAs), st.sampled_from(_objects)
    ),
    # rdfs7 / owl-inv would use a blank node as a predicate: dropped
    st.builds(
        Triple, _prop, st.sampled_from([RDFS.subPropertyOf, OWL.inverseOf]), st.just(BNode("b1"))
    ),
)


def naive_closure(base, rulebase):
    """The reference: naive evaluation over Python sets. Returns the
    derived triples, the round count and the fresh triples per rule
    (credited to the first rule in rulebase order, as the engine does)."""
    known = set(base)
    asserted = set(known)
    per_rule = {}
    rounds = 0
    while True:
        rounds += 1
        fresh = set()
        for r in rulebase:
            for binding in _naive_matches(r.premises, known, {}):
                try:
                    t = r.instantiate(binding)
                except TypeError:
                    continue
                if t not in known and t not in fresh:
                    fresh.add(t)
                    per_rule[r.name] = per_rule.get(r.name, 0) + 1
        if not fresh:
            return known - asserted, rounds, per_rule
        known |= fresh


def _naive_matches(premises, known, binding):
    if not premises:
        yield binding
        return
    for t in known:
        extended = dict(binding)
        for term, value in zip(premises[0], t):
            if isinstance(term, Variable):
                if extended.setdefault(term.name, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from _naive_matches(premises[1:], known, extended)


@settings(max_examples=80, deadline=None)
@given(st.lists(owl_triples, max_size=10))
def test_owlprime_closure_matches_naive_reference(triples):
    g = Graph(triples)
    derived, report = closure(g, OWLPRIME)
    expected, rounds, per_rule = naive_closure(g, OWLPRIME)
    assert set(derived) == expected
    assert report.rounds == rounds
    assert report.per_rule == per_rule
    assert report.derived_triples == sum(per_rule.values())


@settings(max_examples=80, deadline=None)
@given(
    st.lists(owl_triples, max_size=10),
    st.lists(owl_triples, max_size=4),
    st.lists(st.integers(min_value=0, max_value=9), max_size=4),
)
def test_owlprime_dred_equals_rebuild(triples, additions, removals):
    g = Graph(triples)
    derived, _ = closure(g, OWLPRIME)
    listed = list(g)
    removed = {listed[i] for i in removals if i < len(listed)}
    added = {t for t in additions if t not in g and t not in removed}
    for t in removed:
        g.discard(t)
    g.add_all(added)
    before = len(derived)
    promoted = sum(1 for t in added if t in derived)

    report = maintain_closure(g, derived, id_rows(g, added), id_rows(g, removed), OWLPRIME)
    rebuilt, full = closure(g, OWLPRIME)
    assert set(derived) == set(rebuilt)
    assert report.derived_triples == full.derived_triples
    # every index change is accounted for by one DRed phase
    assert len(derived) == (
        before - promoted - report.overdeleted + report.rederived
        + sum(report.per_rule.values())
    )
