"""The engine against a term-space reference.

The id-space pipeline (cost-planned hash/bind joins) must produce, for
every query shape, the solution multiset of a plain term-space
recursion — and the identical sequence when ORDER BY pins the order.
The reference lives here, not in the engine: :func:`reference_bgp`
matches each triple pattern of a BGP, in written order, through
``graph.triples(...)`` (and each path pattern through the engine's
path matcher), and the ``reference`` fixture installs it over
``evaluator._eval_bgp`` for the queries run inside it. Everything above
the BGP — joins, OPTIONAL, FILTER, aggregates, ORDER BY — is the
engine's own code on both sides.
"""

from contextlib import contextmanager

import pytest

import repro.sparql.evaluator as evaluator
from benchmarks.queries import LISTING_1, LISTING_2, LISTING_2_SOURCE
from repro.obs.profile import profile_scope
from repro.oracle import execute_sem_sql
from repro.rdf import DM, DT, Graph, IRI, Literal, RDF, RDFS, Triple, TripleStore
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import Variable
from repro.sparql import PlanCache, execute

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def match_triple(graph, pattern, binding):
    """Extensions of ``binding`` by one triple pattern, in term space."""
    query = [binding.get(t.name) if isinstance(t, Variable) else t for t in pattern]
    for triple in graph.triples(*query):
        extended = dict(binding)
        for term, value in zip(pattern, triple):
            if isinstance(term, Variable):
                if extended.setdefault(term.name, value) != value:
                    break  # the same variable twice, matched differently
        else:
            yield extended


def reference_bgp(graph, bgp, binding):
    """The BGP's solutions by nested-loop recursion over its patterns."""
    stages = [*bgp.patterns, *bgp.paths]

    def recurse(i, current):
        if i == len(stages):
            yield current
            return
        stage = stages[i]
        if isinstance(stage, Triple):
            matches = match_triple(graph, stage, current)
        else:
            matches = evaluator._match_path_pattern(graph, stage, current)
        for extended in matches:
            yield from recurse(i + 1, extended)

    return recurse(0, dict(binding))


@pytest.fixture
def reference(monkeypatch):
    """A context manager: every BGP evaluated inside it is served by
    :func:`reference_bgp`; it yields the list of BGPs served."""

    @contextmanager
    def scope():
        served = []

        def serve(graph, bgp, binding, plan):
            served.append(bgp)
            return reference_bgp(graph, bgp, binding)

        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_eval_bgp", serve)
            yield served

    return scope


@pytest.fixture(scope="module")
def triples():
    out = []
    person, doc = iri("Person"), iri("Document")
    for i in range(40):
        p = iri(f"person{i}")
        out.append(Triple(p, RDF.type, person))
        out.append(Triple(p, iri("name"), Literal(f"Person {i}")))
        out.append(Triple(p, iri("age"), Literal(20 + i % 7)))
        if i % 3 == 0:
            out.append(Triple(p, iri("knows"), iri(f"person{(i + 1) % 40}")))
    for i in range(25):
        d = iri(f"doc{i}")
        out.append(Triple(d, RDF.type, doc))
        out.append(Triple(d, iri("author"), iri(f"person{i % 10}")))
        out.append(Triple(d, iri("title"), Literal(f"Title {i} customer data")))
    out.append(Triple(doc, RDFS.subClassOf, iri("Asset")))
    return out


@pytest.fixture(scope="module")
def graph(triples):
    return Graph(triples, name="engine")


@pytest.fixture(scope="module")
def nsm():
    m = NamespaceManager()
    m.bind("ex", EX)
    return m


QUERIES = [
    # multi-pattern join with a shared variable (hash-join territory)
    """SELECT ?p ?n ?a WHERE {
        ?p rdf:type ex:Person . ?p ex:name ?n . ?p ex:age ?a }""",
    # join across entity kinds
    """SELECT ?d ?p ?n WHERE {
        ?d ex:author ?p . ?p ex:name ?n . ?d rdf:type ex:Document }""",
    # FILTER + regex
    """SELECT ?d WHERE {
        ?d ex:title ?t . FILTER regex(?t, "customer", "i") }""",
    # OPTIONAL with a partial match
    """SELECT ?p ?q WHERE {
        ?p rdf:type ex:Person . OPTIONAL { ?p ex:knows ?q } }""",
    # UNION
    """SELECT ?x WHERE {
        { ?x rdf:type ex:Person } UNION { ?x rdf:type ex:Document } }""",
    # DISTINCT projection
    "SELECT DISTINCT ?a WHERE { ?p ex:age ?a }",
    # aggregates with grouping
    """SELECT ?a (COUNT(?p) AS ?n) WHERE {
        ?p ex:age ?a } GROUP BY ?a""",
    # VALUES constraining a join variable
    """SELECT ?p ?n WHERE {
        VALUES ?p { ex:person1 ex:person2 } ?p ex:name ?n }""",
    # property path through the class hierarchy
    """SELECT ?d WHERE { ?d rdf:type/rdfs:subClassOf ex:Asset }""",
    # ORDER BY: sequence must match exactly, not just as a multiset
    """SELECT ?p ?a WHERE {
        ?p rdf:type ex:Person . ?p ex:age ?a }
        ORDER BY ?a ?p LIMIT 17 OFFSET 3""",
    # bound subject (selective bind-join side)
    "SELECT ?n WHERE { ex:person5 ex:name ?n }",
    # cartesian product of two tiny groups
    """SELECT ?a ?b WHERE {
        ex:person1 ex:name ?a . ex:doc1 ex:title ?b }""",
]

ASK_QUERIES = [
    "ASK { ?p ex:knows ?q . ?q ex:name ?n }",
    "ASK { ex:person2 ex:age ?a . FILTER (?a > 100) }",
]


def canonical(result):
    return sorted(
        tuple(sorted(row.asdict().items())) for row in result
    )


def exact(result):
    return [tuple(sorted(row.asdict().items())) for row in result]


@pytest.mark.parametrize("query", QUERIES)
def test_engine_matches_reference(graph, reference, nsm, query):
    with reference():
        baseline = execute(graph, query, nsm=nsm)
    cache = PlanCache()
    results = {
        "engine": execute(graph, query, nsm=nsm),
        "cached-plan": execute(graph, query, nsm=nsm, plan_cache=cache),
        "cached-plan-hit": execute(graph, query, nsm=nsm, plan_cache=cache),
    }
    assert cache.plan_hits >= 1

    for label, result in results.items():
        assert result.columns == baseline.columns, label
        assert canonical(result) == canonical(baseline), label
        if "ORDER BY" in query:
            assert exact(result) == exact(baseline), label


@pytest.mark.parametrize("query", ASK_QUERIES)
def test_ask_matches_reference(graph, reference, nsm, query):
    with reference():
        baseline = execute(graph, query, nsm=nsm)
    assert execute(graph, query, nsm=nsm) == baseline


def test_initial_bindings_match_reference(graph, reference, nsm):
    query = "SELECT ?n WHERE { ?p ex:name ?n }"
    bindings = {"p": iri("person7")}
    rows = canonical(execute(graph, query, nsm=nsm, bindings=bindings))
    assert rows
    with reference():
        baseline = canonical(execute(graph, query, nsm=nsm, bindings=bindings))
    assert rows == baseline


def test_unknown_term_in_bindings_yields_empty(graph, reference, nsm):
    query = "SELECT ?n WHERE { ?p ex:name ?n }"
    bindings = {"p": iri("nobody-ever-interned")}
    assert len(execute(graph, query, nsm=nsm, bindings=bindings)) == 0
    with reference():
        assert len(execute(graph, query, nsm=nsm, bindings=bindings)) == 0


def run_all(g, nsm):
    with profile_scope() as prof:
        for query in QUERIES + ASK_QUERIES:
            execute(g, query, nsm=nsm)
    return prof


def test_every_engine_operator_ran(graph, nsm):
    # nothing forces an operator any more: the suite only covers the
    # hash and bind joins if the cost model actually picks each somewhere
    ops = {op.op for op in run_all(graph, nsm).operators}
    assert {"scan", "bind-join", "hash-join"} <= ops


def test_reference_never_enters_the_id_pipeline(graph, reference, nsm):
    # the reference serves every BGP the engine would have run, and no
    # id operator (nor the engine's BGP counter) runs beside it
    engine = run_all(graph, nsm)
    with reference() as served:
        prof = run_all(graph, nsm)
    assert len(served) == engine.bgps > 0
    assert prof.bgps == 0 and not prof.operators


# -- the paper's listings, through the SQL front end ---------------------------

def make_store():
    """A model of 60 named columns (a third of them customer columns,
    half of them mapped from a source) plus the OWLPRIME index holding
    their inherited type memberships."""
    dwh = "http://www.credit-suisse.com/dwh/"
    col = DM.Application1_View_Column
    base = [
        Triple(col, RDFS.label, Literal("Column")),
        Triple(col, RDFS.subClassOf, DM.Application1_Item),
        Triple(col, RDFS.subClassOf, DM.Interface_Item),
    ]
    derived = []
    for i in range(60):
        item = IRI(f"{dwh}item_{i}")
        kind = "customer" if i % 3 == 0 else "account"
        base.append(Triple(item, RDF.type, col))
        base.append(Triple(item, DM.hasName, Literal(f"{kind}_{i}")))
        if i % 2 == 0:
            base.append(Triple(IRI(f"{dwh}source_{i % 7}"), DT.isMappedTo, item))
        derived.append(Triple(item, RDF.type, DM.Application1_Item))
        derived.append(Triple(item, RDF.type, DM.Interface_Item))
    store = TripleStore()
    store.create_model("DWH_CURR").add_all(base)
    store.attach_index("DWH_CURR", "OWLPRIME", Graph(derived))
    return store


@pytest.mark.parametrize(
    "sql",
    [LISTING_1, LISTING_2.replace(LISTING_2_SOURCE, "http://www.credit-suisse.com/dwh/source_3")],
    ids=["listing1", "listing2"],
)
def test_listings_match_reference(reference, sql):
    store = make_store()
    rows = execute_sem_sql(store, sql, plan_cache=PlanCache())
    assert len(rows) > 1
    with reference() as served:
        baseline = execute_sem_sql(store, sql)
    assert served
    assert rows.columns == baseline.columns
    assert canonical(rows) == canonical(baseline)


def test_plan_cache_invalidates_on_mutation(nsm):
    g = Graph()
    g.add(Triple(iri("a"), iri("p"), iri("b")))
    cache = PlanCache()
    query = "SELECT ?o WHERE { ex:a ex:p ?o }"
    assert len(execute(g, query, nsm=nsm, plan_cache=cache)) == 1
    g.add(Triple(iri("a"), iri("p"), iri("c")))
    assert len(execute(g, query, nsm=nsm, plan_cache=cache)) == 2
    # two distinct generations -> two plan entries, but one parse
    assert cache.stats()["plan_misses"] == 2
    assert cache.stats()["parse_misses"] == 1
