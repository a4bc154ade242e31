"""The engine against the term-space reference.

The id-space pipeline (cost-planned hash/bind joins) must produce, for
every query shape, the solution multiset of the term-space recursion —
and the identical sequence when ORDER BY pins the order. The reference
is reached the only way the code reaches it: by querying a
:class:`~repro.rdf.GraphView` of the same triples whose layers do not
share a :class:`~repro.rdf.TermDictionary`.
"""

import pytest

from benchmarks.queries import LISTING_1, LISTING_2, LISTING_2_SOURCE
from repro.obs.profile import profile_scope
from repro.oracle import execute_sem_sql
from repro.rdf import (
    DM, DT, Graph, GraphView, IRI, Literal, RDF, RDFS, TermDictionary, Triple,
    TripleStore,
)
from repro.rdf.namespace import NamespaceManager
from repro.sparql import PlanCache, execute

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def private(triples):
    """A graph interning into a dictionary of its own."""
    return Graph(triples, dictionary=TermDictionary())


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
def reference(triples):
    view = GraphView([private(triples[::2]), private(triples[1::2])], disjoint_hint=True)
    assert view.dictionary is None
    return view


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
    baseline = execute(reference, query, nsm=nsm)
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
    assert execute(graph, query, nsm=nsm) == execute(reference, query, nsm=nsm)


def test_initial_bindings_match_reference(graph, reference, nsm):
    query = "SELECT ?n WHERE { ?p ex:name ?n }"
    bindings = {"p": iri("person7")}
    rows = canonical(execute(graph, query, nsm=nsm, bindings=bindings))
    assert rows
    assert rows == canonical(execute(reference, query, nsm=nsm, bindings=bindings))


def test_unknown_term_in_bindings_yields_empty(graph, reference, nsm):
    query = "SELECT ?n WHERE { ?p ex:name ?n }"
    bindings = {"p": iri("nobody-ever-interned")}
    for g in (graph, reference):
        assert len(execute(g, query, nsm=nsm, bindings=bindings)) == 0


def operators_run(g, nsm):
    with profile_scope() as prof:
        for query in QUERIES + ASK_QUERIES:
            execute(g, query, nsm=nsm)
    return {op.op for op in prof.operators}


def test_every_engine_operator_ran(graph, nsm):
    # nothing forces an operator any more: the suite only covers the
    # hash and bind joins if the cost model actually picks each somewhere
    assert {"scan", "bind-join", "hash-join"} <= operators_run(graph, nsm)


def test_reference_never_enters_the_id_pipeline(reference, nsm):
    assert operators_run(reference, nsm) == {"nested-loop"}


# -- the paper's listings, through the SQL front end ---------------------------

def make_store(make_graph):
    """A model of 60 named columns (a third of them customer columns,
    half of them mapped from a source) plus the OWLPRIME index holding
    their inherited type memberships; ``make_graph`` decides which
    dictionary each of the two graphs interns into."""
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
    store.adopt_model("DWH_CURR", make_graph(base))
    store.attach_index("DWH_CURR", "OWLPRIME", make_graph(derived))
    return store


@pytest.mark.parametrize(
    "sql",
    [LISTING_1, LISTING_2.replace(LISTING_2_SOURCE, "http://www.credit-suisse.com/dwh/source_3")],
    ids=["listing1", "listing2"],
)
def test_listings_match_reference(sql):
    engine_store, reference_store = make_store(Graph), make_store(private)
    assert reference_store.view(["DWH_CURR"], rulebases=["OWLPRIME"]).dictionary is None
    rows = execute_sem_sql(engine_store, sql, plan_cache=PlanCache())
    assert len(rows) > 1
    assert rows.columns == execute_sem_sql(reference_store, sql).columns
    assert canonical(rows) == canonical(execute_sem_sql(reference_store, sql))


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
