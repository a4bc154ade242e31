"""The cost-based optimizer: statistics-driven join reordering, the
skew-aware cost model, and the executor's exact-row operator re-check."""

import random
import re

import pytest

from repro.core.vocabulary import TERMS
from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.rdf import CombinedStats, Graph, Literal, Namespace, RDF, StatsCatalog, Triple, Variable
from repro.sparql import PlanCache, execute, plan_bgp
from repro.sparql.planner import _bind_emission
from repro.synth import make_release_feeds

EX = Namespace("http://opt.test/")


def hub_graph(hubs=20, fanout=100, singles=2000, rare_tags=0):
    """Skewed link predicate: a few hub subjects own most of the edges.

    The hub subjects are exactly the ones ``isHub`` selects — the
    correlated-predicate trap a uniform cost model walks straight into.
    """
    g = Graph()
    for h in range(hubs):
        g.add(Triple(EX[f"hub{h}"], EX.isHub, EX.yes))
        for j in range(fanout):
            g.add(Triple(EX[f"hub{h}"], EX.links, EX[f"spoke_{h}_{j}"]))
    for k in range(singles):
        g.add(Triple(EX[f"single{k}"], EX.links, EX[f"leaf{k}"]))
    for k in range(rare_tags):
        g.add(Triple(EX[f"leaf{k}"], EX.tag, EX.Rare))
    return g


def estimate(g, pattern, bound):
    """The planner's row estimate for one pattern with ``bound`` names
    already bound."""
    return plan_bgp(g, [pattern], bound=frozenset(bound)).stages[0].rows_out


class TestBoundVariableSelectivity:
    def test_unbound_is_exact_count(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        assert estimate(g, pattern, set()) == 20

    def test_bound_subject_divides_by_distinct_subjects(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        # 20 triples over 12 distinct subjects: a per-binding probe
        assert estimate(g, pattern, {"h"}) == pytest.approx(20 / 12)

    def test_bound_object_divides_by_distinct_objects(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        assert estimate(g, pattern, {"x"}) == pytest.approx(1.0)


class TestBindEmissionCap:
    def test_no_histogram_charges_skew_expectation(self):
        assert _bind_emission(10.0, 2.0, 50.0, None, 0.0) == 500.0

    def test_histogram_caps_many_near_distinct_probes(self):
        # 8 heavy hitters of 100 plus a uniform tail of 2: 90 distinct
        # probes can emit at most the top-8 sum plus 82 tail probes,
        # far below the frequency-weighted expectation
        prefix = tuple(float(100 * i) for i in range(9))
        capped = _bind_emission(90.0, 2.0, 60.0, prefix, 2.0)
        assert capped == pytest.approx(800.0 + 82.0 * 2.0)
        assert capped < 90.0 * 60.0

    def test_few_probes_still_pay_heavy_hitter_price(self):
        # 5 probes against 5 hitters of 1000: the worst case (5000)
        # does not cap the skew expectation (3000) — the hub trap
        # stays expensive
        prefix = (0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0)
        assert _bind_emission(5.0, 2.0, 600.0, prefix, 1.0) == 3000.0

    def test_never_below_uniform_expectation(self):
        prefix = (0.0, 1.0, 2.0)
        assert _bind_emission(10.0, 3.0, 4.0, prefix, 0.0) >= 30.0


def star_skew_graph(tables_per_schema=40):
    """3 databases x 5 schemas x N tables; 12 tables flagged Critical.

    The trap: ``?db rdf:type :Database`` has the smallest scan count (3),
    so anchoring there fans out to every table before the flag filter.
    The flag pattern (12 rows) is the right anchor.
    """
    g = Graph()
    flagged = 0
    for d in range(3):
        db = EX[f"db{d}"]
        g.add(Triple(db, RDF.type, EX.Database))
        for s in range(5):
            sch = EX[f"db{d}_schema{s}"]
            g.add(Triple(sch, EX.schemaOf, db))
            for t in range(tables_per_schema):
                tab = EX[f"db{d}_s{s}_table{t}"]
                g.add(Triple(tab, EX.inSchema, sch))
                if flagged < 12 and t == tables_per_schema // 2:
                    g.add(Triple(tab, EX.flag, EX.Critical))
                    flagged += 1
    return g


def lineage_chain_graph(fanout=6):
    """5 root marts feeding fan-out trees of depth 3; 20 leaves carry
    ``format "csv"``.

    The trap: the root type pattern scans 5 rows — cheapest by count —
    but walking ``feeds`` forward multiplies by the fanout per hop.
    Anchoring on the format literal walks the chain backward at fanout 1.
    """
    g = Graph()
    tagged = 0
    for r in range(5):
        root = EX[f"mart{r}"]
        g.add(Triple(root, RDF.type, EX.RootMart))
        for a in range(fanout):
            n1 = EX[f"m{r}_a{a}"]
            g.add(Triple(root, EX.feeds, n1))
            for b in range(fanout):
                n2 = EX[f"m{r}_a{a}_b{b}"]
                g.add(Triple(n1, EX.feeds, n2))
                for c in range(fanout):
                    leaf = EX[f"m{r}_a{a}_b{b}_c{c}"]
                    g.add(Triple(n2, EX.feeds, leaf))
                    if tagged < 20 and b == c == 0:
                        g.add(Triple(leaf, EX.format, Literal("csv")))
                        tagged += 1
    return g


def skewed_hub_graph(hub_edges=150, singletons=800):
    """5 hub subjects own ``hub_edges`` links each; ``singletons`` more
    subjects own one link each; 20 link targets are tagged Rare (half on
    hub targets, half on singleton targets).

    The trap: ``?h isHub yes`` scans 5 rows, but each hub explodes into
    ``hub_edges`` links before the tag filter. Anchoring on the tag
    (20 rows) probes ``links`` backward at fanout 1.
    """
    g = Graph()
    tagged = 0
    for h in range(5):
        hub = EX[f"hub{h}"]
        g.add(Triple(hub, EX.isHub, EX.yes))
        for e in range(hub_edges):
            target = EX[f"hub{h}_t{e}"]
            g.add(Triple(hub, EX.links, target))
            if tagged < 10 and e == hub_edges // 2:
                g.add(Triple(target, EX.tag, EX.Rare))
                tagged += 1
    for s in range(singletons):
        target = EX[f"single{s}_t"]
        g.add(Triple(EX[f"single{s}"], EX.links, target))
        if tagged < 20 and s % max(1, singletons // 10) == 7:
            g.add(Triple(target, EX.tag, EX.Rare))
            tagged += 1
    return g


def v(name):
    return Variable(name)


HUB_BGP = [
    Triple(v("h"), EX.isHub, EX.yes),
    Triple(v("h"), EX.links, v("x")),
    Triple(v("x"), EX.tag, EX.Rare),
]

#: (graph builder, BGP in its trap order, predicate of the selective
#: anchor). Raw scan counts point at the first pattern every time; the
#: statistics catalog (distinct counts, fanouts, heavy hitters) exposes
#: the cheap order.
TRAPS = {
    "hub": (
        lambda: hub_graph(hubs=5, fanout=200, singles=1000, rare_tags=6),
        HUB_BGP,
        EX.tag,
    ),
    "skewed_hub": (skewed_hub_graph, HUB_BGP, EX.tag),
    "star_skew": (
        star_skew_graph,
        [
            Triple(v("db"), RDF.type, EX.Database),
            Triple(v("sch"), EX.schemaOf, v("db")),
            Triple(v("x"), EX.inSchema, v("sch")),
            Triple(v("x"), EX.flag, EX.Critical),
        ],
        EX.flag,
    ),
    "lineage_chain": (
        lineage_chain_graph,
        [
            Triple(v("r"), RDF.type, EX.RootMart),
            Triple(v("r"), EX.feeds, v("a")),
            Triple(v("a"), EX.feeds, v("m")),
            Triple(v("m"), EX.feeds, v("leaf")),
            Triple(v("leaf"), EX.format, Literal("csv")),
        ],
        EX.format,
    ),
}


class TestHubTrapAvoidance:
    @pytest.mark.parametrize("shape", sorted(TRAPS))
    def test_cost_planner_anchors_off_the_trap(self, shape):
        build, patterns, anchor = TRAPS[shape]
        plan = plan_bgp(build(), patterns)
        # anchoring on the smallest scan would probe outward from the
        # heaviest subjects in the graph; the histogram-aware cost model
        # starts from the selective side instead
        assert plan.order[0].predicate == anchor


class TestDeterministicTieBreak:
    def two_symmetric(self, g):
        return [
            Triple(Variable("x"), EX.p1, Variable("a")),
            Triple(Variable("x"), EX.p2, Variable("b")),
        ]

    def symmetric_graph(self):
        g = Graph()
        for i in range(6):
            g.add(Triple(EX[f"s{i}"], EX.p1, EX[f"a{i}"]))
            g.add(Triple(EX[f"s{i}"], EX.p2, EX[f"b{i}"]))
        return g

    def test_equal_cost_keeps_original_positions(self):
        g = self.symmetric_graph()
        plan = plan_bgp(g, self.two_symmetric(g))
        assert [p.predicate for p in plan.order] == [EX.p1, EX.p2]

    def test_reversed_input_keeps_its_own_positions(self):
        g = self.symmetric_graph()
        plan = plan_bgp(g, list(reversed(self.two_symmetric(g))))
        assert [p.predicate for p in plan.order] == [EX.p2, EX.p1]

    def test_planning_is_deterministic(self):
        g = self.symmetric_graph()
        patterns = self.two_symmetric(g)
        plans = {
            tuple((s.index, s.operator, s.rows_out, s.cost) for s in plan_bgp(g, patterns).stages)
            for _ in range(5)
        }
        assert len(plans) == 1


class TestPlanFreshness:
    def test_next_plan_sees_graph_mutation(self):
        g = hub_graph(hubs=3, fanout=10, singles=50)
        patterns = [
            Triple(Variable("h"), EX.isHub, EX.yes),
            Triple(Variable("h"), EX.links, Variable("x")),
        ]
        before = plan_bgp(g, patterns)
        g.add(Triple(EX.hub99, EX.isHub, EX.yes))
        after = plan_bgp(g, patterns)
        anchor = next(s for s in after.stages if s.detail.endswith("> " + EX.yes.n3()))
        assert anchor.scan == before.stages[0].scan + 1


class TestExecutorRecheck:
    QUERY = (
        "SELECT ?h ?x ?t WHERE { "
        f"?h <{EX.isHub.value}> <{EX.yes.value}> . "
        f"?h <{EX.links.value}> ?x . ?x <{EX.tag.value}> ?t }}"
    )

    def test_executor_rechecks_operator_on_exact_rows(self):
        mdw = MetadataWarehouse()
        for t in hub_graph():
            mdw.graph.add(t)
            if t.predicate == EX.links:
                mdw.graph.add(Triple(t.object, EX.tag, EX.Common))
        # 40 rows estimated into the tag stage, 2000 actual: the plan
        # bind-joins it, the run hash-joins it, and ANALYZE shows the miss
        rendered = mdw.explain(self.QUERY, analyze=True)
        static, runtime = rendered.split("runtime profile")
        planned = re.findall(r"^ +\d+\. (.+?)   ~.+?(?: via (\S+))?$", static, re.M)
        ran = re.findall(r"^ +(scan|bind-join|hash-join) (.+?): \d+ -> (.+)$", runtime, re.M)
        assert [detail for detail, _ in planned] == [detail for _, detail, _ in ran]
        assert planned[-1][1] == "bind-join"
        assert ran[-1][0] == "hash-join"
        assert "x off)" in ran[-1][2]  # the estimate error is printed beside it
        rows = mdw.query(self.QUERY).to_dicts()
        fresh = execute(mdw.view(), self.QUERY, plan_cache=PlanCache()).to_dicts()
        assert len(rows) == 2000
        assert sorted(rows, key=repr) == sorted(fresh, key=repr)


class TestStaleStatsRecost:
    def test_incremental_release_recosts_cached_plan(self):
        rng = random.Random(11)
        release1 = make_release_feeds(rng)
        mdw = MetadataWarehouse()
        mdw.build_entailment_index("OWLPRIME")
        EtlOrchestrator(mdw).apply_release(release1, mode="full")
        text = "SELECT ?s ?name WHERE { ?s rdf:type ?c . ?s dm:hasName ?name }"

        rows1 = mdw.query(text, rulebases=("OWLPRIME",))
        assert len(rows1) > 0
        misses = mdw.plan_cache.stats()["plan_misses"]

        # replace one document: the delta shifts hasName/type counts
        release2 = release1[:-1] + make_release_feeds(rng, documents=1)
        result = EtlOrchestrator(mdw).apply_release(release2, mode="incremental")
        assert result.ok and result.added > 0 and result.removed > 0

        rows2 = mdw.query(text, rulebases=("OWLPRIME",))
        # the generation moved: the cached plan was re-planned, not reused
        assert mdw.plan_cache.stats()["plan_misses"] > misses

        # ... against the statistics a freshly built catalog collects
        view = mdw.store.view([mdw.model_name], rulebases=["OWLPRIME"])
        fresh_stats = CombinedStats(StatsCatalog(layer) for layer in view.layers)
        fields = ("count", "distinct_subjects", "distinct_objects", "top_subjects", "top_objects")
        for predicate in (RDF.type, TERMS.has_name):
            pid = view.dictionary.lookup(predicate)
            planned, collected = view.stats().predicate(pid), fresh_stats.predicate(pid)
            assert [getattr(planned, f) for f in fields] == [getattr(collected, f) for f in fields]

        # bit-identical with a plan-cache-free evaluation of the view
        fresh = execute(view, text, nsm=mdw.namespaces)
        assert sorted(rows2.to_dicts(), key=repr) == sorted(
            fresh.to_dicts(), key=repr
        )
