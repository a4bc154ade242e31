"""The cost-based optimizer v2: statistics-driven join reordering, the
skew-aware cost model, plan memoization, and the profile-driven
re-costing feedback loop (estimate >10x off -> replan with actuals)."""

import random
import re

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.obs.profile import profile_scope
from repro.rdf import Graph, Literal, Namespace, RDF, Triple, Variable
from repro.sparql import (
    PlanCache,
    execute,
    pattern_selectivity,
    plan_bgp,
)
from repro.sparql.planner import REPLAN_ERROR_FACTOR, _bind_emission
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


class TestBoundVariableSelectivity:
    def test_unbound_is_exact_count(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        assert pattern_selectivity(g, pattern, set()) == 20

    def test_bound_subject_divides_by_distinct_subjects(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        # 20 triples over 12 distinct subjects: a per-binding probe
        estimate = pattern_selectivity(g, pattern, {"h"})
        assert estimate == pytest.approx(20 / 12)

    def test_bound_object_divides_by_distinct_objects(self):
        g = hub_graph(hubs=2, fanout=5, singles=10)
        pattern = Triple(Variable("h"), EX.links, Variable("x"))
        assert pattern_selectivity(g, pattern, {"x"}) == pytest.approx(1.0)


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

    def test_replanning_is_stable(self):
        g = self.symmetric_graph()
        patterns = self.two_symmetric(g)
        orders = {tuple(map(id, plan_bgp(g, patterns).order)) for _ in range(5)}
        assert len(orders) == 1


class TestPlanMemo:
    def patterns(self):
        return [
            Triple(Variable("h"), EX.isHub, EX.yes),
            Triple(Variable("h"), EX.links, Variable("x")),
        ]

    def test_memo_hits_return_independent_plans(self):
        g = hub_graph(hubs=3, fanout=10, singles=50)
        patterns = self.patterns()
        first = plan_bgp(g, patterns)
        second = plan_bgp(g, patterns)
        assert first is not second
        assert [p for p in first.order] == [p for p in second.order]
        # feedback state must never be shared through the memo
        first.observe([(1, 1000), (1, 1000)])
        assert first.mis_estimated
        assert not second.mis_estimated
        assert not plan_bgp(g, patterns).mis_estimated

    def test_graph_mutation_invalidates_memo(self):
        g = hub_graph(hubs=3, fanout=10, singles=50)
        patterns = self.patterns()
        before = plan_bgp(g, patterns)
        g.add(Triple(EX.hub99, EX.isHub, EX.yes))
        after = plan_bgp(g, patterns)
        anchor = next(s for s in after.stages if s.detail.endswith("> " + EX.yes.n3()))
        assert anchor.scan == before.stages[0].scan + 1

    def test_corrections_bypass_memo(self):
        g = hub_graph(hubs=3, fanout=10, singles=50)
        patterns = self.patterns()
        plain = plan_bgp(g, patterns)
        from repro.sparql.planner import _correction_key

        key = _correction_key(patterns[1], frozenset({"h"}))
        corrected = plan_bgp(g, patterns, corrections={key: 10.0})
        assert corrected.stages[-1].rows_out > plain.stages[-1].rows_out


class TestReplanFeedback:
    QUERY = (
        "SELECT ?h ?x WHERE { "
        f"?h <{EX.isHub.value}> <{EX.yes.value}> . "
        f"?h <{EX.links.value}> ?x }}"
    )

    def test_misestimate_triggers_recost_with_actuals(self):
        g = hub_graph()  # links fanout: estimated ~2, actual 100
        cache = PlanCache()
        rows1 = execute(g, self.QUERY, plan_cache=cache).to_dicts()
        assert len(rows1) == 2000
        assert cache.replans == 0
        prepared1 = cache.prepare(g, self.QUERY)
        # ...which IS the replan: the executed plan blew the threshold
        assert cache.replans == 1
        assert prepared1.replan_round == 1
        assert prepared1.max_error() == 1.0  # fresh plans, not yet run

        rows2 = execute(g, self.QUERY, plan_cache=cache).to_dicts()
        assert sorted(rows2, key=repr) == sorted(rows1, key=repr)
        # re-costed from observed fanouts: estimates now match actuals,
        # so the second execution stays inside the replan threshold
        assert cache.replans == 1
        prepared2 = cache.prepare(g, self.QUERY)
        assert prepared2 is prepared1
        assert prepared1.max_error() < REPLAN_ERROR_FACTOR

    def test_explain_renders_the_recosted_plan_that_runs(self):
        mdw = MetadataWarehouse()
        for t in hub_graph():
            mdw.graph.add(t)
            if t.predicate == EX.links:
                mdw.graph.add(Triple(t.object, EX.tag, EX.Common))
        text = self.QUERY.replace("?x }", f"?x . ?x <{EX.tag.value}> ?t }}")
        # 40 rows estimated into the tag stage, 2000 actual: the fresh
        # plan bind-joins it, the re-costed one (and the run) hash-joins
        assert len(mdw.query(text)) == 2000
        rendered = mdw.explain(text, analyze=True)
        assert "re-costed 1 time(s)" in rendered
        static, runtime = rendered.split("runtime profile")
        planned = re.findall(r"^ +\d+\. (.+?)   ~.+?(?: via (\S+))?$", static, re.M)
        ran = re.findall(r"^ +(scan|bind-join|hash-join) (.+?): \d+ ->", runtime, re.M)
        assert len(planned) == 3
        assert [detail for detail, _ in planned] == [detail for _, detail in ran]
        assert [op for _, op in planned[1:]] == [op for op, _ in ran[1:]]
        assert ran[-1][0] == "hash-join"

    def test_observe_marks_plan_past_threshold(self):
        g = hub_graph(hubs=3, fanout=10, singles=50)
        plan = plan_bgp(
            g,
            [
                Triple(Variable("h"), EX.isHub, EX.yes),
                Triple(Variable("h"), EX.links, Variable("x")),
            ],
        )
        worst = plan.observe([(1, 3), (3, 3000)])
        assert worst > REPLAN_ERROR_FACTOR
        assert plan.mis_estimated
        assert plan.observed  # per-stage fanouts recorded as corrections


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
        catalog = mdw.graph.stats()
        refreshes = catalog.refreshes
        misses = mdw.plan_cache.stats()["plan_misses"]

        # replace one document: the delta shifts hasName/type counts
        # past the stats refresh threshold
        release2 = release1[:-1] + make_release_feeds(rng, documents=1)
        result = EtlOrchestrator(mdw).apply_release(release2, mode="incremental")
        assert result.ok and result.added > 0 and result.removed > 0

        rows2 = mdw.query(text, rulebases=("OWLPRIME",))
        # the generation moved: the cached plan was re-planned against
        # refreshed statistics, not reused
        assert mdw.plan_cache.stats()["plan_misses"] > misses
        assert catalog.refreshes > refreshes
        assert not catalog.is_stale()

        # bit-identical with a plan-cache-free evaluation of the view
        view = mdw.store.view([mdw.model_name], rulebases=["OWLPRIME"])
        fresh = execute(view, text, nsm=mdw.namespaces)
        assert sorted(rows2.to_dicts(), key=repr) == sorted(
            fresh.to_dicts(), key=repr
        )
