"""Query profiles: operator stats, cache counters, merge, render."""

from repro.obs.profile import (
    QueryProfile,
    count_rows,
    current_profile,
    profile_scope,
)
from repro.rdf import Graph, Namespace, Triple
from repro.sparql import execute

EX = Namespace("http://x/")


def test_profile_scope_installs_and_restores():
    assert current_profile() is None
    with profile_scope() as prof:
        assert current_profile() is prof
        prof.count("bgps")
        prof.count("dict_lookups", 3)
    assert current_profile() is None
    assert prof.bgps == 1
    assert prof.dict_lookups == 3


def test_count_rows_records_consumed_rows():
    prof = QueryProfile()
    stats = prof.operator("path", detail="?a / ?b")
    assert list(count_rows(iter(range(5)), stats)) == [0, 1, 2, 3, 4]
    assert stats.rows_out == 5


def test_count_rows_records_on_early_exit():
    prof = QueryProfile()
    stats = prof.operator("path")
    gen = count_rows(iter(range(100)), stats)
    next(gen)
    next(gen)
    gen.close()  # LIMIT / cancellation abandons the stream
    assert stats.rows_out == 2


def test_snapshot_merge_round_trip():
    child = QueryProfile()
    child.count("bgps")
    child.count("rows_out", 11)
    child.count("plan_cache_hits")
    child.count("hierarchy_cache_misses", 2)
    child.operator("hash-join", detail="?s ?p ?o", rows_in=4, rows_out=11,
                   seconds=0.002)
    shipped = child.snapshot()  # what a fork worker sends back

    parent = QueryProfile()
    parent.count("rows_out", 1)
    parent.merge_snapshot(shipped)
    assert parent.bgps == 1
    assert parent.rows_out == 12
    assert parent.plan_cache_hits == 1
    assert parent.hierarchy_cache_misses == 2
    (op,) = parent.operators
    assert (op.op, op.rows_in, op.rows_out) == ("hash-join", 4, 11)
    parent.merge_snapshot(shipped)  # a second shard ran the same operator
    (op,) = parent.operators
    assert (op.calls, op.rows_in, op.rows_out) == (2, 8, 22)


def test_operator_rerun_per_left_row_folds_into_one_record():
    g = Graph()
    for i in range(2000):
        g.add(Triple(EX[f"x{i}"], EX.p, EX[f"y{i}"]))
        if i % 2:
            g.add(Triple(EX[f"y{i}"], EX.q, EX[f"z{i}"]))
    with profile_scope() as prof:
        rows = execute(g, "SELECT * WHERE { ?x <http://x/p> ?y OPTIONAL { ?y <http://x/q> ?z } }")
    assert len(rows) == 2000
    assert len(prof.operators) == 2
    assert [(op.op, op.calls) for op in prof.operators] == [("scan", 1), ("bind-join", 2000)]
    assert sum(op.rows_in for op in prof.operators) == 2001
    assert sum(op.rows_out for op in prof.operators) == 3000
    assert "over 2000 calls" in prof.render()


def test_render_mentions_operators_and_caches():
    prof = QueryProfile()
    prof.count("bgps")
    prof.count("rows_out", 50)
    prof.count("plan_cache_hits")
    prof.count("regex_cache_misses")
    prof.operator("scan", detail="?t a dm:Table", rows_in=1, rows_out=50)
    text = prof.render()
    assert "1 BGP(s), 50 row(s) out" in text
    assert "scan ?t a dm:Table: 1 -> 50 rows" in text
    assert "plan 1/1" in text
    assert "regex 0/1" in text


def test_render_empty_profile_is_still_valid():
    text = QueryProfile().render()
    assert "0 BGP(s), 0 row(s) out" in text
    assert "dictionary lookups: 0" in text
