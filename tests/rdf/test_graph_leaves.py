"""The two leaf forms of :class:`~repro.rdf.graph.Graph`'s indexes.

An index leaf holding one id stores the int itself and becomes a set at
its second id; a removal that leaves one id turns it back into an int.
A generated sequence of writes, pattern removals, copies and
copy-on-write copies is checked after every step against a model kept
as a set of id triples: every bound shape of ``triples_ids``,
``count_ids``, ``has_ids``, ``len`` and the distinct counts, plus the
layout itself (no set leaf with fewer than two ids, no empty inner
dict). Ids run 0-5, so id 0 — the one a truth test on a leaf would
lose — is always in play; they are the ids of six IRIs in the test's
own dictionary, so a pattern removal can name them as terms. The
assertions are structural, never ``sys.getsizeof`` bytes, which differ
across Python versions.
"""

from itertools import product

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.vocabulary import TERMS
from repro.etl import EtlOrchestrator
from repro.rdf import IRI, Graph, Literal, TermDictionary, Triple
from repro.synth import LandscapeConfig, generate_landscape

IDS = range(6)
SLOTS = (None, *IDS)
DICTIONARY = TermDictionary()
TERMS_BY_ID = [IRI(f"urn:leaf:{i}") for i in IDS]
assert [DICTIONARY.intern(t) for t in TERMS_BY_ID] == list(IDS)

#: step kinds, weighted by repetition: adds dominate so leaves grow past
#: one id, and ``discard_nth`` removes the n-th stored triple (a random
#: triple mostly misses); ``remove_pattern`` unbinds the positions its
#: mask bits name
KINDS = ("add",) * 8 + ("discard",) * 2 + ("discard_nth",) * 4 + (
    "remove_pattern",
    "remove_pattern",
    "cow_copy",
    "copy",
    "from_ids",
    "clear",
)
_id = st.integers(0, 5)
_step = st.tuples(
    st.sampled_from(KINDS), _id, _id, _id, st.integers(0, 1), st.integers(0, 7)
)


def assert_layout(graph: Graph) -> None:
    for index in (graph._spo, graph._pos):
        for inner in index.values():
            assert len(inner) > 0
            for leaf in inner.values():
                assert type(leaf) is int or (type(leaf) is set and len(leaf) >= 2), leaf


def assert_matches(graph: Graph, model) -> None:
    assert_layout(graph)
    assert len(graph) == len(model)
    assert graph.distinct_subject_count() == len({s for s, _, _ in model})
    assert graph.distinct_predicate_count() == len({p for _, p, _ in model})
    assert graph.distinct_object_count() == len({o for _, _, o in model})
    expected = {}
    for t in model:
        for mask in product((False, True), repeat=3):
            key = tuple(v if bound else None for v, bound in zip(t, mask))
            expected.setdefault(key, set()).add(t)
    for pattern in product(SLOTS, repeat=3):
        rows = list(graph.triples_ids(*pattern))
        want = expected.get(pattern, set())
        assert len(rows) == len(set(rows)) and set(rows) == want, pattern
        assert graph.count_ids(*pattern) == len(want), pattern
    for s, p, o in product(IDS, repeat=3):
        assert graph.has_ids(s, p, o) == ((s, p, o) in model)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_step, min_size=10, max_size=60))
def test_generated_writes_and_copies_keep_both_leaf_forms_exact(steps):
    # graphs[0] is the graph under test, graphs[1] a copy of it taken by
    # cow_copy/copy/from_ids; writes go to either side, and each side
    # must match only its own model
    graphs = [Graph(dictionary=DICTIONARY), None]
    models = [set(), None]
    for step in steps:
        kind, s, p, o, side, mask = step
        if graphs[side] is None:
            side = 0
        graph, model = graphs[side], models[side]
        if kind == "add":
            t = (s, p, o)
            assert graph.add_ids(*t) == (t not in model)
            model.add(t)
        elif kind in ("discard", "discard_nth"):
            t = (s, p, o)
            if kind == "discard_nth" and model:
                t = sorted(model)[(s * 36 + p * 6 + o) % len(model)]
            assert graph.discard_ids(*t) == (t in model)
            model.discard(t)
        elif kind == "remove_pattern":
            ids = tuple(None if mask >> i & 1 else v for i, v in enumerate((s, p, o)))
            doomed = {t for t in model if all(x is None or x == y for x, y in zip(ids, t))}
            heard = []

            def listener(action, s, p, o):
                heard.append((action, (s, p, o)))

            graph.subscribe(listener)
            terms = (None if x is None else TERMS_BY_ID[x] for x in ids)
            assert graph.remove_pattern(*terms) == len(doomed)
            graph.unsubscribe(listener)
            # listeners hear each removal once, as an id triple
            assert sorted(heard) == sorted(("remove", t) for t in doomed)
            model -= doomed
        elif kind == "clear":
            graph.clear()
            model.clear()
        else:
            if kind == "cow_copy":
                other = graph.cow_copy()
            elif kind == "copy":
                other = graph.copy()
            else:
                rows = sorted(model) + sorted(model)[:3]  # duplicates are skipped
                other = Graph.from_ids(rows, graph.dictionary)
            graphs[1 - side], models[1 - side] = other, set(model)
        for g, m in zip(graphs, models):
            if g is not None:
                assert_matches(g, m)


def test_no_one_id_set_after_generation_index_and_release():
    mdw = generate_landscape(LandscapeConfig.tiny(seed=7)).warehouse
    mdw.build_entailment_index()
    graph = mdw.graph
    # a release that renames every fifth item and drops every third
    # mapping edge: removals leave one-id sets unless they are inlined
    desired = graph.copy(name="desired")
    named = sorted(graph.triples(None, TERMS.has_name, None), key=lambda t: t.subject.sort_key())
    for t in named[::5]:
        desired.discard(t)
        desired.add(Triple(t.subject, t.predicate, Literal(t.object.lexical + "_r2")))
    mapped = sorted(
        graph.triples(None, TERMS.is_mapped_to, None),
        key=lambda t: (t.subject.sort_key(), t.object.sort_key()),
    )
    for t in mapped[::3]:
        desired.discard(t)
    result = EtlOrchestrator(mdw, validate=False).apply_release(
        desired=desired, mode="incremental"
    )
    assert result.removed > 0 and result.refreshed_rulebases
    store = mdw.store
    graphs = [store.model(name) for name in store.model_names()]
    graphs += [store.index(*key) for key in store.index_names()]
    assert len(graphs) >= 2
    for g in graphs:
        assert_layout(g)
    assert graph == desired
