"""The tracer: nesting, sampling, propagation, Chrome export and its validator."""

import json
import pickle
import threading

import pytest

from repro.obs.trace import (
    TraceValidationError,
    Tracer,
    active_tracer,
    capture,
    span,
    trace_scope,
    tracing,
    validate_chrome_trace,
)


def by_name(tracer):
    out = {}
    for s in tracer.spans():
        out.setdefault(s.name, []).append(s)
    return out


class TestNesting:
    def test_parentage_follows_lexical_nesting(self):
        tracer = Tracer()
        with tracer.span("request", "service"):
            with tracer.span("plan", "sparql"):
                with tracer.span("operator", "sparql"):
                    pass
            with tracer.span("operator", "sparql"):
                pass
        spans = {s.name: s for s in tracer.spans() if s.name != "operator"}
        operators = [s for s in tracer.spans() if s.name == "operator"]
        assert spans["request"].parent_id is None
        assert spans["plan"].parent_id == spans["request"].span_id
        assert operators[0].parent_id == spans["plan"].span_id
        assert operators[1].parent_id == spans["request"].span_id

    def test_attrs_dict_is_written_through(self):
        tracer = Tracer()
        with tracer.span("request", kind="query") as attrs:
            attrs["rows"] = 17
        (recorded,) = tracer.spans()
        assert recorded.attrs == {"kind": "query", "rows": 17}

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("request"):
                raise RuntimeError("boom")
        (recorded,) = tracer.spans()
        assert recorded.end is not None


class TestSampling:
    def test_unsampled_root_suppresses_descendants(self):
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("request"):
            assert capture() is None or True  # no ambient tracer here
            with tracer.span("plan"):
                pass
        assert tracer.spans() == []

    def test_sample_rate_partitions_whole_traces(self):
        tracer = Tracer(sample_rate=0.5, seed=7)
        for _ in range(200):
            with tracer.span("request"):
                with tracer.span("plan"):
                    pass
        spans = tracer.spans()
        roots = [s for s in spans if s.parent_id is None]
        children = [s for s in spans if s.parent_id is not None]
        # every sampled trace is complete: one plan per request
        assert len(roots) == len(children)
        assert 0 < len(roots) < 200

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestAmbientHelpers:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing()
        cm1 = span("anything", irrelevant=1)
        cm2 = span("else")
        assert cm1 is cm2  # the shared no-op — no allocation when disabled
        with cm1 as attrs:
            attrs["write"] = "discarded"
        assert dict(attrs) == {}

    def test_trace_scope_installs_and_restores(self):
        assert active_tracer() is None
        with trace_scope() as tracer:
            assert active_tracer() is tracer
            with span("request"):
                assert capture() is not None
        assert active_tracer() is None
        assert [s.name for s in tracer.spans()] == ["request"]

    def test_capture_is_none_outside_any_span(self):
        with trace_scope():
            assert capture() is None


class TestCrossThread:
    def test_explicit_parent_bridges_a_thread_pool_hop(self):
        # the service pattern: capture() at submit time on the client
        # thread, open the request span with parent= on the worker thread
        with trace_scope() as tracer:
            with tracer.span("client"):
                ctx = capture()

            done = threading.Event()

            def worker():
                with tracer.span("request", parent=ctx):
                    with tracer.span("plan"):
                        pass
                done.set()

            threading.Thread(target=worker).start()
            assert done.wait(5.0)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["request"].parent_id == spans["client"].span_id
        assert spans["plan"].parent_id == spans["request"].span_id
        assert spans["plan"].tid != spans["client"].tid

    def test_contextvar_does_not_leak_across_unrelated_threads(self):
        with trace_scope() as tracer:
            seen = []

            def worker():
                seen.append(capture())

            with tracer.span("client"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
            assert seen == [None]  # fresh thread, fresh context


class TestCrossProcess:
    def test_spans_and_contexts_pickle(self):
        tracer = Tracer()
        with tracer.span("request", kind="query"):
            ctx = pickle.loads(pickle.dumps(_ambient_ctx(tracer)))
        (recorded,) = tracer.spans()
        clone = pickle.loads(pickle.dumps(recorded))
        assert clone.span_id == recorded.span_id
        assert clone.attrs == recorded.attrs
        assert ctx.span_id == recorded.span_id

    def test_drain_and_adopt_graft_foreign_spans(self):
        parent = Tracer()
        child = Tracer()
        with parent.span("request"):
            ctx = _ambient_ctx(parent)
        with child.span("fork-dispatch", parent=ctx):
            pass
        shipped = pickle.loads(pickle.dumps(child.drain()))
        assert child.spans() == []
        parent.adopt(shipped)
        spans = {s.name: s for s in parent.spans()}
        assert spans["fork-dispatch"].parent_id == spans["request"].span_id


def _ambient_ctx(tracer):
    """capture() needs the tracer installed; shortcut for tests that
    drive a Tracer directly."""
    from repro.obs import trace as trace_mod

    previous = trace_mod._active
    trace_mod._active = tracer
    try:
        return capture()
    finally:
        trace_mod._active = previous


class TestChromeExport:
    def test_chrome_trace_shape_and_ordering(self):
        tracer = Tracer()
        with tracer.span("request", "service", kind="query"):
            with tracer.span("plan", "sparql", query="SelectQuery"):
                pass
        data = tracer.to_chrome()
        text = json.dumps(data)  # must be JSON-serializable
        assert json.loads(text)["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert [e["name"] for e in events] == ["request", "plan"]  # ts-sorted
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        request, plan = events
        assert plan["args"]["parent_id"] == request["args"]["span_id"]
        assert plan["args"]["query"] == "SelectQuery"

    def test_capacity_drops_new_spans_not_old(self):
        tracer = Tracer(capacity=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in tracer.spans()] == ["a", "b"]
        assert tracer.dropped == 1


class TestValidateChromeTrace:
    def _nested(self):
        tracer = Tracer()
        with tracer.span("request", "gateway"):
            with tracer.span("frontier", "gateway"):
                with tracer.span("operator", "lineage"):
                    pass
        return tracer

    def test_valid_nesting_passes(self):
        summary = validate_chrome_trace(self._nested().to_chrome())
        assert summary["events"] == 3
        assert summary["roots"] == 1
        assert summary["names"] == ["frontier", "operator", "request"]
        assert summary["pids"] == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceValidationError, match="no traceEvents"):
            validate_chrome_trace({"traceEvents": []})

    def test_orphan_parent_rejected(self):
        data = self._nested().to_chrome()
        data["traceEvents"][0]["args"]["parent_id"] = "dead-beef"
        with pytest.raises(TraceValidationError, match="unknown parent"):
            validate_chrome_trace(data)

    def test_duplicate_span_id_rejected(self):
        data = self._nested().to_chrome()
        dup = data["traceEvents"][0]["args"]["span_id"]
        data["traceEvents"][1]["args"]["span_id"] = dup
        with pytest.raises(TraceValidationError, match="duplicate"):
            validate_chrome_trace(data)

    def test_temporal_escape_rejected(self):
        data = self._nested().to_chrome()
        # push a child outside its parent's [ts, ts+dur] envelope
        child = next(
            e for e in data["traceEvents"] if e["args"].get("parent_id")
        )
        child["ts"] += 10_000_000
        with pytest.raises(TraceValidationError, match="temporally"):
            validate_chrome_trace(data)
