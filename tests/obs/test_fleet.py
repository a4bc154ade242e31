"""Fleet observability units: event journal, SLO engine, trace validator.

The SLO engine runs against a private registry and a fake clock, so the
rolling-window and error-budget arithmetic is pinned exactly — no real
time, no real serving tier.
"""

import json

import pytest

from repro.obs import (
    EventJournal,
    SLOTarget,
    SloEngine,
    TraceValidationError,
    Tracer,
    get_journal,
    validate_chrome_trace,
)
from repro.obs.registry import MetricsRegistry


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestEventJournal:
    def test_record_and_filter(self):
        clock = FakeClock(100.0)
        journal = EventJournal(capacity=8, clock=clock)
        journal.record(
            "breaker", severity="warning", shard="0", breaker="search", to="open"
        )
        clock.advance(1.0)
        journal.record(
            "worker-restart",
            severity="warning",
            service="svc",
            shard=1,  # non-string shard is coerced
            reason="crash",
        )
        journal.record("shard-replace", service="svc", shard="1")
        assert len(journal) == 3
        warnings = journal.events(severity="warning")
        assert [e.kind for e in warnings] == ["breaker", "worker-restart"]
        (restart,) = journal.events(shard="1", kind="worker-restart")
        assert restart.attrs["reason"] == "crash"
        assert restart.ts == 101.0
        assert journal.events(limit=1)[0].kind == "shard-replace"  # newest

    def test_capacity_bound_counts_dropped(self):
        journal = EventJournal(capacity=2)
        for i in range(5):
            journal.record("e", seq=i)
        assert len(journal) == 2
        assert journal.dropped == 3
        assert [e.attrs["seq"] for e in journal.events()] == [3, 4]

    def test_jsonl_round_trip(self):
        journal = EventJournal(clock=FakeClock(5.0))
        journal.record(
            "slo-burn",
            severity="warning",
            service="svc",
            shard="0",
            slo="latency-fast",
            burn_rate=3.5,
        )
        docs = [json.loads(line) for line in journal.to_jsonl().splitlines()]
        assert docs == [
            {
                "ts": 5.0,
                "kind": "slo-burn",
                "severity": "warning",
                "service": "svc",
                "shard": "0",
                "slo": "latency-fast",
                "burn_rate": 3.5,
            }
        ]

    def test_drain_empties_the_ring(self):
        journal = EventJournal()
        journal.record("a")
        assert [e.kind for e in journal.drain()] == ["a"]
        assert len(journal) == 0

    def test_process_global_journal_is_a_singleton(self):
        assert get_journal() is get_journal()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_limit_zero_is_nothing_and_negative_is_rejected(self):
        journal = EventJournal()
        for i in range(3):
            journal.record("e", seq=i)
        assert journal.events(limit=0) == []
        assert [e.attrs["seq"] for e in journal.events(limit=5)] == [0, 1, 2]
        with pytest.raises(ValueError):
            journal.events(limit=-1)


def _families(reg):
    req = reg.counter(
        "mdw_service_requests_total", "h", labels=("service", "event", "shard")
    )
    lat = reg.histogram(
        "mdw_request_latency_seconds", "h", labels=("service", "kind", "shard")
    )
    return req, lat


def _engine(reg, clock, journal=None, **overrides):
    settings = dict(
        window=100.0,
        targets=(SLOTarget("avail", sli="availability", objective=0.9),),
        clock=clock,
        journal=journal if journal is not None else EventJournal(clock=clock),
    )
    settings.update(overrides)
    return SloEngine(reg, **settings)


class TestSloEngineBudgetMath:
    def test_availability_error_budget_under_fake_clock(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(reg, clock)
        req, lat = _families(reg)
        for _ in range(90):
            req.inc(service="svc", event="completed", shard="0")
            lat.observe(0.01, service="svc", kind="search", shard="0")
        for _ in range(10):
            req.inc(service="svc", event="failed", shard="0")
            lat.observe(0.01, service="svc", kind="search", shard="0")
        clock.advance(50.0)
        report = engine.report()
        assert report["window"] == pytest.approx(50.0)
        row = report["services"]["svc"]
        assert row["attempted"] == 100
        assert row["completed"] == 90
        assert row["failed"] == 10
        assert row["availability"] == pytest.approx(0.9)
        assert row["throughput"] == pytest.approx(2.0)
        # objective 0.9 allows exactly a 10% error rate: the observed
        # 10/100 burns at exactly 1.0x and spends the whole budget
        (slo,) = report["slos"]
        assert slo["good"] == 90 and slo["bad"] == 10
        assert slo["error_rate"] == pytest.approx(0.1)
        assert slo["burn_rate"] == pytest.approx(1.0)
        assert slo["budget_remaining"] == pytest.approx(0.0)

    def test_half_spent_budget(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(reg, clock)
        req, _ = _families(reg)
        for _ in range(95):
            req.inc(service="svc", event="completed", shard="0")
        for _ in range(5):
            req.inc(service="svc", event="failed", shard="0")
        clock.advance(10.0)
        (slo,) = engine.report()["slos"]
        # 5 bad of an allowed 10: half the budget left, burning at 0.5x
        assert slo["burn_rate"] == pytest.approx(0.5)
        assert slo["budget_remaining"] == pytest.approx(0.5)

    def test_latency_sli_counts_threshold_buckets(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(
            reg,
            clock,
            targets=(
                SLOTarget("fast", sli="latency", objective=0.9, threshold=0.25),
            ),
        )
        req, lat = _families(reg)
        for _ in range(9):
            lat.observe(0.01, service="svc", kind="search", shard="0")
        lat.observe(1.0, service="svc", kind="search", shard="0")
        clock.advance(10.0)
        report = engine.report()
        (slo,) = report["slos"]
        assert slo["good"] == 9 and slo["bad"] == 1
        assert slo["burn_rate"] == pytest.approx(1.0)
        assert report["services"]["svc"]["latency"]["p50"] <= 0.25
        assert report["services"]["svc"]["latency"]["p99"] >= 1.0

    def test_degraded_sli(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(
            reg,
            clock,
            targets=(SLOTarget("full", sli="degraded", objective=0.5),),
        )
        req, _ = _families(reg)
        for _ in range(4):
            req.inc(service="svc", event="completed", shard="0")
        req.inc(service="svc", event="degraded", shard="0")
        clock.advance(10.0)
        (slo,) = engine.report()["slos"]
        assert slo["good"] == 3 and slo["bad"] == 1
        assert slo["error_rate"] == pytest.approx(0.25)
        assert slo["burn_rate"] == pytest.approx(0.5)

    def test_old_failures_age_out_of_the_window(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(reg, clock, window=100.0)
        req, _ = _families(reg)
        for _ in range(10):
            req.inc(service="svc", event="failed", shard="0")
        clock.advance(10.0)
        assert engine.report()["services"]["svc"]["availability"] == 0.0
        # two windows later the failures are history: budget restored
        clock.advance(200.0)
        report = engine.report()
        row = report["services"]["svc"]
        assert row["attempted"] == 0
        assert row["availability"] == 1.0
        (slo,) = report["slos"]
        assert slo["budget_remaining"] == 1.0

    def test_service_prefix_filters_foreign_series(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(reg, clock, service_prefix="fleet")
        req, _ = _families(reg)
        req.inc(service="fleet-shard0", event="completed", shard="0")
        req.inc(service="other", event="completed", shard="")
        clock.advance(1.0)
        assert set(engine.report()["services"]) == {"fleet-shard0"}

    def test_gauges_exported_to_the_registry(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        engine = _engine(reg, clock)
        req, _ = _families(reg)
        req.inc(service="svc", event="completed", shard="0")
        clock.advance(1.0)
        engine.report()
        avail = reg.gauge("mdw_slo_availability", labels=("service", "shard"))
        assert avail.child(service="svc", shard="0").value == 1.0
        budget = reg.gauge(
            "mdw_slo_error_budget_remaining", labels=("slo", "service", "shard")
        )
        assert budget.child(slo="avail", service="svc", shard="0").value == 1.0

    def test_burn_alert_is_edge_triggered(self):
        reg = MetricsRegistry()
        clock = FakeClock()
        journal = EventJournal(clock=clock)
        engine = _engine(reg, clock, journal=journal, burn_alert=2.0)
        req, _ = _families(reg)
        req.inc(service="svc", event="completed", shard="0")
        clock.advance(1.0)
        engine.report()
        assert journal.events(kind="slo-burn") == []
        # objective 0.9 budgets a 10% error rate; 3 failures in 4
        # requests burns at 7.5x — one alert, not one per report
        for _ in range(3):
            req.inc(service="svc", event="failed", shard="0")
        clock.advance(1.0)
        engine.report()
        clock.advance(1.0)
        engine.report()
        burns = journal.events(kind="slo-burn")
        assert len(burns) == 1
        assert burns[0].severity == "warning"
        assert burns[0].attrs["slo"] == "avail"
        assert burns[0].attrs["burn_rate"] >= 2.0
        # recovery re-arms the edge: a later storm alerts again
        clock.advance(300.0)
        engine.report()
        for _ in range(5):
            req.inc(service="svc", event="failed", shard="0")
        clock.advance(1.0)
        engine.report()
        assert len(journal.events(kind="slo-burn")) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="window"):
            SloEngine(MetricsRegistry(), window=0.0)
        with pytest.raises(ValueError, match="unique"):
            SloEngine(
                MetricsRegistry(),
                targets=(SLOTarget("x"), SLOTarget("x", sli="latency")),
            )
        with pytest.raises(ValueError, match="unknown SLI"):
            SLOTarget("x", sli="saturation")
        with pytest.raises(ValueError, match="objective"):
            SLOTarget("x", objective=1.0)


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
