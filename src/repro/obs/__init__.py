"""Observability: metrics registry, tracing, and query profiling.

The warehouse's one-stop instrumentation layer (see
``docs/observability.md`` for the operator-facing catalog):

* :mod:`repro.obs.registry` — process-global, thread/fork-safe
  :class:`MetricsRegistry` of labeled counters, gauges, and fixed-bucket
  histograms;
* :mod:`repro.obs.exporter` — Prometheus text-format rendering, a
  validating exposition parser, and JSON snapshots;
* :mod:`repro.obs.trace` — contextvar-based nested spans with sampling
  and Chrome-trace export;
* :mod:`repro.obs.profile` — per-query execution statistics threaded
  through the evaluator;
* :mod:`repro.obs.journal` — the bounded ring of operational events
  (breaker transitions, worker restarts, shard replacement).

This package is a **leaf**: it imports only the standard library, so
every other subsystem (server, sparql, etl, reasoning, resilience) can
instrument itself without import cycles.
"""

from repro.obs.exporter import (
    ExpositionError,
    parse_exposition,
    render_prometheus,
    snapshot_json,
)
from repro.obs.journal import Event, EventJournal, get_journal
from repro.obs.profile import (
    OperatorStats,
    QueryProfile,
    count_rows,
    current_profile,
    profile_scope,
)
from repro.obs.registry import (
    LATENCY_BUCKETS,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    TraceValidationError,
    active_tracer,
    capture,
    install_tracer,
    span,
    trace_scope,
    tracing,
    uninstall_tracer,
    validate_chrome_trace,
)

__all__ = [
    "ExpositionError",
    "parse_exposition",
    "render_prometheus",
    "snapshot_json",
    "Event",
    "EventJournal",
    "get_journal",
    "OperatorStats",
    "QueryProfile",
    "count_rows",
    "current_profile",
    "profile_scope",
    "LATENCY_BUCKETS",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "Span",
    "TraceContext",
    "Tracer",
    "TraceValidationError",
    "active_tracer",
    "capture",
    "install_tracer",
    "span",
    "trace_scope",
    "tracing",
    "uninstall_tracer",
    "validate_chrome_trace",
]
