"""``repro.obs`` -- structured tracing, metrics, telemetry, provenance.

The telemetry subsystem behind every measurement-driven decision in the
reproduction: a deterministic span/event tracer timestamped from the
*simulated* clock (:mod:`repro.obs.trace`), a metrics registry with
counters/gauges/histograms (:mod:`repro.obs.metrics`), exporters for
JSONL, Chrome ``trace_event``, and Prometheus text formats
(:mod:`repro.obs.export`), a continuous flow-telemetry pipeline with
sliding-window aggregates and NetFlow-style flow-cache sampling
(:mod:`repro.obs.telemetry`), and SLO burn-rate alerting plus drift
feeds over that stream (:mod:`repro.obs.slo`).  ``tango-report``
(:mod:`repro.tools.report`) reads the trace, telemetry and alert files
back.

Instrumented components take one :class:`Observer` bundling the tracer,
metrics registry, collector and race sanitizer, and default to
:data:`NULL_OBSERVER` (the disabled null objects :data:`NULL_TRACER`,
:data:`NULL_METRICS`, :data:`NULL_TELEMETRY`, no sanitizer), so
telemetry off means a single attribute check on the hot paths and zero
recorded state.
"""

from repro.obs.export import (
    prometheus_text,
    read_jsonl,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    DEFAULT_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    RATIO_BUCKETS,
    default_registry,
    scoped,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.slo import (
    BurnWindow,
    DEFAULT_BURN_WINDOWS,
    DriftFeed,
    SloPolicy,
    SloTarget,
    TelemetryAlert,
    default_slo_targets,
    read_alerts_jsonl,
    write_alerts_jsonl,
)
from repro.obs.telemetry import (
    FlowCache,
    FlowCacheConfig,
    FlowRecord,
    NULL_TELEMETRY,
    NullTelemetryCollector,
    SlidingWindow,
    TelemetryCollector,
    TelemetrySample,
    read_telemetry_jsonl,
    summarize_telemetry,
    timeseries,
    write_telemetry_jsonl,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
)

__all__ = [
    "BurnWindow",
    "COUNT_BUCKETS",
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "DEFAULT_BURN_WINDOWS",
    "DriftFeed",
    "FlowCache",
    "FlowCacheConfig",
    "FlowRecord",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBSERVER",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTelemetryCollector",
    "NullTracer",
    "Observer",
    "RATIO_BUCKETS",
    "SlidingWindow",
    "SloPolicy",
    "SloTarget",
    "Span",
    "TelemetryAlert",
    "TelemetryCollector",
    "TelemetrySample",
    "TraceEvent",
    "Tracer",
    "default_registry",
    "default_slo_targets",
    "prometheus_text",
    "read_alerts_jsonl",
    "read_jsonl",
    "read_telemetry_jsonl",
    "scoped",
    "summarize_events",
    "summarize_telemetry",
    "timeseries",
    "to_chrome_trace",
    "write_alerts_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_telemetry_jsonl",
]
