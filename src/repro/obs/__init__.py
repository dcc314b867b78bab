"""Observability: metrics, tracing, one telemetry event stream, reporting.

The layer is dependency-free (standard library only) and designed so
instrumentation can stay permanently wired into the hot paths:
:data:`NOOP_TRACER` and :data:`NOOP_EMITTER` are the defaults
everywhere and their disabled calls cost one attribute lookup.  Every
recorded event — metric deltas, spans, faults, job lifecycle, and each
scored step decision — goes into one ``uniloc_telemetry`` JSONL stream
(:mod:`repro.obs.telemetry`); :mod:`repro.obs.report` aggregates its
``step`` events.  See README's "Observability" section for the event
schema and CLI workflow.
"""

from repro.obs import clock
from repro.obs.exporters import (
    EXPORTERS,
    Exporter,
    JsonlExporter,
    PrometheusExporter,
    get_exporter,
    prometheus_name,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    percentile,
)
from repro.obs.profiler import (
    HotFunction,
    SamplingProfiler,
    profile_callable,
)
from repro.obs.report import (
    SchemeSummary,
    TraceSummary,
    render_report,
    summarize_steps,
    summarize_trace,
)
from repro.obs.telemetry import (
    NOOP_EMITTER,
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    EventContext,
    EventEmitter,
    EventSinkLike,
    NoopEmitter,
    TelemetrySession,
    TelemetrySpool,
    TelemetryWriter,
    WorkerTelemetry,
    apply_metric_event,
    current_session,
    decision_to_dict,
    fault_timeline,
    follow_telemetry,
    format_event,
    iter_telemetry,
    read_telemetry,
    registry_from_events,
    render_telemetry_summary,
    set_session,
    summarize_telemetry,
    telemetry_session,
)
from repro.obs.tracing import NOOP_TRACER, NoopTracer, Span, Tracer, TracerLike

__all__ = [
    "EXPORTERS",
    "NOOP_EMITTER",
    "NOOP_TRACER",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "Counter",
    "EventContext",
    "EventEmitter",
    "EventSinkLike",
    "Exporter",
    "Gauge",
    "Histogram",
    "HotFunction",
    "JsonlExporter",
    "MetricsRegistry",
    "NoopEmitter",
    "NoopTracer",
    "PrometheusExporter",
    "SamplingProfiler",
    "SchemeSummary",
    "Span",
    "TelemetrySession",
    "TelemetrySpool",
    "TelemetryWriter",
    "Timer",
    "TraceSummary",
    "Tracer",
    "TracerLike",
    "WorkerTelemetry",
    "apply_metric_event",
    "clock",
    "current_session",
    "decision_to_dict",
    "fault_timeline",
    "follow_telemetry",
    "format_event",
    "get_exporter",
    "iter_telemetry",
    "percentile",
    "profile_callable",
    "prometheus_name",
    "read_telemetry",
    "registry_from_events",
    "render_report",
    "render_telemetry_summary",
    "set_session",
    "summarize_steps",
    "summarize_telemetry",
    "summarize_trace",
    "telemetry_session",
]
