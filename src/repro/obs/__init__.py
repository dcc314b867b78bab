"""Observability: metrics, one telemetry event stream, reporting.

The layer is dependency-free (standard library only) and designed so
instrumentation can stay permanently wired into the hot paths:
:data:`NOOP_EMITTER` is the default sink everywhere and its disabled
calls cost one attribute lookup, and the framework's per-stage timings
are plain :mod:`repro.obs.clock` reads taken on every step.  Every
recorded event — metric deltas, spans, faults, job lifecycle, and each
scored step decision with its stage timings — goes into one
``uniloc_telemetry`` JSONL stream (:mod:`repro.obs.telemetry`), written
by one :class:`TelemetryWriter` and read back through one decoder by
:func:`read_telemetry` and :func:`follow_telemetry`;
:mod:`repro.obs.report` aggregates its ``step`` events.  The worker
spools of a fleet run stay inside :mod:`repro.obs.telemetry`.  See
README's "Observability" section for the event schema and CLI workflow.
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
    TelemetryWriter,
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

__all__ = [
    "EXPORTERS",
    "NOOP_EMITTER",
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
    "PrometheusExporter",
    "SamplingProfiler",
    "SchemeSummary",
    "TelemetrySession",
    "TelemetryWriter",
    "Timer",
    "TraceSummary",
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
