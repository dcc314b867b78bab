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
:func:`read_telemetry` and :func:`follow_telemetry`.  The worker
spools of a fleet run stay inside :mod:`repro.obs.telemetry`.

This package exports only what a walker runs: the clock, the metrics
and the telemetry stream.  The post-run tools are imported from their
own modules, so a walker process never loads them:
:mod:`repro.obs.report` summarizes a whole log in one pass (``repro
report``), :mod:`repro.obs.exporters` serializes the registry its
metric events rebuild as Prometheus text (``repro telemetry export``),
and :mod:`repro.obs.profiler` is the sampling profiler behind ``repro
profile``.  See README's "Observability" section for the event schema
and CLI workflow.
"""

from repro.obs import clock
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    percentile,
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
    set_session,
    telemetry_session,
)

__all__ = [
    "NOOP_EMITTER",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "Counter",
    "EventContext",
    "EventEmitter",
    "EventSinkLike",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopEmitter",
    "TelemetrySession",
    "TelemetryWriter",
    "Timer",
    "apply_metric_event",
    "clock",
    "current_session",
    "decision_to_dict",
    "fault_timeline",
    "follow_telemetry",
    "format_event",
    "iter_telemetry",
    "percentile",
    "read_telemetry",
    "registry_from_events",
    "set_session",
    "telemetry_session",
]
