"""Metric exporters: one registry, many wire formats.

The :class:`~repro.obs.metrics.MetricsRegistry` is the in-process
source of truth; exporters serialize it for the outside world behind a
common :class:`Exporter` protocol:

* :class:`PrometheusExporter` — the Prometheus text exposition format
  (``# TYPE``/``# HELP`` comment lines, ``_total``-suffixed counters,
  histograms as summaries with ``quantile`` labels plus ``_sum`` and
  ``_count`` series), so a scrape endpoint or a textfile collector can
  ingest a run's metrics unchanged.
* :class:`JsonlExporter` — one JSON line per instrument under the
  shared :mod:`repro.formats` header, the machine-readable twin of
  ``MetricsRegistry.as_dict()``.

Metric names keep their dotted grammar internally
(``uniloc.selected.wifi``); the Prometheus exporter maps them to the
legal ``[a-zA-Z0-9_]`` charset (``uniloc_selected_wifi``) at the edge,
which is where naming conventions are supposed to be translated.
"""

from __future__ import annotations

import json
import re
from typing import Protocol

from repro.formats import format_header
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Format tag / version stamped on JSONL metric exports.
METRICS_EXPORT_FORMAT = "uniloc_metrics"
METRICS_EXPORT_VERSION = 1

#: Quantiles a histogram is exposed at (the paper tables' trio).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_]")


class Exporter(Protocol):
    """Structural type of a metrics serializer."""

    #: Short format name (CLI ``--format`` values dispatch on it).
    name: str

    def export(self, registry: MetricsRegistry) -> str:
        """Serialize every instrument in the registry."""
        ...


def prometheus_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    return _ILLEGAL.sub("_", name)


def _fmt(value: float) -> str:
    """Format a sample value (Prometheus wants plain decimal floats)."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class PrometheusExporter:
    """Writes the text exposition format (content-type 0.0.4)."""

    name = "prometheus"

    def export(self, registry: MetricsRegistry) -> str:
        """Serialize the registry; counters end in ``_total``."""
        lines: list[str] = []
        for metric_name, instrument in registry:
            base = prometheus_name(metric_name)
            if isinstance(instrument, Counter):
                lines.append(f"# HELP {base}_total {metric_name}")
                lines.append(f"# TYPE {base}_total counter")
                lines.append(f"{base}_total {_fmt(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# HELP {base} {metric_name}")
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {_fmt(instrument.value)}")
            elif isinstance(instrument, Histogram):
                lines.append(f"# HELP {base} {metric_name}")
                lines.append(f"# TYPE {base} summary")
                if instrument.count:
                    for quantile in SUMMARY_QUANTILES:
                        value = instrument.percentile(quantile * 100.0)
                        lines.append(
                            f'{base}{{quantile="{quantile}"}} {_fmt(value)}'
                        )
                lines.append(f"{base}_sum {_fmt(instrument.total)}")
                lines.append(f"{base}_count {_fmt(instrument.count)}")
        return "\n".join(lines) + "\n" if lines else ""


class JsonlExporter:
    """One JSON line per instrument, header line first."""

    name = "jsonl"

    def export(self, registry: MetricsRegistry) -> str:
        """Serialize the registry as headered JSONL."""
        lines = [
            json.dumps(
                {
                    "type": "meta",
                    **format_header(
                        METRICS_EXPORT_FORMAT, METRICS_EXPORT_VERSION
                    ),
                },
                sort_keys=True,
            )
        ]
        for metric_name, instrument in registry:
            if isinstance(instrument, Histogram):
                record = {
                    "name": metric_name,
                    "kind": "histogram",
                    **instrument.summary(),
                }
            elif isinstance(instrument, Counter):
                record = {
                    "name": metric_name,
                    "kind": "counter",
                    "value": instrument.value,
                }
            else:
                record = {
                    "name": metric_name,
                    "kind": "gauge",
                    "value": instrument.value,
                }
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"


#: The exporter registry the CLI dispatches ``--format`` through.
EXPORTERS: dict[str, Exporter] = {
    exporter.name: exporter
    for exporter in (PrometheusExporter(), JsonlExporter())
}


def get_exporter(name: str) -> Exporter:
    """Return the exporter registered under ``name``.

    Raises:
        ValueError: for an unknown exporter name.
    """
    try:
        return EXPORTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown exporter {name!r}; known: {', '.join(sorted(EXPORTERS))}"
        ) from None
