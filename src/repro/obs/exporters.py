"""The metric exporter: a registry as Prometheus text.

The :class:`~repro.obs.metrics.MetricsRegistry` is the in-process
source of truth, and a telemetry log's metric events are already its
lossless JSONL form (:func:`repro.obs.telemetry.registry_from_events`
reads them back).  :class:`PrometheusExporter` serializes it for the
outside world in the Prometheus text exposition format (``# TYPE``/
``# HELP`` comment lines, ``_total``-suffixed counters, histograms as
summaries with ``quantile`` labels plus ``_sum`` and ``_count``
series), so a scrape endpoint or a textfile collector can ingest a
run's metrics unchanged.

Metric names keep their dotted grammar internally
(``uniloc.selected.wifi``); the Prometheus exporter maps them to the
legal ``[a-zA-Z0-9_]`` charset (``uniloc_selected_wifi``) at the edge,
which is where naming conventions are supposed to be translated.
"""

from __future__ import annotations

import re

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Quantiles a histogram is exposed at (the paper tables' trio).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_]")


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
