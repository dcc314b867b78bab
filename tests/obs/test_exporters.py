"""Tests for the metric exporter (Prometheus text format)."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.exporters import PrometheusExporter, prometheus_name


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("uniloc.selected.wifi").inc(12)
    registry.gauge("fleet.worker_pid").set(41.0)
    for v in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("uniloc.step_ms").observe(v)
    return registry


def test_prometheus_name_maps_dotted_grammar():
    assert prometheus_name("uniloc.selected.wifi") == "uniloc_selected_wifi"
    assert prometheus_name("a-b.c d") == "a_b_c_d"


def _parse_prometheus(text):
    """Minimal text-exposition parser: returns ({sample: value}, types)."""
    samples = {}
    types = {}
    for line in text.splitlines():
        assert line, "no blank lines in exposition output"
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        name, value = line.rsplit(" ", 1)
        float(value)  # must parse as a number
        samples[name] = float(value)
    return samples, types


def test_prometheus_export_parses_and_is_complete():
    text = PrometheusExporter().export(_sample_registry())
    assert text.endswith("\n")
    samples, types = _parse_prometheus(text)
    assert types == {
        "fleet_worker_pid": "gauge",
        "uniloc_selected_wifi_total": "counter",
        "uniloc_step_ms": "summary",
    }
    assert samples["uniloc_selected_wifi_total"] == 12
    assert samples["fleet_worker_pid"] == 41.0
    assert samples['uniloc_step_ms{quantile="0.5"}'] == pytest.approx(2.5)
    assert samples["uniloc_step_ms_sum"] == pytest.approx(10.0)
    assert samples["uniloc_step_ms_count"] == 4


def test_prometheus_empty_histogram_skips_quantiles():
    registry = MetricsRegistry()
    registry.histogram("uniloc.idle_ms")
    text = PrometheusExporter().export(registry)
    assert "quantile" not in text
    assert "uniloc_idle_ms_count 0" in text


def test_prometheus_empty_registry_exports_empty_string():
    assert PrometheusExporter().export(MetricsRegistry()) == ""
