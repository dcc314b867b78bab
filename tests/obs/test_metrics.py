"""Tests for the metrics registry: counters, gauges, histograms, timers."""

import numpy as np
import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, percentile


def test_counter_increments():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_gauge_set_and_add():
    g = Gauge()
    g.set(3.5)
    g.add(-1.0)
    assert g.value == pytest.approx(2.5)


@pytest.mark.parametrize("p", [0, 10, 25, 50, 75, 90, 99, 100])
def test_percentile_matches_numpy(p):
    rng = np.random.default_rng(7)
    values = rng.exponential(5.0, size=137).tolist()
    assert percentile(values, p) == pytest.approx(
        float(np.percentile(values, p, method="linear"))
    )


def test_percentile_single_value_and_errors():
    assert percentile([4.2], 90) == 4.2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_histogram_summary():
    h = Histogram()
    for v in range(1, 101):
        h.observe(float(v))
    s = h.summary()
    assert s["count"] == 100
    assert s["mean"] == pytest.approx(50.5)
    assert s["p50"] == pytest.approx(np.percentile(range(1, 101), 50))
    assert s["p90"] == pytest.approx(np.percentile(range(1, 101), 90))
    assert s["p99"] == pytest.approx(np.percentile(range(1, 101), 99))
    assert s["min"] == 1.0
    assert s["max"] == 100.0


def test_empty_histogram():
    h = Histogram()
    assert h.summary() == {"count": 0}
    with pytest.raises(ValueError):
        h.mean
    with pytest.raises(ValueError):
        h.percentile(50)


def test_timer_records_elapsed_ms():
    registry = MetricsRegistry()
    with registry.timer("op_ms") as t:
        pass
    assert t.elapsed_ms >= 0.0
    assert registry.histogram("op_ms").count == 1


def test_timer_reads_the_injectable_clock():
    """``clock.override`` scripts every timer, e.g. the cache's I/O ms."""
    from repro.obs import clock

    ticks = iter([10.0, 10.25, 20.0, 20.5])
    registry = MetricsRegistry()
    with clock.override(monotonic=lambda: next(ticks)):
        with registry.timer("fleet.cache.io.read_ms") as first:
            pass
        with registry.timer("fleet.cache.io.read_ms"):
            pass
    assert first.elapsed_ms == 250.0
    assert registry.histogram("fleet.cache.io.read_ms").values() == [250.0, 500.0]


def test_registry_reuses_instruments():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.counter("a").inc()
    registry.counter("a").inc()
    assert registry.counter("a").value == 2


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def test_registry_as_dict_and_render():
    registry = MetricsRegistry()
    registry.counter("steps").inc(3)
    registry.gauge("tau").set(2.5)
    registry.histogram("lat_ms").observe(1.0)
    registry.histogram("lat_ms").observe(3.0)
    flat = registry.as_dict()
    assert flat["steps"] == 3
    assert flat["tau"] == 2.5
    assert flat["lat_ms"]["count"] == 2
    rendered = registry.render()
    assert "steps" in rendered
    assert "lat_ms" in rendered
    assert "p99" in rendered


def test_snapshot_is_lossless_and_pickle_safe():
    import pickle

    registry = MetricsRegistry()
    registry.counter("walks").inc(2)
    registry.gauge("pid").set(123.0)
    registry.histogram("lat_ms").observe(1.0)
    registry.histogram("lat_ms").observe(9.0)
    snap = pickle.loads(pickle.dumps(registry.snapshot()))
    assert snap["walks"] == {"kind": "counter", "value": 2}
    assert snap["pid"] == {"kind": "gauge", "value": 123.0}
    assert snap["lat_ms"] == {"kind": "histogram", "values": [1.0, 9.0]}


def test_merge_snapshot_combines_registries_exactly():
    worker_a, worker_b, parent = (
        MetricsRegistry(),
        MetricsRegistry(),
        MetricsRegistry(),
    )
    worker_a.counter("walks").inc()
    worker_a.histogram("lat_ms").observe(1.0)
    worker_b.counter("walks").inc()
    worker_b.histogram("lat_ms").observe(3.0)
    worker_b.gauge("pid").set(7.0)
    parent.merge_snapshot(worker_a.snapshot())
    parent.merge_snapshot(worker_b.snapshot())
    assert parent.counter("walks").value == 2
    assert parent.histogram("lat_ms").values() == [1.0, 3.0]
    assert parent.histogram("lat_ms").percentile(50) == 2.0
    assert parent.gauge("pid").value == 7.0


def test_merge_snapshot_rejects_unknown_kind_and_kind_clash():
    parent = MetricsRegistry()
    with pytest.raises(TypeError):
        parent.merge_snapshot({"x": {"kind": "meter", "value": 1}})
    parent.counter("y")
    with pytest.raises(TypeError):
        parent.merge_snapshot({"y": {"kind": "histogram", "values": [1.0]}})


def test_merge_snapshot_disjoint_histogram_keys():
    worker_a, worker_b, parent = (
        MetricsRegistry(),
        MetricsRegistry(),
        MetricsRegistry(),
    )
    worker_a.histogram("a_ms").observe(1.0)
    worker_b.histogram("b_ms").observe(2.0)
    parent.merge_snapshot(worker_a.snapshot())
    parent.merge_snapshot(worker_b.snapshot())
    assert parent.histogram("a_ms").values() == [1.0]
    assert parent.histogram("b_ms").values() == [2.0]
    assert len(parent) == 2


def test_merge_empty_snapshot_is_a_no_op():
    parent = MetricsRegistry()
    parent.counter("walks").inc(3)
    before = parent.snapshot()
    parent.merge_snapshot(MetricsRegistry().snapshot())
    parent.merge_snapshot({})
    assert parent.snapshot() == before


def test_merge_into_empty_registry_round_trips_exactly():
    source = MetricsRegistry()
    source.counter("walks").inc(5)
    source.gauge("pid").set(42.0)
    source.histogram("lat_ms").observe(1.5)
    source.histogram("lat_ms").observe(0.5)
    target = MetricsRegistry()
    target.merge_snapshot(source.snapshot())
    assert target.snapshot() == source.snapshot()
    # Re-merging the same snapshot is additive for counters and
    # histograms, last-write-wins for gauges — never silently dropped.
    target.merge_snapshot(source.snapshot())
    assert target.counter("walks").value == 10
    assert target.histogram("lat_ms").count == 4
    assert target.gauge("pid").value == 42.0


def test_merged_histogram_percentiles_match_single_process():
    rng = np.random.default_rng(3)
    values = rng.exponential(5.0, size=200).tolist()
    single = MetricsRegistry()
    for v in values:
        single.histogram("lat_ms").observe(v)
    parent = MetricsRegistry()
    # Shard the observations over four "workers" in interleaved order.
    for shard in range(4):
        worker = MetricsRegistry()
        for v in values[shard::4]:
            worker.histogram("lat_ms").observe(v)
        parent.merge_snapshot(worker.snapshot())
    merged = parent.histogram("lat_ms")
    reference = single.histogram("lat_ms")
    assert merged.count == reference.count == len(values)
    for p in (50, 90, 99):
        assert merged.percentile(p) == pytest.approx(reference.percentile(p))
    assert sorted(merged.values()) == sorted(reference.values())
