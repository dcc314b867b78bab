"""Tests for the persistent artifact cache."""

import pytest

from repro.fleet import (
    ArtifactCache,
    config_fingerprint,
    config_hash,
    default_cache,
    place_builders,
    set_default_cache,
)
from repro.obs import MetricsRegistry


def _lookups(metrics):
    """``(hits, misses)`` the cache counted; a miss is a rebuild."""
    return (
        metrics.counter("fleet.cache.hit").value,
        metrics.counter("fleet.cache.miss").value,
    )


@pytest.fixture(scope="module")
def models():
    """The session-shared trained models (avoids retraining per test)."""
    from repro.eval.experiments import shared_models

    return shared_models(0)


def test_config_hash_is_stable_and_sensitive():
    assert config_hash() == config_hash()
    assert config_hash() != config_hash({"n_walks_per_place": 6})
    assert len(config_hash()) == 12


def test_config_fingerprint_names_the_knobs():
    fp = config_fingerprint()
    assert {"cache_version", "format_version", "indoor_spacing_m",
            "outdoor_spacing_m", "schemes"} <= set(fp)


def test_place_names_cover_all_experiment_worlds():
    names = place_builders()
    for required in ("daily", "campus", "office", "office-2", "open-space",
                     "urban-open-space", "mall"):
        assert required in names


def test_unknown_place_raises():
    with pytest.raises(ValueError, match="unknown place"):
        ArtifactCache().place_setup("atlantis", 0)


def test_memory_cache_hits_on_second_access():
    metrics = MetricsRegistry()
    cache = ArtifactCache(metrics=metrics)
    first = cache.place_setup("office", 3)
    second = cache.place_setup("office", 3)
    assert first is second
    assert _lookups(metrics) == (1, 1)  # surveyed once, then a hit


def test_persistent_cache_survives_a_fresh_instance(tmp_path):
    writer = ArtifactCache(tmp_path)
    built = writer.place_setup("office", 3)
    assert [e.artifact for e in writer.entries()] == ["place_setup"]

    metrics = MetricsRegistry()
    reader = ArtifactCache(tmp_path, metrics=metrics)
    loaded = reader.place_setup("office", 3)
    assert _lookups(metrics) == (1, 0)  # read back, never surveyed
    assert metrics.counter("fleet.cache.io.reads").value == 1
    # A hit rebuilds the identical setup: same survey, same radio draws.
    assert len(loaded.wifi_db) == len(built.wifi_db)
    walk_a, snaps_a = built.record_walk("survey", walk_seed=5, trace_seed=6)
    walk_b, snaps_b = loaded.record_walk("survey", walk_seed=5, trace_seed=6)
    assert walk_a.moments[3].position == walk_b.moments[3].position
    assert snaps_a[3].wifi_scan == snaps_b[3].wifi_scan


def test_put_error_models_makes_training_a_hit(tmp_path, models):
    metrics = MetricsRegistry()
    cache = ArtifactCache(tmp_path, metrics=metrics)
    cache.put_error_models(models, 0)
    got = cache.error_models(0)
    assert got is models
    assert _lookups(metrics) == (1, 0)  # never trained

    reloaded = ArtifactCache(tmp_path).error_models(0)
    assert set(reloaded) == set(models)
    assert reloaded["wifi"].indoor.summary.n_samples == models["wifi"].indoor.summary.n_samples


def test_clear_removes_entries_and_memo(tmp_path, models):
    cache = ArtifactCache(tmp_path)
    cache.put_error_models(models, 0)
    cache.place_setup("office", 3)
    assert len(cache.entries()) == 2
    assert cache.clear("error_models") == 1
    assert [e.artifact for e in cache.entries()] == ["place_setup"]
    assert cache.clear() == 1
    assert cache.entries() == []


def test_entry_describe_mentions_artifact_and_size(tmp_path, models):
    cache = ArtifactCache(tmp_path)
    cache.put_error_models(models, 0)
    line = cache.entries()[0].describe()
    assert "error_models" in line
    assert "KiB" in line


def test_entry_age_is_deterministic_under_frozen_clock(tmp_path, models):
    from repro.obs import clock

    cache = ArtifactCache(tmp_path)
    cache.put_error_models(models, 0)
    entry = cache.entries()[0]
    # Explicit `now` pins the age exactly...
    assert entry.age_s(now=entry.mtime + 120.0) == 120.0
    assert "2.0 min old" in entry.describe(now=entry.mtime + 120.0)
    # ...and so does freezing the process clock (the DET002 fix: the
    # entry reads repro.obs.clock, never time.time directly).
    with clock.override(wall=entry.mtime + 600.0):
        assert entry.age_s() == 600.0
        assert "10.0 min old" in entry.describe()


def test_entry_age_never_negative(tmp_path, models):
    cache = ArtifactCache(tmp_path)
    cache.put_error_models(models, 0)
    entry = cache.entries()[0]
    assert entry.age_s(now=entry.mtime - 3600.0) == 0.0


def test_metrics_count_hits_and_misses(tmp_path):
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    cache = ArtifactCache(tmp_path, metrics=metrics)
    cache.place_setup("office", 3)
    cache.place_setup("office", 3)
    assert metrics.counter("fleet.cache.miss").value == 1
    assert metrics.counter("fleet.cache.hit").value == 1


def test_default_cache_swap_restores():
    replacement = ArtifactCache()
    previous = set_default_cache(replacement)
    try:
        assert default_cache() is replacement
    finally:
        set_default_cache(previous)


def test_warm_builds_models_and_requested_places(tmp_path, models):
    cache = ArtifactCache(tmp_path)
    cache.put_error_models(models, 0)  # pre-seed so warm() needn't train
    warmed = cache.warm(places=["office"], seed=0)
    assert len(warmed) == 2
    artifacts = sorted(e.artifact for e in cache.entries())
    assert artifacts == ["error_models", "place_setup"]
    with pytest.raises(ValueError, match="unknown place"):
        cache.warm(places=["atlantis"])
