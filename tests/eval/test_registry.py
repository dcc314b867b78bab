"""Tests for the experiment registry and its cache integration."""

import inspect

import pytest

from repro.eval.registry import (
    EXPERIMENTS,
    KINDS,
    experiment_names,
    get_experiment,
    render_result,
    run_experiment,
)
from repro.fleet import ArtifactCache, set_default_cache
from repro.obs import MetricsRegistry


def test_every_paper_artifact_is_registered():
    names = experiment_names()
    for required in ("fig2", "table1", "table2", "table3", "fig3", "fig5",
                     "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig8d",
                     "table4", "table5"):
        assert required in names


def test_descriptors_are_well_formed():
    for name, experiment in EXPERIMENTS.items():
        assert experiment.name == name
        assert experiment.kind in KINDS
        assert experiment.title
        # Every entry is called one way: run(seed, workers).
        inspect.signature(experiment.run).bind(0, 1)


def test_unknown_name_raises_with_suggestions():
    with pytest.raises(ValueError, match="unknown experiment"):
        get_experiment("fig99")
    with pytest.raises(ValueError, match="fig7"):
        run_experiment("fig99")


def test_table5_runs_and_renders():
    experiment = get_experiment("table5")
    result = run_experiment("table5")
    text = render_result(experiment, result)
    assert "ms" in text


def test_deprecated_free_functions_are_gone():
    """The old public ``fig*``/``table*`` wrappers were removed; the
    registry is the only dispatch surface."""
    from repro.eval import experiments

    for wrapper in (
        "fig2_motivation",
        "table1_influence_factors",
        "table2_error_models",
        "table3_prediction_rmse",
        "fig7_eight_paths",
        "fig8_environment",
        "fig8d_heterogeneity",
        "table4_energy",
        "table5_response_time",
    ):
        assert not hasattr(experiments, wrapper), wrapper


@pytest.fixture
def registry_cache(tmp_path):
    """Point the experiment suite at a fresh persistent cache directory."""
    from repro.eval import experiments

    # Resolve the trained models against the session cache *before*
    # swapping, so this test never pays for training itself.
    models = experiments.shared_models(0)

    def use(cache):
        previous = set_default_cache(cache)
        experiments._impl_fig8_environment.cache_clear()
        return previous

    first = ArtifactCache(tmp_path, metrics=MetricsRegistry())
    previous = use(first)
    first.put_error_models(models, 0)
    yield tmp_path, first, use
    use(previous)


def test_second_registry_run_hits_cache_and_skips_offline_work(registry_cache):
    """Acceptance: rerunning an experiment with an unchanged config must
    resolve every offline artifact from the cache — no training, no
    survey: not one cache miss."""
    tmp_path, first, use = registry_cache

    run_experiment("fig8c", workers=1)
    # Cold: every miss surveyed a place; the put models were never trained.
    misses = first.metrics.counter("fleet.cache.miss").value
    assert misses >= 1
    artifacts = [entry.artifact for entry in first.entries()]
    assert artifacts.count("error_models") == 1
    assert artifacts.count("place_setup") == misses

    # Fresh process simulation: new cache instance, same directory, with
    # all in-memory memoization dropped.
    second = ArtifactCache(tmp_path, metrics=MetricsRegistry())
    use(second)
    result = run_experiment("fig8c", workers=1)
    assert second.metrics.counter("fleet.cache.miss").value == 0
    assert second.metrics.counter("fleet.cache.hit").value > 0
    assert [entry.artifact for entry in second.entries()] == artifacts
    assert result.errors("uniloc2")


def test_artifact_lookups_follow_the_default_cache():
    """Swapping the default cache redirects the experiments' artifact
    lookups at once: there is no memo in front of the cache."""
    from repro.eval import experiments

    models = experiments.shared_models(0)
    setup = experiments.place_setup("office", 0)
    other = ArtifactCache(metrics=MetricsRegistry())
    other.put_error_models(models, 0)
    other.put_place_setup("office", setup)
    previous = set_default_cache(other)
    try:
        assert experiments.shared_models(0) is models
        assert experiments.place_setup("office", 0) is setup
    finally:
        set_default_cache(previous)
    assert other.metrics.counter("fleet.cache.hit").value == 2
    assert other.metrics.counter("fleet.cache.miss").value == 0
