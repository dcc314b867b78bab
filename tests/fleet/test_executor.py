"""Determinism and fan-out tests for the fleet walk executor."""

import pytest

from repro.fleet import ArtifactCache, WalkJob, iter_walks, run_walks
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def warm_cache():
    """A memory cache pre-loaded with everything the office jobs need.

    Fork-started workers inherit this warm cache, so the parallel tests
    never train or survey inside a worker.
    """
    from repro.eval.experiments import shared_models

    cache = ArtifactCache()
    cache.put_error_models(shared_models(0), 0)
    cache.place_setup("office", 3)
    return cache


def _office_jobs(n=4, **overrides):
    return [
        WalkJob(
            place_name="office",
            path_name="survey",
            setup_seed=3,
            models_seed=0,
            walk_seed=100 + idx,
            trace_seed=200 + idx,
            max_length=25.0,
            **overrides,
        )
        for idx in range(n)
    ]


def test_single_job_runs_inline(warm_cache):
    results = run_walks(_office_jobs(1), workers=8, cache=warm_cache)
    assert len(results) == 1
    assert results[0].errors("uniloc2")


def test_serial_equals_parallel_byte_for_byte(warm_cache):
    jobs = _office_jobs(4)
    serial = run_walks(jobs, workers=1, cache=warm_cache)
    parallel = run_walks(jobs, workers=4, cache=warm_cache)
    for a, b in zip(serial, parallel):
        for estimator in ("wifi", "uniloc1", "uniloc2", "optsel"):
            assert a.errors(estimator) == b.errors(estimator)
        assert a.usage("uniloc1") == b.usage("uniloc1")


def test_results_come_back_in_job_order(warm_cache):
    jobs = _office_jobs(3)
    results = run_walks(jobs, workers=3, cache=warm_cache)
    # walk_seed differs per job, so each result is distinct; order must
    # match the job list regardless of completion order.
    reference = run_walks(jobs, workers=1, cache=warm_cache)
    for got, want in zip(results, reference):
        assert got.errors("uniloc2") == want.errors("uniloc2")


def test_iter_walks_yields_every_index(warm_cache):
    jobs = _office_jobs(3)
    seen = {index for index, _ in iter_walks(jobs, workers=3, cache=warm_cache)}
    assert seen == {0, 1, 2}


def test_parallel_metrics_merge_into_one_registry(warm_cache):
    jobs = _office_jobs(4)
    metrics = MetricsRegistry()
    results = run_walks(jobs, workers=4, cache=warm_cache, metrics=metrics)
    assert metrics.counter("fleet.walks").value == 4
    assert metrics.counter("fleet.steps").value == sum(
        len(r.records) for r in results
    )
    # Every worker resolved both artifacts from the warm cache.
    assert metrics.counter("fleet.cache.hit").value == 8
    assert metrics.counter("fleet.cache.miss").value == 0


def test_serial_metrics_match_parallel(warm_cache):
    jobs = _office_jobs(2)
    serial, parallel = MetricsRegistry(), MetricsRegistry()
    run_walks(jobs, workers=1, cache=warm_cache, metrics=serial)
    run_walks(jobs, workers=2, cache=warm_cache, metrics=parallel)
    assert (
        serial.counter("fleet.steps").value
        == parallel.counter("fleet.steps").value
    )
    assert serial.counter("fleet.walks").value == 2
    assert parallel.counter("fleet.walks").value == 2


def test_compact_strips_posterior_shapes_only(warm_cache):
    [compact] = run_walks(_office_jobs(1), cache=warm_cache)
    [full] = run_walks(
        _office_jobs(1, compact=False), cache=warm_cache
    )
    compact_outputs = [
        o for r in compact.records for o in r.decision.outputs.values() if o
    ]
    assert all(o.samples is None and o.candidates is None for o in compact_outputs)
    full_outputs = [
        o for r in full.records for o in r.decision.outputs.values() if o
    ]
    assert any(o.samples is not None for o in full_outputs)
    # Compaction must not change a single scored number.
    assert compact.errors("uniloc2") == full.errors("uniloc2")
    assert compact.usage("uniloc1") == full.usage("uniloc1")


def test_start_noise_is_part_of_the_job_value(warm_cache):
    [clean] = run_walks(_office_jobs(1), cache=warm_cache)
    [noisy] = run_walks(
        _office_jobs(1, start_noise_m=3.0), cache=warm_cache
    )
    assert clean.errors("motion") != noisy.errors("motion")
    # And the noisy run is itself reproducible.
    [noisy2] = run_walks(_office_jobs(1, start_noise_m=3.0), cache=warm_cache)
    assert noisy.errors("motion") == noisy2.errors("motion")


def test_for_seed_is_the_protocol_job():
    """``WalkJob.for_seed`` is the job the chaos matrix and ``repro run
    PLACE PATH`` used to spell out field by field."""
    from repro.faults.plan import FaultPlan

    assert WalkJob.for_seed("office", "survey", 5) == WalkJob(
        "office", "survey", setup_seed=8, models_seed=5, walk_seed=5, trace_seed=6
    )
    plan = FaultPlan.scheme_outage("wifi", kind="crash", seed=2)
    assert WalkJob.for_seed(
        "daily", "path1", 2, gps_duty_cycling=False, fault_plan=plan
    ) == WalkJob(
        place_name="daily",
        path_name="path1",
        setup_seed=5,
        models_seed=2,
        walk_seed=2,
        trace_seed=3,
        gps_duty_cycling=False,
        fault_plan=plan,
    )
    # Overrides win over the protocol's own seeds.
    assert WalkJob.for_seed("campus", "path2", 0, walk_seed=7) == WalkJob(
        "campus", "path2", setup_seed=3, models_seed=0, walk_seed=7, trace_seed=1
    )
