"""End-to-end telemetry streaming through the fleet executor.

These tests exercise the tentpole path: workers spool events to
per-worker files, the parent tails and merges them into a single
``uniloc_telemetry`` log, and the metric events rebuild the same
registry the historical snapshot-return path produced — with walk
results staying byte-identical throughout.
"""

import pytest

from repro.fleet import ArtifactCache, WalkJob, run_population, run_walks
from repro.obs import MetricsRegistry
from repro.obs.telemetry import (
    TelemetrySession,
    fault_timeline,
    read_telemetry,
    registry_from_events,
    summarize_telemetry,
    telemetry_session,
)


@pytest.fixture(scope="module")
def warm_cache():
    """A memory cache pre-loaded with everything the office jobs need."""
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


def _run_with_telemetry(jobs, workers, cache, tmp_path, tag):
    log = tmp_path / f"{tag}.jsonl"
    metrics = MetricsRegistry()
    with TelemetrySession(log, run_id=f"run-{tag}", experiment="stream") as session:
        results = run_walks(
            jobs, workers=workers, cache=cache, metrics=metrics, telemetry=session
        )
    return results, metrics, log


def test_parallel_run_merges_one_correlated_log(warm_cache, tmp_path):
    jobs = _office_jobs(4)
    results, metrics, log = _run_with_telemetry(
        jobs, workers=4, cache=warm_cache, tmp_path=tmp_path, tag="par"
    )
    assert len(results) == 4
    # One merged log; spool files are gone.
    assert log.exists()
    assert not log.with_suffix(".jsonl.spool").exists()
    meta, events = read_telemetry(log)
    assert meta["run_id"] == "run-par"
    assert meta["experiment"] == "stream"
    # Every event carries the run ID and one of the four job IDs.
    job_ids = {f"job-{i:04d}" for i in range(4)}
    assert all(e["run_id"] == "run-par" for e in events)
    assert {e["job_id"] for e in events} == job_ids
    # Lifecycle: each job started, finished, and timed a fleet.walk span.
    for kind, name in (("job", "started"), ("job", "finished"), ("span", "fleet.walk")):
        stamped = {
            e["job_id"] for e in events if e["kind"] == kind and e["name"] == name
        }
        assert stamped == job_ids, (kind, name)
    # Worker IDs correlate with walk seeds from the job specs.
    started = [e for e in events if (e["kind"], e["name"]) == ("job", "started")]
    assert sorted(e["walk_seed"] for e in started) == [100, 101, 102, 103]
    assert all(e["worker_id"].startswith("worker-") for e in started)


def test_metric_events_rebuild_the_merged_registry(warm_cache, tmp_path):
    jobs = _office_jobs(3)
    historical = MetricsRegistry()
    run_walks(jobs, workers=3, cache=warm_cache, metrics=historical)
    _, streamed, log = _run_with_telemetry(
        jobs, workers=3, cache=warm_cache, tmp_path=tmp_path, tag="rebuild"
    )
    _, events = read_telemetry(log)
    rebuilt = registry_from_events(e for e in events if e["kind"] == "metric")
    # Deterministic walk counters agree across all three views.
    for name in ("fleet.walks", "fleet.steps"):
        assert (
            rebuilt.counter(name).value
            == streamed.counter(name).value
            == historical.counter(name).value
        )
    # The walk itself is untouched by how metrics travel.
    assert streamed.counter("fleet.walks").value == 3


def test_walk_results_identical_with_and_without_telemetry(warm_cache, tmp_path):
    jobs = _office_jobs(4)
    bare_serial = run_walks(jobs, workers=1, cache=warm_cache)
    serial, _, _ = _run_with_telemetry(
        jobs, workers=1, cache=warm_cache, tmp_path=tmp_path, tag="ser"
    )
    parallel, _, _ = _run_with_telemetry(
        jobs, workers=4, cache=warm_cache, tmp_path=tmp_path, tag="par"
    )
    with TelemetrySession(tmp_path / "pop.jsonl", run_id="run-pop") as session:
        population = run_population(jobs, cache=warm_cache, telemetry=session)
    for bare, *streamed in zip(bare_serial, serial, parallel, population):
        for estimator in ("wifi", "uniloc1", "uniloc2", "optsel"):
            for result in streamed:
                assert result.errors(estimator) == bare.errors(estimator)
        for result in streamed:
            assert result.usage("uniloc1") == bare.usage("uniloc1")


def _events_by_job(log, kind):
    _, events = read_telemetry(log)
    by_job = {}
    for event in events:
        if event["kind"] == kind:
            by_job.setdefault(event["job_id"], []).append(event)
    return by_job


def test_population_streams_the_serial_engines_step_events(warm_cache, tmp_path):
    jobs = _office_jobs(2)
    _, _, serial_log = _run_with_telemetry(
        jobs, workers=1, cache=warm_cache, tmp_path=tmp_path, tag="serial"
    )
    population_log = tmp_path / "population.jsonl"
    with telemetry_session(population_log, run_id="run-population"):
        results = run_population(jobs, cache=warm_cache)
    serial_steps = _events_by_job(serial_log, "step")
    population_steps = _events_by_job(population_log, "step")
    assert sorted(population_steps) == ["job-0000", "job-0001"]
    for index, result in enumerate(results):
        job_id = f"job-{index:04d}"
        steps = population_steps[job_id]
        assert len(steps) == len(result.records)
        assert [e["data"] for e in steps] == [
            e["data"] for e in serial_steps[job_id]
        ]
        assert {e["walk_seed"] for e in steps} == {jobs[index].walk_seed}
    # Each lane is framed like a serial job, metric deltas included.
    for kind in ("job", "metric"):
        serial = _events_by_job(serial_log, kind)
        population = _events_by_job(population_log, kind)
        assert {
            job: [(e["name"], e["data"].get("steps")) for e in events]
            for job, events in population.items()
        } == {
            job: [(e["name"], e["data"].get("steps")) for e in events]
            for job, events in serial.items()
        }


def test_serial_and_parallel_streams_carry_same_rollups(warm_cache, tmp_path):
    jobs = _office_jobs(2)
    _, _, serial_log = _run_with_telemetry(
        jobs, workers=1, cache=warm_cache, tmp_path=tmp_path, tag="s"
    )
    _, _, parallel_log = _run_with_telemetry(
        jobs, workers=2, cache=warm_cache, tmp_path=tmp_path, tag="p"
    )
    rollups = []
    for log in (serial_log, parallel_log):
        meta, events = read_telemetry(log)
        summary = summarize_telemetry(meta, events)
        assert {j.status for j in summary.jobs.values()} == {"finished"}
        rollups.append((summary.scheme_rollup(), summary.place_rollup()))
    assert rollups[0] == rollups[1]
    assert rollups[0][1]["office"]["jobs"] == 2


def test_fault_plan_events_stream_through_workers(warm_cache, tmp_path):
    from repro.faults import FaultPlan

    # The office place is indoor, so target wifi (gps never runs there).
    plan = FaultPlan.scheme_outage("wifi", kind="crash", seed=5)
    jobs = _office_jobs(2, fault_plan=plan)
    _, _, log = _run_with_telemetry(
        jobs, workers=2, cache=warm_cache, tmp_path=tmp_path, tag="chaos"
    )
    _, events = read_telemetry(log)
    timeline = fault_timeline(events)
    assert timeline, "chaos run produced no fault/quarantine events"
    kinds = {record["event"] for record in timeline}
    assert {"inject", "contain", "quarantine"} <= kinds
    # Replayable: every record names its job, scheme, and step.
    assert all(r["job_id"] and r["scheme"] == "wifi" for r in timeline)
    assert all(isinstance(r["step"], int) for r in timeline)
