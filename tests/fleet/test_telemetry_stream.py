"""End-to-end telemetry streaming through the fleet executor.

Workers spool events to per-worker files and the parent tails and
merges them into a single ``uniloc_telemetry`` log.  Both engines —
inline and pool — frame each job the same way, so the log's metric
events rebuild the caller's registry, the caller's registry is the same
with or without a session, every started job is closed, and walk
results stay byte-identical throughout.  The run report summarizes
such a log from its events, so its counts match the rebuilt registry
on a complete log and survive a job that raised.
"""

from dataclasses import replace

import pytest

from repro.fleet import ArtifactCache, WalkJob, run_walks
from repro.obs import MetricsRegistry
from repro.obs.report import summarize_log
from repro.obs.telemetry import (
    TelemetrySession,
    fault_timeline,
    read_telemetry,
    registry_from_events,
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
    # With a session, the caller's registry is exactly what the log says.
    counters = {
        name for name, spec in streamed.snapshot().items()
        if spec["kind"] == "counter"
    }
    assert counters
    assert counters == {
        name for name, spec in rebuilt.snapshot().items()
        if spec["kind"] == "counter"
    }
    for name in counters:
        assert rebuilt.counter(name).value == streamed.counter(name).value, name


def test_walk_results_identical_with_and_without_telemetry(warm_cache, tmp_path):
    jobs = _office_jobs(4)
    bare_serial = run_walks(jobs, workers=1, cache=warm_cache)
    serial, _, _ = _run_with_telemetry(
        jobs, workers=1, cache=warm_cache, tmp_path=tmp_path, tag="ser"
    )
    parallel, _, _ = _run_with_telemetry(
        jobs, workers=4, cache=warm_cache, tmp_path=tmp_path, tag="par"
    )
    for bare, *streamed in zip(bare_serial, serial, parallel):
        for estimator in ("wifi", "uniloc1", "uniloc2", "optsel"):
            for result in streamed:
                assert result.errors(estimator) == bare.errors(estimator)
        for result in streamed:
            assert result.usage("uniloc1") == bare.usage("uniloc1")


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
        summary = summarize_log(*read_telemetry(log))
        assert summary.unfinished == []
        rollups.append((summary.schemes, summary.places))
    assert rollups[0] == rollups[1]
    assert rollups[0][1]["office"]["jobs"] == 2


def _scheme_counters(registry):
    """The run block's per-scheme counts, read from registry counters."""
    labels = (
        ("uniloc.selected.", "selected"),
        ("uniloc.faults.", "faults"),
        ("uniloc.quarantine.entered.", "quarantines"),
        ("uniloc.quarantine.skipped.", "skipped"),
    )
    counts = {}
    for name, spec in registry.snapshot().items():
        for prefix, label in labels:
            if name.startswith(prefix) and spec["value"]:
                scheme = name[len(prefix):].partition(".")[0]
                entry = counts.setdefault(
                    scheme,
                    {"selected": 0, "faults": 0, "quarantines": 0, "skipped": 0},
                )
                entry[label] += spec["value"]
    return counts


def test_run_block_counts_equal_the_rebuilt_registry(warm_cache, tmp_path):
    """On a complete chaos-style log the two sources agree."""
    from repro.faults import FaultPlan

    baseline, wifi, motion = _office_jobs(3, gps_duty_cycling=False)
    jobs = [
        baseline,
        replace(wifi, fault_plan=FaultPlan.scheme_outage("wifi", seed=1)),
        replace(motion, fault_plan=FaultPlan.scheme_outage("motion", kind="nan")),
    ]
    _, _, log = _run_with_telemetry(
        jobs, workers=2, cache=warm_cache, tmp_path=tmp_path, tag="chaos"
    )
    meta, events = read_telemetry(log)
    summary = summarize_log(meta, events)
    assert summary.unfinished == []
    assert summary.schemes["wifi"]["quarantines"] > 0
    assert summary.schemes["motion"]["faults"] > 0
    assert summary.schemes == _scheme_counters(registry_from_events(events))
    steps = registry_from_events(events).counter("fleet.steps").value
    assert summary.places == {"office": {"jobs": 3, "steps": steps}}


def test_a_job_that_raises_keeps_its_steps_and_faults(
    warm_cache, tmp_path, monkeypatch
):
    """Its log has no ``job/finished`` and no metric events, yet the
    report still counts every streamed step, fault and quarantine."""
    from repro.eval import runner
    from repro.faults import FaultPlan

    n_steps = 12
    scored = []

    def score_then_raise(place, moment, decision):
        if len(scored) == n_steps:
            raise RuntimeError("scorer crashed")
        scored.append(moment.index)
        return real_score_step(place, moment, decision)

    real_score_step = runner.score_step
    monkeypatch.setattr(runner, "score_step", score_then_raise)
    (job,) = _office_jobs(1, fault_plan=FaultPlan.scheme_outage("wifi", seed=5))
    log = tmp_path / "raised.jsonl"
    with TelemetrySession(log, run_id="run-raised") as session:
        with pytest.raises(RuntimeError, match="scorer crashed"):
            run_walks([job], cache=warm_cache, telemetry=session)
    meta, events = read_telemetry(log)
    assert not [e for e in events if e["kind"] == "metric"]
    summary = summarize_log(meta, events)
    assert summary.places == {"office": {"jobs": 1, "steps": n_steps}}
    assert summary.unfinished == ["job-0000"]
    # Crash on every step: 3 failures quarantine wifi for 8 steps, and
    # the probe at step 11 fails and quarantines it again.
    assert summary.schemes["wifi"] == {
        "selected": 0, "faults": 4, "quarantines": 2, "skipped": 8,
    }
    [trace] = summary.traces
    assert trace.steps == n_steps


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


def _run_engine(engine, jobs, cache, metrics=None, telemetry=None):
    workers = 1 if engine == "inline" else 2
    return run_walks(
        jobs,
        workers=workers,
        cache=cache,
        metrics=metrics,
        telemetry=telemetry,
        on_failure="return",
    )


@pytest.mark.parametrize("engine", ["inline", "pool"])
def test_a_raising_job_closes_its_frame(engine, warm_cache, tmp_path):
    jobs = [_office_jobs(1)[0], WalkJob(place_name="office", path_name="nope")]
    log = tmp_path / f"{engine}.jsonl"
    with TelemetrySession(log, run_id=f"run-{engine}") as session:
        if engine == "pool":
            results = _run_engine(engine, jobs, warm_cache, telemetry=session)
            assert results[1].error == "KeyError: 'nope'"
        else:
            with pytest.raises(KeyError, match="nope"):
                _run_engine(engine, jobs, warm_cache, telemetry=session)
    _, events = read_telemetry(log)
    edges = {}
    for event in events:
        if event["kind"] == "job":
            edges.setdefault(event["job_id"], []).append(event)
    assert sorted(edges) == ["job-0000", "job-0001"]
    for job_events in edges.values():
        names = [e["name"] for e in job_events]
        assert names[0] == "started"
        assert names[1:] in (["finished"], ["error"])
    [error] = edges["job-0001"][1:]
    assert error["data"]["error"].startswith("KeyError: ")


def _registry_shape(registry):
    """Counter values and histogram observation counts, by name."""
    shape = {}
    for name, spec in registry.snapshot().items():
        if spec["kind"] == "counter":
            shape[name] = spec["value"]
        elif spec["kind"] == "histogram":
            shape[name] = ("observations", len(spec["values"]))
    return shape


def test_every_engine_fills_the_callers_registry_alike(warm_cache, tmp_path):
    jobs = _office_jobs(3)
    shapes = {}
    for engine in ("inline", "pool"):
        bare = MetricsRegistry()
        _run_engine(engine, jobs, warm_cache, metrics=bare)
        streamed = MetricsRegistry()
        with TelemetrySession(tmp_path / f"{engine}.jsonl") as session:
            _run_engine(engine, jobs, warm_cache, metrics=streamed, telemetry=session)
        shapes[engine, "bare"] = _registry_shape(bare)
        shapes[engine, "session"] = _registry_shape(streamed)
    reference = shapes["inline", "bare"]
    assert reference["fleet.walks"] == 3
    assert reference["fleet.cache.hit"] == 6
    assert reference["uniloc.steps"] == reference["fleet.steps"]
    assert any(name.startswith("uniloc.selected.") for name in reference)
    for key, shape in shapes.items():
        assert shape == reference, key
