"""Tests for the UniLoc framework."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import SchemeBundle, UniLocFramework
from repro.eval import build_framework, run_walk


@pytest.fixture()
def framework(office_system):
    setup, models, walk = (
        office_system["setup"],
        office_system["models"],
        office_system["walk"],
    )
    return build_framework(setup, models, walk.moments[0].position, scheme_seed=9)


def test_needs_at_least_one_scheme(office_system):
    setup = office_system["setup"]
    with pytest.raises(ValueError):
        UniLocFramework(place=setup.place, bundles={})


def test_step_produces_consistent_decision(framework, office_system):
    snaps = office_system["snaps"]
    decision = framework.step(snaps[1])
    assert decision.uniloc2_position is not None
    assert decision.selected in decision.available_schemes()
    assert sum(decision.weights.values()) == pytest.approx(1.0)
    # Confidences only for available schemes.
    assert set(decision.confidences) == set(decision.available_schemes()) & set(
        decision.predicted_errors
    )


def test_gps_off_indoors(framework, office_system):
    snaps = office_system["snaps"]
    for snap in snaps[:30]:
        decision = framework.step(snap)
        if decision.indoor:
            assert not decision.gps_enabled
            assert decision.outputs["gps"] is None


def test_uniloc1_matches_highest_confidence(framework, office_system):
    snaps = office_system["snaps"]
    decision = framework.step(snaps[1])
    best = max(decision.confidences, key=decision.confidences.get)
    assert decision.selected == best
    assert decision.uniloc1_position == decision.outputs[best].position


def test_uniloc2_position_within_place(framework, office_system):
    setup, snaps = office_system["setup"], office_system["snaps"]
    min_x, min_y, max_x, max_y = setup.place.boundary.bounding_box()
    for snap in snaps[:40]:
        decision = framework.step(snap)
        p = decision.uniloc2_position
        assert min_x <= p.x <= max_x
        assert min_y <= p.y <= max_y


def test_add_scheme_rejects_duplicates(framework):
    bundle = next(iter(framework.bundles.values()))
    with pytest.raises(ValueError):
        framework.add_scheme("wifi", bundle)


def test_add_scheme_integrates_new_scheme(framework, office_system):
    """The paper's 'General' claim: a new scheme joins the ensemble."""
    from repro.core import ErrorModelSet, LinearErrorModel
    from repro.core.features import GpsFeatures
    from repro.schemes import ModelBasedScheme

    setup = office_system["setup"]
    import numpy as np

    model = LinearErrorModel((), fit_intercept=True)
    model.fit(np.zeros((50, 0)), np.full(50, 6.0))
    framework.add_scheme(
        "model_based",
        SchemeBundle(
            scheme=ModelBasedScheme(setup.radio.access_points),
            error_models=ErrorModelSet(indoor=model, outdoor=model),
            extractor=GpsFeatures(),
        ),
    )
    decision = framework.step(office_system["snaps"][1])
    assert "model_based" in decision.outputs
    if decision.outputs["model_based"] is not None:
        assert "model_based" in decision.weights


def test_reset_clears_scheme_state(framework, office_system):
    snaps = office_system["snaps"]
    for snap in snaps[:20]:
        framework.step(snap)
    framework.reset()
    decision = framework.step(snaps[0])
    assert decision.uniloc2_position is not None


def test_error_prediction_runs_once_per_step(framework, office_system):
    """The GPS policy must reuse the shared error predictions (no recompute)."""
    calls = 0
    original = framework._predict_errors

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    framework._predict_errors = counting
    framework.step(office_system["snaps"][1])
    assert calls == 1


def test_bma_fallback_prefers_highest_confidence(framework):
    """A degenerate (all-zero) mixture falls back to the most trusted output."""
    from repro.geometry import Point
    from repro.schemes.base import SchemeOutput

    low = SchemeOutput(position=Point(1.0, 1.0), spread=2.0)
    high = SchemeOutput(position=Point(9.0, 9.0), spread=2.0)
    outputs = {"low": low, "high": high, "off": None}
    position = framework._bma_estimate(
        outputs, {"low": 0.0, "high": 0.0}, {"low": 0.2, "high": 0.9}
    )
    assert position == high.position


def test_tracer_records_step_tree_and_latencies(framework, office_system):
    from repro.obs import Tracer

    framework.tracer = Tracer()
    decision = framework.step(office_system["snaps"][1])
    root = framework.tracer.last_root()
    assert root.name == "uniloc.step"
    names = {span.name for span in root.walk()}
    assert {"uniloc.iodetect", "uniloc.predict_errors", "uniloc.bma"} <= names
    estimates = [s for s in root.walk() if s.name == "scheme.estimate"]
    assert {s.attrs["scheme"] for s in estimates} == set(decision.scheme_latency_ms)
    assert all(ms >= 0.0 for ms in decision.scheme_latency_ms.values())


def test_noop_tracer_records_nothing(framework, office_system):
    decision = framework.step(office_system["snaps"][1])
    assert decision.scheme_latency_ms == {}
    assert framework.tracer.last_root() is None


def test_metrics_registry_counts_steps(framework, office_system):
    from repro.obs import MetricsRegistry, Tracer

    framework.tracer = Tracer()
    framework.metrics = MetricsRegistry()
    for snap in office_system["snaps"][:10]:
        framework.step(snap)
    flat = framework.metrics.as_dict()
    assert flat["uniloc.steps"] == 10
    assert flat["uniloc.step_ms"]["count"] == 10
    selected = sum(
        count for name, count in flat.items() if name.startswith("uniloc.selected.")
    )
    assert selected + flat.get("uniloc.steps_without_estimate", 0) == 10


def test_run_walk_emits_aggregatable_trace(framework, office_system, tmp_path):
    """A walk's telemetry step events must aggregate back (as ``repro
    report`` does) into the usage shares and duty cycle the in-memory
    WalkResult reports."""
    import pytest as _pytest

    from repro.obs import Tracer, read_telemetry, summarize_steps
    from repro.obs.telemetry import TelemetrySession

    setup, walk, snaps = (
        office_system["setup"],
        office_system["walk"],
        office_system["snaps"],
    )
    framework.tracer = Tracer()
    path = tmp_path / "steps.jsonl"
    with TelemetrySession(path, run_id="run-walk") as session:
        emitter = session.emitter(job_id=session.job_id(0))
        emitter.emit("job", "started", place=setup.place.name, path="survey")
        result = run_walk(
            framework, setup.place, "survey", walk, snaps, telemetry=emitter
        )
    _, events = read_telemetry(path)
    steps = [e for e in events if e["kind"] == "step"]
    assert len(steps) == len(result.records)
    assert [e["data"]["index"] for e in steps] == [
        r.moment.index for r in result.records
    ]
    [summary] = summarize_steps(events)
    assert (summary.place, summary.path) == (setup.place.name, "survey")
    assert summary.gps_duty_cycle == _pytest.approx(result.gps_duty_cycle())
    for name, share in result.usage("uniloc1").items():
        assert summary.schemes[name].usage == _pytest.approx(
            share * summary.estimate_rate
        )
    assert summary.uniloc2_errors.mean == _pytest.approx(
        result.mean_error("uniloc2")
    )
    wifi_latency = summary.schemes["wifi"].latency
    assert wifi_latency.count > 0
    assert wifi_latency.percentile(99) >= wifi_latency.percentile(50) > 0.0


def test_noop_tracer_overhead_under_5_percent(framework, office_system):
    """Benchmark-style bound: the disabled instrumentation path (no-op
    spans) must cost well under 5% of a 200-step walk's wall time."""
    import time

    from repro.obs import NOOP_TRACER

    snaps = office_system["snaps"][:200]
    framework.reset()
    start = time.perf_counter()
    for snap in snaps:
        framework.step(snap)
    walk_s = time.perf_counter() - start

    # The disabled path opens 5 no-op spans per step (step, iodetect,
    # predict_errors, bma, hmm_observe); measure their unit cost.
    iterations = 20_000
    start = time.perf_counter()
    for _ in range(iterations):
        with NOOP_TRACER.span("uniloc.step"):
            pass
    per_span_s = (time.perf_counter() - start) / iterations
    assert 5 * len(snaps) * per_span_s < 0.05 * walk_s


def test_run_walk_integration(framework, office_system):
    setup, walk, snaps = (
        office_system["setup"],
        office_system["walk"],
        office_system["snaps"],
    )
    result = run_walk(framework, setup.place, "survey", walk, snaps)
    assert len(result.records) == len(walk.moments)
    assert result.mean_error("uniloc2") < 8.0
    usage = result.usage("uniloc1")
    assert sum(usage.values()) == pytest.approx(1.0)


class _NanParticleScheme:
    """Delegates to a scheme but puts a NaN into its particle cloud.

    Position and spread stay finite, so only a check of ``samples`` and
    ``sample_weights`` can tell the output is unusable.
    """

    def __init__(self, inner, field):
        self.inner = inner
        self.field = field

    @property
    def name(self):
        return self.inner.name

    def reset(self):
        self.inner.reset()

    def estimate(self, snapshot):
        output = self.inner.estimate(snapshot)
        if output is None or output.samples is None:
            return output
        # Copies: the samples may be the filter's own state.
        samples = np.array(output.samples, dtype=float)
        weights = np.ones(len(samples))
        if self.field == "samples":
            samples[0] = np.nan
        else:
            weights[:] = np.nan
        return dataclasses.replace(output, samples=samples, sample_weights=weights)


@pytest.mark.parametrize("field", ["samples", "sample_weights"])
def test_nonfinite_particles_are_contained(framework, office_system, field):
    """Finite position, NaN particles: charged ``nonfinite``, never fused."""
    framework.bundles["fusion"].scheme = _NanParticleScheme(
        framework.bundles["fusion"].scheme, field
    )
    charged = 0
    for snap in office_system["snaps"][:12]:
        decision = framework.step(snap)
        assert decision.outputs["fusion"] is None
        if "fusion" not in decision.quarantined:
            assert decision.failures.get("fusion") == "nonfinite"
            charged += 1
        position = decision.uniloc2_position
        assert math.isfinite(position.x) and math.isfinite(position.y)
    assert charged > 0
    assert framework.health("fusion").total_failures == charged
