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


@pytest.mark.parametrize("steps_first", [0, 1])
def test_add_scheme_rejects_a_scheme_instance_under_a_new_name(
    framework, office_system, steps_first
):
    """One instance under two names would be estimated twice per step;
    it is refused whether or not the walker has stepped yet."""
    for snap in office_system["snaps"][:steps_first]:
        framework.step(snap)
    wifi = framework.bundles["wifi"]
    with pytest.raises(ValueError, match="two names"):
        framework.add_scheme("wifi-again", SchemeBundle(
            scheme=wifi.scheme,
            error_models=wifi.error_models,
            extractor=wifi.extractor,
        ))
    assert "wifi-again" not in framework.bundles
    decision = framework.step(office_system["snaps"][steps_first])
    assert "wifi-again" not in decision.outputs


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


def _timed_schemes(stage_ms):
    """The schemes the stage clock timed: those whose estimate() ran."""
    return {k.removeprefix("scheme.") for k in stage_ms if k.startswith("scheme.")}


def _check_timed_schemes(decision, timed):
    """Timed schemes: every one that answered or failed, never a skipped one."""
    answered = {
        name
        for name, out in decision.outputs.items()
        if out is not None or name in decision.failures
    }
    assert answered <= timed <= set(decision.outputs) - set(decision.quarantined)


def test_stage_clock_times_every_stage(framework, office_system):
    """Every step, with nothing switched on, times each stage once."""
    from repro.core.framework import STAGES

    for snap in office_system["snaps"][:5]:
        decision = framework.step(snap)
        stages = framework.stage_ms
        timed = _timed_schemes(stages)
        assert set(stages) == set(STAGES) | {f"scheme.{n}" for n in timed}
        _check_timed_schemes(decision, timed)
        assert all(ms >= 0.0 for ms in stages.values())
        parts = sum(ms for name, ms in stages.items() if name != "step")
        assert parts <= stages["step"]


def test_stage_clock_stays_out_of_the_decision(framework, office_system):
    """Timings never reach the decision (its pickle is a golden)."""
    first = framework.step(office_system["snaps"][1])
    first_stages = framework.stage_ms
    framework.step(office_system["snaps"][2])
    assert framework.stage_ms is not first_stages  # replaced, not mutated
    assert not any(name.endswith("_ms") for name in vars(first))
    assert "stage_ms" not in vars(first)


def test_metrics_registry_counts_steps(framework, office_system):
    from repro.obs import MetricsRegistry

    framework.metrics = MetricsRegistry()
    for snap in office_system["snaps"][:10]:
        framework.step(snap)
    flat = framework.metrics.as_dict()
    assert flat["uniloc.steps"] == 10
    assert flat["uniloc.step_ms"]["count"] == 10
    for stage in ("iodetect", "error_prediction", "confidence", "bma", "hmm"):
        assert flat[f"uniloc.stage.{stage}_ms"]["count"] == 10
    assert flat["uniloc.stage.scheme.wifi_ms"]["count"] == 10
    selected = sum(
        count for name, count in flat.items() if name.startswith("uniloc.selected.")
    )
    assert selected + flat.get("uniloc.steps_without_estimate", 0) == 10


def test_run_walk_emits_aggregatable_trace(framework, office_system, tmp_path):
    """A walk's telemetry step events must aggregate back (as ``repro
    report`` does) into the usage shares and duty cycle the in-memory
    WalkResult reports."""
    import pytest as _pytest

    from repro.obs import read_telemetry
    from repro.obs.report import summarize_log
    from repro.obs.telemetry import TelemetrySession

    setup, walk, snaps = (
        office_system["setup"],
        office_system["walk"],
        office_system["snaps"],
    )
    path = tmp_path / "steps.jsonl"
    with TelemetrySession(path, run_id="run-walk") as session:
        emitter = session.emitter(job_id=session.job_id(0))
        emitter.emit("job", "started", place=setup.place.name, path="survey")
        result = run_walk(
            framework, setup.place, "survey", walk, snaps, telemetry=emitter
        )
    meta, events = read_telemetry(path)
    steps = [e for e in events if e["kind"] == "step"]
    assert len(steps) == len(result.records)
    assert [e["data"]["index"] for e in steps] == [
        r.moment.index for r in result.records
    ]
    [summary] = summarize_log(meta, events).traces
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
    assert summary.stages["step"].count == len(result.records)


def _counting_ramp(tick_s):
    """A scripted monotonic clock that counts its reads."""
    state = {"reads": 0}

    def read():
        state["reads"] += 1
        return state["reads"] * tick_s

    return read, state


def test_stage_clock_reads_a_fixed_number_of_times(framework, office_system):
    """The stage clock's whole cost is a fixed count of clock reads: one
    pair per scheme run, ten more for a step with an estimate (six when
    no scheme is available), and nothing else on the step."""
    from repro.core.framework import STAGES
    from repro.obs import clock

    read, state = _counting_ramp(1e-6)
    with clock.override(monotonic=read):
        for snap in office_system["snaps"][:20]:
            before = state["reads"]
            decision = framework.step(snap)
            timed = _timed_schemes(framework.stage_ms)
            _check_timed_schemes(decision, timed)
            fixed = 10 if decision.selected is not None else 6
            assert state["reads"] - before == fixed + 2 * len(timed)
            assert set(framework.stage_ms) == set(STAGES) | {
                f"scheme.{name}" for name in timed
            }
            # One tick per scheme: the read pair brackets estimate() only.
            for name in timed:
                assert framework.stage_ms[f"scheme.{name}"] == pytest.approx(1e-3)


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
