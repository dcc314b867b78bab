"""Tests for the walk runner and result aggregation."""

import pytest

from repro.eval import merge_results, run_walk
from repro.eval.runner import WalkResult
from repro.world import EnvironmentType as Env


@pytest.fixture(scope="module")
def result():
    from repro.eval import build_framework
    from repro.eval.experiments import place_setup, shared_models

    setup = place_setup("daily", 0)
    models = shared_models(0)
    walk, snaps = setup.record_walk("path1", walk_seed=0, trace_seed=1)
    fw = build_framework(setup, models, walk.moments[0].position, scheme_seed=5)
    return run_walk(fw, setup.place, "path1", walk, snaps)


def test_one_record_per_step(result):
    assert len(result.records) > 300


def test_errors_per_estimator(result):
    assert len(result.errors("uniloc2")) == len(result.records)
    assert len(result.errors("wifi")) < len(result.records)  # basement gap
    assert result.errors("nonexistent") == []


def test_errors_in_environment(result):
    basement = result.errors_in("cellular", Env.BASEMENT)
    assert basement
    assert all(e >= 0 for e in basement)


def test_mean_error_raises_for_absent_estimator(result):
    with pytest.raises(ValueError):
        result.mean_error("nonexistent")


def test_usage_shares_sum_to_one(result):
    for selector in ("uniloc1", "optsel"):
        usage = result.usage(selector)
        assert sum(usage.values()) == pytest.approx(1.0)


def test_usage_unknown_selector(result):
    with pytest.raises(ValueError):
        result.usage("coin_flip")


def test_oracle_never_worse_than_any_scheme(result):
    for record in result.records:
        if record.oracle is not None and record.scheme_errors:
            assert record.oracle.error <= min(record.scheme_errors.values()) + 1e-9


def test_merge_results(result):
    merged = merge_results([result, result])
    assert len(merged.records) == 2 * len(result.records)
    with pytest.raises(ValueError):
        merge_results([])


def test_gps_duty_cycle_bounded(result):
    assert 0.0 <= result.gps_duty_cycle() <= 1.0


def test_empty_result_duty_cycle():
    assert WalkResult("p", "w").gps_duty_cycle() == 0.0


# ---------------------------------------------------------------------------
# WalkResult unit coverage on synthetic records (no simulation needed)
# ---------------------------------------------------------------------------


def make_record(selected="wifi", error=1.0, gps_enabled=False, env=Env.OFFICE):
    from repro.core import StepDecision
    from repro.eval.runner import StepRecord
    from repro.geometry import Point
    from repro.motion import Moment

    decision = StepDecision(
        outputs={},
        predicted_errors={},
        confidences={},
        weights={},
        tau=float("nan"),
        indoor=False,
        selected=selected,
        uniloc1_position=None,
        uniloc2_position=None,
        gps_enabled=gps_enabled,
    )
    moment = Moment(
        index=0,
        time_s=0.0,
        position=Point(0.0, 0.0),
        heading=0.0,
        arc_length=0.0,
        step_length=0.7,
        step_period=0.5,
    )
    return StepRecord(
        moment=moment,
        environment=env,
        decision=decision,
        scheme_errors={"wifi": error},
        uniloc1_error=error,
        uniloc2_error=error,
        oracle=None,
    )


def test_merge_results_heterogeneous_paths():
    a = WalkResult("daily", "path1", records=[make_record(error=1.0)])
    b = WalkResult(
        "daily",
        "path2",
        records=[make_record(error=3.0, env=Env.STREET), make_record(error=5.0)],
    )
    merged = merge_results([a, b])
    assert merged.path_name == "path1+path2"
    assert merged.place_name == "daily"
    assert len(merged.records) == 3
    assert merged.errors("uniloc2") == [1.0, 3.0, 5.0]
    assert merged.mean_error("wifi") == pytest.approx(3.0)
    assert merged.errors_in("wifi", Env.STREET) == [3.0]
    # Merging leaves the inputs untouched.
    assert len(a.records) == 1 and len(b.records) == 2


def test_usage_unknown_selector_raises_even_when_empty():
    with pytest.raises(ValueError):
        WalkResult("p", "w").usage("coin_flip")


def test_empty_result_is_fully_inert():
    empty = WalkResult("p", "w")
    assert empty.gps_duty_cycle() == 0.0
    assert empty.usage() == {}
    assert empty.usage("optsel") == {}
    assert empty.errors("uniloc1") == []
    with pytest.raises(ValueError):
        empty.mean_error("wifi")


def test_decision_default_has_no_latencies():
    """Stage timings live on the framework, never in a decision."""
    record = make_record()
    assert not any(name.endswith("_ms") for name in vars(record.decision))
