"""Unit tests for the fault injectors (scheme wrapper + trace corruption)."""

import math

import pytest

from repro.faults import (
    GARBAGE_RADIUS_M,
    FaultPlan,
    FaultyScheme,
    InjectedFault,
    SchemeFault,
    SensorFault,
    corrupt_snapshots,
)
from repro.geometry import Point
from repro.schemes.base import LocalizationScheme, SchemeOutput


class StubScheme(LocalizationScheme):
    """Inner black box: always answers, counts calls and resets."""

    name = "stub"

    def __init__(self):
        self.calls = 0
        self.resets = 0

    def estimate(self, snapshot):
        self.calls += 1
        return SchemeOutput(position=Point(1.0, 2.0), spread=3.0)

    def reset(self):
        self.resets += 1


class FakeSnapshot:
    """The injector only reads ``snapshot.index``."""

    def __init__(self, index):
        self.index = index


def _wrap(kind, **fault_kwargs):
    inner = StubScheme()
    fault = SchemeFault(scheme="stub", kind=kind, **fault_kwargs)
    plan = FaultPlan(seed=0, scheme_faults=(fault,))
    return inner, FaultyScheme(inner, plan, plan.faults_for("stub"))


class TestFaultyScheme:
    def test_crash_raises_injected_fault(self):
        inner, faulty = _wrap("crash")
        with pytest.raises(InjectedFault, match="step 4"):
            faulty.estimate(FakeSnapshot(4))
        assert inner.calls == 0
        assert faulty.n_injected == 1

    def test_drop_returns_none_without_calling_inner(self):
        inner, faulty = _wrap("drop")
        assert faulty.estimate(FakeSnapshot(0)) is None
        assert inner.calls == 0

    def test_nan_output_is_not_finite(self):
        _, faulty = _wrap("nan")
        output = faulty.estimate(FakeSnapshot(0))
        assert math.isnan(output.position.x)
        assert not output.is_finite()

    def test_garbage_is_finite_absurd_and_deterministic(self):
        _, faulty = _wrap("garbage")
        output = faulty.estimate(FakeSnapshot(7))
        assert output.is_finite()
        distance = math.hypot(output.position.x, output.position.y)
        assert distance == pytest.approx(GARBAGE_RADIUS_M)
        _, faulty2 = _wrap("garbage")
        again = faulty2.estimate(FakeSnapshot(7))
        assert again.position == output.position
        other_step = faulty2.estimate(FakeSnapshot(8))
        assert other_step.position != output.position

    def test_out_of_window_calls_pass_through(self):
        inner, faulty = _wrap("crash", start_step=10)
        output = faulty.estimate(FakeSnapshot(9))
        assert output is not None
        assert inner.calls == 1
        assert faulty.n_injected == 0

    def test_reset_delegates_and_keeps_name(self):
        inner, faulty = _wrap("crash")
        assert faulty.name == "stub"
        faulty.reset()
        assert inner.resets == 1


class TestCorruptSnapshots:
    @pytest.fixture(scope="class")
    def trace(self, office_system):
        return office_system["snaps"]

    def test_radio_blackout_silences_the_window(self, trace):
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(kind="radio_blackout", start_step=2, end_step=5),
            )
        )
        out = corrupt_snapshots(trace, plan)
        for step in (2, 3, 4):
            assert out[step].wifi_scan == {}
            assert out[step].cell_scan == {}
            assert not out[step].gps.has_fix
        assert out[1].wifi_scan == trace[1].wifi_scan
        assert out[5].wifi_scan == trace[5].wifi_scan

    def test_stale_gps_holds_last_fix(self, trace):
        # Find a step with a fix to anchor the window behind.
        anchor = next(
            (i for i, s in enumerate(trace) if s.gps.has_fix), None
        )
        if anchor is None:
            pytest.skip("office trace has no GPS fix to hold")
        start = anchor + 1
        plan = FaultPlan(
            sensor_faults=(SensorFault(kind="stale_gps", start_step=start),)
        )
        out = corrupt_snapshots(trace, plan)
        for step in range(start, len(out)):
            assert out[step].gps == trace[anchor].gps

    def test_stale_gps_with_no_prior_fix_is_jammed(self, trace):
        plan = FaultPlan(
            sensor_faults=(SensorFault(kind="stale_gps", start_step=0),)
        )
        out = corrupt_snapshots(trace, plan)
        assert not out[0].gps.has_fix
        assert out[0].gps.n_satellites == 0

    def test_imu_dropout_removes_step_events(self, trace):
        plan = FaultPlan(
            sensor_faults=(SensorFault(kind="imu_dropout", end_step=3),)
        )
        out = corrupt_snapshots(trace, plan)
        for step in range(3):
            assert out[step].imu.step_events == ()
            assert out[step].imu.orientation_change_rate == 0.0

    def test_input_trace_is_never_mutated(self, trace):
        originals = list(trace)
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(kind="radio_blackout"),
                SensorFault(kind="imu_dropout"),
            )
        )
        corrupt_snapshots(trace, plan)
        assert all(a is b for a, b in zip(trace, originals))

    def test_empty_plan_is_identity(self, trace):
        out = corrupt_snapshots(trace, FaultPlan())
        assert all(a is b for a, b in zip(out, trace))
