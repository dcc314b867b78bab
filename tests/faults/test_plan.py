"""Unit tests for the deterministic fault-plan value objects."""

import pytest

from repro.faults import FaultPlan, SchemeFault, SensorFault


class TestSchemeFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme fault kind"):
            SchemeFault(scheme="wifi", kind="meltdown")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            SchemeFault(scheme="wifi", probability=1.5)

    def test_hang_is_not_a_kind(self):
        known = "known: crash, drop, nan, garbage"
        with pytest.raises(ValueError, match=f"unknown scheme fault kind 'hang'; {known}"):
            SchemeFault(scheme="wifi", kind="hang")

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty fault window"):
            SchemeFault(scheme="wifi", start_step=10, end_step=10)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_step"):
            SensorFault(kind="radio_blackout", start_step=-1)

    def test_unknown_sensor_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sensor fault kind"):
            SensorFault(kind="flux_capacitor")


class TestWindows:
    def test_open_ended_window_covers_everything_after_start(self):
        fault = SchemeFault(scheme="wifi", start_step=5)
        assert not fault.in_window(4)
        assert fault.in_window(5)
        assert fault.in_window(10_000)

    def test_bounded_window_is_half_open(self):
        fault = SensorFault(kind="imu_dropout", start_step=3, end_step=7)
        assert [s for s in range(10) if fault.in_window(s)] == [3, 4, 5, 6]


class TestFaultPlan:
    def test_sequences_coerced_to_tuples(self):
        plan = FaultPlan(
            scheme_faults=[SchemeFault(scheme="wifi")],
            sensor_faults=[SensorFault(kind="radio_blackout")],
        )
        assert isinstance(plan.scheme_faults, tuple)
        assert isinstance(plan.sensor_faults, tuple)
        hash(plan)  # must stay hashable (rides on frozen WalkJob)

    def test_scheme_outage_is_one_total_fault(self):
        plan = FaultPlan.scheme_outage("gps", kind="nan", seed=9)
        assert plan.seed == 9
        [fault] = plan.scheme_faults
        assert fault.scheme == "gps"
        assert fault.kind == "nan"
        assert fault.probability == 1.0
        assert fault.in_window(0) and fault.in_window(99_999)

    def test_faults_for_keeps_plan_indices(self):
        plan = FaultPlan(
            scheme_faults=(
                SchemeFault(scheme="wifi"),
                SchemeFault(scheme="gps"),
                SchemeFault(scheme="wifi", kind="nan"),
            )
        )
        assert plan.faults_for("gps") == ((1, plan.scheme_faults[1]),)
        assert [i for i, _ in plan.faults_for("wifi")] == [0, 2]
        assert plan.faults_for("cellular") == ()

    def test_fires_is_deterministic_and_seed_sensitive(self):
        fault = SchemeFault(scheme="wifi", probability=0.5)
        a = FaultPlan(seed=1, scheme_faults=(fault,))
        b = FaultPlan(seed=2, scheme_faults=(fault,))
        pattern_a = [a.fires(0, fault, s) for s in range(200)]
        assert pattern_a == [a.fires(0, fault, s) for s in range(200)]
        assert pattern_a != [b.fires(0, fault, s) for s in range(200)]
        # probability 0.5 over 200 draws: both outcomes must appear
        assert True in pattern_a and False in pattern_a

    def test_fires_respects_window_and_degenerate_probabilities(self):
        windowed = SchemeFault(scheme="wifi", start_step=10, end_step=20)
        never = SchemeFault(scheme="wifi", probability=0.0)
        plan = FaultPlan(scheme_faults=(windowed, never))
        assert not plan.fires(0, windowed, 9)
        assert plan.fires(0, windowed, 10)
        assert not plan.fires(0, windowed, 20)
        assert not any(plan.fires(1, never, s) for s in range(50))

    def test_fault_index_isolates_streams(self):
        # The same fault description at a different plan index draws a
        # different stream; reordering unrelated faults must not change
        # an existing fault's pattern.
        fault = SchemeFault(scheme="wifi", probability=0.5)
        plan = FaultPlan(seed=3, scheme_faults=(fault, fault))
        p0 = [plan.fires(0, fault, s) for s in range(100)]
        p1 = [plan.fires(1, fault, s) for s in range(100)]
        assert p0 != p1

    def test_apply_rejects_unregistered_scheme(self, office_framework):
        plan = FaultPlan.scheme_outage("bluetooth")
        with pytest.raises(ValueError, match="unregistered schemes: bluetooth"):
            plan.apply(office_framework)

    def test_apply_wraps_only_afflicted_schemes(self, office_framework):
        from repro.faults import FaultyScheme

        plan = FaultPlan.scheme_outage("wifi")
        plan.apply(office_framework)
        assert isinstance(office_framework.bundles["wifi"].scheme, FaultyScheme)
        assert not isinstance(
            office_framework.bundles["cellular"].scheme, FaultyScheme
        )
