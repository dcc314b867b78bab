"""Framework graceful-degradation edge cases.

Covers the regimes the fault-injection subsystem exercises: schemes that
raise, or emit non-finite or implausible outputs; walks where every
scheme is dark; and the quarantine/backoff release timing of
``SchemeHealth``.
"""

import dataclasses
import math

from repro.core import SchemeHealth
from repro.core.framework import (
    QUARANTINE_BASE_STEPS,
    QUARANTINE_MAX_STEPS,
    QUARANTINE_THRESHOLD,
)
from repro.eval import build_framework, run_walk
from repro.faults import FaultPlan, FaultyScheme, SchemeFault
from repro.geometry import Point
from repro.obs import MetricsRegistry
from repro.schemes.base import LocalizationScheme, SchemeOutput


def _framework(office_system, **overrides):
    fw = build_framework(
        office_system["setup"],
        office_system["models"],
        office_system["walk"].moments[0].position,
    )
    fields = {f.name for f in dataclasses.fields(fw)}
    for name, value in overrides.items():
        assert name in fields, f"{name!r} is not a UniLocFramework field"
        setattr(fw, name, value)
    return fw


def _outage(fw, scheme, kind="crash"):
    FaultPlan.scheme_outage(scheme, kind=kind).apply(fw)


class CrashingScheme(LocalizationScheme):
    name = "crashing"

    def estimate(self, snapshot):
        raise RuntimeError("boom")


class NonFiniteScheme(LocalizationScheme):
    name = "nonfinite"

    def estimate(self, snapshot):
        return SchemeOutput(position=Point(float("inf"), 0.0), spread=1.0)


class TestExceptionContainment:
    def test_crashing_scheme_does_not_break_the_step(self, office_system):
        fw = _framework(office_system, metrics=MetricsRegistry())
        _outage(fw, "wifi")
        decision = fw.step(office_system["snaps"][0])
        assert decision.failures.get("wifi") == "exception"
        assert decision.outputs["wifi"] is None
        assert decision.uniloc2_position is not None  # survivors carried it
        assert fw.metrics.counter("uniloc.faults.wifi.exception").value == 1
        assert fw.metrics.counter("uniloc.steps_with_failures").value == 1

    def test_raising_scheme_is_still_timed(self, office_system):
        """A scheme that raises is charged and still timed by the stage clock."""
        fw = _framework(office_system)
        _outage(fw, "wifi")
        decision = fw.step(office_system["snaps"][0])
        assert decision.failures["wifi"] == "exception"
        assert fw.stage_ms["scheme.wifi"] >= 0.0


class TestNonFiniteRejection:
    def test_nonfinite_output_is_a_failure_not_an_output(self, office_system):
        fw = _framework(office_system, metrics=MetricsRegistry())
        fw.bundles["wifi"].scheme = NonFiniteScheme()
        decision = fw.step(office_system["snaps"][0])
        assert decision.failures.get("wifi") == "nonfinite"
        assert decision.outputs["wifi"] is None
        assert "wifi" not in decision.confidences
        pos = decision.uniloc2_position
        assert pos is not None
        assert math.isfinite(pos.x) and math.isfinite(pos.y)
        assert fw.metrics.counter("uniloc.faults.wifi.nonfinite").value == 1

    def test_nan_injection_never_poisons_a_whole_walk(self, office_system):
        sys = office_system
        fw = _framework(sys)
        _outage(fw, "wifi", kind="nan")
        result = run_walk(fw, sys["setup"].place, "survey", sys["walk"], sys["snaps"])
        for error in result.errors("uniloc2"):
            assert math.isfinite(error)


class FarAwayScheme(LocalizationScheme):
    name = "faraway"

    def estimate(self, snapshot):
        return SchemeOutput(position=Point(1e5, 1e5), spread=1.0)


class TestImplausibleRejection:
    def test_garbage_coordinate_is_an_implausible_failure(self, office_system):
        fw = _framework(office_system, metrics=MetricsRegistry())
        fw.bundles["wifi"].scheme = FarAwayScheme()
        decision = fw.step(office_system["snaps"][0])
        assert decision.failures.get("wifi") == "implausible"
        assert decision.outputs["wifi"] is None
        assert "wifi" not in decision.confidences
        assert fw.metrics.counter("uniloc.faults.wifi.implausible").value == 1

    def test_margin_tolerates_honest_scheme_noise(self, office_system):
        """Every clean office step passes the gate for every scheme."""
        sys = office_system
        fw = _framework(sys, metrics=MetricsRegistry())
        result = run_walk(fw, sys["setup"].place, "survey", sys["walk"], sys["snaps"])
        assert result.records
        for rec in result.records:
            assert "implausible" not in rec.decision.failures.values()


class TestAllSchemesDark:
    def test_whole_walk_with_every_scheme_dropped(self, office_system):
        sys = office_system
        fw = _framework(sys, metrics=MetricsRegistry())
        plan = FaultPlan(
            scheme_faults=tuple(
                SchemeFault(scheme=name, kind="drop") for name in fw.bundles
            )
        )
        plan.apply(fw)
        result = run_walk(fw, sys["setup"].place, "survey", sys["walk"], sys["snaps"])
        assert len(result.records) == len(sys["snaps"])
        for record in result.records:
            assert record.decision.uniloc1_position is None
            assert record.decision.uniloc2_position is None
            assert record.decision.selected is None
            assert math.isnan(record.decision.tau)
        assert result.errors("uniloc2") == []
        n = len(sys["snaps"])
        assert fw.metrics.counter("uniloc.steps_without_estimate").value == n
        # Dropping is plain unavailability, never a failure or quarantine.
        assert fw.metrics.counter("uniloc.steps_with_failures").value == 0
        assert all(fw.health(name).total_failures == 0 for name in fw.bundles)


class TestQuarantineTiming:
    def _step_n(self, fw, snaps, n):
        return [fw.step(snaps[i % len(snaps)]) for i in range(n)]

    def test_backoff_release_and_exponential_growth(self, office_system):
        fw = _framework(office_system, metrics=MetricsRegistry())
        fw.bundles["wifi"].scheme = CrashingScheme()
        health = fw.health("wifi")
        snaps = office_system["snaps"]

        # Threshold (3) consecutive failures at steps 0..2 enter the
        # first quarantine: 8 steps, released at step 3 + 8 = 11.
        decisions = self._step_n(fw, snaps, 3)
        assert [d.failures.get("wifi") for d in decisions] == ["exception"] * 3
        assert health.quarantines == 1
        assert health.quarantined_until == 11

        # Steps 3..10 are served skipping wifi.
        decisions = self._step_n(fw, snaps, 8)
        assert all("wifi" in d.quarantined for d in decisions)
        assert all("wifi" not in d.failures for d in decisions)

        # Step 11 probes the scheme again; it still fails, and because
        # the streak already passed the threshold the quarantine
        # re-enters immediately with a doubled backoff (16 steps).
        [probe] = self._step_n(fw, snaps, 1)
        assert probe.failures.get("wifi") == "exception"
        assert "wifi" not in probe.quarantined
        assert health.quarantines == 2
        assert health.quarantined_until == 12 + 16

        skipped = fw.metrics.counter("uniloc.quarantine.skipped.wifi")
        entered = fw.metrics.counter("uniloc.quarantine.entered.wifi")
        assert skipped.value == 8
        assert entered.value == 2

    def test_healthy_probe_resets_streak_and_backoff(self, office_system):
        fw = _framework(office_system)
        health = fw.health("wifi")
        inner = fw.bundles["wifi"].scheme
        fw.bundles["wifi"].scheme = CrashingScheme()
        self._step_n(fw, office_system["snaps"], 3)
        assert health.is_quarantined(fw._step_index)

        # Scheme recovers before the probe; the release step succeeds.
        fw.bundles["wifi"].scheme = inner
        self._step_n(fw, office_system["snaps"], 8)
        [release] = self._step_n(fw, office_system["snaps"], 1)
        assert "wifi" not in release.quarantined
        assert health.consecutive_failures == 0
        assert health.quarantines == 0  # backoff fully reset
        assert health.total_failures == 3  # history is kept

    def test_backoff_is_capped(self):
        health = SchemeHealth()
        for step in range(QUARANTINE_THRESHOLD - 1):
            assert not health.note_failure(step)
        windows = []
        step = QUARANTINE_THRESHOLD - 1
        for _ in range(8):
            # The streak is past the threshold: every failure re-enters.
            assert health.note_failure(step)
            windows.append(health.quarantined_until - (step + 1))
            step = health.quarantined_until
        # Doubles 8 -> 16 -> ... -> 256, then saturates at the cap.
        assert windows == [8, 16, 32, 64, 128, 256, 256, 256]
        assert windows[0] == QUARANTINE_BASE_STEPS
        assert windows[-1] == QUARANTINE_MAX_STEPS

    def test_recovery_factor_ramps_confidence_back(self, office_system):
        fw = _framework(office_system)
        fw.bundles["wifi"].scheme = CrashingScheme()
        [failed] = [fw.step(office_system["snaps"][0])]
        assert failed.failures.get("wifi") == "exception"
        health = fw.health("wifi")
        assert not health.is_quarantined(fw._step_index)
        assert health.recovery_factor(fw._step_index) < 1.0
        assert health.recovery_factor(fw._step_index + 10) == 1.0
        # Clean schemes always sit at exactly 1.0 (bit-identical path).
        assert fw.health("cellular").recovery_factor(fw._step_index) == 1.0
