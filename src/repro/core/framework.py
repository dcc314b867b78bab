"""The UniLoc framework: error prediction + ensemble (paper §IV).

At every location estimation step the framework

1. runs every registered scheme in parallel (black boxes),
2. classifies indoor/outdoor with IODetector and picks the matching
   error-model coefficients,
3. predicts each available scheme's error from real-time features
   (Eq. 6) and converts it into a confidence (Eq. 2) against the adaptive
   threshold tau (the mean predicted error of the available schemes),
4. produces the **UniLoc1** estimate — the output of the single scheme
   with the highest confidence (§IV-A), and
5. produces the **UniLoc2** estimate — the locally-weighted BMA mixture
   of all schemes' grid posteriors with weights ``w_n = c_n / sum c``
   (Eqs. 3-5), read out as the posterior-mean location (Eq. 4).

Unavailable schemes (no GPS fix, empty scan) get confidence zero and are
temporarily excluded.  GPS is additionally duty-cycled for energy: since
its outdoor error model is intercept-only, its error is predicted without
powering the chip, and the chip is only "turned on" when GPS is expected
to be the most accurate scheme (§IV-C).

Beyond unavailability, the framework degrades gracefully under scheme
*failure* — the regime :mod:`repro.faults` injects and the paper's
diversity claim must survive:

* a scheme that raises is caught and excluded for the step;
* non-finite outputs (NaN/Inf position, spread, particle samples or
  sample weights) and implausible ones (far outside the place) are
  rejected before they can poison the BMA mixture;
* schemes that fail repeatedly are quarantined — skipped entirely — for
  an exponentially growing number of steps (:class:`SchemeHealth`), and
  probed again when the backoff expires;
* a recently-faulty scheme's confidence is decayed back in over a few
  steps, so one good answer after a crash burst does not immediately
  dominate the ensemble.

Every failure, quarantine entry, and skipped step is counted in the
attached metrics registry.  The policy is fixed: its numbers are the
module constants next to :class:`SchemeHealth`.  A scheme that hangs is
not contained: that needs pre-emption, not a stopwatch read after
``estimate()`` returns.

Every step is also timed, stage by stage, with plain
:func:`repro.obs.clock.monotonic_s` reads into
:attr:`UniLocFramework.stage_ms` (see :data:`STAGES`).  The timings
leave the framework only through the telemetry ``step`` event and the
metrics histograms; they never enter a :class:`StepDecision`, so
decisions stay a pure function of the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.confidence import adaptive_threshold, confidence, normalized_weights
from repro.core.error_model import ErrorModelSet
from repro.core.features import FeatureContext, FeatureExtractor
from repro.core.hmm import SecondOrderHmm
from repro.core.iodetector import IODetector
from repro.geometry import Grid, Point
from repro.obs.clock import monotonic_s
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import NOOP_EMITTER, EventSinkLike
from repro.schemes.base import Scheme, SchemeOutput
from repro.sensors import SensorSnapshot
from repro.world import Place

#: The stages the stage clock times on every step, besides one
#: ``scheme.<name>`` entry per scheme whose ``estimate()`` ran (GPS
#: included when powered).  ``hmm`` covers the trajectory predictor's
#: ``predict`` and ``observe``; ``step`` is the whole step.
STAGES = ("iodetect", "error_prediction", "confidence", "bma", "hmm", "step")


@dataclass
class SchemeBundle:
    """A scheme plus the error-model machinery UniLoc wraps around it."""

    scheme: Scheme
    error_models: ErrorModelSet
    extractor: FeatureExtractor


#: Consecutive failures before a scheme is quarantined.
QUARANTINE_THRESHOLD = 3
#: Length of the first quarantine; each re-quarantine while the scheme
#: keeps failing doubles it, up to :data:`QUARANTINE_MAX_STEPS`.
QUARANTINE_BASE_STEPS = 8
QUARANTINE_MAX_STEPS = 256
#: Healthy steps over which a recently faulty scheme's confidence ramps
#: back to full weight.
CONFIDENCE_DECAY_STEPS = 5
#: Estimates farther than this outside the place's bounding box are
#: ``implausible`` failures: a finite but wildly wrong coordinate (a
#: garbage scheme output) is as poisonous to the BMA mixture as a NaN.
#: Far beyond any honest scheme's worst-case error.
IMPLAUSIBLE_MARGIN_M = 500.0
#: The bundle name the §IV-C GPS duty-cycling policy applies to.
GPS_SCHEME = "gps"


@dataclass
class SchemeHealth:
    """Failure tracking and quarantine state for one scheme.

    The framework treats *failures* (exceptions, non-finite and
    implausible outputs) differently from plain unavailability (a
    ``None`` output): unavailability is the paper's normal §IV-A regime,
    while repeated failures indicate a broken scheme that should stop
    being called.  After :data:`QUARANTINE_THRESHOLD` consecutive
    failures the scheme is quarantined for :data:`QUARANTINE_BASE_STEPS`
    steps; every re-quarantine while still failing doubles the backoff
    (capped at :data:`QUARANTINE_MAX_STEPS`), and one healthy probe
    resets it.
    """

    consecutive_failures: int = 0
    total_failures: int = 0
    quarantines: int = 0
    #: First step index at which the scheme may run again.
    quarantined_until: int = 0
    last_failure_step: int | None = None

    def is_quarantined(self, step: int) -> bool:
        """Return True while the scheme is being skipped."""
        return step < self.quarantined_until

    def note_success(self) -> None:
        """Record a healthy output: failure streak and backoff reset."""
        self.consecutive_failures = 0
        self.quarantines = 0

    def note_failure(self, step: int) -> bool:
        """Record one failure; return True when it (re-)enters quarantine."""
        self.consecutive_failures += 1
        self.total_failures += 1
        self.last_failure_step = step
        if self.consecutive_failures < QUARANTINE_THRESHOLD:
            return False
        backoff = min(
            QUARANTINE_BASE_STEPS * (2**self.quarantines), QUARANTINE_MAX_STEPS
        )
        self.quarantined_until = step + 1 + backoff
        self.quarantines += 1
        return True

    def recovery_factor(self, step: int) -> float:
        """Return the confidence multiplier after recent failures.

        Ramps linearly from 0 at the failure step back to 1 after
        :data:`CONFIDENCE_DECAY_STEPS` healthy steps; 1.0 for
        never-failed schemes, so the clean path is numerically untouched.
        """
        if self.last_failure_step is None:
            return 1.0
        since = step - self.last_failure_step
        if since >= CONFIDENCE_DECAY_STEPS:
            return 1.0
        return max(since, 0) / CONFIDENCE_DECAY_STEPS


@dataclass
class StepDecision:
    """Everything UniLoc decided at one location-estimation step."""

    outputs: dict[str, SchemeOutput | None]
    predicted_errors: dict[str, float]
    confidences: dict[str, float]
    weights: dict[str, float]
    tau: float
    indoor: bool
    selected: str | None
    uniloc1_position: Point | None
    uniloc2_position: Point | None
    gps_enabled: bool
    #: Schemes that *failed* this step (``exception``, ``nonfinite`` or
    #: ``implausible``), mapped to the failure kind.  Distinct from plain
    #: unavailability, which is a ``None`` output with no entry here.
    failures: dict[str, str] = field(default_factory=dict)
    #: Schemes skipped this step because they are serving a quarantine.
    quarantined: tuple[str, ...] = ()

    def available_schemes(self) -> list[str]:
        """Return the schemes that produced an output this step."""
        return [name for name, out in self.outputs.items() if out is not None]


@dataclass
class UniLocFramework:
    """The unified localization framework over N registered schemes.

    Attributes:
        place: the place being localized in (grid + map features).
        bundles: scheme name -> bundle; any scheme can be added, which is
            the framework's "General" design goal.
        grid_cell_m: BMA grid resolution.
        gps_duty_cycling: only power the :data:`GPS_SCHEME` bundle when
            it is predicted to be the most accurate scheme (§IV-C).
        iodetector: the indoor/outdoor classifier.
        location_predictor: trajectory predictor with
            ``observe``/``predict``/``reset`` (None: the second-order
            HMM over the BMA grid).
        metrics: optional registry accumulating step counters (scheme
            selections, GPS powering, indoor steps, per-scheme failures
            and quarantines) and the stage clock's histograms
            (``uniloc.step_ms``, ``uniloc.stage.<stage>_ms``).
        telemetry: event sink receiving the degradation lifecycle
            (``fault/contain``, ``quarantine``/``probe``/``release``
            events with scheme and step IDs) for the cross-process
            telemetry stream.  The default no-op sink keeps the clean
            hot path at one attribute lookup.
    """

    place: Place
    bundles: dict[str, SchemeBundle]
    grid_cell_m: float = 2.0
    gps_duty_cycling: bool = True
    iodetector: IODetector = field(default_factory=IODetector)
    location_predictor: object | None = None
    metrics: MetricsRegistry | None = None
    telemetry: EventSinkLike = NOOP_EMITTER

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("UniLoc needs at least one scheme")
        self._grid: Grid = self.place.grid(self.grid_cell_m)
        # Any object with observe/predict/reset works (second-order HMM by
        # default; a Kalman predictor is the paper-sanctioned alternative).
        self._hmm = (
            self.location_predictor
            if self.location_predictor is not None
            else SecondOrderHmm(self._grid)
        )
        self._step_index = 0
        self._health: dict[str, SchemeHealth] = {
            name: SchemeHealth() for name in self.bundles
        }
        self._bounds = self.place.boundary.bounding_box()
        #: Wall time (ms) of each stage of the last step, keyed by
        #: :data:`STAGES` and ``scheme.<name>``; replaced every step.
        self.stage_ms: dict[str, float] = {}
        prepare_lane(self.bundles)

    @property
    def grid(self) -> Grid:
        """Return the BMA discretization grid."""
        return self._grid

    def health(self, name: str) -> SchemeHealth:
        """Return the live health record of one registered scheme.

        Raises:
            KeyError: for an unregistered scheme name.
        """
        return self._health[name]

    def reset(self) -> None:
        """Reset all schemes, health tracking, and the trajectory predictor."""
        self._hmm.reset()
        self._step_index = 0
        self._health = {name: SchemeHealth() for name in self.bundles}
        for bundle in self.bundles.values():
            bundle.scheme.reset()

    def add_scheme(self, name: str, bundle: SchemeBundle) -> None:
        """Integrate a new localization scheme at runtime.

        Raises:
            ValueError: if the name is already registered, or the
                bundle's scheme instance already is under another name.
        """
        if name in self.bundles:
            raise ValueError(f"scheme {name!r} already registered")
        prepare_lane({**self.bundles, name: bundle})
        self.bundles[name] = bundle
        self._health[name] = SchemeHealth()

    # ------------------------------------------------------------------

    def step(self, snapshot: SensorSnapshot) -> StepDecision:
        """Run one full UniLoc location estimation.

        This is the one way to step a walker:
        :func:`~repro.eval.runner.run_walk` calls it once per step of
        every walk the fleet engine runs.
        """
        self.stage_ms = stage_ms = {}
        start = monotonic_s()
        indoor = self.iodetector.is_indoor(snapshot)
        stage_ms["iodetect"] = (monotonic_s() - start) * 1e3
        decision = self._step(snapshot, indoor)
        stage_ms["step"] = (monotonic_s() - start) * 1e3
        self._record_step_metrics(decision)
        self._step_index += 1
        return decision

    def _step(self, snapshot: SensorSnapshot, indoor: bool) -> StepDecision:
        stage_ms = self.stage_ms
        outputs, predicted_errors, failures, quarantined = self._run_schemes(
            snapshot, indoor
        )

        available = {
            name: err
            for name, err in predicted_errors.items()
            if outputs.get(name) is not None
        }
        if not available:
            stage_ms["confidence"] = stage_ms["bma"] = 0.0
            return StepDecision(
                outputs=outputs,
                predicted_errors=predicted_errors,
                confidences={},
                weights={},
                tau=float("nan"),
                indoor=indoor,
                selected=None,
                uniloc1_position=None,
                uniloc2_position=None,
                gps_enabled=self._gps_ran(outputs),
                failures=failures,
                quarantined=quarantined,
            )

        mark = monotonic_s()
        tau = adaptive_threshold(list(available.values()))
        confidences = {
            name: confidence(
                err,
                self.bundles[name].error_models.for_context(indoor).residual_std,
                tau,
            )
            for name, err in available.items()
        }
        confidences = self._decay_confidences(confidences)
        weights = normalized_weights(confidences)

        selected = max(confidences, key=confidences.get)
        uniloc1_position = outputs[selected].position
        confidence_end = monotonic_s()
        uniloc2_position = self._bma_estimate(outputs, weights, confidences)
        bma_end = monotonic_s()
        self._hmm.observe(uniloc2_position)
        stage_ms["confidence"] = (confidence_end - mark) * 1e3
        stage_ms["bma"] = (bma_end - confidence_end) * 1e3
        stage_ms["hmm"] += (monotonic_s() - bma_end) * 1e3
        return StepDecision(
            outputs=outputs,
            predicted_errors=predicted_errors,
            confidences=confidences,
            weights=weights,
            tau=tau,
            indoor=indoor,
            selected=selected,
            uniloc1_position=uniloc1_position,
            uniloc2_position=uniloc2_position,
            gps_enabled=self._gps_ran(outputs),
            failures=failures,
            quarantined=quarantined,
        )

    def _decay_confidences(self, confidences: dict[str, float]) -> dict[str, float]:
        """Scale down the confidence of recently-faulty schemes.

        Schemes with a clean history get factor 1.0 and their confidence
        value passes through unmultiplied, keeping fault-free walks
        bit-identical to the pre-degradation framework.
        """
        decayed: dict[str, float] = {}
        for name, value in confidences.items():
            factor = self._health[name].recovery_factor(self._step_index)
            decayed[name] = value if factor == 1.0 else value * factor
        return decayed

    def _record_step_metrics(self, decision: StepDecision) -> None:
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("uniloc.steps").inc()
        if decision.selected is not None:
            m.counter(f"uniloc.selected.{decision.selected}").inc()
        else:
            m.counter("uniloc.steps_without_estimate").inc()
        if decision.gps_enabled:
            m.counter("uniloc.gps_powered").inc()
        if decision.indoor:
            m.counter("uniloc.indoor_steps").inc()
        if decision.failures:
            m.counter("uniloc.steps_with_failures").inc()
        for stage, ms in self.stage_ms.items():
            name = "uniloc.step_ms" if stage == "step" else f"uniloc.stage.{stage}_ms"
            m.histogram(name).observe(ms)

    # ------------------------------------------------------------------

    def _run_schemes(
        self, snapshot: SensorSnapshot, indoor: bool
    ) -> tuple[
        dict[str, SchemeOutput | None],
        dict[str, float],
        dict[str, str],
        tuple[str, ...],
    ]:
        """Run all schemes and predict every scheme's error exactly once.

        Returns ``(outputs, predicted_errors, failures, quarantined)``.
        The GPS energy policy (§IV-C) reuses the shared error predictions
        instead of recomputing them, so error prediction runs once per
        step.
        """
        outputs: dict[str, SchemeOutput | None] = {}
        failures: dict[str, str] = {}
        skipped: list[str] = []
        for name, bundle in self.bundles.items():
            if name == GPS_SCHEME and self.gps_duty_cycling:
                continue  # decided after the other schemes' errors are known
            outputs[name] = self._run_scheme(
                name, bundle.scheme, snapshot, failures, skipped
            )
        mark = monotonic_s()
        predicted_location = self._predicted_location(outputs)
        predicted = monotonic_s()
        predicted_errors = self._predict_errors(
            snapshot, outputs, predicted_location, indoor
        )
        self.stage_ms["hmm"] = (predicted - mark) * 1e3
        self.stage_ms["error_prediction"] = (monotonic_s() - predicted) * 1e3
        if GPS_SCHEME in self.bundles and self.gps_duty_cycling:
            outputs[GPS_SCHEME] = self._gps_policy_output(
                snapshot, outputs, predicted_errors, indoor, failures, skipped
            )
        return outputs, predicted_errors, failures, tuple(skipped)

    def _run_scheme(
        self,
        name: str,
        scheme: Scheme,
        snapshot: SensorSnapshot,
        failures: dict[str, str],
        skipped: list[str],
    ) -> SchemeOutput | None:
        """Run one scheme through quarantine, guarding, and bookkeeping."""
        health = self._health[name]
        if health.is_quarantined(self._step_index):
            skipped.append(name)
            if self.metrics is not None:
                self.metrics.counter(f"uniloc.quarantine.skipped.{name}").inc()
            return None
        # First step after a backoff expires is a probe: one healthy
        # output releases the scheme, one failure re-quarantines it.
        probing = (
            health.quarantines > 0
            and self._step_index == health.quarantined_until
        )
        if probing and self.telemetry.enabled:
            self.telemetry.emit(
                "quarantine", "probe", scheme=name, step=self._step_index
            )
        output, failure = self._guarded_estimate(name, scheme, snapshot)
        if failure is not None:
            failures[name] = failure
            self._note_failure(name, health, failure)
            return None
        if output is not None:
            if probing and self.telemetry.enabled:
                self.telemetry.emit(
                    "quarantine", "release", scheme=name, step=self._step_index
                )
            health.note_success()
        return output

    def _guarded_estimate(
        self, name: str, scheme: Scheme, snapshot: SensorSnapshot
    ) -> tuple[SchemeOutput | None, str | None]:
        """Run one scheme defensively; returns ``(output, failure_kind)``.

        Catches any exception (schemes are black boxes — §III-A says the
        framework must not trust them), times ``estimate()`` into the
        stage clock's ``scheme.<name>`` entry, and rejects non-finite and
        implausible outputs.  Every
        scheme of every walker runs through here, so a raising scheme is
        charged to its own walker and never escapes :meth:`step`.
        """
        start = monotonic_s()
        try:
            output = scheme.estimate(snapshot)
        except Exception:  # noqa: BLE001 — black-box scheme
            self.stage_ms[f"scheme.{name}"] = (monotonic_s() - start) * 1e3
            return None, "exception"
        self.stage_ms[f"scheme.{name}"] = (monotonic_s() - start) * 1e3
        if output is not None and not output.is_finite():
            return None, "nonfinite"
        if output is not None and not self._plausible(output.position):
            return None, "implausible"
        return output, None

    def _plausible(self, position: Point) -> bool:
        """True when an estimate lies within the place plus a wide margin."""
        margin = IMPLAUSIBLE_MARGIN_M
        min_x, min_y, max_x, max_y = self._bounds
        return (
            min_x - margin <= position.x <= max_x + margin
            and min_y - margin <= position.y <= max_y + margin
        )

    def _note_failure(self, name: str, health: SchemeHealth, kind: str) -> None:
        """Update health tracking and metrics after one scheme failure."""
        entered = health.note_failure(self._step_index)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault",
                "contain",
                scheme=name,
                step=self._step_index,
                failure=kind,
            )
            if entered:
                self.telemetry.emit(
                    "quarantine",
                    "quarantine",
                    scheme=name,
                    step=self._step_index,
                    until=health.quarantined_until,
                    quarantines=health.quarantines,
                )
        if self.metrics is None:
            return
        self.metrics.counter(f"uniloc.faults.{name}.{kind}").inc()
        if entered:
            self.metrics.counter(f"uniloc.quarantine.entered.{name}").inc()

    def _gps_policy_output(
        self,
        snapshot: SensorSnapshot,
        outputs: dict[str, SchemeOutput | None],
        predicted_errors: dict[str, float],
        indoor: bool,
        failures: dict[str, str],
        skipped: list[str],
    ) -> SchemeOutput | None:
        """Apply §IV-C: power GPS only when predicted to be the best.

        Indoors GPS stays off.  Outdoors its (feature-free) predicted
        error — already present in the shared ``predicted_errors`` since
        the GPS outdoor model needs no output-derived features — is
        compared against the other schemes' predictions; only when GPS
        wins is the chip enabled and its output consumed (through the
        same quarantine/guard path as every other scheme).
        """
        if indoor:
            return None
        gps_error = predicted_errors.get(GPS_SCHEME)
        if gps_error is None:
            return None  # no fitted outdoor GPS model: never predicted best
        competitors = [
            err
            for name, err in predicted_errors.items()
            if name != GPS_SCHEME and outputs.get(name) is not None
        ]
        if competitors and gps_error >= min(competitors):
            return None
        return self._run_scheme(
            GPS_SCHEME, self.bundles[GPS_SCHEME].scheme, snapshot, failures, skipped
        )

    def _gps_ran(self, outputs: dict[str, SchemeOutput | None]) -> bool:
        """Return True if the GPS chip was powered this step."""
        return outputs.get(GPS_SCHEME) is not None

    def _predicted_location(
        self, outputs: dict[str, SchemeOutput | None]
    ) -> Point:
        """Return the HMM-predicted location (never the ground truth).

        Before the HMM has history (walk start), falls back to the mean
        of the available schemes' own estimates, then to the place center.
        """
        predicted = self._hmm.predict()
        if predicted is not None:
            return predicted
        positions = [out.position for out in outputs.values() if out is not None]
        if positions:
            mean_x = sum(p.x for p in positions) / len(positions)
            mean_y = sum(p.y for p in positions) / len(positions)
            return Point(mean_x, mean_y)
        min_x, min_y, max_x, max_y = self.place.boundary.bounding_box()
        return Point((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)

    def _predict_errors(
        self,
        snapshot: SensorSnapshot,
        outputs: dict[str, SchemeOutput | None],
        predicted_location: Point,
        indoor: bool,
    ) -> dict[str, float]:
        """Predict every registered scheme's error from its features."""
        predictions: dict[str, float] = {}
        for name, bundle in self.bundles.items():
            model = bundle.error_models.for_context(indoor)
            if not model.is_fitted:
                continue
            ctx = FeatureContext(
                snapshot=snapshot,
                output=outputs.get(name),
                predicted_location=predicted_location,
                indoor=indoor,
            )
            features = bundle.extractor.extract(ctx)
            try:
                predictions[name] = model.predict(features)
            except KeyError:
                continue  # extractor cannot produce this model's features
        return predictions

    def _bma_estimate(
        self,
        outputs: dict[str, SchemeOutput | None],
        weights: dict[str, float],
        confidences: dict[str, float],
    ) -> Point:
        """Mix scheme posteriors by weight and read out Eq. 4."""
        mixture = bma_mixture(self._grid, outputs, weights)
        if mixture is None or mixture.sum() <= 0.0:
            # Degenerate mixture (all contributions vanished): fall back
            # to the single output the framework trusts most.
            available = [name for name, out in outputs.items() if out is not None]
            best = max(available, key=lambda name: confidences.get(name, 0.0))
            return outputs[best].position
        return self._grid.expected_point(mixture)


def bma_mixture(
    grid: Grid,
    outputs: dict[str, SchemeOutput | None],
    weights: dict[str, float],
) -> np.ndarray | None:
    """Return the BMA mixture ``sum_n w_n * P(l | M_n)`` (paper Eq. 3).

    Each output with a positive weight is rasterized onto ``grid``
    (:meth:`SchemeOutput.grid_posterior`), scaled in place and added in
    ``weights`` order; the first scaled posterior is the accumulator
    (``0 + x == x`` for the non-negative cells, so this matches summing
    into zeros bit for bit).  Returns None when no output contributes.
    """
    mixture: np.ndarray | None = None
    for name, weight in weights.items():
        output = outputs.get(name)
        if output is None or weight <= 0.0:
            continue
        posterior = output.grid_posterior(grid)
        posterior *= weight
        if mixture is None:
            mixture = posterior
        else:
            mixture += posterior
    return mixture


def prepare_lane(bundles: dict[str, SchemeBundle]) -> None:
    """Check a walker's schemes are distinct instances.

    Each scheme advances once per step, so one instance registered under
    two names would be estimated twice per step.

    Raises:
        ValueError: if two names share one scheme instance.
    """
    if len({id(bundle.scheme) for bundle in bundles.values()}) != len(bundles):
        raise ValueError("a scheme instance is registered under two names")
