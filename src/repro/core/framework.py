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
* a scheme whose ``estimate()`` exceeds the optional per-step timeout
  budget has its output discarded;
* non-finite outputs (NaN/Inf position or spread) are rejected before
  they can poison the BMA mixture;
* schemes that fail repeatedly are quarantined — skipped entirely — for
  an exponentially growing number of steps (:class:`SchemeHealth`), and
  probed again when the backoff expires;
* a recently-faulty scheme's confidence is decayed back in over a few
  steps, so one good answer after a crash burst does not immediately
  dominate the ensemble.

Every failure, quarantine entry, and skipped step is counted in the
attached metrics registry and annotated on the tracing spans.
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
from repro.obs.tracing import NOOP_TRACER
from repro.schemes.base import Scheme, SchemeOutput
from repro.sensors import SensorSnapshot
from repro.world import Place


@dataclass
class SchemeBundle:
    """A scheme plus the error-model machinery UniLoc wraps around it."""

    scheme: Scheme
    error_models: ErrorModelSet
    extractor: FeatureExtractor


@dataclass
class SchemeHealth:
    """Failure tracking and quarantine state for one scheme.

    The framework treats *failures* (exceptions, timeouts, non-finite
    outputs) differently from plain unavailability (a ``None`` output):
    unavailability is the paper's normal §IV-A regime, while repeated
    failures indicate a broken scheme that should stop being called.
    After ``threshold`` consecutive failures the scheme is quarantined
    for ``base_steps`` steps; every re-quarantine while still failing
    doubles the backoff (capped), and one healthy probe resets it.
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

    def note_failure(
        self, step: int, threshold: int, base_steps: int, max_steps: int
    ) -> bool:
        """Record one failure; return True when it (re-)enters quarantine."""
        self.consecutive_failures += 1
        self.total_failures += 1
        self.last_failure_step = step
        if self.consecutive_failures < threshold:
            return False
        backoff = min(base_steps * (2**self.quarantines), max_steps)
        self.quarantined_until = step + 1 + backoff
        self.quarantines += 1
        return True

    def recovery_factor(self, step: int, decay_steps: int) -> float:
        """Return the confidence multiplier after recent failures.

        Ramps linearly from 0 at the failure step back to 1 after
        ``decay_steps`` healthy steps; 1.0 for never-failed schemes, so
        the clean path is numerically untouched.
        """
        if self.last_failure_step is None or decay_steps <= 0:
            return 1.0
        since = step - self.last_failure_step
        if since >= decay_steps:
            return 1.0
        return max(since, 0) / decay_steps


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
    #: Per-scheme ``estimate()`` wall time; populated only when the
    #: framework runs with a recording tracer (empty on the no-op path).
    scheme_latency_ms: dict[str, float] = field(default_factory=dict)
    #: Schemes that *failed* this step (exception / timeout / non-finite
    #: output), mapped to the failure kind.  Distinct from plain
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
        gps_scheme: name of the GPS bundle for duty-cycling (None
            disables the energy policy).
        gps_duty_cycling: only power GPS when it is predicted to be the
            most accurate scheme.
        tracer: span recorder for the step hot path.  The default no-op
            tracer keeps the instrumentation cost at one attribute
            lookup per span site; swap in :class:`repro.obs.Tracer` to
            record per-step wall-time trees and per-scheme latency.
        metrics: optional registry accumulating step counters (scheme
            selections, GPS powering, indoor steps, per-scheme failures
            and quarantines) and — when a recording tracer is attached —
            latency histograms.
        telemetry: event sink receiving the degradation lifecycle
            (``fault/contain``, ``quarantine``/``probe``/``release``
            events with scheme and step IDs) for the cross-process
            telemetry stream.  The default no-op sink keeps the clean
            hot path at one attribute lookup, mirroring ``tracer``.
        scheme_timeout_ms: per-step wall-time budget for one scheme's
            ``estimate()``; outputs that arrive later are discarded and
            counted as a ``timeout`` failure (None disables the budget).
        quarantine_threshold: consecutive failures before a scheme is
            quarantined.
        quarantine_base_steps: length of the first quarantine; each
            re-quarantine while the scheme keeps failing doubles it.
        quarantine_max_steps: backoff cap.
        confidence_decay_steps: healthy steps over which a recently
            faulty scheme's confidence ramps back to full weight.
        implausible_margin_m: estimates farther than this outside the
            place's bounding box are discarded as ``implausible``
            failures before they can reach the BMA mixture — a finite
            but wildly wrong coordinate (a garbage scheme output) is as
            poisonous as a NaN.  The default is far beyond any honest
            scheme's worst-case error; None disables the gate.
    """

    place: Place
    bundles: dict[str, SchemeBundle]
    grid_cell_m: float = 2.0
    gps_scheme: str | None = "gps"
    gps_duty_cycling: bool = True
    iodetector: IODetector = field(default_factory=IODetector)
    location_predictor: object | None = None
    tracer: object = NOOP_TRACER
    metrics: MetricsRegistry | None = None
    telemetry: EventSinkLike = NOOP_EMITTER
    scheme_timeout_ms: float | None = None
    quarantine_threshold: int = 3
    quarantine_base_steps: int = 8
    quarantine_max_steps: int = 256
    confidence_decay_steps: int = 5
    implausible_margin_m: float | None = 500.0

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("UniLoc needs at least one scheme")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
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
        # Lazily-built population of one backing :meth:`step`.
        self._population = None

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
            ValueError: if the name is already registered.
        """
        if name in self.bundles:
            raise ValueError(f"scheme {name!r} already registered")
        self.bundles[name] = bundle
        self._health[name] = SchemeHealth()

    # ------------------------------------------------------------------

    def step(self, snapshot: SensorSnapshot) -> StepDecision:
        """Run one full UniLoc location estimation.

        The step runs as a population of one
        (:class:`~repro.core.population.PopulationFramework`), the same
        code path a fleet of walkers takes.
        """
        if self._population is None:
            from repro.core.population import PopulationFramework

            self._population = PopulationFramework([self])
        return self._population.step_batch([snapshot])[0]

    def _step_lane(self, snapshot: SensorSnapshot) -> StepDecision:
        """Run one step of this framework as a population lane."""
        with self.tracer.span("uniloc.step") as step_span:
            decision = self._step(snapshot)
        self._record_step_metrics(decision, step_span)
        self._step_index += 1
        return decision

    def _step(self, snapshot: SensorSnapshot) -> StepDecision:
        with self.tracer.span("uniloc.iodetect"):
            indoor = self.iodetector.is_indoor(snapshot)
        outputs, predicted_errors, latencies, failures, quarantined = (
            self._run_schemes(snapshot, indoor)
        )

        available = {
            name: err
            for name, err in predicted_errors.items()
            if outputs.get(name) is not None
        }
        if not available:
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
                scheme_latency_ms=latencies,
                failures=failures,
                quarantined=quarantined,
            )

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
        with self.tracer.span("uniloc.bma"):
            uniloc2_position = self._bma_estimate(outputs, weights, confidences)
        with self.tracer.span("uniloc.hmm_observe"):
            self._hmm.observe(uniloc2_position)
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
            scheme_latency_ms=latencies,
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
            factor = self._health[name].recovery_factor(
                self._step_index, self.confidence_decay_steps
            )
            decayed[name] = value if factor == 1.0 else value * factor
        return decayed

    def _record_step_metrics(self, decision: StepDecision, step_span: object) -> None:
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
        if self.tracer.enabled:
            m.histogram("uniloc.step_ms").observe(step_span.duration_ms)
            for name, latency in decision.scheme_latency_ms.items():
                m.histogram(f"scheme.{name}.estimate_ms").observe(latency)

    # ------------------------------------------------------------------

    def _run_schemes(
        self, snapshot: SensorSnapshot, indoor: bool
    ) -> tuple[
        dict[str, SchemeOutput | None],
        dict[str, float],
        dict[str, float],
        dict[str, str],
        tuple[str, ...],
    ]:
        """Run all schemes and predict every scheme's error exactly once.

        Returns ``(outputs, predicted_errors, latencies_ms, failures,
        quarantined)``.  The GPS energy policy (§IV-C) reuses the shared
        error predictions instead of recomputing them, so error
        prediction runs once per step.
        """
        outputs: dict[str, SchemeOutput | None] = {}
        latencies: dict[str, float] = {}
        failures: dict[str, str] = {}
        skipped: list[str] = []
        for name, bundle in self.bundles.items():
            if name == self.gps_scheme and self.gps_duty_cycling:
                continue  # decided after the other schemes' errors are known
            outputs[name] = self._run_scheme(
                name, bundle.scheme, snapshot, latencies, failures, skipped
            )
        predicted_location = self._predicted_location(outputs)
        with self.tracer.span("uniloc.predict_errors"):
            predicted_errors = self._predict_errors(
                snapshot, outputs, predicted_location, indoor
            )
        if self.gps_scheme in self.bundles and self.gps_duty_cycling:
            outputs[self.gps_scheme] = self._gps_policy_output(
                snapshot,
                outputs,
                predicted_errors,
                indoor,
                latencies,
                failures,
                skipped,
            )
        return outputs, predicted_errors, latencies, failures, tuple(skipped)

    def _run_scheme(
        self,
        name: str,
        scheme: Scheme,
        snapshot: SensorSnapshot,
        latencies: dict[str, float],
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
        output, failure = self._guarded_estimate(name, scheme, snapshot, latencies)
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
        self,
        name: str,
        scheme: Scheme,
        snapshot: SensorSnapshot,
        latencies: dict[str, float],
    ) -> tuple[SchemeOutput | None, str | None]:
        """Run one scheme defensively; returns ``(output, failure_kind)``.

        Catches any exception (schemes are black boxes — §III-A says the
        framework must not trust them), enforces the optional per-step
        timeout budget, and rejects non-finite and implausible outputs.
        Latency is recorded when tracing is on.  Every scheme of every
        population lane runs through here, so a raising scheme is charged
        to its own lane and never escapes a population step.
        """
        budget = self.scheme_timeout_ms
        if self.tracer.enabled:
            with self.tracer.span("scheme.estimate", scheme=name) as span:
                try:
                    output = scheme.estimate(snapshot)
                except Exception as exc:  # noqa: BLE001 — black-box scheme
                    span.annotate(failed="exception", error=type(exc).__name__)
                    latencies[name] = span.duration_ms
                    return None, "exception"
            latencies[name] = span.duration_ms
            elapsed_ms = span.duration_ms
            span.annotate(available=output is not None)
        else:
            start = monotonic_s() if budget is not None else 0.0
            try:
                output = scheme.estimate(snapshot)
            except Exception:  # noqa: BLE001 — black-box scheme
                return None, "exception"
            elapsed_ms = (
                (monotonic_s() - start) * 1e3 if budget is not None else 0.0
            )
        if budget is not None and elapsed_ms > budget:
            return None, "timeout"
        if output is not None and not output.is_finite():
            return None, "nonfinite"
        if output is not None and not self._plausible(output.position):
            return None, "implausible"
        return output, None

    def _plausible(self, position: Point) -> bool:
        """True when an estimate lies within the place plus a wide margin."""
        margin = self.implausible_margin_m
        if margin is None:
            return True
        min_x, min_y, max_x, max_y = self._bounds
        return (
            min_x - margin <= position.x <= max_x + margin
            and min_y - margin <= position.y <= max_y + margin
        )

    def _note_failure(self, name: str, health: SchemeHealth, kind: str) -> None:
        """Update health tracking and metrics after one scheme failure."""
        entered = health.note_failure(
            self._step_index,
            self.quarantine_threshold,
            self.quarantine_base_steps,
            self.quarantine_max_steps,
        )
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
        latencies: dict[str, float],
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
        gps_error = predicted_errors.get(self.gps_scheme)
        if gps_error is None:
            return None  # no fitted outdoor GPS model: never predicted best
        competitors = [
            err
            for name, err in predicted_errors.items()
            if name != self.gps_scheme and outputs.get(name) is not None
        ]
        if competitors and gps_error >= min(competitors):
            return None
        return self._run_scheme(
            self.gps_scheme,
            self.bundles[self.gps_scheme].scheme,
            snapshot,
            latencies,
            failures,
            skipped,
        )

    def _gps_ran(self, outputs: dict[str, SchemeOutput | None]) -> bool:
        """Return True if the GPS chip was powered this step."""
        if self.gps_scheme is None or self.gps_scheme not in outputs:
            return False
        return outputs[self.gps_scheme] is not None

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
        """Mix scheme posteriors by weight and read out Eq. 4.

        Each output contributing a positive weight is rasterized onto
        the BMA grid (:meth:`SchemeOutput.grid_posterior`).
        """
        mixture = np.zeros(self._grid.n_cells)
        for name, weight in weights.items():
            output = outputs.get(name)
            if output is None or weight <= 0.0:
                continue
            mixture += weight * output.grid_posterior(self._grid)
        if mixture.sum() <= 0.0:
            # Degenerate mixture (all contributions vanished): fall back
            # to the single output the framework trusts most.
            available = [name for name, out in outputs.items() if out is not None]
            best = max(available, key=lambda name: confidences.get(name, 0.0))
            return outputs[best].position
        return self._grid.expected_point(mixture)
