"""Motion-based pedestrian dead reckoning (Li et al. [7]).

The scheme infers the walking model — step events, step lengths, walking
orientation — from the inertial pipeline, advances a 300-particle filter
constrained by the map, and calibrates against detected landmarks (turns,
doors, and UnLoc [12]-style signatures).

It also implements the paper's step-compensation mechanism (§III-B): a
human step takes 0.4-0.7 s, so inferred step events outside that band are
repaired — a too-short event is a trembling artifact and is deleted; a
too-long event is two merged strides and a step is added back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.motion.gait import STEP_PERIOD_MAX_S, STEP_PERIOD_MIN_S
from repro.schemes.base import LocalizationScheme, SchemeOutput
from repro.schemes.particle_filter import ParticleFilter
from repro.sensors import SensorSnapshot
from repro.sensors.imu import StepEvent
from repro.world import Place

#: Spread (meters) of the particle cloud right after a landmark reset.
#: Landmark positions are only known to within the detection geometry, so
#: a reset cannot be pin-sharp.
LANDMARK_RESET_SPREAD_M = 3.0

#: Spread (meters) of the initial cloud at the known start position.
START_SPREAD_M = 1.0


def compensate_steps(events: tuple[StepEvent, ...]) -> list[float]:
    """Apply the paper's 0.4-0.7 s step-period compensation.

    Returns:
        The list of step lengths to integrate: events shorter than the
        human band are dropped (false positives from trembling), events
        longer than the band contribute a second step of the same length
        (a merged double-stride).
    """
    lengths: list[float] = []
    for event in events:
        if event.period_s < STEP_PERIOD_MIN_S:
            continue
        lengths.append(event.length_m)
        if event.period_s > STEP_PERIOD_MAX_S:
            lengths.append(event.length_m)
    return lengths


@dataclass
class PdrScheme(LocalizationScheme):
    """Map-constrained particle-filter PDR with landmark calibration."""

    place: Place
    start: Point
    n_particles: int = 300
    seed: int = 0
    name: str = "motion"

    def __post_init__(self) -> None:
        self._pf = ParticleFilter(self.place, n_particles=self.n_particles)
        self.reset()

    def reset(self) -> None:
        """Re-initialize the cloud at the start position."""
        self._rng = np.random.default_rng(self.seed)
        self._pf.initialize(self.start, START_SPREAD_M, self._rng)
        self.distance_since_landmark = 0.0

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Advance the filter by one sensing step and report the estimate."""
        self._motion_update(snapshot)
        self._landmark_update(snapshot)
        self._pf.resample_if_needed()
        return self._output(snapshot)

    # -- pieces shared with the fusion scheme ------------------------------

    def _motion_update(self, snapshot: SensorSnapshot) -> float:
        """Integrate compensated steps; return the walked distance."""
        walked = 0.0
        for length in compensate_steps(snapshot.imu.step_events):
            self._pf.predict(length, snapshot.imu.heading_rad)
            walked += length
        self.distance_since_landmark += walked
        return walked

    def _landmark_update(self, snapshot: SensorSnapshot) -> None:
        """Recenter the cloud at a detected calibration landmark."""
        if not snapshot.detected_landmarks:
            return
        estimate, _ = self._pf.estimate()
        landmark = min(
            snapshot.detected_landmarks,
            key=lambda lm: lm.position.distance_to(estimate),
        )
        self._pf.recenter(landmark.position, LANDMARK_RESET_SPREAD_M)
        self.distance_since_landmark = 0.0

    def _output(self, snapshot: SensorSnapshot) -> SchemeOutput:
        """Build the scheme output from the current cloud."""
        position, spread = self._pf.estimate()
        return SchemeOutput(
            position=position,
            spread=spread,
            samples=self._pf.positions.copy(),
            sample_weights=self._pf.weights.copy(),
            quality={
                "distance_since_landmark": self.distance_since_landmark,
                "orientation_change_rate": snapshot.imu.orientation_change_rate,
                "n_step_events": float(len(snapshot.imu.step_events)),
            },
        )
