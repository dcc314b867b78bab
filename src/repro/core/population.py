"""Population stepping: N UniLoc walkers advanced one step at a time.

:class:`PopulationFramework` advances many :class:`UniLocFramework`
*lanes* through one location-estimation step at a time; a single
framework's :meth:`UniLocFramework.step` runs as a population of one.
Results are **byte-identical** to stepping every lane on its own.

Every lane runs every scheme through its own containment guard
(``UniLocFramework._guarded_estimate``): finite/plausible gates, failure
charging, quarantine, telemetry and metrics are one path, and a scheme
that raises in one lane is charged to that lane and scheme only — it
never escapes :meth:`PopulationFramework.step_batch`.

What the population shares across lanes is memoized geometry: corridor
widths and fingerprint spatial densities queried at grid-snapped points
are computed once per place/survey, not once per lane and step.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.framework import StepDecision, UniLocFramework
from repro.radio.fingerprint import FingerprintDatabase
from repro.radio.kernels import CompiledFingerprintDatabase, compile_fingerprints
from repro.sensors import SensorSnapshot


class PopulationFramework:
    """Step N independent UniLoc walkers at once.

    Lanes are full :class:`UniLocFramework` instances — each keeps its
    own schemes, RNG streams, health/quarantine state, and trajectory
    predictor — so a population is exactly N serial walkers.

    Raises:
        ValueError: for an empty population or lanes sharing scheme
            instances (each scheme advances once per lane step).
    """

    def __init__(self, lanes: Sequence[UniLocFramework]) -> None:
        if not lanes:
            raise ValueError("a population needs at least one lane")
        self.lanes: list[UniLocFramework] = list(lanes)
        seen: set[int] = set()
        for lane in self.lanes:
            for bundle in lane.bundles.values():
                if id(bundle.scheme) in seen:
                    raise ValueError(
                        "population lanes must not share scheme instances"
                    )
                seen.add(id(bundle.scheme))
            self._enable_memos(lane)

    @property
    def n_lanes(self) -> int:
        """Return the population size N."""
        return len(self.lanes)

    def reset(self) -> None:
        """Reset every lane (schemes, health, trajectory predictors)."""
        for lane in self.lanes:
            lane.reset()

    def step_batch(
        self,
        snapshots: Sequence[SensorSnapshot],
        lanes: Sequence[UniLocFramework] | None = None,
    ) -> list[StepDecision]:
        """Advance every lane by one step; returns one decision per lane.

        Args:
            snapshots: one sensor snapshot per lane, aligned with the
                lane order.
            lanes: optional subset (or reordering) of the population to
                step this call — walkers in a fleet do not all share walk
                lengths.  Defaults to all lanes.

        Raises:
            ValueError: if ``snapshots`` and the stepped lanes disagree
                in length.
        """
        stepped = self.lanes if lanes is None else list(lanes)
        if len(snapshots) != len(stepped):
            raise ValueError("need exactly one snapshot per stepped lane")
        return [
            lane._step_lane(snapshot) for lane, snapshot in zip(stepped, snapshots)
        ]

    @staticmethod
    def _enable_memos(lane: UniLocFramework) -> None:
        """Turn on cross-lane geometry/feature memoization for one lane.

        Corridor widths and fingerprint spatial densities are pure
        functions queried at grid-snapped points; memoizing them on the
        shared place/survey dedupes identical queries across lanes and
        steps while returning the scalar functions' exact floats.
        """
        lane.place.enable_feature_memo()
        for bundle in lane.bundles.values():
            for attr in ("_index", "_fp_index"):
                index = getattr(bundle.scheme, attr, None)
                if isinstance(index, CompiledFingerprintDatabase):
                    index.enable_density_memo()
            database = getattr(bundle.extractor, "database", None)
            if isinstance(database, FingerprintDatabase):
                compile_fingerprints(database).enable_density_memo()
