"""The e2e fleet workloads' tick helper: N UniLoc walkers, one step each.

:class:`PopulationFramework` advances many :class:`UniLocFramework`
*lanes* by one location-estimation step by calling each lane's
:meth:`UniLocFramework.step`, so results are **byte-identical** to
stepping every lane on its own.  It checks at construction that no two
lanes share a scheme instance.

Every lane runs every scheme through its own containment guard
(``UniLocFramework._guarded_estimate``): finite/plausible gates, failure
charging, quarantine, telemetry and metrics are one path, and a scheme
that raises in one lane is charged to that lane and scheme only — it
never escapes :meth:`PopulationFramework.step_batch`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.framework import StepDecision, UniLocFramework
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
        return [lane.step(snapshot) for lane, snapshot in zip(stepped, snapshots)]
