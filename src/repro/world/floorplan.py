"""Walkable corridors, walls, and landmarks.

The motion-based PDR scheme (Li et al. [7]) imposes map constraints on its
particles: a particle that leaves the walkable area is killed.  The
corridor graph here provides that constraint, plus the "width of the
corridor" influence factor (beta_2 in the paper's Table I), and the wall
list feeds the radio propagation model's obstruction count.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, Segment

#: Most ``(wall, ray)`` elements one chunk of :meth:`FloorPlan.walls_crossed`
#: holds in each of its temporaries: 32 KiB of floats, so counting a
#: walk's walls stays cache-resident and barely raises peak memory; on
#: campus (148 walls) half this budget costs 30% more time, twice it
#: no less.
WALL_COUNT_CHUNK = 1 << 12


def pack_walls(walls: Sequence[Segment]) -> np.ndarray:
    """Return ``walls`` as a read-only ``(4, W)`` array.

    Rows are start x, start y, direction x and direction y (end minus
    start); a plan without walls packs to ``(4, 0)``.
    """
    starts = np.array([[w.start.x, w.start.y] for w in walls]).reshape(-1, 2)
    ends = np.array([[w.end.x, w.end.y] for w in walls]).reshape(-1, 2)
    packed = np.vstack([starts.T, (ends - starts).T])
    packed.setflags(write=False)
    return packed


@dataclass(frozen=True)
class Corridor:
    """A walkable corridor: a centerline segment with a width."""

    centerline: Segment
    width: float

    def __post_init__(self) -> None:
        if self.width <= 0.0:
            raise ValueError("corridor width must be positive")

    def contains(self, point: Point) -> bool:
        """Return True if ``point`` is within half a width of the centerline."""
        return self.centerline.distance_to_point(point) <= self.width / 2.0

    def distance_to(self, point: Point) -> float:
        """Return the distance from ``point`` to the corridor centerline."""
        return self.centerline.distance_to_point(point)


class LandmarkKind(enum.Enum):
    """Calibration landmark types detectable by a walking smartphone.

    The paper's PDR implementation detects turns, doors, and signatures
    (UnLoc [12]-style Wi-Fi / magnetic anomalies) to reset accumulated
    dead-reckoning error.
    """

    TURN = "turn"
    DOOR = "door"
    SIGNATURE = "signature"


@dataclass(frozen=True)
class Landmark:
    """A calibration landmark at a known map position.

    Attributes:
        position: the landmark's surveyed location.
        kind: what physical feature produces the detection.
        detection_radius: a walker passing within this distance triggers a
            detection (the phone senses the turn / door / signature).
    """

    position: Point
    kind: LandmarkKind
    detection_radius: float = 3.0


@dataclass
class FloorPlan:
    """The walkable geometry of a place.

    Attributes:
        corridors: walkable corridor list (may be empty for open spaces,
            in which case everything inside the place boundary is walkable).
        walls: obstruction segments used by radio propagation.
        landmarks: PDR calibration landmarks.
    """

    corridors: list[Corridor]
    walls: list[Segment]
    landmarks: list[Landmark]

    def is_walkable(self, point: Point) -> bool:
        """Return True if a pedestrian (or PDR particle) may stand at ``point``.

        With no corridors defined the whole place is walkable — open spaces
        impose effectively no map constraint, which is exactly why the
        paper's motion scheme degrades outdoors.
        """
        if not self.corridors:
            return True
        return any(c.contains(point) for c in self.corridors)

    def corridor_width_at(self, point: Point, default: float) -> float:
        """Return the width of the corridor nearest to ``point``.

        Args:
            point: query location.
            default: width to report when the plan has no corridors
                (taken from the environment profile).
        """
        if not self.corridors:
            return default
        nearest = min(self.corridors, key=lambda c: c.distance_to(point))
        return nearest.width

    def walls_crossed(
        self, walls: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """Return how many walls each ray ``starts[k] -> ends[k]`` crosses.

        The propagation model charges a per-wall attenuation for each
        crossing (multi-wall COST-231 style); one call counts every
        (point, AP) pair the radio pass asks about, in chunks of at most
        :data:`WALL_COUNT_CHUNK` ``(wall, ray)`` elements.  The test is
        the standard orientation predicate, each element doing the
        arithmetic of a single-ray test; collinear touches fall back to
        the exact :meth:`Segment.intersects`, so an endpoint touch or an
        overlap counts as a crossing.

        Args:
            walls: this plan's walls packed by :func:`pack_walls`, as
                :class:`~repro.world.place.PlaceIndex` caches them.
            starts: ``(k, 2)`` ray starts (the transmitters).
            ends: ``(k, 2)`` ray ends (the receivers).

        Returns:
            ``(k,)`` integer crossing counts.
        """
        counts = np.zeros(len(starts), dtype=np.int64)
        if walls.shape[1] == 0:
            return counts
        # Rays p + t r against walls q + u s, as in Segment.intersects.
        q_x, q_y, s_x, s_y = walls[:, :, None]
        step = max(1, WALL_COUNT_CHUNK // walls.shape[1])
        for lo in range(0, len(starts), step):
            p_x, p_y = starts[lo : lo + step, 0], starts[lo : lo + step, 1]
            e_x, e_y = ends[lo : lo + step, 0], ends[lo : lo + step, 1]
            r_x = e_x - p_x  # (k,)
            r_y = e_y - p_y
            qp_x = q_x - p_x  # (w, k)
            qp_y = q_y - p_y
            r_cross_s = r_x * s_y - r_y * s_x
            qp_cross_r = qp_x * r_y - qp_y * r_x
            qp_cross_s = qp_x * s_y - qp_y * s_x
            nonparallel = np.abs(r_cross_s) > 1e-12
            # Parallel pairs divide by ~0, but ``nonparallel`` masks them.
            with np.errstate(divide="ignore", invalid="ignore"):
                t = qp_cross_s / r_cross_s
                u = qp_cross_r / r_cross_s
            # min/max propagate NaN, so a NaN t or u is no hit, as with
            # four tests.
            hits = (np.minimum(t, u) >= 0.0) & (np.maximum(t, u) <= 1.0) & nonparallel
            counts[lo : lo + step] = hits.sum(axis=0)
            # Parallel walls are almost never collinear with a radio ray,
            # but stay exact for the ones that are.
            collinear = ~nonparallel & (np.abs(qp_cross_r) < 1e-9)
            for wall, ray in zip(*np.nonzero(collinear)):
                ray_segment = Segment(
                    Point(float(p_x[ray]), float(p_y[ray])),
                    Point(float(e_x[ray]), float(e_y[ray])),
                )
                if ray_segment.intersects(self.walls[wall]):
                    counts[lo + ray] += 1
        return counts

    def nearest_landmark(self, point: Point) -> Landmark | None:
        """Return the landmark closest to ``point``, or None if there are none."""
        if not self.landmarks:
            return None
        return min(self.landmarks, key=lambda lm: lm.position.distance_to(point))

    def detectable_landmarks(self, point: Point) -> list[Landmark]:
        """Return landmarks whose detection radius covers ``point``."""
        return [
            lm
            for lm in self.landmarks
            if lm.position.distance_to(point) <= lm.detection_radius
        ]
