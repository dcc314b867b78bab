"""A vectorized particle filter for pedestrian dead reckoning.

The paper's motion and fusion schemes maintain 300 particles updated every
0.5 s step.  Each particle carries a position and a personal step-length
scale (the paper's step-model personalization: "step length adaptively
updated by particle filter", §III-B).  Map constraints kill particles that
leave the walkable area; systematic resampling keeps the cloud healthy.

Everything is numpy-vectorized, and the map constraint only looks at
map primitives near the cloud: an exact bounding-box cull (see
:meth:`ParticleFilter.walkable_mask`) picks the corridors, indoor regions
and walls whose padded boxes meet the cloud's box, and the containment
and crossing tests then run on all particles against those primitives
at once, so 300 particles x ~500 steps remain fast in pure Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.world import Place

#: Padding (m) of every broad-phase box.  It only has to exceed how far
#: the 1e-9 side tolerance and float rounding reach outside a primitive
#: (under 1e-6 m on metre-scale maps), and stays far below any corridor
#: width.
BOX_PAD_M = 1e-3


def _padded_boxes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Return boxes from corners ``lo``/``hi``, grown by :data:`BOX_PAD_M`.

    Each ``(k, 4)`` row is ``(x_lo, y_lo, -x_hi, -y_hi)``: with the upper
    corner negated, "box meets cloud" is one comparison (:func:`_overlaps`).
    """
    return np.hstack([lo - BOX_PAD_M, -(hi + BOX_PAD_M)])


def _cloud_box(points: np.ndarray) -> np.ndarray | None:
    """Return the bounding box of ``points`` as ``(x_hi, y_hi, -x_lo, -y_lo)``.

    Returns None, meaning "keep every primitive", when ``points`` is
    empty or holds a NaN or infinite coordinate: such a cloud has no
    finite box, and a NaN box compares false against every primitive
    box, which would cull them all.  ``min``/``max`` propagate NaN and
    keep infinities, so a finite box means every point is finite.
    """
    if len(points) == 0:
        return None
    x, y = points[:, 0], points[:, 1]
    box = np.array([x.max(), y.max(), -x.min(), -y.min()])
    return box if np.isfinite(box).all() else None


def _overlaps(boxes: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Return a mask of the :func:`_padded_boxes` rows that meet ``box``."""
    return (boxes <= box).all(axis=1)


def _corridor_arrays(place: Place) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Precompute corridor segment arrays ``(starts, ends, half_widths)``."""
    corridors = place.floorplan.corridors
    if not corridors:
        return None
    starts = np.array([[c.centerline.start.x, c.centerline.start.y] for c in corridors])
    ends = np.array([[c.centerline.end.x, c.centerline.end.y] for c in corridors])
    half_widths = np.array([c.width / 2.0 for c in corridors])
    return starts, ends, half_widths


def _indoor_region_arrays(
    place: Place,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Precompute edge arrays of indoor regions for vectorized containment.

    Returns ``(vertices, edge_normals, offsets)``: every indoor region's
    edges stacked into one ``(E, 2)`` pair of arrays, with ``offsets``
    the index of each region's first edge.  The map constraint only
    applies *inside* indoor regions: outdoors (open spaces) a pedestrian
    can walk anywhere, which is precisely why the paper's motion scheme
    loses its map anchor there.  Containment is tested by requiring a
    consistent cross-product sign against every edge of one region,
    which is only right for convex regions; the bounding-box cull of
    :meth:`ParticleFilter.walkable_mask` relies on convexity too.  The
    world builder makes convex quadrilaterals.

    Raises:
        ValueError: if an indoor region is not convex.
    """
    from repro.world import is_indoor  # local import to avoid a cycle

    verts, normals, offsets = [], [], []
    n_edges = 0
    for index, region in enumerate(place.regions):
        if not is_indoor(region.env_type):
            continue
        region_verts = np.array([[v.x, v.y] for v in region.polygon.vertices])
        edges = np.roll(region_verts, -1, axis=0) - region_verts
        nxt = np.roll(edges, -1, axis=0)
        turns = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if not ((turns >= 0.0).all() or (turns <= 0.0).all()):
            raise ValueError(
                f"indoor region {index} ({region.env_type.value}) of place "
                f"{place.name!r} is not convex; the map constraint needs "
                "convex indoor regions"
            )
        # Outward-ish normals; sign consistency handled at query time.
        normals.append(np.column_stack([-edges[:, 1], edges[:, 0]]))
        verts.append(region_verts)
        offsets.append(n_edges)
        n_edges += len(region_verts)
    if not verts:
        return None
    return np.concatenate(verts), np.concatenate(normals), np.array(offsets)


def _in_corridor_mask(
    positions: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    half_widths: np.ndarray,
) -> np.ndarray:
    """Return a boolean mask of positions inside some of the given corridors."""
    d = ends - starts  # (m, 2)
    seg_len2 = np.maximum((d * d).sum(axis=1), 1e-12)  # (m,)
    # t[i, j]: projection parameter of particle i on corridor j.
    # Componentized per coordinate: the same multiplies and two-term
    # additions, in the same order, as the stacked (n, m, 2) form,
    # but with only (n, m) temporaries.  Every corridor is tested on
    # its own, so a subset gives each particle the same distances.
    dx = positions[:, None, 0] - starts[None, :, 0]  # (n, m)
    dy = positions[:, None, 1] - starts[None, :, 1]
    t = np.clip(
        (dx * d[None, :, 0] + dy * d[None, :, 1]) / seg_len2, 0.0, 1.0
    )
    ex = positions[:, None, 0] - (starts[None, :, 0] + t * d[None, :, 0])
    ey = positions[:, None, 1] - (starts[None, :, 1] + t * d[None, :, 1])
    dist = np.sqrt(ex * ex + ey * ey)  # (n, m)
    return (dist <= half_widths[None, :]).any(axis=1)


@dataclass
class ParticleFilter:
    """A particle cloud tracking one pedestrian.

    Attributes:
        place: the map that provides walkability constraints.
        n_particles: cloud size (the paper uses 300).
        heading_noise_std: per-particle heading perturbation per step.
        position_noise_std: per-step process noise in meters.
        scale_noise_std: random walk of the per-particle step-length scale.
        seed: seed of the placeholder RNG used before :meth:`initialize`
            installs the caller's walk-derived generator.
    """

    place: Place
    n_particles: int = 300
    heading_noise_std: float = 0.08
    position_noise_std: float = 0.15
    scale_noise_std: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles <= 0:
            raise ValueError("n_particles must be positive")
        self._corridors = _corridor_arrays(self.place)
        self._indoor_regions = _indoor_region_arrays(self.place)
        walls = self.place.floorplan.walls
        if walls:
            self._wall_starts = np.array([[w.start.x, w.start.y] for w in walls])
            self._wall_ends = np.array([[w.end.x, w.end.y] for w in walls])
            self._wall_boxes = _padded_boxes(
                np.minimum(self._wall_starts, self._wall_ends),
                np.maximum(self._wall_starts, self._wall_ends),
            )
        else:
            self._wall_starts = None
            self._wall_ends = None
        # Broad-phase boxes for the cull in walkable_mask.
        if self._corridors is not None:
            starts, ends, half_widths = self._corridors
            reach = half_widths[:, None]
            self._corridor_boxes = _padded_boxes(
                np.minimum(starts, ends) - reach, np.maximum(starts, ends) + reach
            )
        if self._indoor_regions is not None:
            verts, _, offsets = self._indoor_regions
            self._region_edge_counts = np.diff(offsets, append=len(verts))
            self._edge_region = np.repeat(
                np.arange(len(offsets)), self._region_edge_counts
            )
            self._region_boxes = _padded_boxes(
                np.minimum.reduceat(verts, offsets, axis=0),
                np.maximum.reduceat(verts, offsets, axis=0),
            )
        self.positions = np.zeros((self.n_particles, 2))
        self.scales = np.ones(self.n_particles)
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        self._rng = np.random.default_rng(self.seed)

    def initialize(
        self, start: Point, spread: float, rng: np.random.Generator
    ) -> None:
        """Scatter the cloud around a known start position."""
        self._rng = rng
        self.positions = np.column_stack(
            [
                rng.normal(start.x, spread, self.n_particles),
                rng.normal(start.y, spread, self.n_particles),
            ]
        )
        self.scales = rng.normal(1.0, 0.05, self.n_particles)
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    def walkable_mask(self, positions: np.ndarray) -> np.ndarray:
        """Return a boolean mask of positions allowed by the map.

        A position is blocked only when it lies inside an *indoor* region
        but outside every corridor — i.e. inside a wall or a room it
        cannot reach.  Outdoor positions are always walkable, so in open
        spaces the map imposes no constraint (and PDR drifts, as in the
        paper).

        Only the corridors and indoor regions whose padded boxes meet
        the bounding box of ``positions`` are tested, with the same
        arithmetic as a test against all of them, so the mask is the
        same.  A primitive is skipped only when every position is more
        than :data:`BOX_PAD_M` outside its box.  For a corridor, that
        puts the position more than the half-width plus the pad from the
        centerline, so the computed distance exceeds ``half_width``.
        For a convex region, the position then lies beyond some edge's
        line, and that edge's side value falls far below ``-1e-9``; the
        opposite sign test fails for any point, since a region's side
        values sum to twice its signed area, far above ``E * 1e-9``.
        When no indoor region is near, every position is walkable.  A
        cloud with a NaN or infinite coordinate is tested against every
        primitive.
        """
        n = len(positions)
        if self._corridors is None or self._indoor_regions is None:
            return np.ones(n, dtype=bool)
        corridors = self._corridors
        verts, normals, offsets = self._indoor_regions
        box = _cloud_box(positions)
        if box is not None:
            near_regions = _overlaps(self._region_boxes, box)
            if not near_regions.any():
                return np.ones(n, dtype=bool)
            near_corridors = _overlaps(self._corridor_boxes, box)
            starts, ends, half_widths = corridors
            corridors = (
                starts[near_corridors],
                ends[near_corridors],
                half_widths[near_corridors],
            )
            near_edges = near_regions[self._edge_region]
            verts, normals = verts[near_edges], normals[near_edges]
            counts = self._region_edge_counts[near_regions]
            offsets = np.cumsum(counts) - counts
        in_corridor = _in_corridor_mask(positions, *corridors)
        # Componentized (p - v) . normal against every region's edges at
        # once: the same additions in the same order as a stacked
        # (n, E, 2) product-and-reduce, without the 3-D temporaries.
        side = (positions[:, None, 0] - verts[None, :, 0]) * normals[None, :, 0] + (
            positions[:, None, 1] - verts[None, :, 1]
        ) * normals[None, :, 1]  # (n, E)
        # A position is inside a region when its sides against all of
        # that region's edges agree; reduceat folds each region's columns.
        inside = np.logical_and.reduceat(
            side >= -1e-9, offsets, axis=1
        ) | np.logical_and.reduceat(side <= 1e-9, offsets, axis=1)  # (n, R)
        return in_corridor | ~inside.any(axis=1)

    def predict(self, step_length: float, heading: float) -> None:
        """Advance every particle by one step.

        Particles that would step off the walkable area keep their old
        position but get their weight suppressed, which is how map edges
        constrain the cloud without instantly emptying it.
        """
        headings = heading + self._rng.normal(
            0.0, self.heading_noise_std, self.n_particles
        )
        lengths = step_length * self.scales
        proposed = self.positions + np.column_stack(
            [lengths * np.cos(headings), lengths * np.sin(headings)]
        )
        proposed += self._rng.normal(
            0.0, self.position_noise_std, proposed.shape
        )
        mask = self.walkable_mask(proposed) & ~self._crosses_wall(
            self.positions, proposed
        )
        self.positions = np.where(mask[:, None], proposed, self.positions)
        self.weights = np.where(mask, self.weights, self.weights * 0.05)
        self.scales += self._rng.normal(0.0, self.scale_noise_std, self.n_particles)
        self.scales = np.clip(self.scales, 0.6, 1.4)
        self._renormalize()

    def _crosses_wall(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Return a mask of particle moves whose path crosses a wall.

        Endpoint containment alone lets a long step leap a thin wall zone;
        checking the movement segment against the wall list (standard
        orientation predicates, vectorized particles x walls) makes the
        map constraint robust to step length.

        As in :meth:`walkable_mask`, only walls whose padded boxes meet
        the bounding box of ``old`` and ``new`` together are tested.  A
        skipped wall is more than :data:`BOX_PAD_M` from every move along
        some axis, so no move truly intersects it.  The one case where
        the full test could still report a hit is ill-conditioned: a move
        nearly collinear with a far wall, with ``|r x s|`` just above
        ``1e-12``, where that answer is rounding noise; the cull returns
        the geometrically correct "no crossing" there.  Moves with a NaN
        or infinite coordinate are tested against every wall.
        """
        if self._wall_starts is None:
            return np.zeros(len(old), dtype=bool)
        starts, ends = self._wall_starts, self._wall_ends
        box = _cloud_box(np.concatenate((old, new)))
        if box is not None:
            near = _overlaps(self._wall_boxes, box)
            if not near.any():
                return np.zeros(len(old), dtype=bool)
            starts, ends = starts[near], ends[near]
        r = new - old  # (n, 2)
        s = ends - starts  # (m, 2)
        rx, ry = r[:, None, 0], r[:, None, 1]
        sx, sy = s[None, :, 0], s[None, :, 1]
        # Componentized as in walkable_mask: the same products and
        # differences as a stacked (n, m, 2) form, with (n, m) temporaries.
        qx = starts[None, :, 0] - old[:, None, 0]  # (n, m)
        qy = starts[None, :, 1] - old[:, None, 1]
        r_cross_s = rx * sy - ry * sx
        qp_cross_r = qx * ry - qy * rx
        qp_cross_s = qx * sy - qy * sx
        nonparallel = np.abs(r_cross_s) > 1e-12
        # Parallel pairs divide by ~0, but ``nonparallel`` masks them below.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = qp_cross_s / r_cross_s
            u = qp_cross_r / r_cross_s
        hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
        return hits.any(axis=1)

    def reweight(self, factors: np.ndarray) -> None:
        """Multiply particle weights by external likelihood factors.

        Raises:
            ValueError: if ``factors`` has the wrong length.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.n_particles,):
            raise ValueError("factors must have one entry per particle")
        self.weights *= np.maximum(factors, 0.0)
        self._renormalize()

    def recenter(self, anchor: Point, spread: float) -> None:
        """Pull the cloud to a calibration anchor (landmark detection).

        The paper's PDR resets accumulated error at detected landmarks;
        we re-scatter the cloud around the landmark while keeping each
        particle's learned step scale (personalization survives resets).
        """
        self.positions = np.column_stack(
            [
                self._rng.normal(anchor.x, spread, self.n_particles),
                self._rng.normal(anchor.y, spread, self.n_particles),
            ]
        )
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)

    def effective_sample_size(self) -> float:
        """Return the ESS of the current weights."""
        return float(1.0 / np.sum(self.weights**2))

    def resample_if_needed(self, threshold_frac: float = 0.5) -> bool:
        """Systematic resampling when ESS drops below a fraction of N.

        Returns:
            True if resampling happened.
        """
        if self.effective_sample_size() >= threshold_frac * self.n_particles:
            return False
        cumulative = np.cumsum(self.weights)
        cumulative[-1] = 1.0
        offsets = (
            self._rng.random() + np.arange(self.n_particles)
        ) / self.n_particles
        indices = np.searchsorted(cumulative, offsets)
        self.positions = self.positions[indices]
        self.scales = self.scales[indices]
        self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        return True

    def estimate(self) -> tuple[Point, float]:
        """Return the weighted-mean position and the cloud's spread."""
        mean = (self.positions * self.weights[:, None]).sum(axis=0)
        centered = self.positions - mean
        var = (self.weights[:, None] * centered**2).sum(axis=0).sum()
        return Point(float(mean[0]), float(mean[1])), float(math.sqrt(max(var, 0.0)))

    def _renormalize(self) -> None:
        """Normalize weights; recover from total degeneracy by resetting."""
        total = self.weights.sum()
        if total <= 0.0 or not np.isfinite(total):
            self.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        else:
            self.weights /= total

