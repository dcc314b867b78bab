"""A vectorized particle filter for pedestrian dead reckoning.

The paper's motion and fusion schemes maintain 300 particles updated every
0.5 s step.  Each particle carries a position and a personal step-length
scale (the paper's step-model personalization: "step length adaptively
updated by particle filter", §III-B).  Map constraints kill particles that
leave the walkable area; systematic resampling keeps the cloud healthy.

The map constraint is compiled once per place (:func:`compile_map_constraint`)
and shared by every filter on it.  Each predict makes one call,
:meth:`MapConstraint.allows`, which keeps a move when its end is walkable
and its path crosses no wall.  The call is built to make few numpy calls,
since at 300 particles per-call overhead, not arithmetic, is its cost:

* **Cull.**  One bounding box of the old and new positions, from 1-D
  ``min``/``max`` over their x and y columns, is compared against the
  padded boxes of every corridor, indoor region and wall at once; only
  the primitives whose boxes meet it are tested.  For the walkable test
  of the new positions that is a superset of the primitives near them,
  which is exact: each primitive's answer does not depend on which
  others are tested.
* **Layout.**  Primitives are stored by field, so every test is a
  ``(primitive, particle)`` array and reduces over its first axis.
  Regions are padded to a common edge count by repeating an edge, which
  leaves the per-region AND unchanged.
* **Exactness.**  The masks equal the unculled predicates of
  :mod:`repro.bench.baselines` for every particle.  Each element sees the
  same subtractions, products, two-term additions and divisions in the
  same order.  A skipped primitive cannot change the answer: a corridor
  whose box misses a position by :data:`BOX_PAD_M` is farther than its
  half-width from it; a convex region's side value against some edge
  falls far below ``-1e-9``; and a skipped wall is more than the pad
  from every move along some axis (the one case where the full test
  could still report a hit is a move nearly collinear with a far wall,
  with ``|r x s|`` just above ``1e-12``: rounding noise, where the cull
  gives the geometrically right "no crossing").  A box with a NaN or
  infinite coordinate keeps every primitive.  Region normals point
  inward (clockwise regions have theirs negated, which IEEE negation
  does exactly), so containment needs only the ``side >= -1e-9`` half
  of the two-sided test: a region's side values sum to twice its area
  at every point, so for a region whose area is not near zero all of
  them can never be ``<= 1e-9``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.world import Place
from repro.world.place import compile_place_index

#: Padding (m) of every broad-phase box.  It only has to exceed how far
#: the 1e-9 side tolerance and float rounding reach outside a primitive
#: (under 1e-6 m on metre-scale maps), and stays far below any corridor
#: width.
BOX_PAD_M = 1e-3

#: An indoor region whose doubled area is at most this many m² per edge
#: is rejected as degenerate.  The one-sided containment test needs the
#: doubled area above ``edges * 1e-9``; this keeps a 1000x margin and
#: is far below any real room.
MIN_TWICE_AREA_PER_EDGE_M2 = 1e-6


def _padded_boxes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Return boxes from corners ``lo``/``hi``, grown by :data:`BOX_PAD_M`.

    Each ``(k, 4)`` row is ``(x_lo, y_lo, -x_hi, -y_hi)``: with the upper
    corner negated, "box meets cloud" is one comparison against the
    cloud's ``(x_hi, y_hi, -x_lo, -y_lo)``.
    """
    return np.hstack([lo - BOX_PAD_M, -(hi + BOX_PAD_M)])


def _corridor_arrays(place: Place) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Return corridor segment arrays ``(starts, ends, half_widths)``."""
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
    """Return edge arrays of indoor regions for vectorized containment.

    Returns ``(vertices, edge_normals, offsets)``: every indoor region's
    edges stacked into one ``(E, 2)`` pair of arrays, with ``offsets``
    the index of each region's first edge.  The map constraint only
    applies *inside* indoor regions: outdoors (open spaces) a pedestrian
    can walk anywhere, which is precisely why the paper's motion scheme
    loses its map anchor there.  Normals point inward (the left normal
    of a counter-clockwise region, negated on a clockwise one), so a
    point is inside when its side value against every edge of one
    region is non-negative.  That is only right for convex regions, and
    only one-sided for regions of non-zero area; the bounding-box cull
    relies on convexity too.  The world builder makes convex
    quadrilaterals.

    Raises:
        ValueError: if an indoor region has near-zero area, or is not
            convex: some vertex lies strictly outside some edge's line
            (this also rejects self-intersecting stars, whose turns all
            have one sign).
    """
    from repro.world import is_indoor  # local import to avoid a cycle

    verts, normals, offsets = [], [], []
    n_edges = 0
    for index, region in enumerate(place.regions):
        if not is_indoor(region.env_type):
            continue
        region_verts = np.array([[v.x, v.y] for v in region.polygon.vertices])
        edges = np.roll(region_verts, -1, axis=0) - region_verts
        twice_area = float(
            np.sum(region_verts[:, 0] * edges[:, 1] - region_verts[:, 1] * edges[:, 0])
        )
        label = (
            f"indoor region {index} ({region.env_type.value}) of place {place.name!r}"
        )
        if abs(twice_area) <= len(edges) * MIN_TWICE_AREA_PER_EDGE_M2:
            raise ValueError(
                f"{label} has near-zero area; the map constraint needs "
                "indoor regions with area"
            )
        region_normals = np.column_stack([-edges[:, 1], edges[:, 0]])
        if twice_area < 0.0:
            region_normals = -region_normals
        # sides[i, j]: vertex j against edge i's line, non-negative inside.
        offsets_from_edge = region_verts[None, :, :] - region_verts[:, None, :]
        sides = (offsets_from_edge * region_normals[:, None, :]).sum(axis=2)
        if (sides < 0.0).any():
            raise ValueError(
                f"{label} is not convex; the map constraint needs convex "
                "indoor regions"
            )
        normals.append(region_normals)
        verts.append(region_verts)
        offsets.append(n_edges)
        n_edges += len(region_verts)
    if not verts:
        return None
    return np.concatenate(verts), np.concatenate(normals), np.array(offsets)


class MapConstraint:
    """A place's corridors, indoor regions and walls, packed for predict.

    Attributes:
        corridors: ``(6, C)`` start x, start y, direction x, direction
            y, squared length (at least ``1e-12``) and half-width; None
            when the walkable test is off.
        regions: ``(4, R, K)`` vertex x, vertex y and inward normal x,
            y of each region's edges, padded to ``K`` edges by
            repeating its last edge; None when the walkable test is off.
        walls: ``(4, W)`` start x, start y and direction x, y, the
            place index's packed walls
            (:func:`~repro.world.place.compile_place_index`); None
            without walls.
        boxes: ``(C + R + W, 4)`` padded boxes (:func:`_padded_boxes`)
            of the corridors, then the regions, then the walls.

    The walkable test is off, and every position walkable, on a place
    without corridors or without indoor regions.
    """

    def __init__(self, place: Place) -> None:
        corridors = _corridor_arrays(place)
        regions = _indoor_region_arrays(place)
        walls = compile_place_index(place).walls
        self.corridors: np.ndarray | None = None
        self.regions: np.ndarray | None = None
        self.walls: np.ndarray | None = None
        boxes = [np.empty((0, 4))]
        if corridors is not None and regions is not None:
            starts, ends, half_widths = corridors
            d = ends - starts
            seg_len2 = np.maximum((d * d).sum(axis=1), 1e-12)
            self.corridors = np.vstack([starts.T, d.T, seg_len2, half_widths])
            reach = half_widths[:, None]
            boxes.append(
                _padded_boxes(
                    np.minimum(starts, ends) - reach, np.maximum(starts, ends) + reach
                )
            )
            verts, normals, offsets = regions
            counts = np.diff(offsets, append=len(verts))
            # Column k of region r is its edge min(k, count - 1).
            edge = offsets[:, None] + np.minimum(
                np.arange(counts.max()), counts[:, None] - 1
            )
            self.regions = np.stack(
                [verts[edge, 0], verts[edge, 1], normals[edge, 0], normals[edge, 1]]
            )
            boxes.append(
                _padded_boxes(
                    np.minimum.reduceat(verts, offsets, axis=0),
                    np.maximum.reduceat(verts, offsets, axis=0),
                )
            )
        if walls.shape[1]:
            self.walls = walls
            starts = walls[:2].T
            ends = np.array([[w.end.x, w.end.y] for w in place.floorplan.walls])
            boxes.append(
                _padded_boxes(np.minimum(starts, ends), np.maximum(starts, ends))
            )
        self.boxes = np.concatenate(boxes)
        self._n_corridors = 0 if self.corridors is None else self.corridors.shape[1]
        self._n_regions = 0 if self.regions is None else self.regions.shape[1]

    def allows(
        self,
        old_x: np.ndarray,
        old_y: np.ndarray,
        new_x: np.ndarray,
        new_y: np.ndarray,
    ) -> np.ndarray:
        """Return a mask of the moves ``old -> new`` the map allows.

        A move is allowed when its end is walkable and its path crosses
        no wall.  A position is blocked only when it lies inside an
        *indoor* region but outside every corridor, i.e. inside a wall
        or a room it cannot reach.  Outdoor positions are always
        walkable, so in open spaces the map imposes no constraint (and
        PDR drifts, as in the paper).  Checking the move against the
        walls keeps a long step from leaping a thin wall zone.  A zero
        move is parallel to every wall, so ``allows(x, y, x, y)`` is
        the walkable mask alone.

        Args:
            old_x, old_y, new_x, new_y: ``(n,)`` coordinates of the
                moves' starts and ends.
        """
        allowed = np.ones(len(new_x), dtype=bool)
        corridors, regions, walls = self.corridors, self.regions, self.walls
        if regions is None and walls is None:
            return allowed
        xs = np.concatenate((old_x, new_x))
        ys = np.concatenate((old_y, new_y))
        x_hi, y_hi = float(xs.max()), float(ys.max())
        x_lo, y_lo = float(xs.min()), float(ys.min())
        # The sum is finite only if all four are (min/max propagate NaN);
        # a finite box that overflows it just keeps every primitive.
        if math.isfinite(x_hi - x_lo + (y_hi - y_lo)):
            near = (self.boxes <= np.array((x_hi, y_hi, -x_lo, -y_lo))).all(axis=1)
            n_c = self._n_corridors
            n_cr = n_c + self._n_regions
            if corridors is not None and regions is not None:
                corridors = corridors[:, near[:n_c]]
                regions = regions[:, near[n_c:n_cr]]
            if walls is not None:
                walls = walls[:, near[n_cr:]]
        if corridors is not None and regions is not None and regions.shape[1]:
            allowed = _in_corridor(corridors, new_x, new_y)
            allowed |= ~_in_region(regions, new_x, new_y)
        if walls is not None and walls.shape[1]:
            allowed &= ~_crosses_wall(walls, old_x, old_y, new_x, new_y)
        return allowed


def _in_corridor(corridors: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return a mask of positions inside some of the ``(6, c)`` corridors."""
    starts_x, starts_y, d_x, d_y, seg_len2, half_widths = corridors[:, :, None]
    # t[j, i]: projection parameter of particle i on corridor j.
    qx = x - starts_x  # (c, n)
    qy = y - starts_y
    t = np.multiply(qx, d_x, out=qx)
    t += np.multiply(qy, d_y, out=qy)
    t /= seg_len2
    np.clip(t, 0.0, 1.0, out=t)
    ex = t * d_x
    ex += starts_x
    np.subtract(x, ex, out=ex)
    ey = np.multiply(t, d_y, out=t)
    ey += starts_y
    np.subtract(y, ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    dist = np.sqrt(ex, out=ex)
    return (dist <= half_widths).any(axis=0)


def _in_region(regions: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Return a mask of positions inside some of the ``(4, r, K)`` regions."""
    n_regions = regions.shape[1]
    verts_x, verts_y, normals_x, normals_y = regions.reshape(4, -1, 1)
    side = x - verts_x  # (r * K, n)
    side *= normals_x
    other = y - verts_y
    other *= normals_y
    side += other
    inside = side.reshape(n_regions, -1, len(x)).min(axis=1) >= -1e-9  # (r, n)
    return inside.any(axis=0)


def _crosses_wall(
    walls: np.ndarray,
    old_x: np.ndarray,
    old_y: np.ndarray,
    new_x: np.ndarray,
    new_y: np.ndarray,
) -> np.ndarray:
    """Return a mask of moves whose path crosses one of the ``(4, w)`` walls.

    The standard orientation predicates, moves ``r`` against walls ``s``.
    """
    starts_x, starts_y, s_x, s_y = walls[:, :, None]
    r_x = new_x - old_x  # (n,)
    r_y = new_y - old_y
    q_x = starts_x - old_x  # (w, n)
    q_y = starts_y - old_y
    r_cross_s = r_x * s_y
    r_cross_s -= r_y * s_x
    qp_cross_r = q_x * r_y
    qp_cross_r -= q_y * r_x
    qp_cross_s = np.multiply(q_x, s_y, out=q_x)
    qp_cross_s -= np.multiply(q_y, s_x, out=q_y)
    # Parallel pairs divide by ~0, but ``nonparallel`` masks them below.
    nonparallel = np.abs(r_cross_s) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(qp_cross_s, r_cross_s, out=qp_cross_s)
        u = np.divide(qp_cross_r, r_cross_s, out=qp_cross_r)
    # min/max propagate NaN, so a NaN t or u is no hit, as with four tests.
    hits = np.minimum(t, u) >= 0.0
    hits &= np.maximum(t, u, out=t) <= 1.0
    hits &= nonparallel
    return hits.any(axis=0)


def compile_map_constraint(place: Place) -> MapConstraint:
    """Return the compiled map constraint of ``place`` (cached on it).

    Compilation snapshots the floor plan and regions; places are treated
    as immutable once a filter runs on them, as every caller in the repo
    uses them.

    Raises:
        ValueError: if an indoor region is degenerate or not convex.
    """
    cached = place.__dict__.get("_map_constraint")
    if cached is None:
        cached = place.__dict__["_map_constraint"] = MapConstraint(place)
    constraint: MapConstraint = cached
    return constraint


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
        self._constraint = compile_map_constraint(self.place)
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

    def predict(self, step_length: float, heading: float) -> None:
        """Advance every particle by one step.

        Particles whose move the map forbids (:meth:`MapConstraint.allows`)
        keep their old position but get their weight suppressed, which is
        how map edges constrain the cloud without instantly emptying it.
        """
        rng, n = self._rng, self.n_particles
        headings = rng.normal(0.0, self.heading_noise_std, n)
        headings += heading
        noise = rng.normal(0.0, self.position_noise_std, (n, 2))
        lengths = step_length * self.scales
        old = self.positions
        old_x, old_y = old[:, 0], old[:, 1]
        # (old + step) + noise per coordinate; IEEE addition commutes.
        x = np.cos(headings)
        x *= lengths
        x += old_x
        x += noise[:, 0]
        y = np.sin(headings, out=headings)
        y *= lengths
        y += old_y
        y += noise[:, 1]
        mask = self._constraint.allows(old_x, old_y, x, y)
        self.positions = np.where(mask[:, None], np.column_stack((x, y)), old)
        self.weights = np.where(mask, self.weights, self.weights * 0.05)
        self.scales += rng.normal(0.0, self.scale_noise_std, n)
        self.scales = np.clip(self.scales, 0.6, 1.4)
        self._renormalize()

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

