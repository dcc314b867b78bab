"""A place: the unit of experimentation.

A :class:`Place` bundles everything a localization experiment needs to know
about the physical world — its boundary, environment regions, walkable
floor plan, and the named walking paths through it.  Radio infrastructure
(APs, towers, satellites) is deployed *onto* a place by
:mod:`repro.radio.deployment` so that the same geometry can be reused with
different radio conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Grid, Point, Polygon, Polyline
from repro.world.environment import EnvironmentType, is_indoor, profile_of
from repro.world.floorplan import FloorPlan, pack_walls


# Bound on memoized corridor-width entries before the memo resets; walk
# queries are grid-snapped so real populations stay far below this.
_WIDTH_MEMO_MAX = 100_000

#: Padding (m) of every region's bounding box in the place index.  A
#: point this far outside a polygon's vertex box is farther than the
#: 1e-9 on-boundary tolerance of :meth:`Polygon.contains` from every
#: edge, and no edge straddles its ray, so the region cannot contain it.
REGION_BOX_PAD_M = 1e-6


@dataclass(frozen=True)
class EnvironmentRegion:
    """A polygonal region labeled with an environment type."""

    polygon: Polygon
    env_type: EnvironmentType


@dataclass(frozen=True)
class Path:
    """A named ground-truth walking path through a place."""

    name: str
    polyline: Polyline

    def length(self) -> float:
        """Return the path length in meters."""
        return self.polyline.length()


@dataclass
class Place:
    """A named area of the world with labeled environments and paths.

    Attributes:
        name: human-readable identifier ("campus", "mall", ...).
        boundary: outer polygon of the place.
        regions: environment regions; the *first* region containing a point
            wins, so list more specific regions before general ones.
        default_env: label for points not covered by any region.
        floorplan: walkable corridors, walls, and landmarks.
        paths: named ground-truth walking paths.
    """

    name: str
    boundary: Polygon
    regions: list[EnvironmentRegion]
    default_env: EnvironmentType
    floorplan: FloorPlan
    paths: dict[str, Path] = field(default_factory=dict)

    # Corridor widths are pure functions of the query point, and walkers
    # evaluate them at the same grid-snapped HMM predictions over and
    # over: the first query pays the floor-plan scan, every repeat
    # reuses its exact float.  Kept out of init, eq and repr.
    _width_memo: dict[tuple[float, float], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def environment_at(self, point: Point) -> EnvironmentType:
        """Return the environment label at ``point``.

        The first region containing ``point`` wins.  A region whose
        padded box (:class:`PlaceIndex`) the point lies outside is skipped
        without its ``Polygon.contains`` test, which is exact: such a
        region cannot contain the point.  A NaN coordinate fails every
        box comparison, so it falls through to the full test.
        """
        x, y = point.x, point.y
        for x_lo, y_lo, x_hi, y_hi, region in compile_place_index(self).regions:
            if x < x_lo or y < y_lo or x > x_hi or y > y_hi:
                continue
            if region.polygon.contains(point):
                return region.env_type
        return self.default_env

    def is_indoor_at(self, point: Point) -> bool:
        """Return the paper's roof-based indoor label at ``point``."""
        return is_indoor(self.environment_at(point))

    def corridor_width_at(self, point: Point) -> float:
        """Return the corridor width feature (beta_2 of the PDR model)."""
        memo = self._width_memo
        key = (point.x, point.y)
        hit = memo.get(key)
        if hit is not None:
            return hit
        plan = self.floorplan
        # Only a plan without corridors reads the environment's default,
        # and environment_at is the costliest place query.
        default = (
            0.0
            if plan.corridors
            else profile_of(self.environment_at(point)).default_corridor_width_m
        )
        value = plan.corridor_width_at(point, default)
        if len(memo) >= _WIDTH_MEMO_MAX:
            memo.clear()
        memo[key] = value
        return value

    def grid(self, cell_size: float = 2.0) -> Grid:
        """Return a regular grid over the place for BMA posteriors."""
        min_x, min_y, max_x, max_y = self.boundary.bounding_box()
        return Grid(min_x, min_y, max_x, max_y, cell_size)

    def add_path(self, path: Path) -> None:
        """Register a walking path.

        Raises:
            ValueError: if a path with the same name already exists.
        """
        if path.name in self.paths:
            raise ValueError(f"path {path.name!r} already registered")
        self.paths[path.name] = path

    def environment_segments(self, path: Path, spacing_m: float = 1.0) -> list[tuple[float, EnvironmentType]]:
        """Return ``(arc_length, environment)`` breakpoints along a path.

        Walks the path at ``spacing_m`` resolution and records each point at
        which the environment label changes.  Used by experiment reports to
        annotate error-vs-distance plots the way the paper's Fig. 2 labels
        its office / corridor / basement / car-park / open-space segments.
        """
        breakpoints: list[tuple[float, EnvironmentType]] = []
        s = 0.0
        last_env: EnvironmentType | None = None
        total = path.length()
        while s <= total:
            env = self.environment_at(path.polyline.point_at_distance(s))
            if env != last_env:
                breakpoints.append((s, env))
                last_env = env
            s += spacing_m
        return breakpoints


class PlaceIndex:
    """A place's region boxes and walls, compiled once for the sensor trace.

    Attributes:
        regions: one ``(x_lo, y_lo, x_hi, y_hi, region)`` row per region,
            in the place's order, the box being the region's vertex box
            padded by :data:`REGION_BOX_PAD_M`.
        walls: ``(4, W)`` read-only wall start x, start y and direction
            x, y (:func:`~repro.world.floorplan.pack_walls`), shared by
            :meth:`FloorPlan.walls_crossed` and the particle map
            constraint.
    """

    def __init__(self, place: Place) -> None:
        pad = REGION_BOX_PAD_M
        rows = []
        for region in place.regions:
            x_lo, y_lo, x_hi, y_hi = region.polygon.bounding_box()
            rows.append((x_lo - pad, y_lo - pad, x_hi + pad, y_hi + pad, region))
        self.regions: tuple[
            tuple[float, float, float, float, EnvironmentRegion], ...
        ] = tuple(rows)
        self.walls: np.ndarray = pack_walls(place.floorplan.walls)


def compile_place_index(place: Place) -> PlaceIndex:
    """Return the compiled index of ``place`` (cached on it).

    Compilation snapshots the regions and walls; places are treated as
    immutable once queried, as every caller in the repo uses them.
    """
    cached = place.__dict__.get("_place_index")
    if cached is None:
        cached = place.__dict__["_place_index"] = PlaceIndex(place)
    index: PlaceIndex = cached
    return index
