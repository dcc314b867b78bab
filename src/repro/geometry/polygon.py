"""Simple polygons for rooms, open spaces, and environment regions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class Polygon:
    """A simple (non-self-intersecting) polygon given by its vertices."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")

    @classmethod
    def from_coords(cls, coords: list[tuple[float, float]]) -> "Polygon":
        """Build a polygon from ``(x, y)`` tuples."""
        return cls(tuple(Point(x, y) for x, y in coords))

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Polygon":
        """Build an axis-aligned rectangle from two opposite corners."""
        lo_x, hi_x = min(x0, x1), max(x0, x1)
        lo_y, hi_y = min(y0, y1), max(y0, y1)
        return cls(
            (
                Point(lo_x, lo_y),
                Point(hi_x, lo_y),
                Point(hi_x, hi_y),
                Point(lo_x, hi_y),
            )
        )

    def edges(self) -> list[Segment]:
        """Return the boundary edges, closing back to the first vertex."""
        pairs = list(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))
        return [Segment(a, b) for a, b in pairs]

    def area(self) -> float:
        """Return the polygon area (shoelace formula), always positive."""
        acc = 0.0
        for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
            acc += a.cross(b)
        return abs(acc) / 2.0

    def centroid(self) -> Point:
        """Return the area centroid of the polygon."""
        acc_x = acc_y = acc_a = 0.0
        for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
            cross = a.cross(b)
            acc_a += cross
            acc_x += (a.x + b.x) * cross
            acc_y += (a.y + b.y) * cross
        if acc_a == 0.0:
            # Degenerate polygon; fall back to vertex mean.
            n = len(self.vertices)
            return Point(
                sum(p.x for p in self.vertices) / n,
                sum(p.y for p in self.vertices) / n,
            )
        return Point(acc_x / (3.0 * acc_a), acc_y / (3.0 * acc_a))

    def contains(self, point: Point) -> bool:
        """Return True if ``point`` is inside or on the boundary.

        Uses the even-odd ray-casting rule with an explicit on-boundary
        check so environment classification is stable for points that sit
        exactly on a region border.  The boundary check is
        :meth:`Segment.distance_to_point` < 1e-9 against each edge, its
        arithmetic (projection, clamp, lerp, ``hypot``) done on plain
        floats; one pass over the edges runs both tests.
        """
        x, y = point.x, point.y
        inside = False
        verts = self.vertices
        a = verts[-1]
        for b in verts:
            ax, ay = a.x, a.y
            bx, by = b.x, b.y
            dx, dy = bx - ax, by - ay
            denom = dx * dx + dy * dy
            t = 0.0 if denom == 0.0 else ((x - ax) * dx + (y - ay) * dy) / denom
            t = min(1.0, max(0.0, t))
            if math.hypot(ax + dx * t - x, ay + dy * t - y) < 1e-9:
                return True
            if (by > y) != (ay > y):
                x_cross = (ax - bx) * (y - by) / (ay - by) + bx
                if x < x_cross:
                    inside = not inside
            a = b
        return inside

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))
