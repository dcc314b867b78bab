"""Unit tests for repro.geometry.polygon."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon


@pytest.fixture
def unit_square():
    return Polygon.rectangle(0, 0, 2, 2)


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon((Point(0, 0), Point(1, 1)))

    def test_rectangle_corner_order_normalized(self):
        poly = Polygon.rectangle(5, 5, 0, 0)
        assert poly.bounding_box() == (0, 0, 5, 5)

    def test_from_coords(self):
        poly = Polygon.from_coords([(0, 0), (1, 0), (0, 1)])
        assert len(poly.vertices) == 3


class TestMeasures:
    def test_square_area(self, unit_square):
        assert unit_square.area() == 4.0

    def test_triangle_area(self):
        tri = Polygon.from_coords([(0, 0), (4, 0), (0, 3)])
        assert tri.area() == 6.0

    def test_centroid_of_square(self, unit_square):
        assert unit_square.centroid() == Point(1, 1)

    def test_edges_close_the_loop(self, unit_square):
        edges = unit_square.edges()
        assert len(edges) == 4
        assert edges[-1].end == unit_square.vertices[0]


class TestContainment:
    def test_interior_point(self, unit_square):
        assert unit_square.contains(Point(1, 1))

    def test_exterior_point(self, unit_square):
        assert not unit_square.contains(Point(3, 1))

    def test_boundary_point_counts_inside(self, unit_square):
        assert unit_square.contains(Point(0, 1))
        assert unit_square.contains(Point(2, 2))

    def test_concave_polygon(self):
        # A U-shape: the notch interior is outside.
        poly = Polygon.from_coords(
            [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)]
        )
        assert poly.contains(Point(1, 3))
        assert poly.contains(Point(5, 3))
        assert not poly.contains(Point(3, 3.5))
        assert poly.contains(Point(3, 1))

    def test_bounding_box(self):
        poly = Polygon.from_coords([(1, 2), (5, -1), (3, 7)])
        assert poly.bounding_box() == (1, -1, 5, 7)


#: A clockwise polygon, one with a zero-length edge, and an oblique triangle.
AWKWARD_POLYGONS = (
    Polygon.from_coords([(0, 0), (0, 3), (4, 3), (4, 0)]),
    Polygon.from_coords([(0, 0), (5, 0), (5, 0), (5, 4), (0, 4)]),
    Polygon.from_coords([(0.1, 0.2), (7.3, 1.1), (2.9, 6.7)]),
)


def _equivalence_polygons():
    """Every builder place's boundary and region polygons, and the
    awkward ones."""
    from repro.fleet import place_builders

    polygons = list(AWKWARD_POLYGONS)
    for build in place_builders().values():
        place = build()
        polygons.append(place.boundary)
        polygons.extend(region.polygon for region in place.regions)
    return polygons


def _probes(polygon):
    """Every vertex and edge midpoint, nudged by +-1e-9 and +-1e-10 on
    each axis, plus non-finite coordinates."""
    vertices = polygon.vertices
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        for x, y in ((a.x, a.y), ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)):
            yield x, y
            for delta in (1e-9, -1e-9, 1e-10, -1e-10):
                yield x + delta, y
                yield x, y + delta
            for bad in (math.nan, math.inf, -math.inf):
                yield bad, y
                yield x, bad
    yield math.nan, math.nan
    yield math.inf, -math.inf


class TestContainsMatchesSegmentLoop:
    """The float-only boundary test answers as ``Segment.distance_to_point``."""

    def test_every_probe_of_every_polygon(self):
        from repro.bench.baselines import polygon_contains_reference

        n = 0
        for polygon in _equivalence_polygons():
            for x, y in _probes(polygon):
                point = Point(x, y)
                assert polygon.contains(point) is polygon_contains_reference(
                    polygon, point
                ), (polygon, x, y)
                n += 1
        assert n > 1000

    @given(
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_points(self, x, y):
        from repro.bench.baselines import polygon_contains_reference

        for polygon in AWKWARD_POLYGONS:
            point = Point(x, y)
            assert polygon.contains(point) is polygon_contains_reference(
                polygon, point
            )
