"""The compiled place index answers exactly as the loops it replaced.

``Place.environment_at`` skips regions by padded box, and
``FloorPlan.walls_crossed`` counts any number of paired rays in one
chunked pass; :mod:`repro.bench.baselines` keeps the region loop and the
one-ray-per-call count they replaced.  Labels and integer counts must be
equal on every builder place.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.fleet import place_builders
from repro.geometry import Point, Segment
from repro.motion import DEFAULT_GAIT, generate_walk
from repro.radio import RadioEnvironment
from repro.schemes.particle_filter import _crosses_wall, compile_map_constraint
from repro.world import FloorPlan, floorplan
from repro.world.floorplan import pack_walls
from repro.world.place import REGION_BOX_PAD_M, compile_place_index

BUILDERS = place_builders()
WALLED = sorted(name for name, build in BUILDERS.items() if build().floorplan.walls)

#: Campus has 192 APs over 4,024 moments; its count check takes every
#: AP at every 25th moment so the reference loop stays a few seconds.
MOMENT_STRIDE = {"campus": 25}

_PLACES: dict = {}


def place_of(name):
    """One built place per name, shared (places are immutable once queried)."""
    if name not in _PLACES:
        _PLACES[name] = BUILDERS[name]()
    return _PLACES[name]


def assert_same_label(place, x, y):
    point = Point(x, y)
    assert place.environment_at(point) is baselines.environment_at_reference(
        place, point
    ), (place.name, x, y)


def region_probes(place):
    """Every vertex and edge midpoint, and points +-1e-9 and +-pad off
    each region's box on both axes."""
    pad = REGION_BOX_PAD_M
    for region in place.regions:
        vertices = region.polygon.vertices
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            yield a.x, a.y
            yield (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
        x_lo, y_lo, x_hi, y_hi = region.polygon.bounding_box()
        mid_x, mid_y = (x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0
        for off in (1e-9, pad):
            for sign in (-1.0, 1.0):
                yield x_lo + sign * off, mid_y
                yield x_hi + sign * off, mid_y
                yield mid_x, y_lo + sign * off
                yield mid_x, y_hi + sign * off
                yield x_lo + sign * off, y_lo + sign * off
                yield x_hi + sign * off, y_hi + sign * off


class TestEnvironmentCull:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_region_vertices_midpoints_and_box_edges(self, name):
        place = place_of(name)
        for x, y in region_probes(place):
            assert_same_label(place, x, y)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILDERS)),
        u=st.floats(-0.1, 1.1),
        v=st.floats(-0.1, 1.1),
    )
    def test_random_points(self, name, u, v):
        place = place_of(name)
        x_lo, y_lo, x_hi, y_hi = place.boundary.bounding_box()
        assert_same_label(place, x_lo + u * (x_hi - x_lo), y_lo + v * (y_hi - y_lo))

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILDERS)),
        region=st.integers(0, 10_000),
        vertex=st.integers(0, 3),
        offset=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, REGION_BOX_PAD_M, 1e-3]),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_points_near_region_vertices(self, name, region, vertex, offset, angle):
        place = place_of(name)
        vertices = place.regions[region % len(place.regions)].polygon.vertices
        corner = vertices[vertex % len(vertices)]
        assert_same_label(
            place,
            corner.x + offset * math.cos(angle),
            corner.y + offset * math.sin(angle),
        )

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_non_finite_coordinates(self, name):
        place = place_of(name)
        x_lo, y_lo, _, _ = place.regions[0].polygon.bounding_box()
        values = [math.nan, math.inf, -math.inf, x_lo, y_lo]
        for x in values:
            for y in values:
                assert_same_label(place, x, y)

    def test_index_is_compiled_once_per_place(self):
        place = BUILDERS["office"]()
        place.environment_at(Point(1.0, 1.0))
        index = compile_place_index(place)
        place.environment_at(Point(2.0, 2.0))
        assert compile_place_index(place) is index
        assert len(index.regions) == len(place.regions)


def moment_positions(place, stride):
    for path in place.paths.values():
        walk = generate_walk(path.polyline, DEFAULT_GAIT, np.random.default_rng(0))
        for moment in walk.moments[::stride]:
            yield moment.position


def paired(rays):
    """``(starts, ends)`` arrays of ``(start, end)`` point pairs."""
    starts = np.array([[a.x, a.y] for a, _ in rays]).reshape(-1, 2)
    ends = np.array([[b.x, b.y] for _, b in rays]).reshape(-1, 2)
    return starts, ends


class TestWallCount:
    @pytest.mark.parametrize("name", WALLED)
    def test_every_ap_and_moment_of_every_path(self, name):
        """One paired call over every (moment, AP) pair of every path."""
        place = place_of(name)
        radio = RadioEnvironment.deploy(place, seed=3)
        plan = place.floorplan
        packed = compile_place_index(place).walls
        wall_arrays = baselines.map_arrays(place).walls
        aps = [ap.position for ap in radio.access_points]
        rays = [
            (ap, point)
            for point in moment_positions(place, MOMENT_STRIDE.get(name, 1))
            for ap in aps
        ]
        expected = [
            baselines.walls_crossed_reference(plan.walls, wall_arrays, ap, point)
            for ap, point in rays
        ]
        assert plan.walls_crossed(packed, *paired(rays)).tolist() == expected
        assert sum(expected) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(WALLED),
        wall=st.integers(0, 10_000),
        along=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        angle=st.floats(0.0, 2.0 * math.pi),
        reach=st.floats(0.0, 30.0),
    )
    def test_rays_through_wall_points(self, name, wall, along, angle, reach):
        """Rays starting at, ending at, or running through a wall's
        endpoint or interior point, at any angle, including zero length."""
        place = place_of(name)
        walls = place.floorplan.walls
        segment = walls[wall % len(walls)]
        hit = segment.point_at(along)
        far = Point(hit.x + reach * math.cos(angle), hit.y + reach * math.sin(angle))
        back = Point(hit.x - reach * math.cos(angle), hit.y - reach * math.sin(angle))
        assert_counts_match(place, [(hit, far), (far, hit), (back, far), (hit, hit)])

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(WALLED),
        wall=st.integers(0, 10_000),
        t0=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
        t1=st.sampled_from([-1.0, 0.0, 0.6, 1.0, 2.0]),
    )
    def test_rays_along_walls(self, name, wall, t0, t1):
        """Collinear rays: overlapping, touching end to end, disjoint and
        of zero length; the exact segment fallback decides them."""
        place = place_of(name)
        walls = place.floorplan.walls
        segment = walls[wall % len(walls)]
        a, b = segment.point_at(t0), segment.point_at(t1)
        assert_counts_match(place, [(a, b), (b, a), (a, a)])

    def test_no_walls_counts_zero(self):
        place = place_of("open-space")
        starts = np.array([[0.0, 0.0], [5.0, 5.0]])
        ends = np.array([[10.0, 10.0], [-3.0, 4.0]])
        packed = compile_place_index(place).walls
        counts = place.floorplan.walls_crossed(packed, starts, ends)
        assert counts.tolist() == [0, 0]

    def test_no_rays_counts_nothing(self):
        place = place_of("office")
        packed = compile_place_index(place).walls
        empty = np.zeros((0, 2))
        assert place.floorplan.walls_crossed(packed, empty, empty).shape == (0,)

    def test_chunking_leaves_every_count_alone(self, monkeypatch):
        """Rays along walls land in every chunk, so the collinear fallback
        must charge the ray of its own chunk."""
        place = place_of("office")
        plan = place.floorplan
        packed = compile_place_index(place).walls
        rays = []
        for segment in plan.walls:
            rays.append((segment.point_at(-0.5), segment.point_at(0.6)))
            rays.append((segment.point_at(0.5), Point(0.0, 0.0)))
        starts, ends = paired(rays)
        whole = plan.walls_crossed(packed, starts, ends).tolist()
        wall_arrays = baselines.map_arrays(place).walls
        assert whole == [
            baselines.walls_crossed_reference(plan.walls, wall_arrays, a, b)
            for a, b in rays
        ]
        for budget in (1, packed.shape[1] * 3, packed.shape[1] * 7 + 1):
            monkeypatch.setattr(floorplan, "WALL_COUNT_CHUNK", budget)
            assert plan.walls_crossed(packed, starts, ends).tolist() == whole

    def test_map_constraint_shares_the_packed_walls(self):
        place = BUILDERS["office"]()
        assert compile_map_constraint(place).walls is compile_place_index(place).walls


def assert_counts_match(place, rays):
    """Each ray's paired count equals the reference, alone and in one
    call with the other rays."""
    plan = place.floorplan
    packed = compile_place_index(place).walls
    wall_arrays = baselines.map_arrays(place).walls
    expected = [
        baselines.walls_crossed_reference(plan.walls, wall_arrays, start, end)
        for start, end in rays
    ]
    for ray, count in zip(rays, expected):
        got = plan.walls_crossed(packed, *paired([ray]))
        assert got.tolist() == [count], ray
    assert plan.walls_crossed(packed, *paired(rays)).tolist() == expected


class TestTwoWallPredicates:
    """The sensor trace's count and the particle mask differ only on
    collinear touches: ``walls_crossed`` counts them through the exact
    segment test, the map constraint's ``_crosses_wall`` (no fallback)
    lets the move through."""

    WALL = Segment(Point(0.0, 0.0), Point(10.0, 0.0))

    def crossed(self, a, b):
        packed = pack_walls([self.WALL])
        plan = FloorPlan(corridors=[], walls=[self.WALL], landmarks=[])
        count = int(plan.walls_crossed(packed, *paired([(a, b)]))[0])
        move = _crosses_wall(
            packed,
            np.array([a.x]),
            np.array([a.y]),
            np.array([b.x]),
            np.array([b.y]),
        )
        return count, bool(move[0])

    def test_agree_on_a_proper_crossing_and_an_endpoint_touch(self):
        assert self.crossed(Point(5.0, -1.0), Point(5.0, 1.0)) == (1, True)
        assert self.crossed(Point(10.0, -1.0), Point(10.0, 1.0)) == (1, True)
        assert self.crossed(Point(5.0, 1.0), Point(5.0, 3.0)) == (0, False)

    def test_differ_on_collinear_touches(self):
        # Along the wall, and a zero-length ray lying on it.
        assert self.crossed(Point(-1.0, 0.0), Point(3.0, 0.0)) == (1, False)
        assert self.crossed(Point(4.0, 0.0), Point(4.0, 0.0)) == (1, False)
        # Collinear but disjoint: neither counts it.
        assert self.crossed(Point(11.0, 0.0), Point(12.0, 0.0)) == (0, False)
