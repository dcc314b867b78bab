"""Tests for the vectorized particle filter."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.geometry import Point, Polygon, Segment
from repro.schemes import ParticleFilter
from repro.schemes.particle_filter import BOX_PAD_M, compile_map_constraint
from repro.world import (
    Corridor,
    EnvironmentRegion,
    EnvironmentType,
    FloorPlan,
    Place,
    build_campus_place,
    build_daily_path_place,
    build_mall_place,
    build_office_place,
    build_second_office_place,
    is_indoor,
)

#: Every builder place with indoor regions, by a short name.
INDOOR_BUILDERS = {
    "office": build_office_place,
    "mall": build_mall_place,
    "daily": build_daily_path_place,
    "campus": build_campus_place,
    "second-office": build_second_office_place,
}


@pytest.fixture(scope="module")
def place():
    return build_daily_path_place()


def allows(place, old, new):
    """The compiled map constraint's mask for the moves ``old -> new``."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    return compile_map_constraint(place).allows(
        old[:, 0], old[:, 1], new[:, 0], new[:, 1]
    )


def walkable_mask(place, positions):
    """A zero move is parallel to every wall: the walkable mask alone."""
    return allows(place, positions, positions)


def make_pf(place, n=200, seed=0):
    pf = ParticleFilter(place, n_particles=n)
    pf.initialize(Point(5.0, 0.0), spread=0.5, rng=np.random.default_rng(seed))
    return pf


def test_positive_particle_count_required(place):
    with pytest.raises(ValueError):
        ParticleFilter(place, n_particles=0)


def test_initialize_centers_cloud(place):
    pf = make_pf(place)
    mean, spread = pf.estimate()
    assert mean.distance_to(Point(5, 0)) < 0.5
    assert spread < 1.5


def test_predict_advances_cloud(place):
    pf = make_pf(place)
    for _ in range(10):
        pf.predict(step_length=0.7, heading=0.0)
    mean, _ = pf.estimate()
    assert mean.x == pytest.approx(12.0, abs=1.5)


class TestWalkability:
    def test_corridor_interior_walkable(self, place):
        # Office corridor runs along y=0 with width 2.
        mask = walkable_mask(place, [[5.0, 0.0], [5.0, 0.8]])
        assert mask.tolist() == [True, True]

    def test_wall_zone_blocked(self, place):
        # 2 m off the corridor centerline: inside the office region but
        # outside the 2 m corridor.
        mask = walkable_mask(place, [[5.0, 2.0]])
        assert not mask[0]

    def test_outdoor_unconstrained(self, place):
        # Far from all indoor regions: open space, always walkable.
        path = place.paths["path1"]
        p = path.polyline.point_at_distance(280.0)
        assert walkable_mask(place, [[p.x + 15.0, p.y + 15.0]])[0]

    def test_blocked_particles_lose_weight(self, place):
        pf = make_pf(place)
        # Step hard sideways into the wall: most proposals rejected.
        pf.predict(step_length=3.0, heading=np.pi / 2)
        assert pf.weights.sum() == pytest.approx(1.0)
        # The bulk of the cloud cannot cross the corridor wall at y=1
        # (a few particles initialized beyond the wall may drift away).
        assert np.median(pf.positions[:, 1]) < 1.0


class TestResampling:
    def test_resample_triggers_on_degenerate_weights(self, place):
        pf = make_pf(place)
        factors = np.zeros(pf.n_particles)
        factors[0] = 1.0
        pf.reweight(factors)
        assert pf.effective_sample_size() < 2.0
        assert pf.resample_if_needed()
        assert pf.effective_sample_size() == pytest.approx(pf.n_particles)

    def test_no_resample_with_uniform_weights(self, place):
        pf = make_pf(place)
        assert not pf.resample_if_needed()

    def test_resample_concentrates_on_heavy_particle(self, place):
        pf = make_pf(place)
        target = pf.positions[3].copy()
        factors = np.zeros(pf.n_particles)
        factors[3] = 1.0
        pf.reweight(factors)
        pf.resample_if_needed()
        mean, spread = pf.estimate()
        assert mean.distance_to(Point(*target)) < 1e-6
        assert spread == pytest.approx(0.0, abs=1e-9)


def test_reweight_shape_validated(place):
    pf = make_pf(place)
    with pytest.raises(ValueError):
        pf.reweight(np.ones(3))


def test_reweight_all_zero_recovers_uniform(place):
    pf = make_pf(place)
    pf.reweight(np.zeros(pf.n_particles))
    assert pf.weights.sum() == pytest.approx(1.0)
    assert pf.weights.std() == pytest.approx(0.0, abs=1e-12)


def test_recenter_moves_cloud_and_keeps_scales(place):
    pf = make_pf(place)
    scales = pf.scales.copy()
    pf.recenter(Point(50.0, -4.0), spread=1.0)
    mean, _ = pf.estimate()
    assert mean.distance_to(Point(50, -4)) < 1.0
    assert np.array_equal(pf.scales, scales)


def test_scales_stay_clipped(place):
    pf = make_pf(place)
    for _ in range(300):
        pf.predict(0.7, 0.0)
    assert (pf.scales >= 0.6).all()
    assert (pf.scales <= 1.4).all()


@functools.cache
def indoor_map(name: str) -> tuple[Place, baselines.MapArrays]:
    """One indoor builder place and its reference arrays, shared across
    examples."""
    place = INDOOR_BUILDERS[name]()
    return place, baselines.map_arrays(place)


def xy(point: Point) -> np.ndarray:
    return np.array([point.x, point.y])


def assert_matches_reference(place, arrays, old, new):
    """The compiled constraint equals the pre-cull reference for every
    particle, both for the moves and, at zero moves, for the walkable mask.

    Returns the reference ``(walkable, crosses)`` masks.
    """
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    # Non-finite particles make NaN intermediates in both versions.
    with np.errstate(invalid="ignore"):
        allowed = allows(place, old, new)
        at_rest = walkable_mask(place, new)
        expected_walkable = baselines.walkable_mask_reference(arrays, new)
        expected_crosses = baselines.crosses_wall_reference(arrays, old, new)
    assert np.array_equal(allowed, expected_walkable & ~expected_crosses)
    assert np.array_equal(at_rest, expected_walkable)
    return expected_walkable, expected_crosses


def box_probes(lo, hi, rng):
    """Points on, just inside and just outside a primitive's padded box."""
    probes = []
    for axis in (0, 1):
        other = 1 - axis
        for edge, outward in ((lo[axis], -1.0), (hi[axis], 1.0)):
            padded = edge + outward * BOX_PAD_M
            for value in (
                padded,
                np.nextafter(padded, outward * np.inf),
                edge - outward * BOX_PAD_M,
                edge,
            ):
                point = np.empty(2)
                point[axis] = value
                point[other] = rng.uniform(lo[other], hi[other])
                probes.append(point)
    return probes


#: Primitives of each kind probed per example, so one example stays
#: cheap on the large campus.
PROBED_PER_KIND = 6


def boundary_probes(place, rng):
    """Probes on corridor capsules, region edges and every primitive box."""

    def pick(items):
        idx = rng.permutation(len(items))[:PROBED_PER_KIND]
        return [items[i] for i in idx]

    probes = []
    for corridor in pick(place.floorplan.corridors):
        a, b = xy(corridor.centerline.start), xy(corridor.centerline.end)
        half_width = corridor.width / 2.0
        unit = (b - a) / np.hypot(*(b - a))
        normal = np.array([-unit[1], unit[0]])
        on_line = a + rng.uniform() * (b - a)
        # dist == half_width: exact in floats for axis-aligned corridors.
        probes += [
            on_line + half_width * normal,
            on_line - half_width * normal,
            a - half_width * unit,
            b + half_width * unit,
        ]
        probes += box_probes(
            np.minimum(a, b) - half_width, np.maximum(a, b) + half_width, rng
        )
    regions = [r for r in place.regions if is_indoor(r.env_type)]
    for region in pick(regions):
        verts = np.array([xy(v) for v in region.polygon.vertices])
        edges = np.roll(verts, -1, axis=0) - verts
        probes += list(verts + rng.uniform(size=(len(verts), 1)) * edges)
        probes += list(verts)
        probes += box_probes(verts.min(axis=0), verts.max(axis=0), rng)
    for wall in pick(place.floorplan.walls):
        a, b = xy(wall.start), xy(wall.end)
        probes += box_probes(np.minimum(a, b), np.maximum(a, b), rng)
    return np.array(probes)


def wall_moves(place, rng):
    """Moves ending on wall endpoints, 3 m leaps across walls, and moves
    along a wall's own line."""
    old, new = [], []
    walls = place.floorplan.walls
    for i in rng.permutation(len(walls))[:PROBED_PER_KIND]:
        a, b = xy(walls[i].start), xy(walls[i].end)
        unit = (b - a) / np.hypot(*(b - a))
        normal = np.array([-unit[1], unit[0]])
        for endpoint in (a, b):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            direction = np.array([np.cos(angle), np.sin(angle)])
            old.append(endpoint + rng.uniform(0.0, 3.0) * direction)
            new.append(endpoint)
        start = a + rng.uniform() * (b - a) + rng.uniform(0.05, 2.95) * normal
        old.append(start)
        new.append(start - 3.0 * normal)
        old.append(a - 0.5 * unit)
        new.append(a + 0.5 * unit)
    return np.array(old), np.array(new)


class TestCullEquivalence:
    """The compiled, culled constraint returns the same masks as the full
    test."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        along=st.floats(0.0, 1.0),
        spread=st.floats(0.1, 30.0),
        step=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_clouds(self, name, along, spread, step, seed):
        place, arrays = indoor_map(name)
        rng = np.random.default_rng(seed)
        paths = list(place.paths.values())
        path = paths[rng.integers(len(paths))]
        center = path.polyline.point_at_distance(along * path.length())
        old = rng.normal(xy(center), spread, size=(300, 2))
        heading = rng.uniform(0.0, 2.0 * np.pi, 300)
        new = old + step * np.column_stack([np.cos(heading), np.sin(heading)])
        assert_matches_reference(place, arrays, old, new)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_primitive_boundaries(self, name, seed):
        place, arrays = indoor_map(name)
        rng = np.random.default_rng(seed)
        probes = boundary_probes(place, rng)
        angle = rng.uniform(0.0, 2.0 * np.pi, len(probes))
        moved = probes + rng.uniform(0.0, 0.5, (len(probes), 1)) * np.column_stack(
            [np.cos(angle), np.sin(angle)]
        )
        assert_matches_reference(place, arrays, probes, moved)
        # A one-particle cloud's box is the probe itself: the tightest cull.
        for i in range(len(probes)):
            one_probe, one_moved = probes[i : i + 1], moved[i : i + 1]
            assert_matches_reference(place, arrays, one_probe, one_moved)
            assert_matches_reference(place, arrays, one_moved, one_probe)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wall_moves(self, name, seed):
        place, arrays = indoor_map(name)
        old, new = wall_moves(place, np.random.default_rng(seed))
        _, crosses = assert_matches_reference(place, arrays, old, new)
        assert crosses.any()  # the leaps do cross their walls
        for i in range(len(old)):
            assert_matches_reference(place, arrays, old[i : i + 1], new[i : i + 1])

    def test_non_finite_particles_keep_every_primitive(self):
        place, arrays = indoor_map("office")
        nan, inf = np.nan, np.inf
        # (25, 2) is in the y=2 corridor; (25, 4) and (25, 0) are inside
        # the office region but 2 m off the corridor, beyond its walls.
        positions = [
            (25.0, 2.0),
            (25.0, 4.0),
            (25.0, 0.0),
            (nan, nan),
            (inf, 2.0),
            (-inf, -inf),
            (25.0, nan),
            (3.0, inf),
        ]
        walkable, _ = assert_matches_reference(place, arrays, positions, positions)
        assert walkable[:4].tolist() == [True, False, False, True]
        old = [(25.0, 2.0), (25.0, 2.0), (nan, nan), (25.0, 2.0), (25.0, 2.0)]
        new = [(25.0, 4.0), (25.0, 2.5), (25.0, 4.0), (inf, 2.0), (25.0, -inf)]
        _, crosses = assert_matches_reference(place, arrays, old, new)
        assert crosses[:2].tolist() == [True, False]  # the wall at y=3


class TestConvexityGuard:
    @pytest.mark.parametrize("name", sorted(INDOOR_BUILDERS))
    def test_builder_places_are_accepted(self, name):
        place, _ = indoor_map(name)
        assert compile_map_constraint(place).regions is not None

    def test_l_shaped_region_rejected(self):
        l_shape = Polygon.from_coords(
            [
                (0.0, 0.0),
                (10.0, 0.0),
                (10.0, 4.0),
                (4.0, 4.0),
                (4.0, 10.0),
                (0.0, 10.0),
            ]
        )
        corridor = Corridor(Segment(Point(2.0, 2.0), Point(8.0, 2.0)), 2.0)
        place = Place(
            name="l-office",
            boundary=Polygon.rectangle(-5.0, -5.0, 15.0, 15.0),
            regions=[EnvironmentRegion(l_shape, EnvironmentType.OFFICE)],
            default_env=EnvironmentType.OPEN_SPACE,
            floorplan=FloorPlan(corridors=[corridor], walls=[], landmarks=[]),
        )
        with pytest.raises(
            ValueError, match=r"indoor region 0 \(office\) of place 'l-office'"
        ):
            ParticleFilter(place)

    def test_pentagram_rejected(self):
        # A star's turns all have one sign, but its edge lines cut it.
        star = Polygon.from_coords(
            [
                (
                    50.0 + 10.0 * np.cos(np.pi / 2 + 4 * np.pi * k / 5),
                    50.0 + 10.0 * np.sin(np.pi / 2 + 4 * np.pi * k / 5),
                )
                for k in range(5)
            ]
        )
        corridor = Corridor(Segment(Point(0.0, 0.0), Point(10.0, 0.0)), 2.0)
        place = hand_built_place("star", [star], [corridor], [])
        with pytest.raises(ValueError, match=r"indoor region 0 .* is not convex"):
            ParticleFilter(place)

    def test_zero_area_region_rejected(self):
        flat = Polygon.from_coords([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        corridor = Corridor(Segment(Point(0.0, 0.0), Point(20.0, 0.0)), 2.0)
        place = hand_built_place("flat", [flat], [corridor], [])
        with pytest.raises(ValueError, match=r"indoor region 0 .* near-zero area"):
            ParticleFilter(place)


def hand_built_place(name, polygons, corridors, walls):
    """A place whose indoor (office) regions are ``polygons``."""
    return Place(
        name=name,
        boundary=Polygon.rectangle(-20.0, -20.0, 80.0, 80.0),
        regions=[EnvironmentRegion(p, EnvironmentType.OFFICE) for p in polygons],
        default_env=EnvironmentType.OPEN_SPACE,
        floorplan=FloorPlan(corridors=corridors, walls=walls, landmarks=[]),
    )


def corridor(x0, y0, x1, y1, width=2.0):
    return Corridor(Segment(Point(x0, y0), Point(x1, y1)), width)


def wall(x0, y0, x1, y1):
    return Segment(Point(x0, y0), Point(x1, y1))


#: Places the builders never make: every builder region is a
#: counter-clockwise quad.
HAND_BUILT_PLACES = {
    # Clockwise rectangle and a rotated clockwise square.
    "clockwise": lambda: hand_built_place(
        "clockwise",
        [
            Polygon.from_coords([(0.0, 0.0), (0.0, 6.0), (20.0, 6.0), (20.0, 0.0)]),
            Polygon.from_coords([(30.0, 0.0), (25.0, 5.0), (30.0, 10.0), (35.0, 5.0)]),
        ],
        [corridor(1.0, 3.0, 19.0, 3.0), corridor(30.0, 1.0, 30.0, 9.0, 1.5)],
        [wall(0.0, 4.0, 20.0, 4.0), wall(27.0, 2.0, 33.0, 8.0)],
    ),
    # A triangle and a pentagon in one place: regions padded to 5 edges.
    "triangle-pentagon": lambda: hand_built_place(
        "triangle-pentagon",
        [
            Polygon.from_coords([(0.0, 0.0), (12.0, 0.0), (6.0, 10.0)]),
            Polygon.from_coords(
                [
                    (
                        40.0 + 8.0 * np.cos(2 * np.pi * k / 5),
                        40.0 + 8.0 * np.sin(2 * np.pi * k / 5),
                    )
                    for k in range(5)
                ]
            ),
        ],
        [corridor(2.0, 1.0, 10.0, 1.0), corridor(34.0, 40.0, 46.0, 40.0)],
        [wall(6.0, 0.0, 6.0, 5.0), wall(40.0, 35.0, 40.0, 45.0)],
    ),
    # A 1 m corridor off the axes inside one office region.
    "diagonal": lambda: hand_built_place(
        "diagonal",
        [Polygon.rectangle(-3.0, -3.0, 13.0, 10.0)],
        [corridor(0.0, 0.0, 10.0, 7.0, width=1.0)],
        [],
    ),
    "walls-only": lambda: hand_built_place(
        "walls-only", [], [corridor(0.0, 0.0, 20.0, 0.0)], [wall(10.0, -5.0, 10.0, 5.0)]
    ),
    "bare": lambda: hand_built_place("bare", [], [], []),
}


class TestHandBuiltPlaces:
    """The compiled constraint equals the reference off the builders' path."""

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_PLACES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), step=st.floats(0.0, 6.0))
    def test_random_clouds(self, name, seed, step):
        place = HAND_BUILT_PLACES[name]()
        arrays = baselines.map_arrays(place)
        rng = np.random.default_rng(seed)
        old = rng.uniform(-5.0, 55.0, size=(300, 2))
        heading = rng.uniform(0.0, 2.0 * np.pi, 300)
        new = old + step * np.column_stack([np.cos(heading), np.sin(heading)])
        assert_matches_reference(place, arrays, old, new)
        for i in range(0, 300, 37):
            assert_matches_reference(place, arrays, old[i : i + 1], new[i : i + 1])

    def test_clockwise_regions_block_off_corridor(self):
        place = HAND_BUILT_PLACES["clockwise"]()
        probes = [[10.0, 3.0], [10.0, 5.5], [30.0, 5.0], [33.0, 5.0]]
        mask = walkable_mask(place, probes)
        assert mask.tolist() == [True, False, True, False]

    def test_diagonal_corridor_edge(self):
        # 0.5 m off the diagonal corridor's centreline, the rounded
        # squared distance lands on both sides of 0.25, and on about
        # 0.7% of the points ``sqrt(d2) <= 0.5`` and ``d2 <= 0.25``
        # disagree (a wider jitter spreads d2 over more ulps and leaves
        # fewer such points).
        place = HAND_BUILT_PLACES["diagonal"]()
        arrays = baselines.map_arrays(place)
        rng = np.random.default_rng(7)
        axis = np.array([10.0, 7.0])
        normal = np.array([-7.0, 10.0]) / np.hypot(10.0, 7.0)
        side = rng.choice([-0.5, 0.5], size=(4000, 1))
        edge = rng.uniform(0.05, 0.95, size=(4000, 1)) * axis + side * normal
        edge *= 1.0 + rng.uniform(-5e-16, 5e-16, size=edge.shape)
        walkable, _ = assert_matches_reference(place, arrays, edge, edge)
        assert walkable.any() and not walkable.all()
        # The probes reach the points where the two comparisons differ.
        x, y = edge[:, 0], edge[:, 1]
        t = np.clip((x * 10.0 + y * 7.0) / 149.0, 0.0, 1.0)
        d2 = (x - t * 10.0) ** 2 + (y - t * 7.0) ** 2
        assert ((np.sqrt(d2) <= 0.5) != (d2 <= 0.25)).any()

    def test_places_without_regions_only_test_walls(self):
        place = HAND_BUILT_PLACES["walls-only"]()
        assert compile_map_constraint(place).regions is None
        mask = allows(place, [[5.0, 3.0], [5.0, 3.0]], [[15.0, 3.0], [5.0, 30.0]])
        assert mask.tolist() == [False, True]
        assert allows(HAND_BUILT_PLACES["bare"](), [[0.0, 0.0]], [[1e6, 1e6]]).all()


class TestSharedConstraint:
    def test_filters_of_one_place_share_one_constraint(self):
        place = build_office_place()
        first, second = ParticleFilter(place), ParticleFilter(place, n_particles=50)
        assert first._constraint is second._constraint
        assert first._constraint is compile_map_constraint(place)

    def test_each_place_object_gets_its_own(self):
        first, second = build_office_place(), build_office_place()
        assert compile_map_constraint(first) is not compile_map_constraint(second)
