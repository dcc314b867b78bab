"""Tests for the vectorized particle filter."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.geometry import Point, Polygon, Segment
from repro.schemes import ParticleFilter
from repro.schemes.particle_filter import BOX_PAD_M
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
        pf = make_pf(place)
        # Office corridor runs along y=0 with width 2.
        mask = pf.walkable_mask(np.array([[5.0, 0.0], [5.0, 0.8]]))
        assert mask.tolist() == [True, True]

    def test_wall_zone_blocked(self, place):
        pf = make_pf(place)
        # 2 m off the corridor centerline: inside the office region but
        # outside the 2 m corridor.
        mask = pf.walkable_mask(np.array([[5.0, 2.0]]))
        assert not mask[0]

    def test_outdoor_unconstrained(self, place):
        pf = make_pf(place)
        # Far from all indoor regions: open space, always walkable.
        path = place.paths["path1"]
        p = path.polyline.point_at_distance(280.0)
        off = np.array([[p.x + 15.0, p.y + 15.0]])
        assert pf.walkable_mask(off)[0]

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
def indoor_filter(name: str) -> ParticleFilter:
    """One filter per indoor builder place, shared across examples."""
    return ParticleFilter(INDOOR_BUILDERS[name]())


def xy(point: Point) -> np.ndarray:
    return np.array([point.x, point.y])


def assert_matches_reference(pf, old, new):
    """The culled masks equal the pre-cull reference for every particle."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    # Non-finite particles make NaN intermediates in both versions.
    with np.errstate(invalid="ignore"):
        walkable = pf.walkable_mask(new)
        crosses = pf._crosses_wall(old, new)
        expected_walkable = baselines.walkable_mask_reference(pf, new)
        expected_crosses = baselines.crosses_wall_reference(pf, old, new)
    assert np.array_equal(walkable, expected_walkable)
    assert np.array_equal(crosses, expected_crosses)
    return walkable, crosses


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
    """The bounding-box cull returns the same masks as the full test."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        along=st.floats(0.0, 1.0),
        spread=st.floats(0.1, 30.0),
        step=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_clouds(self, name, along, spread, step, seed):
        pf = indoor_filter(name)
        rng = np.random.default_rng(seed)
        paths = list(pf.place.paths.values())
        path = paths[rng.integers(len(paths))]
        center = path.polyline.point_at_distance(along * path.length())
        old = rng.normal(xy(center), spread, size=(300, 2))
        heading = rng.uniform(0.0, 2.0 * np.pi, 300)
        new = old + step * np.column_stack([np.cos(heading), np.sin(heading)])
        assert_matches_reference(pf, old, new)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_primitive_boundaries(self, name, seed):
        pf = indoor_filter(name)
        rng = np.random.default_rng(seed)
        probes = boundary_probes(pf.place, rng)
        angle = rng.uniform(0.0, 2.0 * np.pi, len(probes))
        moved = probes + rng.uniform(0.0, 0.5, (len(probes), 1)) * np.column_stack(
            [np.cos(angle), np.sin(angle)]
        )
        assert_matches_reference(pf, probes, moved)
        # A one-particle cloud's box is the probe itself: the tightest cull.
        for i in range(len(probes)):
            assert_matches_reference(pf, probes[i : i + 1], moved[i : i + 1])
            assert_matches_reference(pf, moved[i : i + 1], probes[i : i + 1])

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(INDOOR_BUILDERS)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wall_moves(self, name, seed):
        pf = indoor_filter(name)
        old, new = wall_moves(pf.place, np.random.default_rng(seed))
        _, crosses = assert_matches_reference(pf, old, new)
        assert crosses.any()  # the leaps do cross their walls
        for i in range(len(old)):
            assert_matches_reference(pf, old[i : i + 1], new[i : i + 1])

    def test_non_finite_particles_keep_every_primitive(self):
        pf = indoor_filter("office")
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
        walkable, _ = assert_matches_reference(pf, positions, positions)
        assert walkable[:4].tolist() == [True, False, False, True]
        old = [(25.0, 2.0), (25.0, 2.0), (nan, nan), (25.0, 2.0), (25.0, 2.0)]
        new = [(25.0, 4.0), (25.0, 2.5), (25.0, 4.0), (inf, 2.0), (25.0, -inf)]
        _, crosses = assert_matches_reference(pf, old, new)
        assert crosses[:2].tolist() == [True, False]  # the wall at y=3


class TestConvexityGuard:
    @pytest.mark.parametrize("name", sorted(INDOOR_BUILDERS))
    def test_builder_places_are_accepted(self, name):
        assert indoor_filter(name)._indoor_regions is not None

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
