"""Unit tests for repro.world.floorplan."""

import pytest

import numpy as np

from repro.geometry import Point, Segment
from repro.world import Corridor, FloorPlan, Landmark, LandmarkKind
from repro.world.floorplan import pack_walls


def crossings(plan, a, b):
    """Walls crossed by the one ray ``a -> b``."""
    counts = plan.walls_crossed(
        pack_walls(plan.walls), np.array([[a.x, a.y]]), np.array([[b.x, b.y]])
    )
    assert counts.shape == (1,)
    return int(counts[0])


@pytest.fixture
def plan():
    corridor = Corridor(Segment(Point(0, 0), Point(20, 0)), width=4.0)
    walls = [
        Segment(Point(0, 2), Point(20, 2)),
        Segment(Point(0, -2), Point(20, -2)),
    ]
    landmarks = [
        Landmark(Point(0, 0), LandmarkKind.DOOR),
        Landmark(Point(10, 0), LandmarkKind.SIGNATURE),
    ]
    return FloorPlan(corridors=[corridor], walls=walls, landmarks=landmarks)


class TestCorridor:
    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            Corridor(Segment(Point(0, 0), Point(1, 0)), width=0.0)

    def test_contains_centerline_point(self, plan):
        assert plan.corridors[0].contains(Point(10, 0))

    def test_contains_within_half_width(self, plan):
        assert plan.corridors[0].contains(Point(10, 1.9))
        assert not plan.corridors[0].contains(Point(10, 2.1))


class TestWalkability:
    def test_walkable_inside_corridor(self, plan):
        assert plan.is_walkable(Point(5, 1))

    def test_not_walkable_outside(self, plan):
        assert not plan.is_walkable(Point(5, 5))

    def test_empty_plan_everything_walkable(self):
        plan = FloorPlan(corridors=[], walls=[], landmarks=[])
        assert plan.is_walkable(Point(123, -456))


class TestCorridorWidth:
    def test_width_of_nearest(self, plan):
        assert plan.corridor_width_at(Point(5, 0), default=9.0) == 4.0

    def test_default_without_corridors(self):
        plan = FloorPlan(corridors=[], walls=[], landmarks=[])
        assert plan.corridor_width_at(Point(0, 0), default=7.5) == 7.5


class TestWallsCrossed:
    def test_ray_through_both_walls(self, plan):
        assert crossings(plan, Point(10, -5), Point(10, 5)) == 2

    def test_ray_inside_corridor_crosses_none(self, plan):
        assert crossings(plan, Point(1, 0), Point(19, 0)) == 0

    def test_ray_through_one_wall(self, plan):
        assert crossings(plan, Point(10, 0), Point(10, 5)) == 1

    def test_no_walls(self):
        plan = FloorPlan(corridors=[], walls=[], landmarks=[])
        assert crossings(plan, Point(0, 0), Point(10, 10)) == 0

    def test_matches_exact_segment_test(self, plan):
        """The vectorized routine agrees with Segment.intersects."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Point(float(rng.uniform(-5, 25)), float(rng.uniform(-6, 6)))
            b = Point(float(rng.uniform(-5, 25)), float(rng.uniform(-6, 6)))
            exact = sum(1 for w in plan.walls if Segment(a, b).intersects(w))
            assert crossings(plan, a, b) == exact


class TestLandmarks:
    def test_nearest_landmark(self, plan):
        nearest = plan.nearest_landmark(Point(8, 0))
        assert nearest.kind is LandmarkKind.SIGNATURE

    def test_nearest_landmark_empty(self):
        plan = FloorPlan(corridors=[], walls=[], landmarks=[])
        assert plan.nearest_landmark(Point(0, 0)) is None

    def test_detectable_within_radius(self, plan):
        assert len(plan.detectable_landmarks(Point(10, 1))) == 1
        assert plan.detectable_landmarks(Point(5, 0)) == []
