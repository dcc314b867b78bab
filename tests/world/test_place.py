"""Tests for Place: environment lookup, paths, grids."""

import pytest

from repro.geometry import Point, Polygon
from repro.world import EnvironmentType as Env
from repro.world import FloorPlan, Place
from repro.world.place import EnvironmentRegion, Path
from repro.geometry import Polyline


@pytest.fixture
def place():
    office = EnvironmentRegion(Polygon.rectangle(0, 0, 10, 10), Env.OFFICE)
    overlap = EnvironmentRegion(Polygon.rectangle(5, 0, 20, 10), Env.CORRIDOR)
    return Place(
        name="test",
        boundary=Polygon.rectangle(-5, -5, 30, 15),
        regions=[office, overlap],
        default_env=Env.OPEN_SPACE,
        floorplan=FloorPlan(corridors=[], walls=[], landmarks=[]),
    )


def test_first_region_wins_on_overlap(place):
    assert place.environment_at(Point(7, 5)) is Env.OFFICE


def test_second_region_after_first(place):
    assert place.environment_at(Point(15, 5)) is Env.CORRIDOR


def test_default_environment_outside_regions(place):
    assert place.environment_at(Point(25, 12)) is Env.OPEN_SPACE


def test_is_indoor_follows_environment(place):
    assert place.is_indoor_at(Point(7, 5))
    assert not place.is_indoor_at(Point(25, 12))


def test_corridor_width_uses_profile_default(place):
    # No explicit corridors: office profile default (2 m).
    assert place.corridor_width_at(Point(7, 5)) == 2.0


def test_corridor_width_with_corridors_skips_environment_lookup(monkeypatch):
    from repro.geometry import Segment
    from repro.world import Corridor

    corridor = Corridor(Segment(Point(0, 0), Point(10, 0)), width=3.0)
    place = Place(
        name="hall",
        boundary=Polygon.rectangle(-5, -5, 15, 5),
        regions=[EnvironmentRegion(Polygon.rectangle(-5, -5, 15, 5), Env.OFFICE)],
        default_env=Env.OPEN_SPACE,
        floorplan=FloorPlan(corridors=[corridor], walls=[], landmarks=[]),
    )
    calls = []
    monkeypatch.setattr(
        Place, "environment_at", lambda self, point: calls.append(point)
    )
    assert place.corridor_width_at(Point(4, 1)) == 3.0
    assert calls == []


def test_open_space_corridor_width_is_its_environment_default(monkeypatch):
    from repro.fleet import place_builders
    from repro.world.environment import profile_of

    place = place_builders()["open-space"]()
    assert not place.floorplan.corridors
    point = place.paths["survey"].polyline.point_at_distance(10.0)
    env = place.environment_at(point)
    calls = []
    original = Place.environment_at

    def spy(self, query):
        calls.append(query)
        return original(self, query)

    monkeypatch.setattr(Place, "environment_at", spy)
    assert place.corridor_width_at(point) == profile_of(env).default_corridor_width_m
    assert calls == [point]


def test_grid_covers_boundary(place):
    grid = place.grid(cell_size=5.0)
    assert grid.n_cells == 7 * 4


def test_duplicate_path_rejected(place):
    path = Path("walk", Polyline.from_coords([(0, 0), (10, 0)]))
    place.add_path(path)
    with pytest.raises(ValueError):
        place.add_path(path)


def test_environment_segments_reports_transitions(place):
    path = Path("walk", Polyline.from_coords([(2, 5), (25, 5)]))
    place.add_path(path)
    breakpoints = place.environment_segments(path, spacing_m=0.5)
    envs = [env for _, env in breakpoints]
    assert envs == [Env.OFFICE, Env.CORRIDOR, Env.OPEN_SPACE]
