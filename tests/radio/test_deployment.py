"""Tests for RadioEnvironment: audibility per environment."""

import numpy as np
import pytest

from repro.radio import RadioEnvironment
from repro.world import EnvironmentType as Env
from repro.world import build_daily_path_place, profile_of


@pytest.fixture(scope="module")
def radio():
    return RadioEnvironment.deploy(build_daily_path_place(), seed=3)


def _point_in(radio, env):
    place = radio.place
    path = place.paths["path1"]
    for s in range(0, int(path.length()), 2):
        p = path.polyline.point_at_distance(float(s))
        if place.environment_at(p) is env:
            # Mid-segment point, away from transitions.
            return path.polyline.point_at_distance(float(s) + 15.0)
    raise AssertionError(f"no point found in {env}")


def _profile(radio, point):
    return profile_of(radio.place.environment_at(point))


def test_office_hears_several_aps(radio):
    p = _point_in(radio, Env.OFFICE)
    assert len(radio.wifi_mean_rssi(p, _profile(radio, p))) >= 2


def test_basement_hears_no_wifi(radio):
    p = _point_in(radio, Env.BASEMENT)
    assert radio.wifi_mean_rssi(p, _profile(radio, p)) == {}


def test_basement_tower_cap(radio):
    p = _point_in(radio, Env.BASEMENT)
    assert 0 < len(radio.cell_mean_rssi(p, _profile(radio, p))) <= 2


def test_open_space_hears_many_towers(radio):
    p = _point_in(radio, Env.OPEN_SPACE)
    assert len(radio.cell_mean_rssi(p, _profile(radio, p))) >= 5


def test_gps_visibility_indoor_vs_outdoor(radio):
    indoor = _point_in(radio, Env.OFFICE)
    outdoor = _point_in(radio, Env.OPEN_SPACE)
    indoor_n, indoor_hdop = radio.sky_geometry(_profile(radio, indoor))
    outdoor_n, outdoor_hdop = radio.sky_geometry(_profile(radio, outdoor))
    assert indoor_n == 0
    assert outdoor_n >= 9
    assert outdoor_hdop < 2.0
    assert indoor_hdop == float("inf")


def test_noisy_scan_differs_from_mean(radio):
    p = _point_in(radio, Env.OFFICE)
    rng = np.random.default_rng(0)
    scan = radio.wifi_rssi(p, _profile(radio, p), rng)
    mean = radio.wifi_mean_rssi(p, _profile(radio, p))
    assert any(abs(scan[k] - mean[k]) > 0.01 for k in scan if k in mean)


def test_survey_skips_silent_points(radio):
    place = radio.place
    path = place.paths["path1"]
    points = [path.polyline.point_at_distance(float(s)) for s in range(0, 320, 3)]
    rng = np.random.default_rng(1)
    db = radio.survey_wifi(points, rng)
    assert 0 < len(db) < len(points)  # basement points dropped


def test_surveys_reproducible(radio):
    place = radio.place
    path = place.paths["path1"]
    points = [path.polyline.point_at_distance(float(s)) for s in range(0, 100, 5)]
    a = radio.survey_wifi(points, np.random.default_rng(9))
    b = radio.survey_wifi(points, np.random.default_rng(9))
    assert [e.rssi_dbm for e in a.entries] == [e.rssi_dbm for e in b.entries]
