"""Tests for the Smartphone recording pipeline."""

import numpy as np
import pytest

from repro.motion import DEFAULT_GAIT, generate_walk
from repro.radio import RadioEnvironment
from repro.sensors import LG_G3, NEXUS_5X, Smartphone
from repro.world import build_daily_path_place
from repro.world import EnvironmentType as Env


@pytest.fixture(scope="module")
def fixture():
    place = build_daily_path_place()
    radio = RadioEnvironment.deploy(place, seed=3)
    walk = generate_walk(
        place.paths["path1"].polyline, DEFAULT_GAIT, np.random.default_rng(0)
    )
    return place, radio, walk


def test_one_snapshot_per_moment(fixture):
    place, radio, walk = fixture
    snaps = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=1)
    assert len(snaps) == len(walk.moments)
    assert [s.index for s in snaps] == [m.index for m in walk.moments]


def test_recording_reproducible(fixture):
    place, radio, walk = fixture
    a = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=7)
    b = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=7)
    assert a[10].wifi_scan == b[10].wifi_scan
    assert a[10].imu.heading_rad == b[10].imu.heading_rad


def test_device_offset_shows_in_scans(fixture):
    place, radio, walk = fixture
    ref = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=7)
    other = Smartphone(radio, LG_G3).record_walk(walk, seed=7)
    # Same radio draws, different device response.
    common = set(ref[5].wifi_scan) & set(other[5].wifi_scan)
    assert common
    for key in common:
        expected = LG_G3.measure_rssi(ref[5].wifi_scan[key])
        assert other[5].wifi_scan[key] == pytest.approx(expected, abs=1e-6)


def test_light_follows_environment(fixture):
    place, radio, walk = fixture
    snaps = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=2)
    office = [s.light_lux for m, s in zip(walk.moments, snaps)
              if place.environment_at(m.position) is Env.OFFICE]
    outdoor = [s.light_lux for m, s in zip(walk.moments, snaps)
               if place.environment_at(m.position) is Env.OPEN_SPACE]
    assert np.mean(outdoor) > 10 * np.mean(office)


def test_landmarks_detected_near_landmarks(fixture):
    place, radio, walk = fixture
    snaps = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=3)
    detections = [
        (m, lm)
        for m, s in zip(walk.moments, snaps)
        for lm in s.detected_landmarks
    ]
    assert detections
    for moment, landmark in detections:
        assert moment.position.distance_to(landmark.position) <= landmark.detection_radius


def test_gps_only_outdoors(fixture):
    place, radio, walk = fixture
    snaps = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=4)
    for m, s in zip(walk.moments, snaps):
        if s.gps.has_fix:
            assert not place.is_indoor_at(m.position)


def test_one_environment_lookup_per_moment(fixture, monkeypatch):
    """The recorder looks each moment's environment up once and hands the
    profile to the Wi-Fi, cellular and GPS models."""
    from repro.world import Place

    _, radio, walk = fixture
    calls = []
    original = Place.environment_at

    def spy(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(Place, "environment_at", spy)
    snaps = Smartphone(radio, NEXUS_5X).record_walk(walk, seed=5)
    assert len(snaps) == len(walk.moments)
    assert calls == [m.position for m in walk.moments]
