"""Tests for the GPS receiver."""

import numpy as np
import pytest

from repro.radio import RadioEnvironment
from repro.sensors import GpsReceiver
from repro.world import (
    NTU_FRAME,
    build_daily_path_place,
    build_open_space_place,
    profile_of,
)


def _observe(receiver, point):
    profile = profile_of(receiver.radio.place.environment_at(point))
    return receiver.observe(point, profile)


@pytest.fixture(scope="module")
def outdoor_receiver():
    radio = RadioEnvironment.deploy(build_open_space_place(), seed=5)
    return GpsReceiver(radio=radio, frame=NTU_FRAME, rng=np.random.default_rng(0))


def test_no_fix_indoors():
    radio = RadioEnvironment.deploy(build_daily_path_place(), seed=3)
    receiver = GpsReceiver(radio=radio, frame=NTU_FRAME, rng=np.random.default_rng(0))
    path = radio.place.paths["path1"]
    indoor_point = path.polyline.point_at_distance(10.0)  # office
    status = _observe(receiver, indoor_point)
    assert not status.has_fix
    assert status.n_satellites == 0


def test_outdoor_fix_reports_satellites(outdoor_receiver):
    path = outdoor_receiver.radio.place.paths["survey"]
    point = path.polyline.point_at_distance(50.0)
    status = _observe(outdoor_receiver, point)
    assert status.has_fix
    assert status.n_satellites >= 9
    assert status.hdop < 2.0


def test_outdoor_error_matches_paper_distribution(outdoor_receiver):
    """Open-sky fixes: error magnitude mean ~13.5 m (paper GPS model)."""
    path = outdoor_receiver.radio.place.paths["survey"]
    point = path.polyline.point_at_distance(50.0)
    errors = []
    for _ in range(400):
        status = _observe(outdoor_receiver, point)
        fix = outdoor_receiver.frame.to_map(status.fix)
        errors.append(fix.distance_to(point))
    assert np.mean(errors) == pytest.approx(13.5, rel=0.2)
    assert 4.0 < np.std(errors) < 12.0


def test_fix_position_is_geodetic():
    """The chip reports lat/lon; map conversion must round-trip sanely."""
    radio = RadioEnvironment.deploy(build_open_space_place(), seed=5)
    receiver = GpsReceiver(radio=radio, frame=NTU_FRAME, rng=np.random.default_rng(1))
    path = radio.place.paths["survey"]
    point = path.polyline.point_at_distance(20.0)
    status = _observe(receiver, point)
    assert status.fix is not None
    assert status.fix.latitude == pytest.approx(NTU_FRAME.origin.latitude, abs=0.01)
