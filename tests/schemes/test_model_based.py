"""Tests for the EZ-style model-based (trilateration) extension scheme."""

import pytest

from repro.geometry import Point
from repro.radio import PropagationModel, Transmitter, TransmitterField
from repro.schemes import ModelBasedScheme
from repro.sensors.gps import GpsStatus
from repro.sensors.imu import ImuReading
from repro.sensors.snapshot import SensorSnapshot

#: Noise-free model for exact-inversion tests.
CLEAN = PropagationModel(18.0, 40.0, 2.8, 5.0, 0.0, 12.0)


def clean_rssi(aps, truth):
    """Every AP's noise-free RSSI at ``truth`` under ``CLEAN``."""
    rssi = CLEAN.mean_rssi_dbm(truth.x, truth.y, TransmitterField.pack(aps))
    return dict(zip((ap.identifier for ap in aps), rssi.tolist()))


def make_snapshot(wifi):
    return SensorSnapshot(
        index=0,
        time_s=0.0,
        wifi_scan=wifi,
        cell_scan={},
        gps=GpsStatus(0, float("inf"), None),
        imu=ImuReading((), 0.0, 0.0, 0.0, 2.0),
        light_lux=300.0,
    )


@pytest.fixture
def aps():
    return [
        Transmitter("a", Point(0, 0), seed=1),
        Transmitter("b", Point(40, 0), seed=2),
        Transmitter("c", Point(0, 40), seed=3),
        Transmitter("d", Point(40, 40), seed=4),
    ]


def test_exact_trilateration_with_clean_rssi(aps):
    scheme = ModelBasedScheme(aps, model=CLEAN)
    truth = Point(13.0, 22.0)
    scan = clean_rssi(aps, truth)
    out = scheme.estimate(make_snapshot(scan))
    assert out.position.distance_to(truth) < 0.5


def test_needs_three_anchors(aps):
    scheme = ModelBasedScheme(aps, model=CLEAN)
    scan = {"a": -50.0, "b": -60.0}
    assert scheme.estimate(make_snapshot(scan)) is None


def test_unknown_aps_ignored(aps):
    scheme = ModelBasedScheme(aps, model=CLEAN)
    scan = {"zzz": -50.0, "yyy": -60.0, "xxx": -70.0}
    assert scheme.estimate(make_snapshot(scan)) is None


def test_residual_reported(aps):
    scheme = ModelBasedScheme(aps, model=CLEAN)
    truth = Point(20.0, 20.0)
    scan = {
        identifier: rssi + offset
        for (identifier, rssi), offset in zip(
            clean_rssi(aps, truth).items(), (3.0, -3.0, 2.0, -2.0)
        )
    }
    out = scheme.estimate(make_snapshot(scan))
    assert out.quality["range_residual"] > 0.0
    assert out.quality["n_anchors"] == 4.0
