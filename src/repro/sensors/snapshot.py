"""Sensor snapshots: everything the phone measures at one instant.

A :class:`SensorSnapshot` is the ``s_t`` of the paper — the real-time
sensor context from which every scheme localizes and from which the error
models compute their influence factors.  It deliberately contains **no
ground truth**; the experiment harness keeps the true
:class:`~repro.motion.Moment` separately for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sensors.gps import GpsStatus
from repro.sensors.imu import ImuReading
from repro.world.floorplan import Landmark


@dataclass(frozen=True)
class SensorSnapshot:
    """All sensor measurements captured at one walking step.

    Attributes:
        index: step index within the walk.
        time_s: elapsed walking time.
        wifi_scan: Wi-Fi RSSI vector, possibly empty where no AP is audible.
        cell_scan: cellular RSSI vector.
        gps: GPS chip report (satellite count, HDOP, optional fix).
        imu: inertial pipeline output.
        light_lux: ambient light reading (IODetector's primary feature).
        detected_landmarks: map landmarks whose physical signature the
            phone sensed at this step (turns, doors, Wi-Fi/magnetic
            signatures), used by PDR for calibration.
    """

    index: int
    time_s: float
    wifi_scan: dict[str, float]
    cell_scan: dict[str, float]
    gps: GpsStatus
    imu: ImuReading
    light_lux: float
    detected_landmarks: tuple[Landmark, ...] = field(default_factory=tuple)

    # -- degraded-copy constructors (snapshots are frozen) -------------
    #
    # Fault injection and the robustness suites derive corrupted traces
    # from clean ones; these helpers keep every such derivation a
    # non-mutating ``replace`` so recorded walks stay pristine.

    def with_gps(self, gps: GpsStatus) -> "SensorSnapshot":
        """Return a copy whose GPS chip reports ``gps`` instead."""
        return replace(self, gps=gps)

    def with_imu(self, imu: ImuReading) -> "SensorSnapshot":
        """Return a copy whose inertial pipeline reports ``imu``."""
        return replace(self, imu=imu)

    def with_radio_blackout(self) -> "SensorSnapshot":
        """Return a copy measured in a dead radio segment.

        No audible AP, no audible tower, and a jammed GPS chip — the
        basement/tunnel regime every scheme except dead reckoning goes
        dark in.
        """
        return replace(
            self, wifi_scan={}, cell_scan={}, gps=GpsStatus.jammed()
        )
