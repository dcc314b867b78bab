"""JSON persistence for surveys, error models, and sensor traces.

The paper's deployment story depends on artifacts that outlive one
session: fingerprint databases are "updated by service providers or
crowdsourcing" (§III-B), and error models are trained once per scheme
and reused everywhere.  This module gives each of those artifacts a
stable on-disk JSON form:

* :func:`save_fingerprints` / :func:`load_fingerprints`
* :func:`save_error_models` / :func:`load_error_models`
* :func:`save_trace` / :func:`load_trace` — full sensor traces, so an
  experiment recorded once can be replayed against new algorithms.

All formats carry the shared :mod:`repro.formats` header (``format``,
``version``, ``created_by``) and reject mismatches with one
:class:`~repro.formats.UnsupportedFormatError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.core.error_model import ErrorModelSet, LinearErrorModel
from repro.formats import check_header, format_header
from repro.geometry import Point
from repro.radio import Fingerprint, FingerprintDatabase
from repro.sensors.gps import GpsStatus
from repro.sensors.imu import ImuReading, StepEvent
from repro.sensors.snapshot import SensorSnapshot
from repro.world.floorplan import Landmark, LandmarkKind
from repro.world.geodesy import GeoPoint

FORMAT_VERSION = 1


def _write(path: str | Path, payload: dict[str, Any]) -> None:
    """Write an artifact atomically (temp file + rename).

    The rename keeps concurrent readers — parallel fleet workers sharing
    one artifact cache — from ever seeing a half-written JSON file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _read(path: str | Path, expected_format: str) -> dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    return check_header(payload, expected_format, FORMAT_VERSION, source=path)


# ---------------------------------------------------------------------------
# Fingerprint databases
# ---------------------------------------------------------------------------


def fingerprints_to_entries(db: FingerprintDatabase) -> list[dict[str, Any]]:
    """Return a fingerprint database as JSON-ready entry dicts."""
    return [
        {"x": e.position.x, "y": e.position.y, "rssi": e.rssi_dbm} for e in db.entries
    ]


def fingerprints_from_entries(entries: list[dict[str, Any]]) -> FingerprintDatabase:
    """Rebuild a fingerprint database from :func:`fingerprints_to_entries`."""
    return FingerprintDatabase(
        tuple(Fingerprint(Point(e["x"], e["y"]), dict(e["rssi"])) for e in entries)
    )


def save_fingerprints(db: FingerprintDatabase, path: str | Path) -> None:
    """Write a fingerprint survey to JSON."""
    _write(
        path,
        {
            **format_header("fingerprints", FORMAT_VERSION),
            "entries": fingerprints_to_entries(db),
        },
    )


def load_fingerprints(path: str | Path) -> FingerprintDatabase:
    """Read a fingerprint survey written by :func:`save_fingerprints`.

    Raises:
        UnsupportedFormatError: on a wrong or newer format.
    """
    payload = _read(path, "fingerprints")
    return fingerprints_from_entries(payload["entries"])


# ---------------------------------------------------------------------------
# Error models
# ---------------------------------------------------------------------------


def save_error_models(
    models: dict[str, ErrorModelSet], path: str | Path
) -> None:
    """Write the trained per-scheme error models to JSON."""
    _write(
        path,
        {
            **format_header("error_models", FORMAT_VERSION),
            "schemes": {
                name: {
                    "indoor": model_set.indoor.to_dict(),
                    "outdoor": model_set.outdoor.to_dict(),
                }
                for name, model_set in models.items()
            },
        },
    )


def load_error_models(path: str | Path) -> dict[str, ErrorModelSet]:
    """Read error models written by :func:`save_error_models`.

    Raises:
        UnsupportedFormatError: on a wrong or newer format.
    """
    payload = _read(path, "error_models")
    return {
        name: ErrorModelSet(
            indoor=LinearErrorModel.from_dict(spec["indoor"]),
            outdoor=LinearErrorModel.from_dict(spec["outdoor"]),
        )
        for name, spec in payload["schemes"].items()
    }


# ---------------------------------------------------------------------------
# Sensor traces
# ---------------------------------------------------------------------------


def _snapshot_to_dict(snap: SensorSnapshot) -> dict[str, Any]:
    gps: dict[str, Any] = {
        "n_satellites": snap.gps.n_satellites,
        "hdop": snap.gps.hdop if snap.gps.hdop != float("inf") else None,
    }
    if snap.gps.fix is not None:
        gps["fix"] = {
            "latitude": snap.gps.fix.latitude,
            "longitude": snap.gps.fix.longitude,
        }
    return {
        "index": snap.index,
        "time_s": snap.time_s,
        "wifi_scan": snap.wifi_scan,
        "cell_scan": snap.cell_scan,
        "gps": gps,
        "imu": {
            "step_events": [
                {"period_s": e.period_s, "length_m": e.length_m}
                for e in snap.imu.step_events
            ],
            "heading": snap.imu.heading_rad,
            "heading_bias": snap.imu.heading_bias,
            "orientation_change_rate": snap.imu.orientation_change_rate,
            "magnetic_sigma_ut": snap.imu.magnetic_sigma_ut,
        },
        "light_lux": snap.light_lux,
        "landmarks": [
            {
                "x": lm.position.x,
                "y": lm.position.y,
                "kind": lm.kind.value,
                "detection_radius": lm.detection_radius,
            }
            for lm in snap.detected_landmarks
        ],
    }


def _snapshot_from_dict(data: dict[str, Any]) -> SensorSnapshot:
    gps_data = data["gps"]
    fix = None
    if "fix" in gps_data:
        fix = GeoPoint(gps_data["fix"]["latitude"], gps_data["fix"]["longitude"])
    hdop = gps_data["hdop"]
    return SensorSnapshot(
        index=int(data["index"]),
        time_s=float(data["time_s"]),
        wifi_scan=dict(data["wifi_scan"]),
        cell_scan=dict(data["cell_scan"]),
        gps=GpsStatus(
            n_satellites=int(gps_data["n_satellites"]),
            hdop=float("inf") if hdop is None else float(hdop),
            fix=fix,
        ),
        imu=ImuReading(
            step_events=tuple(
                StepEvent(e["period_s"], e["length_m"])
                for e in data["imu"]["step_events"]
            ),
            heading_rad=float(data["imu"]["heading"]),
            heading_bias=float(data["imu"]["heading_bias"]),
            orientation_change_rate=float(data["imu"]["orientation_change_rate"]),
            magnetic_sigma_ut=float(data["imu"]["magnetic_sigma_ut"]),
        ),
        light_lux=float(data["light_lux"]),
        detected_landmarks=tuple(
            Landmark(
                Point(lm["x"], lm["y"]),
                LandmarkKind(lm["kind"]),
                lm["detection_radius"],
            )
            for lm in data["landmarks"]
        ),
    )


def save_trace(snapshots: list[SensorSnapshot], path: str | Path) -> None:
    """Write a recorded sensor trace to JSON."""
    _write(
        path,
        {
            **format_header("sensor_trace", FORMAT_VERSION),
            "snapshots": [_snapshot_to_dict(s) for s in snapshots],
        },
    )


def load_trace(path: str | Path) -> list[SensorSnapshot]:
    """Read a sensor trace written by :func:`save_trace`.

    Raises:
        UnsupportedFormatError: on a wrong or newer format.
    """
    payload = _read(path, "sensor_trace")
    return [_snapshot_from_dict(s) for s in payload["snapshots"]]
