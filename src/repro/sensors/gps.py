"""The smartphone GPS receiver.

The receiver reports what the paper's GPS scheme consumes: a geodetic
coordinate, the number of visible satellites, and the HDOP.  Per the
paper's measurements, outdoor fixes have an error magnitude that is
approximately Gaussian with mean 13.5 m and deviation 9.4 m; we realize
that by drawing a Rayleigh-like planar error whose scale tracks HDOP, with
the constants chosen so the open-sky distribution matches the paper's.
A fix is produced only when at least four satellites are visible and HDOP
is below 6 — the paper's reliability gate (§III-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.radio import MIN_SATELLITES_FOR_FIX, RadioEnvironment
from repro.world.environment import EnvironmentProfile
from repro.world.geodesy import GeoPoint, LocalTangentPlane

#: The paper's reliability gate: fixes with HDOP above this are discarded.
HDOP_GATE = 6.0

#: Per-axis error scale at the reference HDOP; chosen so the open-sky
#: error magnitude has mean ~13.5 m (Rayleigh mean = sigma * sqrt(pi/2)).
BASE_SIGMA_M = 13.5 / math.sqrt(math.pi / 2.0)

#: HDOP at which BASE_SIGMA_M applies (the paper's measured outdoor mean).
REFERENCE_HDOP = 0.9


@dataclass(frozen=True)
class GpsStatus:
    """What the GPS chip reports at one instant."""

    n_satellites: int
    hdop: float
    fix: GeoPoint | None

    @property
    def has_fix(self) -> bool:
        """Return True when a position fix passed the reliability gate."""
        return self.fix is not None

    @classmethod
    def jammed(cls) -> "GpsStatus":
        """Return the no-signal report (zero satellites, no fix)."""
        return cls(n_satellites=0, hdop=float("inf"), fix=None)


@dataclass
class GpsReceiver:
    """A GPS chip operating inside a radio environment."""

    radio: RadioEnvironment
    frame: LocalTangentPlane
    rng: np.random.Generator

    def observe(self, true_position: Point, profile: EnvironmentProfile) -> GpsStatus:
        """Return the chip's report at the walker's true position.

        ``profile`` is the environment profile at ``true_position``; the
        satellite count and HDOP come from its sky view
        (:meth:`~repro.radio.RadioEnvironment.sky_geometry`).  Indoors the
        sky view is (near) zero, so no satellites are visible and no fix
        is produced; outdoors the fix error scales with HDOP.
        """
        n, hdop = self.radio.sky_geometry(profile)
        if n < MIN_SATELLITES_FOR_FIX or hdop > HDOP_GATE:
            return GpsStatus(n_satellites=n, hdop=hdop, fix=None)
        sigma = BASE_SIGMA_M * min(max(hdop / REFERENCE_HDOP, 0.5), 4.0)
        error = Point(
            float(self.rng.normal(0.0, sigma)), float(self.rng.normal(0.0, sigma))
        )
        fixed = true_position + error
        return GpsStatus(n_satellites=n, hdop=hdop, fix=self.frame.to_geo(fixed))
