"""Sensor-fusion localization (Travi-Navi [11] style).

The fusion scheme is the PDR particle filter with one addition: after the
motion update, each particle is re-weighted by how well the *online* Wi-Fi
scan matches the *offline* fingerprint nearest to that particle — exactly
the approach the paper adopts from Travi-Navi.  Critically (and this is
the paper's motivating criticism), the weighting is applied the same way
at every location regardless of RSSI quality, so in low-quality regions
bad RSSI actively drags the cloud away from the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.radio import FingerprintDatabase
from repro.schemes.base import SchemeOutput
from repro.schemes.pdr import PdrScheme
from repro.sensors import SensorSnapshot

#: Softmin temperature (dB) converting per-particle RSSI distances into
#: likelihood factors.
RSSI_TEMPERATURE_DB = 10.0

#: Particles farther than this from any fingerprint get no RSSI evidence.
#: Half the indoor survey spacing reaches every particle, but the paper's
#: coarse 12 m outdoor fingerprints leave most particles uncorrected —
#: "the coarse RSSI information cannot refine the motion-based PDR".
FINGERPRINT_REACH_M = 8.0

#: Relative and absolute slack on the box cull's bound, far above the few
#: ulps by which the squared box distances can round: rounding may only
#: add candidates, never drop the nearest one.
_CULL_SLACK = 1e-9


def surveyed_spots(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a survey's fingerprints by the spot they were taken at.

    A surveyor may read one spot more than once: every campus path
    starts at one point, and the survey takes it once per path.

    Args:
        positions: ``(F, 2)`` fingerprint positions, in survey order.

    Returns:
        ``(spots_xy, spot_of)``: the distinct positions as a contiguous
        ``(2, S)`` array, x row first, in order of first appearance, and
        the ``(F,)`` spot index of every fingerprint.  Without repeats,
        spot ``i`` is fingerprint ``i``.
    """
    spots: dict[tuple[float, float], int] = {}
    spot_of = np.array(
        [spots.setdefault((x, y), len(spots)) for x, y in positions.tolist()]
    )
    return np.ascontiguousarray(np.array(list(spots)).T), spot_of


def nearest_fingerprint(
    fingerprints_xy: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find the nearest fingerprint of every position, exactly.

    The cloud's bounding box culls the survey first: a fingerprint whose
    minimum distance to the box exceeds the smallest maximum distance of
    any fingerprint is farther from every point in the box than that
    fingerprint, so it cannot be anyone's nearest.  The kept candidates
    are compared by the squared distance ``dx*dx + dy*dy``, the
    arithmetic of ``cKDTree``'s Euclidean query, and an exact tie goes
    to the lower fingerprint index.

    Args:
        fingerprints_xy: ``(2, F)`` fingerprint coordinates, x row first.
        positions: ``(N, 2)`` query points, ``N >= 1``.

    Returns:
        ``(candidates, local, distances)``: the ascending ``(C,)``
        fingerprint indices that survived the cull, each position's
        ``(N,)`` nearest as an index into ``candidates``, and the
        ``(N,)`` Euclidean distances to it.

    Raises:
        ValueError: if a position is NaN or infinite.
    """
    x = positions[:, 0]
    y = positions[:, 1]
    x_lo, x_hi, y_lo, y_hi = x.min(), x.max(), y.min(), y.max()
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):
        raise ValueError("positions must be finite")
    fx = fingerprints_xy[0]
    fy = fingerprints_xy[1]
    gap_x = np.maximum(np.maximum(x_lo - fx, fx - x_hi), 0.0)
    gap_y = np.maximum(np.maximum(y_lo - fy, fy - y_hi), 0.0)
    reach_x = np.maximum(fx - x_lo, x_hi - fx)
    reach_y = np.maximum(fy - y_lo, y_hi - fy)
    bound = (reach_x * reach_x + reach_y * reach_y).min()
    near2 = gap_x * gap_x + gap_y * gap_y
    candidates = np.flatnonzero(near2 <= bound * (1.0 + _CULL_SLACK) + _CULL_SLACK)
    # In place: a wide cloud keeps every fingerprint, and each fresh
    # (N, C) temporary would cost more than the arithmetic on it.
    d2 = np.subtract.outer(x, fx[candidates])
    d2 *= d2
    dy = np.subtract.outer(y, fy[candidates])
    dy *= dy
    d2 += dy
    local = d2.argmin(axis=1)
    return candidates, local, np.sqrt(d2[np.arange(len(local)), local])


@dataclass
class FusionScheme(PdrScheme):
    """PDR particles re-weighted by Wi-Fi fingerprint likelihoods."""

    database: FingerprintDatabase | None = None
    name: str = "fusion"

    def __post_init__(self) -> None:
        if self.database is None:
            raise ValueError("FusionScheme requires a fingerprint database")
        super().__post_init__()
        self._spots_xy, self._spot_of = surveyed_spots(self.database.positions())

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Motion update, RSSI re-weighting, landmark calibration."""
        self._motion_update(snapshot)
        self._rssi_update(snapshot)
        self._landmark_update(snapshot)
        self._pf.resample_if_needed()
        return self._output(snapshot)

    def _rssi_update(self, snapshot: SensorSnapshot) -> None:
        """Re-weight particles against the nearest offline fingerprints.

        A particle is scored against the surveyed spot nearest to it;
        where that spot was read more than once, against the reading
        that best matches the scan.  The online-vs-offline RSSI distance
        is evaluated only for the readings at the spots the cloud's box
        cull keeps, not per particle.
        """
        scan = snapshot.wifi_scan
        if not scan or self.database is None:
            return
        candidates, local, distances = nearest_fingerprint(
            self._spots_xy, self._pf.positions
        )
        kept = np.zeros(len(self._spots_xy[0]), dtype=bool)
        kept[candidates] = True
        rows = np.flatnonzero(kept[self._spot_of])
        scores = self.database.distances(scan, rows=rows)
        spot_scores = np.full(len(kept), np.inf)
        np.minimum.at(spot_scores, self._spot_of[rows], scores)
        per_particle = spot_scores[candidates[local]]
        finite = np.isfinite(per_particle)
        if not finite.any():
            return
        best = per_particle[finite].min()
        factors = np.exp(-(per_particle - best) / RSSI_TEMPERATURE_DB)
        # Particles with no fingerprint nearby receive neutral evidence.
        factors = np.where(distances > FINGERPRINT_REACH_M, 1.0, factors)
        factors = np.where(finite, factors, 1.0)
        self._pf.reweight(factors)
