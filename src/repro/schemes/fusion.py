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

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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


@dataclass
class FusionScheme(PdrScheme):
    """PDR particles re-weighted by Wi-Fi fingerprint likelihoods."""

    database: FingerprintDatabase | None = None
    name: str = "fusion"

    def __post_init__(self) -> None:
        if self.database is None:
            raise ValueError("FusionScheme requires a fingerprint database")
        super().__post_init__()
        self._fp_tree = cKDTree(self.database.positions())

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Motion update, RSSI re-weighting, landmark calibration."""
        self._motion_update(snapshot)
        self._rssi_update(snapshot)
        self._landmark_update(snapshot)
        self._pf.resample_if_needed()
        return self._output(snapshot)

    def _rssi_update(self, snapshot: SensorSnapshot) -> None:
        """Re-weight particles against the nearest offline fingerprints.

        For efficiency the online-vs-offline RSSI distance is evaluated
        once per *unique* nearest fingerprint, not per particle.
        """
        scan = snapshot.wifi_scan
        if not scan or self.database is None:
            return
        distances, indices = self._fp_tree.query(self._pf.positions)
        unique = np.unique(indices)
        unique_scores = self.database.distances(scan, rows=unique)
        per_particle = unique_scores[np.searchsorted(unique, indices)]
        finite = np.isfinite(per_particle)
        if not finite.any():
            return
        best = per_particle[finite].min()
        factors = np.exp(-(per_particle - best) / RSSI_TEMPERATURE_DB)
        # Particles with no fingerprint nearby receive neutral evidence.
        factors = np.where(distances > FINGERPRINT_REACH_M, 1.0, factors)
        factors = np.where(finite, factors, 1.0)
        self._pf.reweight(factors)
