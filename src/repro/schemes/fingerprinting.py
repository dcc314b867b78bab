"""RSSI fingerprinting schemes: RADAR on Wi-Fi and on cellular signals.

Both schemes run the identical algorithm the paper's motivation section
describes: Euclidean distance between the online RSSI vector and every
offline fingerprint, with the closest fingerprint's position reported.
The top-``k`` candidates (k = 3 in the paper's setting) are retained both
to shape the scheme's grid posterior and to feed the error model's "RSSI
distance deviation" feature.

Matching runs on the database's dense matrix: one distance evaluation
per scan serves both the global top-k and the temporal-continuity
window.

:class:`HorusScheme` is the probabilistic variant the paper discusses
(Horus [2]): per-AP Gaussian likelihoods instead of vector distances.  It
is included as an extension and exercised by tests, but — like in the
paper — it is not one of the five aggregated schemes because it needs many
samples per fingerprint.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import Point
from repro.radio import FingerprintDatabase
from repro.radio.fingerprint import Fingerprint
from repro.radio.index import FingerprintIndex
from repro.schemes.base import LocalizationScheme, SchemeOutput
from repro.sensors import SensorSnapshot

#: Softmin temperature (dB) converting RSSI distances into candidate weights.
CANDIDATE_TEMPERATURE_DB = 8.0

#: The continuity window is abandoned when its best match is this much
#: worse (in RSSI distance) than the unconstrained best match.
CONTINUITY_ESCAPE_DB = 10.0


class FingerprintScheme(LocalizationScheme):
    """Shared RADAR-style matching over some RSSI source.

    Matching applies a temporal-continuity window: a pedestrian cannot
    teleport, so candidates are first sought among fingerprints within
    ``continuity_radius_m`` of the previous estimate.  If the best match
    inside the window is much worse (by :data:`CONTINUITY_ESCAPE_DB`) than
    the unconstrained best, the window is abandoned — the tracker was
    lost and re-acquires globally.  This is the standard practical
    refinement of RADAR-style systems and keeps errors bounded by walking
    speed rather than by place size.
    """

    def __init__(
        self,
        database: FingerprintDatabase,
        k: int = 3,
        continuity_radius_m: float | None = 30.0,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.database = database
        self.k = k
        self.continuity_radius_m = continuity_radius_m
        self._last_position: Point | None = None

    def reset(self) -> None:
        """Forget the continuity anchor (start of a new walk)."""
        self._last_position = None

    def _scan(self, snapshot: SensorSnapshot) -> dict[str, float]:
        """Extract this scheme's RSSI vector from the snapshot."""
        raise NotImplementedError

    def _candidate_entries(
        self, scan: dict[str, float]
    ) -> list[tuple[Fingerprint, float]]:
        """Rank fingerprints by RSSI distance under the continuity window.

        One dense distance pass serves both the unconstrained top-k and
        the windowed top-k.
        """
        database = self.database
        scores = database.distances(scan)
        order = np.argsort(scores, kind="stable")
        global_top = [
            (database.entries[i], float(scores[i])) for i in order[: self.k]
        ]
        if self.continuity_radius_m is None or self._last_position is None:
            return global_top
        anchor = self._last_position
        positions = database.positions()
        in_window = (
            np.hypot(positions[:, 0] - anchor.x, positions[:, 1] - anchor.y)
            <= self.continuity_radius_m
        )
        windowed = order[in_window[order]][: self.k]
        if windowed.size == 0:
            return global_top
        if float(scores[windowed[0]]) > global_top[0][1] + CONTINUITY_ESCAPE_DB:
            return global_top  # lost the track: re-acquire globally
        return [(database.entries[i], float(scores[i])) for i in windowed]

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Match the online scan against the offline database."""
        scan = self._scan(snapshot)
        if not scan:
            return None
        top = self._candidate_entries(scan)
        best_entry, best_distance = top[0]
        self._last_position = best_entry.position
        finite = [(e, d) for e, d in top if math.isfinite(d)]
        if not finite:
            return None
        weights = [
            math.exp(-(d - best_distance) / CANDIDATE_TEMPERATURE_DB)
            for _, d in finite
        ]
        candidates = [
            (entry.position, weight) for (entry, _), weight in zip(finite, weights)
        ]
        spread = self._candidate_spread(best_entry.position, candidates)
        distances = np.array([d for _, d in finite])
        return SchemeOutput(
            position=best_entry.position,
            spread=spread,
            candidates=candidates,
            quality={
                "best_rssi_distance": best_distance,
                "candidate_deviation": float(np.std(distances))
                if distances.size > 1
                else 0.0,
                "n_sources": float(len(scan)),
            },
        )

    @staticmethod
    def _candidate_spread(
        best: Point, candidates: list[tuple[Point, float]]
    ) -> float:
        """Return the weighted RMS distance of candidates from the best one."""
        total = sum(w for _, w in candidates)
        if total <= 0.0:
            return 3.0
        acc = sum(w * best.distance_to(p) ** 2 for p, w in candidates)
        return max(math.sqrt(acc / total), 1.5)


class RadarScheme(FingerprintScheme):
    """RADAR [1]: Wi-Fi RSSI fingerprinting."""

    name = "wifi"

    def _scan(self, snapshot: SensorSnapshot) -> dict[str, float]:
        return snapshot.wifi_scan


class CellularScheme(FingerprintScheme):
    """Otsason et al. [22]: the same fingerprinting on GSM cell towers."""

    name = "cellular"

    def _scan(self, snapshot: SensorSnapshot) -> dict[str, float]:
        return snapshot.cell_scan


class HorusScheme(FingerprintScheme):
    """Horus [2]: probabilistic per-AP Gaussian fingerprint matching.

    Each offline fingerprint is treated as the mean of a Gaussian RSSI
    distribution with a shared deviation ``sigma_db``; the location
    posterior is the product of per-AP likelihoods.  Because every per-AP
    term shares one deviation, the log-likelihood is exactly
    ``-d^2 / (2 sigma^2)`` for the database's RSSI distance ``d`` — one
    dense distance pass.  Extension scheme — not part of the aggregated
    five.
    """

    name = "horus"

    def __init__(
        self,
        database: FingerprintDatabase,
        k: int = 3,
        sigma_db: float = 4.0,
    ) -> None:
        super().__init__(database, k)
        if sigma_db <= 0.0:
            raise ValueError("sigma_db must be positive")
        self.sigma_db = sigma_db

    def _scan(self, snapshot: SensorSnapshot) -> dict[str, float]:
        return snapshot.wifi_scan

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        scan = self._scan(snapshot)
        if not scan:
            return None
        database = self.database
        distance = database.distances(scan)
        log_likes_arr = -(distance * distance) / (
            2.0 * self.sigma_db * self.sigma_db
        )
        log_likes_arr -= log_likes_arr.max()
        likes = np.exp(log_likes_arr)
        order = np.argsort(likes)[::-1][: self.k]
        candidates = [
            (database.entries[i].position, float(likes[i])) for i in order
        ]
        best = candidates[0][0]
        spread = self._candidate_spread(best, candidates)
        return SchemeOutput(
            position=best,
            spread=spread,
            candidates=candidates,
            quality={"n_sources": float(len(scan))},
        )


class GaussianHorusScheme(LocalizationScheme):
    """Horus [2] over a proper multi-sample Gaussian survey.

    Unlike :class:`HorusScheme` (which approximates per-AP distributions
    with a shared deviation over single-sample fingerprints), this
    variant consumes a learned per-AP mean/deviation survey.  It is
    written against the :class:`~repro.radio.index.FingerprintIndex`
    protocol, so either database flavour — Gaussian or Euclidean — can be
    plugged in; scores are lower-is-better and the softmin weighting
    ``exp(best - score)`` applies uniformly.
    """

    name = "horus_gaussian"

    def __init__(self, database: FingerprintIndex, k: int = 3) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.database = database
        self.k = k

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        scan = snapshot.wifi_scan
        if not scan:
            return None
        top = self.database.match(scan, k=self.k)
        finite = [c for c in top if math.isfinite(c.score)]
        if not finite:
            return None
        best = finite[0]
        weights = [math.exp(best.score - c.score) for c in finite]
        candidates = [
            (candidate.position, weight)
            for candidate, weight in zip(finite, weights)
        ]
        spread = FingerprintScheme._candidate_spread(best.position, candidates)
        return SchemeOutput(
            position=best.position,
            spread=spread,
            candidates=candidates,
            quality={
                "n_sources": float(len(scan)),
                "best_log_likelihood": -best.score,
            },
        )
