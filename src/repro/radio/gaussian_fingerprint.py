"""Multi-sample Gaussian fingerprints (the Horus [2] database).

Horus handles temporal RSSI variation by learning a *distribution* of
RSSIs per AP per location, which — as the paper notes when excluding it
from the five aggregated schemes — "requires hundreds of samples to
capture an accurate distribution at one location".  This module is that
database: each surveyed location stores per-AP mean and deviation, and
matching is by log-likelihood instead of Euclidean distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.radio.fingerprint import MISSING_RSSI_DBM
from repro.radio.index import MatchCandidate

#: Deviation assumed for an AP with too few samples to estimate one.
DEFAULT_STD_DB = 4.0

#: Probability floor per AP, preventing one outlier from zeroing a
#: location's likelihood (Horus uses the same guard).
LOG_LIKELIHOOD_FLOOR = math.log(1e-6)


@dataclass(frozen=True)
class GaussianReading:
    """Per-AP RSSI statistics at one surveyed location."""

    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class GaussianFingerprint:
    """One surveyed location with per-AP RSSI distributions."""

    position: Point
    readings: dict[str, GaussianReading]


@dataclass
class GaussianFingerprintDatabase:
    """A Horus-style survey: per-location, per-AP Gaussian RSSI models.

    Construction lowers the survey once to dense ``(entries,
    transmitters)`` mean and deviation matrices plus a presence mask.
    The log-likelihood runs over the *union* of scan and entry APs;
    densely that means a term is counted only where the presence mask
    (entry has a reading) or the scan covers the column — columns absent
    from both contribute exactly zero, not the floored "missing vs
    missing" term.  Implements the
    :class:`~repro.radio.index.FingerprintIndex` protocol with
    ``score = -log_likelihood``.

    Attributes:
        entries: surveyed locations, in survey order (any sequence given
            is stored as a tuple).
    """

    entries: tuple[GaussianFingerprint, ...]

    def __post_init__(self) -> None:
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("a Gaussian fingerprint database cannot be empty")
        vocabulary = sorted({key for e in self.entries for key in e.readings})
        self.transmitter_ids: tuple[str, ...] = tuple(vocabulary)
        self._column: dict[str, int] = {
            identifier: j for j, identifier in enumerate(vocabulary)
        }
        shape = (len(self.entries), len(vocabulary))
        means = np.full(shape, MISSING_RSSI_DBM)
        stds = np.full(shape, DEFAULT_STD_DB)
        present = np.zeros(shape, dtype=bool)
        for i, entry in enumerate(self.entries):
            for key, reading in entry.readings.items():
                j = self._column[key]
                means[i, j] = reading.mean
                stds[i, j] = reading.std
                present[i, j] = True
        for array in (means, stds, present):
            array.setflags(write=False)
        self.means = means
        self.stds = stds
        self.present = present
        # -log(std) - 0.5 log(2 pi), precomputed per cell.
        self._log_norm = -np.log(stds) - 0.5 * math.log(2.0 * math.pi)
        self._n_readings = np.array([len(e.readings) for e in self.entries])
        positions_xy = np.array([[e.position.x, e.position.y] for e in self.entries])
        positions_xy.setflags(write=False)
        self._positions = positions_xy

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_samples(
        cls, surveys: list[tuple[Point, list[dict[str, float]]]]
    ) -> "GaussianFingerprintDatabase":
        """Build the database from repeated scans per location.

        Args:
            surveys: ``(position, scans)`` pairs; each scan is an RSSI
                vector.  APs missing from a scan are treated as absent
                (they do not contribute a sample).

        Raises:
            ValueError: if no location has any audible sample.
        """
        entries = []
        for position, scans in surveys:
            samples: dict[str, list[float]] = {}
            for scan in scans:
                for key, value in scan.items():
                    samples.setdefault(key, []).append(value)
            if not samples:
                continue
            readings = {}
            for key, values in samples.items():
                std = float(np.std(values)) if len(values) > 1 else DEFAULT_STD_DB
                readings[key] = GaussianReading(
                    mean=float(np.mean(values)),
                    std=max(std, 0.5),
                    count=len(values),
                )
            entries.append(GaussianFingerprint(position, readings))
        if not entries:
            raise ValueError("surveys contained no audible samples")
        return cls(tuple(entries))

    def positions(self) -> np.ndarray:
        """Return the (read-only) ``(n, 2)`` array of surveyed positions."""
        return self._positions

    def log_likelihoods(self, rssi_dbm: dict[str, float]) -> np.ndarray:
        """Return each entry's log-likelihood of the scan, as an ``(n,)`` array.

        Evaluated over the union of APs: an AP audible online but not in
        an entry's model (or vice versa) is scored against the
        sensitivity floor with the default deviation, and every per-AP
        term is floored so a single outlier cannot veto a location.  An
        entry with no readings has likelihood ``-inf`` for an empty scan.
        """
        vector = np.full(len(self.transmitter_ids), MISSING_RSSI_DBM)
        in_scan = np.zeros(len(self.transmitter_ids), dtype=bool)
        extra = 0.0
        for key, value in rssi_dbm.items():
            j = self._column.get(key)
            if j is None:
                z = (value - MISSING_RSSI_DBM) / DEFAULT_STD_DB
                term = (
                    -0.5 * z * z
                    - math.log(DEFAULT_STD_DB)
                    - 0.5 * math.log(2.0 * math.pi)
                )
                extra += max(term, LOG_LIKELIHOOD_FLOOR)
            else:
                vector[j] = value
                in_scan[j] = True
        z = (vector - self.means) / self.stds
        terms = np.maximum(-0.5 * z * z + self._log_norm, LOG_LIKELIHOOD_FLOOR)
        mask = self.present | in_scan
        totals = np.where(mask, terms, 0.0).sum(axis=1) + extra
        if not rssi_dbm:
            totals = np.where(self._n_readings == 0, -np.inf, totals)
        return totals

    def most_likely(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[tuple[GaussianFingerprint, float]]:
        """Return the ``k`` most likely locations with their log-likelihoods.

        An empty scan carries no information and matches nothing: the
        result is ``[]``.

        Raises:
            ValueError: if ``k`` is not positive.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        totals = self.log_likelihoods(rssi_dbm)
        order = np.argsort(-totals, kind="stable")[:k]
        return [(self.entries[i], float(totals[i])) for i in order]

    def match(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[MatchCandidate]:
        """Return the best ``k`` candidates, scored by negated log-likelihood."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        totals = self.log_likelihoods(rssi_dbm)
        order = np.argsort(-totals, kind="stable")[:k]
        return [
            MatchCandidate(
                index=int(i),
                position=self.entries[i].position,
                score=-float(totals[i]),
            )
            for i in order
        ]
