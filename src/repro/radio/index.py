"""The unified query surface of every fingerprint database.

Both fingerprint flavours — the RADAR-style Euclidean
:class:`~repro.radio.fingerprint.FingerprintDatabase` and the Horus-style
:class:`~repro.radio.gaussian_fingerprint.GaussianFingerprintDatabase` —
answer the same question: *given an online scan, which surveyed locations
match best, and how well?*  :class:`FingerprintIndex` is that question as
a structural protocol, so schemes written against it consume either
database interchangeably.

Scores are **lower-is-better** for every implementation: the Euclidean
databases report the RSSI distance in dB, the Gaussian databases report
the *negated* log-likelihood.  Softmin weighting
(``exp((best - score) / T)``) therefore works uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.geometry import Point


@dataclass(frozen=True)
class MatchCandidate:
    """One scored match from a fingerprint index.

    Attributes:
        index: position of the matched entry in the database.
        position: surveyed location of the matched entry.
        score: match badness — lower is better.  RSSI distance (dB) for
            Euclidean databases, negated log-likelihood for Gaussian ones.
    """

    index: int
    position: Point
    score: float


@runtime_checkable
class FingerprintIndex(Protocol):
    """Structural protocol over all fingerprint database flavours."""

    def __len__(self) -> int:
        """Return the number of surveyed entries."""
        ...

    def positions(self) -> np.ndarray:
        """Return an ``(n, 2)`` array of surveyed positions."""
        ...

    def match(self, rssi_dbm: dict[str, float], k: int = 3) -> list[MatchCandidate]:
        """Return the best ``k`` candidates for a scan, best first.

        An empty scan carries no information and matches nothing: the
        result is ``[]`` (see the empty-scan bugfix in
        :meth:`repro.radio.fingerprint.FingerprintDatabase.nearest`).

        Raises:
            ValueError: if ``k`` is not positive.
        """
        ...
