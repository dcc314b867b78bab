"""The common interface every localization scheme implements.

UniLoc treats schemes as black boxes (§III-A): it sees only their final
outputs plus the raw sensor data.  :class:`SchemeOutput` is that final
output — a point estimate plus whatever probabilistic shape the scheme can
naturally provide (particle clouds for PDR/fusion, scored candidates for
fingerprinting, an isotropic Gaussian for GPS).  The ensemble engine
rasterizes any of the three shapes onto the place grid to get the
``P(l = l_i | M_n, s_t)`` terms of the paper's Eq. 3.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.geometry import Grid, Point
from repro.sensors import SensorSnapshot


@dataclass(eq=False)
class SchemeOutput:
    """One scheme's location estimate at one instant.

    Attributes:
        position: the scheme's point estimate in map coordinates.
        spread: the scheme's own dispersion estimate in meters (particle
            std-dev, candidate spread, or GPS sigma); used as the Gaussian
            width when no richer shape is available.
        samples: optional ``(n, 2)`` particle positions.
        sample_weights: optional ``(n,)`` particle weights.
        candidates: optional scored location candidates
            ``[(point, weight), ...]`` from fingerprint matching.
        quality: scheme-specific measurement context (e.g. top-k RSSI
            distances) that feature extractors may read.
    """

    position: Point
    spread: float
    samples: np.ndarray | None = None
    sample_weights: np.ndarray | None = None
    candidates: list[tuple[Point, float]] | None = None
    quality: dict[str, float] = field(default_factory=dict)

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ compares the array fields with
        # `==`, whose elementwise result is ambiguous as a bool; compare
        # them with array_equal so equality (and pickle round-trip
        # checks) work on any SchemeOutput.
        if not isinstance(other, SchemeOutput):
            return NotImplemented

        def arrays_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
            if a is None or b is None:
                return a is b
            return np.array_equal(a, b)

        return (
            self.position == other.position
            and self.spread == other.spread
            and arrays_equal(self.samples, other.samples)
            and arrays_equal(self.sample_weights, other.sample_weights)
            and self.candidates == other.candidates
            and self.quality == other.quality
        )

    def is_finite(self) -> bool:
        """Return True when the estimate is numerically usable.

        A scheme emitting NaN/Inf coordinates, a non-finite spread, or
        non-finite particle ``samples``/``sample_weights`` would silently
        poison the BMA mixture (and, through UniLoc2, the HMM); the
        framework rejects such outputs before they reach the ensemble
        (treating them as a scheme failure rather than an unavailable
        step).
        """
        return bool(
            math.isfinite(self.position.x)
            and math.isfinite(self.position.y)
            and math.isfinite(self.spread)
            and (self.samples is None or np.isfinite(self.samples).all())
            and (
                self.sample_weights is None
                or np.isfinite(self.sample_weights).all()
            )
        )

    def grid_posterior(self, grid: Grid) -> np.ndarray:
        """Rasterize this output into a normalized posterior over ``grid``.

        Particle schemes contribute their particle histogram; everything
        else contributes an isotropic Gaussian centered at the point
        estimate with the scheme's own spread.  Both shapes have their
        mean at (or very near) the scheme's reported location, which keeps
        the BMA mixture mean (paper Eq. 4) consistent with the outputs
        being averaged.  The top-k candidate list is deliberately *not*
        mixed in: candidates of a coarse fingerprint scheme can span tens
        of meters, and a candidate-mixture posterior would move that
        scheme's contribution far from its reported estimate (see
        :meth:`candidate_posterior` for the multimodal alternative).

        The array is freshly allocated, so a caller may scale it in place
        (:func:`repro.core.framework.bma_mixture` does).
        """
        if self.samples is not None and len(self.samples) > 0:
            return grid.histogram_posterior(self.samples, self.sample_weights)
        return grid.gaussian_posterior(self.position, max(self.spread, 1.0))

    def candidate_posterior(self, grid: Grid) -> np.ndarray | None:
        """Rasterize the top-k candidate mixture (multimodal shape).

        Returns None when the scheme reported no candidates.  Exposed for
        analysis and ablation; the BMA engine uses :meth:`grid_posterior`.
        """
        if not self.candidates:
            return None
        posterior = np.zeros(grid.n_cells)
        for point, weight in self.candidates:
            if weight > 0.0:
                posterior += weight * grid.gaussian_posterior(
                    point, max(self.spread, grid.cell_size)
                )
        total = posterior.sum()
        if total <= 0.0:
            return None
        return posterior / total


@runtime_checkable
class Scheme(Protocol):
    """Structural interface of a localization scheme.

    UniLoc treats schemes as black boxes (§III-A): anything exposing a
    ``name``, an ``estimate`` over sensor snapshots, and a per-walk
    ``reset`` can be aggregated or fault-wrapped
    (:class:`repro.faults.injectors.FaultyScheme`) — no inheritance from
    :class:`LocalizationScheme` required.
    """

    @property
    def name(self) -> str:
        """Short identifier used in reports ("gps", "wifi", ...)."""
        ...

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Produce a location estimate from one sensor snapshot."""
        ...

    def reset(self) -> None:
        """Clear any internal state before a new walk."""
        ...


class LocalizationScheme(abc.ABC):
    """A localization scheme run as a black box.

    Subclasses implement :meth:`estimate`; returning ``None`` signals that
    the scheme is unavailable at this instant (no GPS fix, no audible AP),
    in which case UniLoc temporarily excludes it by zeroing its confidence
    (§IV-A).
    """

    #: Short identifier used in reports ("gps", "wifi", ...).
    name: str = "scheme"

    @abc.abstractmethod
    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        """Produce a location estimate from one sensor snapshot."""

    def reset(self) -> None:
        """Clear any internal state before a new walk (default: none)."""
