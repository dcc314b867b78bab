"""Baselines from the paper's related work (§VI).

Two systems the paper positions UniLoc against, implemented faithfully
enough to reproduce the contrasts:

* **A-Loc** (Lin et al.) selects *one* low-cost scheme that meets an
  accuracy requirement, using **pre-measured offline error records** at
  every location of a place.  Its two weaknesses, per the paper: the
  error records capture no temporal variation, and they simply do not
  exist in new places — which is exactly where UniLoc's sensor-feature
  models still work.

* **Global-weight BMA** ([29]) fuses multiple schemes with one fixed
  weight per scheme for a whole place, learned from a calibration
  session — no per-location adaptation.  UniLoc2's locally-weighted
  variant beats it because scheme quality varies along a path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.framework import bma_mixture
from repro.geometry import Grid, Point
from repro.motion import Walk
from repro.schemes.base import LocalizationScheme, SchemeOutput
from repro.sensors import SensorSnapshot
from repro.world import Place

#: Ordering of scheme energy cost for A-Loc's cheapest-first selection
#: (see repro.energy.power constants: PDR < cellular < Wi-Fi < GPS-ish).
DEFAULT_ENERGY_ORDER = ("motion", "cellular", "wifi", "fusion", "gps")


@dataclass
class OfflineErrorMap:
    """Pre-measured per-location error records for one place (A-Loc style).

    Built from supervised survey walks: for every grid cell and scheme,
    the mean measured error of that scheme at that cell.  Queries in
    cells that were never surveyed return None, and the whole map is
    bound to one named place — records are physical measurements of one
    building and mean nothing anywhere else, which is the scalability
    limitation the paper contrasts UniLoc against.
    """

    grid: Grid
    place_name: str = ""
    _sums: dict[str, np.ndarray] = field(init=False, repr=False)
    _counts: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._sums = {}
        self._counts = {}

    def record(self, scheme: str, position: Point, error: float) -> None:
        """Record one measured error at a surveyed true position."""
        if scheme not in self._sums:
            self._sums[scheme] = np.zeros(self.grid.n_cells)
            self._counts[scheme] = np.zeros(self.grid.n_cells)
        idx = self.grid.index_of(position)
        self._sums[scheme][idx] += error
        self._counts[scheme][idx] += 1.0

    def record_walk(
        self,
        place: Place,
        schemes: dict[str, LocalizationScheme],
        walk: Walk,
        snapshots: list[SensorSnapshot],
    ) -> None:
        """Survey one supervised walk into the error map."""
        if len(walk.moments) != len(snapshots):
            raise ValueError("walk and snapshot trace must be the same length")
        for scheme in schemes.values():
            scheme.reset()
        for moment, snapshot in zip(walk.moments, snapshots):
            for name, scheme in schemes.items():
                output = scheme.estimate(snapshot)
                if output is not None:
                    self.record(
                        name,
                        moment.position,
                        output.position.distance_to(moment.position),
                    )

    def lookup(self, scheme: str, position: Point) -> float | None:
        """Return the recorded mean error near ``position``, or None.

        Falls back to the 8-neighborhood when the exact cell is empty
        (surveys are sparse), then gives up — there is no model to
        extrapolate from, unlike UniLoc's regression.
        """
        if scheme not in self._sums:
            return None
        idx = self.grid.index_of(position)
        counts = self._counts[scheme]
        if counts[idx] > 0:
            return float(self._sums[scheme][idx] / counts[idx])
        ny, nx = self.grid.shape
        row, col = divmod(idx, nx)
        neighbor_sum = neighbor_count = 0.0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                r, c = row + dr, col + dc
                if 0 <= r < ny and 0 <= c < nx:
                    j = r * nx + c
                    neighbor_sum += self._sums[scheme][j]
                    neighbor_count += counts[j]
        if neighbor_count > 0:
            return float(neighbor_sum / neighbor_count)
        return None

    def coverage(self, scheme: str) -> float:
        """Return the fraction of grid cells with records for a scheme."""
        if scheme not in self._counts:
            return 0.0
        return float((self._counts[scheme] > 0).mean())


@dataclass
class ALocSelector:
    """A-Loc: pick the cheapest scheme meeting an accuracy requirement.

    Attributes:
        error_map: the place's pre-measured error records.
        accuracy_requirement_m: the application's accuracy target.
        energy_order: scheme names from cheapest to most expensive.
    """

    error_map: OfflineErrorMap
    accuracy_requirement_m: float = 5.0
    energy_order: tuple[str, ...] = DEFAULT_ENERGY_ORDER

    def select(
        self,
        outputs: dict[str, SchemeOutput | None],
        believed_position: Point,
        place_name: str | None = None,
    ) -> str | None:
        """Return the scheme A-Loc would use at the believed position.

        Cheapest scheme whose *recorded* error meets the requirement; if
        none qualifies, the scheme with the lowest recorded error; if the
        user is in a place the map was not built for (or the believed
        cell has no records), None — A-Loc cannot operate there.
        """
        if place_name is not None and place_name != self.error_map.place_name:
            return None
        candidates: list[tuple[str, float]] = []
        for name in self.energy_order:
            if outputs.get(name) is None:
                continue
            recorded = self.error_map.lookup(name, believed_position)
            if recorded is None:
                continue
            candidates.append((name, recorded))
            if recorded <= self.accuracy_requirement_m:
                return name
        if not candidates:
            return None
        return min(candidates, key=lambda pair: pair[1])[0]


@dataclass
class GlobalWeightBma:
    """BMA with one fixed weight per scheme for a whole place ([29]).

    Weights are learned from a calibration session as inverse mean
    squared error (the optimal fixed linear-combination weights for
    independent unbiased estimators), then frozen.
    """

    grid: Grid
    weights: dict[str, float]

    @classmethod
    def calibrate(
        cls, grid: Grid, errors_by_scheme: dict[str, list[float]]
    ) -> "GlobalWeightBma":
        """Learn fixed weights from a calibration session's errors.

        Raises:
            ValueError: if no scheme has calibration errors.
        """
        raw = {}
        for name, errors in errors_by_scheme.items():
            if errors:
                mse = float(np.mean(np.square(errors)))
                raw[name] = 1.0 / max(mse, 1e-6)
        if not raw:
            raise ValueError("no calibration errors provided")
        total = sum(raw.values())
        return cls(grid=grid, weights={k: v / total for k, v in raw.items()})

    def fuse(self, outputs: dict[str, SchemeOutput | None]) -> Point | None:
        """Fuse one step's outputs with the frozen weights.

        Returns None when no available output has a positive weight.
        """
        mixture = bma_mixture(self.grid, outputs, self.weights)
        if mixture is None:
            return None
        return self.grid.expected_point(mixture)
