"""RadioEnvironment: a place plus all its radio infrastructure.

This is the single object the sensor layer talks to.  It answers three
questions at any map point:

* what Wi-Fi RSSI vector does a phone measure there,
* what cellular RSSI vector does it measure, and
* how many GPS satellites does it see, and with what HDOP.

All answers depend on the environment at the point (AP density, wall
obstructions, cellular attenuation, sky view), which is what produces the
scheme diversity UniLoc exploits.  Each query takes the point's
:class:`~repro.world.EnvironmentProfile`, so a caller asking several of
them about one point (a recorded moment, a survey point) looks the
environment up once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import Point
from repro.radio.fingerprint import Fingerprint, FingerprintDatabase
from repro.radio.propagation import (
    CELL_SENSITIVITY_DBM,
    CELLULAR_MODEL,
    WIFI_MODEL,
    WIFI_SENSITIVITY_DBM,
    PropagationModel,
    TransmitterField,
)
from repro.radio.satellites import Constellation
from repro.radio.transmitters import (
    Transmitter,
    deploy_access_points,
    deploy_cell_towers,
)
from repro.world import EnvironmentProfile, Place, profile_of
from repro.world.place import compile_place_index

if TYPE_CHECKING:
    from repro.radio.gaussian_fingerprint import GaussianFingerprintDatabase

#: Temporal noise std-dev of one cellular reading, dB.
CELL_NOISE_DB = 3.5


def _noisy_scan(
    means: dict[str, float],
    noise_db: float,
    sensitivity_dbm: float,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Return one scan: each mean plus noise, dropping what falls below
    ``sensitivity_dbm``.

    The noise is one ``rng.normal`` call of ``len(means)`` draws: the same
    stream, in the same order, as one scalar draw per reading.
    """
    noise = rng.normal(0.0, noise_db, size=len(means)).tolist()
    scan: dict[str, float] = {}
    for (identifier, mean), delta in zip(means.items(), noise):
        value = mean + delta
        if value >= sensitivity_dbm:
            scan[identifier] = value
    return scan


@dataclass
class RadioEnvironment:
    """All radio infrastructure deployed over one place.

    Each technology's transmitters are packed once, at construction,
    into a :class:`~repro.radio.propagation.TransmitterField`, so one
    query is one numpy pass over all of them.  The Wi-Fi queries count
    the walls between every AP and the receiver in one
    :meth:`~repro.world.FloorPlan.walls_crossed` call against the
    place's compiled walls (:func:`~repro.world.place.compile_place_index`).
    The GPS geometry depends only on an environment's sky view, so it
    is solved once per sky view (at most one per environment type).
    """

    place: Place
    access_points: list[Transmitter]
    cell_towers: list[Transmitter]
    constellation: Constellation
    wifi_model: PropagationModel = field(default=WIFI_MODEL)
    cell_model: PropagationModel = field(default=CELLULAR_MODEL)
    _wifi: TransmitterField = field(init=False, repr=False, compare=False)
    _cell: TransmitterField = field(init=False, repr=False, compare=False)
    _sky: dict[float, tuple[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._wifi = TransmitterField.pack(self.access_points)
        self._cell = TransmitterField.pack(self.cell_towers)

    @classmethod
    def deploy(cls, place: Place, seed: int = 0) -> "RadioEnvironment":
        """Deploy APs, towers, and a constellation over ``place``."""
        rng = np.random.default_rng(seed)
        return cls(
            place=place,
            access_points=deploy_access_points(place, rng),
            cell_towers=deploy_cell_towers(place, rng),
            constellation=Constellation.default(seed=seed + 7),
        )

    # ----- Wi-Fi ---------------------------------------------------------

    def wifi_mean_rssi(
        self, point: Point, profile: EnvironmentProfile
    ) -> dict[str, float]:
        """Return the noise-free audible Wi-Fi RSSI vector at ``point``.

        ``profile`` is the environment profile at ``point``.  The
        receiver's environment charges a bulk penetration loss on top of
        per-wall attenuation, which is what makes deep basements
        Wi-Fi-dead (the paper's basement segment hears no usable AP).
        """
        aps = self._wifi
        walls = self.place.floorplan.walls_crossed(
            compile_place_index(self.place).walls, aps.positions, point
        )
        rssi = (
            self.wifi_model.mean_rssi_dbm(point.x, point.y, aps, walls)
            - profile.wifi_attenuation_db
        )
        return {
            identifier: value
            for identifier, value in zip(aps.identifiers, rssi.tolist())
            if value >= WIFI_SENSITIVITY_DBM
        }

    def wifi_rssi(
        self, point: Point, profile: EnvironmentProfile, rng: np.random.Generator
    ) -> dict[str, float]:
        """Return one noisy Wi-Fi scan at ``point`` (environment ``profile``).

        Temporal noise std-dev comes from the environment profile (higher
        interference in crowded / basement environments), and readings
        pushed below sensitivity by noise drop out of the scan — audible
        AP sets therefore flicker at the coverage edge, as in reality.
        """
        return _noisy_scan(
            self.wifi_mean_rssi(point, profile),
            profile.wifi_noise_db,
            WIFI_SENSITIVITY_DBM,
            rng,
        )

    # ----- Cellular ------------------------------------------------------

    def cell_mean_rssi(
        self, point: Point, profile: EnvironmentProfile
    ) -> dict[str, float]:
        """Return the noise-free audible cellular RSSI vector at ``point``.

        ``profile`` is the environment profile at ``point``.  The
        environment charges a bulk attenuation (building penetration
        loss) and caps the number of audible towers — basements hear ~2
        towers, reproducing the paper's mall observation.
        """
        towers = self._cell
        rssi = (
            self.cell_model.mean_rssi_dbm(point.x, point.y, towers)
            - profile.cell_attenuation_db
        )
        readings = [
            (identifier, value)
            for identifier, value in zip(towers.identifiers, rssi.tolist())
            if value >= CELL_SENSITIVITY_DBM
        ]
        readings.sort(key=lambda kv: kv[1], reverse=True)
        return dict(readings[: profile.audible_towers_cap])

    def cell_rssi(
        self, point: Point, profile: EnvironmentProfile, rng: np.random.Generator
    ) -> dict[str, float]:
        """Return one noisy cellular scan at ``point`` (environment ``profile``)."""
        return _noisy_scan(
            self.cell_mean_rssi(point, profile),
            CELL_NOISE_DB,
            CELL_SENSITIVITY_DBM,
            rng,
        )

    # ----- GPS -----------------------------------------------------------

    def sky_geometry(self, profile: EnvironmentProfile) -> tuple[int, float]:
        """Return ``(n_satellites, hdop)`` under ``profile``'s sky view.

        The visible set and its ``(H^T H)^{-1}`` solve depend only on the
        sky view, so each sky view is solved once and memoized; there is
        at most one entry per environment type.
        """
        sky_view = profile.sky_view
        geometry = self._sky.get(sky_view)
        if geometry is None:
            visible = self.constellation.visible(sky_view)
            geometry = (len(visible), Constellation.hdop(visible))
            self._sky[sky_view] = geometry
        return geometry

    # ----- Surveys -------------------------------------------------------

    def survey_wifi(
        self, points: list[Point], rng: np.random.Generator
    ) -> FingerprintDatabase:
        """Collect a Wi-Fi fingerprint database at the given survey points.

        Each offline fingerprint takes one noisy sample per audible AP,
        matching the paper's survey procedure (§III-B).  Survey points
        where no AP is audible are skipped (there is nothing to record).
        """
        entries = []
        for point in points:
            profile = profile_of(self.place.environment_at(point))
            scan = self.wifi_rssi(point, profile, rng)
            if scan:
                entries.append(Fingerprint(point, scan))
        if not entries:
            raise ValueError("survey produced no audible fingerprints")
        return FingerprintDatabase(tuple(entries))

    def survey_cellular(
        self, points: list[Point], rng: np.random.Generator
    ) -> FingerprintDatabase:
        """Collect a cellular fingerprint database at the survey points."""
        entries = []
        for point in points:
            profile = profile_of(self.place.environment_at(point))
            scan = self.cell_rssi(point, profile, rng)
            if scan:
                entries.append(Fingerprint(point, scan))
        if not entries:
            raise ValueError("survey produced no audible fingerprints")
        return FingerprintDatabase(tuple(entries))

    def survey_wifi_gaussian(
        self,
        points: list[Point],
        rng: np.random.Generator,
        samples_per_point: int = 20,
    ) -> GaussianFingerprintDatabase:
        """Collect a Horus-style multi-sample Wi-Fi survey.

        Takes ``samples_per_point`` scans at every survey point — the
        expensive procedure that makes Horus impractical for large areas
        (the paper estimates tens of days per path), but feasible in the
        simulator for the extension scheme.

        Raises:
            ValueError: if ``samples_per_point`` is not positive.
        """
        from repro.radio.gaussian_fingerprint import GaussianFingerprintDatabase

        if samples_per_point <= 0:
            raise ValueError("samples_per_point must be positive")
        surveys = []
        for point in points:
            profile = profile_of(self.place.environment_at(point))
            scans = [
                self.wifi_rssi(point, profile, rng) for _ in range(samples_per_point)
            ]
            surveys.append((point, [s for s in scans if s]))
        return GaussianFingerprintDatabase.from_samples(surveys)
