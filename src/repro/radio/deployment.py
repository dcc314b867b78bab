"""RadioEnvironment: a place plus all its radio infrastructure.

This is the single object the sensor layer talks to.  It answers three
questions at any map point:

* what Wi-Fi RSSI vector does a phone measure there,
* what cellular RSSI vector does it measure, and
* how many GPS satellites does it see, and with what HDOP.

All answers depend on the environment at the point (AP density, wall
obstructions, cellular attenuation, sky view), which is what produces the
scheme diversity UniLoc exploits.  Each query takes the points'
:class:`~repro.world.EnvironmentProfile`, so a caller asking several of
them about one point (a recorded moment, a survey point) looks the
environment up once.  The radio queries are one deterministic pass over
many points (:meth:`RadioEnvironment.wifi_means`,
:meth:`RadioEnvironment.cell_means`), drawing no random numbers; the
noise is drawn afterwards, point by point (:meth:`MeanScans.scan`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import Point
from repro.radio.fingerprint import Fingerprint, FingerprintDatabase
from repro.radio.propagation import (
    CELL_SENSITIVITY_DBM,
    CELLULAR_MODEL,
    N_SHADOWING_WAVES,
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

#: Most (point, transmitter, shadowing wave) elements one chunk of the
#: radio pass holds in each of its temporaries: 32 KiB of floats, so
#: recording a walk adds nothing measurable to peak memory.
RADIO_PASS_CHUNK = 1 << 12


@dataclass(frozen=True)
class MeanScans:
    """One technology's noise-free audible readings at many points.

    Point ``i``'s readings are rows ``offsets[i]:offsets[i + 1]`` of
    ``columns`` (each reading's transmitter, an index into
    ``identifiers``) and ``means``, in scan order: Wi-Fi in deployment
    order, cellular strongest first.

    Attributes:
        identifiers: the technology's transmitter identifiers.
        columns: transmitter index of every reading.
        means: ``(K,)`` noise-free RSSI of every reading.
        offsets: ``n + 1`` reading offsets, one per point and one past.
        noise_db: each point's temporal noise std-dev.
        sensitivity_dbm: a noisy reading below this drops out of a scan.
    """

    identifiers: tuple[str, ...]
    columns: list[int]
    means: np.ndarray
    offsets: list[int]
    noise_db: list[float]
    sensitivity_dbm: float

    def __len__(self) -> int:
        return len(self.noise_db)

    def means_at(self, i: int) -> dict[str, float]:
        """Return point ``i``'s noise-free readings, in scan order."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        ids = self.identifiers
        return {
            ids[c]: value
            for c, value in zip(self.columns[lo:hi], self.means[lo:hi].tolist())
        }

    def scan(self, i: int, rng: np.random.Generator) -> dict[str, float]:
        """Return one noisy scan at point ``i``.

        Each mean gets its noise, and what falls below
        ``sensitivity_dbm`` drops out.  The noise is one ``rng.normal``
        call of one draw per reading: the same stream, in the same
        order, as one scalar draw per reading.
        """
        lo, hi = self.offsets[i], self.offsets[i + 1]
        noise = rng.normal(0.0, self.noise_db[i], size=hi - lo)
        values = (self.means[lo:hi] + noise).tolist()
        ids = self.identifiers
        floor = self.sensitivity_dbm
        return {
            ids[c]: value
            for c, value in zip(self.columns[lo:hi], values)
            if value >= floor
        }


#: One chunk's readings: point rows (ascending), transmitter columns, means.
_Readings = tuple[np.ndarray, np.ndarray, np.ndarray]


def _chunks(n_points: int, n_transmitters: int) -> Iterator[slice]:
    """Split ``n_points`` into runs of at most :data:`RADIO_PASS_CHUNK`
    shadowing elements."""
    step = max(1, RADIO_PASS_CHUNK // max(1, n_transmitters * N_SHADOWING_WAVES))
    for lo in range(0, n_points, step):
        yield slice(lo, lo + step)


def _mean_scans(
    field: TransmitterField,
    parts: list[_Readings],
    noise_db: list[float],
    sensitivity_dbm: float,
) -> MeanScans:
    """Pack the chunks' ``(rows, columns, means)`` readings, rows
    ascending, into one :class:`MeanScans` over ``len(noise_db)`` points."""
    rows = [np.zeros(0, dtype=np.int64)] + [part[0] for part in parts]
    per_point = np.bincount(np.concatenate(rows), minlength=len(noise_db))
    return MeanScans(
        identifiers=field.identifiers,
        columns=[c for part in parts for c in part[1].tolist()],
        means=np.concatenate([np.zeros(0)] + [part[2] for part in parts]),
        offsets=[0] + np.cumsum(per_point).tolist(),
        noise_db=noise_db,
        sensitivity_dbm=sensitivity_dbm,
    )


@dataclass
class RadioEnvironment:
    """All radio infrastructure deployed over one place.

    Each technology's transmitters are packed once, at construction,
    into a :class:`~repro.radio.propagation.TransmitterField`, so a
    query over many points is a few numpy passes over all of them
    (:meth:`wifi_means`, :meth:`cell_means`).  Walls are counted, in one
    :meth:`~repro.world.FloorPlan.walls_crossed` call against the
    place's compiled walls (:func:`~repro.world.place.compile_place_index`),
    only for the (point, AP) pairs that are audible through no walls.
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

    def profiles_at(self, points: Sequence[Point]) -> list[EnvironmentProfile]:
        """Return the environment profile at each of ``points``."""
        place = self.place
        return [profile_of(place.environment_at(point)) for point in points]

    # ----- Wi-Fi ---------------------------------------------------------

    def wifi_means(
        self, points: Sequence[Point], profiles: Sequence[EnvironmentProfile]
    ) -> MeanScans:
        """Return the noise-free audible Wi-Fi readings at every point.

        ``profiles[i]`` is the environment profile at ``points[i]``.  The
        receiver's environment charges a bulk penetration loss on top of
        per-wall attenuation, which is what makes deep basements
        Wi-Fi-dead (the paper's basement segment hears no usable AP).

        The wall-free RSSI of every (point, AP) pair comes first.  Walls
        only add loss (``wall_loss_db >= 0``, and float addition and
        subtraction are monotone), so a pair below
        ``WIFI_SENSITIVITY_DBM`` without walls stays below it with them:
        only the other pairs are wall-counted, and their RSSI is
        recomputed with the walls charged as :meth:`PropagationModel.path_loss_db`
        charges them.
        """
        aps = self._wifi
        model = self.wifi_model
        plan = self.place.floorplan
        walls = compile_place_index(self.place).walls
        parts: list[_Readings] = []
        for chunk in _chunks(len(points), len(aps)):
            xs = [point.x for point in points[chunk]]
            ys = [point.y for point in points[chunk]]
            x_arr, y_arr = np.array(xs), np.array(ys)
            attenuation = np.array(
                [profile.wifi_attenuation_db for profile in profiles[chunk]]
            )
            free_loss = model.free_loss_db(xs, ys, aps)
            shadowing = model.shadowing_db(x_arr, y_arr, aps)
            free = model.received_dbm(free_loss, shadowing) - attenuation[:, None]
            rows, cols = np.nonzero(free >= WIFI_SENSITIVITY_DBM)
            n_walls = plan.walls_crossed(
                walls,
                aps.positions[cols],
                np.column_stack((x_arr[rows], y_arr[rows])),
            )
            pairs = rows, cols
            rssi = (
                model.received_dbm(free_loss[pairs], shadowing[pairs], n_walls)
                - attenuation[rows]
            )
            audible = rssi >= WIFI_SENSITIVITY_DBM
            parts.append((rows[audible] + chunk.start, cols[audible], rssi[audible]))
        return _mean_scans(
            aps,
            parts,
            [profile.wifi_noise_db for profile in profiles],
            WIFI_SENSITIVITY_DBM,
        )

    def wifi_mean_rssi(
        self, point: Point, profile: EnvironmentProfile
    ) -> dict[str, float]:
        """Return the noise-free audible Wi-Fi RSSI vector at ``point``
        (environment ``profile``): the one-point :meth:`wifi_means`."""
        return self.wifi_means([point], [profile]).means_at(0)

    def wifi_rssi(
        self, point: Point, profile: EnvironmentProfile, rng: np.random.Generator
    ) -> dict[str, float]:
        """Return one noisy Wi-Fi scan at ``point`` (environment ``profile``).

        Temporal noise std-dev comes from the environment profile (higher
        interference in crowded / basement environments), and readings
        pushed below sensitivity by noise drop out of the scan — audible
        AP sets therefore flicker at the coverage edge, as in reality.
        """
        return self.wifi_means([point], [profile]).scan(0, rng)

    # ----- Cellular ------------------------------------------------------

    def cell_means(
        self, points: Sequence[Point], profiles: Sequence[EnvironmentProfile]
    ) -> MeanScans:
        """Return the noise-free audible cellular readings at every point.

        ``profiles[i]`` is the environment profile at ``points[i]``.  The
        environment charges a bulk attenuation (building penetration
        loss) and caps the number of audible towers — basements hear ~2
        towers, reproducing the paper's mall observation.  A point's
        readings run strongest first, equal readings in deployment
        order.
        """
        towers = self._cell
        model = self.cell_model
        ranks = np.arange(len(towers))
        parts: list[_Readings] = []
        for chunk in _chunks(len(points), len(towers)):
            xs = [point.x for point in points[chunk]]
            ys = [point.y for point in points[chunk]]
            attenuation = np.array(
                [profile.cell_attenuation_db for profile in profiles[chunk]]
            )
            caps = np.array([profile.audible_towers_cap for profile in profiles[chunk]])
            rssi = (
                model.received_dbm(
                    model.free_loss_db(xs, ys, towers),
                    model.shadowing_db(np.array(xs), np.array(ys), towers),
                )
                - attenuation[:, None]
            )
            # A stable sort of the negated readings: strongest first,
            # ties in deployment order, as a reversed stable sort.
            order = np.argsort(-rssi, axis=1, kind="stable")
            ranked = np.take_along_axis(rssi, order, axis=1)
            keep = (ranked >= CELL_SENSITIVITY_DBM) & (ranks < caps[:, None])
            rows, kept = np.nonzero(keep)
            parts.append((rows + chunk.start, order[rows, kept], ranked[rows, kept]))
        return _mean_scans(
            towers, parts, [CELL_NOISE_DB] * len(points), CELL_SENSITIVITY_DBM
        )

    def cell_mean_rssi(
        self, point: Point, profile: EnvironmentProfile
    ) -> dict[str, float]:
        """Return the noise-free audible cellular RSSI vector at ``point``
        (environment ``profile``): the one-point :meth:`cell_means`."""
        return self.cell_means([point], [profile]).means_at(0)

    def cell_rssi(
        self, point: Point, profile: EnvironmentProfile, rng: np.random.Generator
    ) -> dict[str, float]:
        """Return one noisy cellular scan at ``point`` (environment ``profile``)."""
        return self.cell_means([point], [profile]).scan(0, rng)

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
        scans = self.wifi_means(points, self.profiles_at(points))
        return _fingerprints(points, scans, rng)

    def survey_cellular(
        self, points: list[Point], rng: np.random.Generator
    ) -> FingerprintDatabase:
        """Collect a cellular fingerprint database at the survey points."""
        scans = self.cell_means(points, self.profiles_at(points))
        return _fingerprints(points, scans, rng)

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
        means = self.wifi_means(points, self.profiles_at(points))
        surveys = []
        for i, point in enumerate(points):
            scans = [means.scan(i, rng) for _ in range(samples_per_point)]
            surveys.append((point, [s for s in scans if s]))
        return GaussianFingerprintDatabase.from_samples(surveys)


def _fingerprints(
    points: list[Point], scans: MeanScans, rng: np.random.Generator
) -> FingerprintDatabase:
    """Take one noisy scan at every point; keep the audible ones."""
    entries = []
    for i, point in enumerate(points):
        scan = scans.scan(i, rng)
        if scan:
            entries.append(Fingerprint(point, scan))
    if not entries:
        raise ValueError("survey produced no audible fingerprints")
    return FingerprintDatabase(tuple(entries))
