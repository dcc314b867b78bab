"""Persistent artifact cache for the expensive offline pipeline stages.

Every paper experiment needs the same three offline artifacts before a
single walk can run: a surveyed fingerprint database per place, the
trained per-scheme error models, and the deployed :class:`PlaceSetup`
wrapping them.  Surveying the campus takes ~10 s and training takes
~10 s, so a full figure suite rebuilt from scratch spends most of its
wall-clock redoing identical work.  UNILocPro-style systems solve this
with precomputed offline artifacts (channel charts, fingerprint DBs)
reused across online runs; this module is that cache.

Entries are content-addressed by ``(artifact, place_name, seed,
config-hash)`` where the config hash fingerprints every code-level
constant that changes the artifact's bytes (survey spacings, scheme
list, training protocol, on-disk format version).  Change a constant
and the key changes — stale entries are never read, only orphaned
(and removable with :meth:`ArtifactCache.clear` or ``repro cache
clear``).

Serialization reuses :mod:`repro.persistence` (the JSON formats with
the shared :mod:`repro.formats` header), so a cache entry is a normal
persistence file that any tool can read.

An :class:`ArtifactCache` always memoizes in memory; give it a ``root``
directory (or set ``REPRO_CACHE_DIR``) to also persist across
processes — which is what lets fleet worker processes skip the offline
stages entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.clock import now_s

if TYPE_CHECKING:
    from repro.core import ErrorModelSet
    from repro.eval.setup import PlaceSetup
    from repro.obs.metrics import MetricsRegistry

#: Bump to invalidate every cache entry at once (cache layout changes).
CACHE_VERSION = 1


def place_builders() -> dict[str, Callable[[], Any]]:
    """Return the canonical name -> builder map for the built-in places.

    The CLI and the experiment suite both dispatch from this map so a new
    world only has to be registered once.
    """
    from repro.world import (
        build_campus_place,
        build_daily_path_place,
        build_mall_place,
        build_office_place,
        build_open_space_place,
        build_second_office_place,
        build_urban_open_space_place,
    )

    return {
        "daily": build_daily_path_place,
        "campus": build_campus_place,
        "office": build_office_place,
        "office-2": build_second_office_place,
        "open-space": build_open_space_place,
        "urban-open-space": build_urban_open_space_place,
        "mall": build_mall_place,
    }


def protocol_setup_seed(seed: int) -> int:
    """Return the place-setup seed the experiment protocol pairs with ``seed``.

    The one written copy of the offset; see :meth:`repro.fleet.WalkJob.for_seed`.
    """
    return seed + 3


def config_fingerprint() -> dict[str, Any]:
    """Return the code-level constants that shape every offline artifact.

    Anything here that changes produces a different :func:`config_hash`,
    which invalidates (orphans) all existing cache entries.
    """
    from repro.eval.setup import (
        INDOOR_FINGERPRINT_SPACING_M,
        OUTDOOR_FINGERPRINT_SPACING_M,
        SCHEME_NAMES,
    )
    from repro.persistence import FORMAT_VERSION

    return {
        "cache_version": CACHE_VERSION,
        "format_version": FORMAT_VERSION,
        "indoor_spacing_m": INDOOR_FINGERPRINT_SPACING_M,
        "outdoor_spacing_m": OUTDOOR_FINGERPRINT_SPACING_M,
        "schemes": list(SCHEME_NAMES),
    }


def config_hash(extra: dict[str, Any] | None = None) -> str:
    """Return the short content hash of the code-relevant configuration."""
    config = dict(config_fingerprint())
    if extra:
        config.update(extra)
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    return digest[:12]


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache file, as listed by ``repro cache ls``."""

    path: Path
    artifact: str
    key: str
    size_bytes: int
    mtime: float

    def age_s(self, now: float | None = None) -> float:
        """Return the entry's age in seconds (never negative).

        ``now`` defaults to the injectable process clock
        (:func:`repro.obs.clock.now_s`), so tests can pin the age
        exactly instead of racing the real wall clock.
        """
        return max(0.0, (now if now is not None else now_s()) - self.mtime)

    def describe(self, now: float | None = None) -> str:
        """Return one human-readable listing line."""
        return (
            f"{self.artifact:14s} {self.key:40s} "
            f"{self.size_bytes / 1024:8.1f} KiB  {self.age_s(now) / 60:6.1f} min old"
        )


class ArtifactCache:
    """Content-addressed cache of offline artifacts (memory + optional disk).

    Args:
        root: directory for the persistent layer; ``None`` keeps the
            cache memory-only (still deduplicates within one process).
        metrics: optional registry counting hits/misses
            (``fleet.cache.hit`` / ``fleet.cache.miss``) plus the disk
            layer's I/O (``fleet.cache.io.read_bytes`` /
            ``io.write_bytes`` / ``io.reads`` / ``io.writes`` counters
            and ``io.read_ms`` / ``io.write_ms`` latency histograms).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.metrics = metrics
        self._memo: dict[tuple[str, str], Any] = {}

    # -- bookkeeping -------------------------------------------------------

    def _record(self, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"fleet.cache.{outcome}").inc()

    def _timed_read(self, path: Path, loader: Callable[[Path], Any]) -> Any:
        """Run one disk load, counting bytes and latency when metered."""
        if self.metrics is None:
            return loader(path)
        with self.metrics.timer("fleet.cache.io.read_ms"):
            value = loader(path)
        self.metrics.counter("fleet.cache.io.read_bytes").inc(
            path.stat().st_size
        )
        self.metrics.counter("fleet.cache.io.reads").inc()
        return value

    def _timed_write(self, path: Path, write: Callable[[], None]) -> None:
        """Run one disk store, counting bytes and latency when metered."""
        if self.metrics is None:
            write()
            return
        with self.metrics.timer("fleet.cache.io.write_ms"):
            write()
        self.metrics.counter("fleet.cache.io.write_bytes").inc(
            path.stat().st_size
        )
        self.metrics.counter("fleet.cache.io.writes").inc()

    def _path_for(self, artifact: str, key: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{artifact}-{key}.json"

    def _ensure_root(self) -> None:
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    def _fetch(
        self,
        artifact: str,
        key: str,
        load: Callable[[Path], Any],
        build: Callable[[], Any],
        put: Callable[[Any], None],
    ) -> Any:
        """Return one artifact from the memo, else from disk, else built.

        ``load`` turns the entry's file into the artifact (timing only
        its own JSON read); on a miss ``build`` makes the artifact and
        ``put`` stores it in the memo and on disk.
        """
        memo_key = (artifact, key)
        if memo_key not in self._memo:
            path = self._path_for(artifact, key)
            if path is None or not path.exists():
                self._record("miss")
                put(build())
                return self._memo[memo_key]
            self._memo[memo_key] = load(path)
        self._record("hit")
        return self._memo[memo_key]

    # -- error models ------------------------------------------------------

    @staticmethod
    def _models_key(seed: int, n_walks_per_place: int) -> str:
        return f"s{seed}-w{n_walks_per_place}-{config_hash({'n_walks_per_place': n_walks_per_place})}"

    def error_models(
        self, seed: int = 0, n_walks_per_place: int = 6
    ) -> dict[str, "ErrorModelSet"]:
        """Return the trained error models, training only on a cold cache."""
        from repro.eval.setup import train_error_models
        from repro.persistence import load_error_models

        return self._fetch(
            "error_models",
            self._models_key(seed, n_walks_per_place),
            lambda path: self._timed_read(path, load_error_models),
            lambda: train_error_models(
                seed=seed, n_walks_per_place=n_walks_per_place
            ),
            lambda built: self.put_error_models(built, seed, n_walks_per_place),
        )

    def put_error_models(
        self,
        models: dict[str, "ErrorModelSet"],
        seed: int = 0,
        n_walks_per_place: int = 6,
    ) -> None:
        """Store already-trained models (warming without retraining)."""
        from repro.persistence import save_error_models

        key = self._models_key(seed, n_walks_per_place)
        self._memo[("error_models", key)] = models
        path = self._path_for("error_models", key)
        if path is not None:
            self._ensure_root()
            self._timed_write(path, lambda: save_error_models(models, path))

    # -- place setups ------------------------------------------------------

    @staticmethod
    def _setup_key(place_name: str, seed: int) -> str:
        return f"{place_name}-s{seed}-{config_hash()}"

    def place_setup(self, place_name: str, seed: int = 0) -> "PlaceSetup":
        """Return a deployed+surveyed setup, surveying only on a cold cache.

        The radio deployment is deterministic from ``seed`` and cheap, so
        only the survey result (the fingerprint databases) is persisted;
        on a hit the place and radio are rebuilt and the databases loaded.

        Raises:
            ValueError: on an unknown ``place_name``.
        """
        builders = place_builders()
        if place_name not in builders:
            raise ValueError(f"unknown place {place_name!r}")
        from repro.eval.setup import PlaceSetup

        return self._fetch(
            "place_setup",
            self._setup_key(place_name, seed),
            lambda path: self._load_setup(path, place_name, seed),
            lambda: PlaceSetup.create(builders[place_name](), seed=seed),
            lambda built: self.put_place_setup(place_name, built),
        )

    def put_place_setup(self, place_name: str, setup: "PlaceSetup") -> None:
        """Store a surveyed setup under its (place, seed, config) key."""
        from repro.persistence import FORMAT_VERSION, _write, fingerprints_to_entries
        from repro.formats import format_header

        key = self._setup_key(place_name, setup.seed)
        self._memo[("place_setup", key)] = setup
        path = self._path_for("place_setup", key)
        if path is not None:
            self._ensure_root()
            payload = {
                **format_header("place_setup", FORMAT_VERSION),
                "place": place_name,
                "seed": setup.seed,
                "wifi": fingerprints_to_entries(setup.wifi_db),
                "cell": fingerprints_to_entries(setup.cell_db),
            }
            self._timed_write(path, lambda: _write(path, payload))

    def _load_setup(
        self, path: Path, place_name: str, seed: int
    ) -> "PlaceSetup":
        from repro.eval.setup import PlaceSetup
        from repro.persistence import _read, fingerprints_from_entries
        from repro.radio import RadioEnvironment

        payload = self._timed_read(path, lambda p: _read(p, "place_setup"))
        place = place_builders()[place_name]()
        # Mirrors PlaceSetup.create exactly, minus the (cached) survey.
        radio = RadioEnvironment.deploy(place, seed=seed)
        return PlaceSetup(
            place=place,
            radio=radio,
            wifi_db=fingerprints_from_entries(payload["wifi"]),
            cell_db=fingerprints_from_entries(payload["cell"]),
            seed=seed,
        )

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Return the persistent entries, newest first (empty if no root)."""
        if self.root is None or not self.root.is_dir():
            return []
        found = []
        for path in self.root.glob("*.json"):
            artifact, _, key = path.stem.partition("-")
            stat = path.stat()
            found.append(
                CacheEntry(
                    path=path,
                    artifact=artifact,
                    key=key,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return sorted(found, key=lambda e: e.mtime, reverse=True)

    def clear(self, artifact: str | None = None) -> int:
        """Delete persistent entries (all, or one artifact kind) and the memo.

        Returns the number of files removed.
        """
        removed = 0
        for entry in self.entries():
            if artifact is None or entry.artifact == artifact:
                entry.path.unlink(missing_ok=True)
                removed += 1
        if artifact is None:
            self._memo.clear()
        else:
            self._memo = {
                k: v for k, v in self._memo.items() if k[0] != artifact
            }
        return removed

    def warm(
        self, places: list[str] | None = None, seed: int = 0
    ) -> list[str]:
        """Build (or load) every artifact an experiment run will need.

        Uses the experiment protocol's seeds: error models train on
        ``seed`` and each place's setup is surveyed with
        :func:`protocol_setup_seed` of it.  Returns the artifact keys
        that are now warm.
        """
        warmed = [self._models_key(seed, 6)]
        self.error_models(seed)
        for name in places if places is not None else place_builders():
            self.place_setup(name, protocol_setup_seed(seed))
            warmed.append(self._setup_key(name, protocol_setup_seed(seed)))
        return warmed


# -- the process-wide default cache ---------------------------------------

_DEFAULT: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """Return the process-wide cache (created on first use).

    Honors ``REPRO_CACHE_DIR`` for the persistent layer; without it the
    default cache is memory-only, which still collapses repeated
    training/surveying within one process.
    """
    global _DEFAULT
    if _DEFAULT is None:
        root = os.environ.get("REPRO_CACHE_DIR")
        _DEFAULT = ArtifactCache(root or None)
    return _DEFAULT


def set_default_cache(cache: ArtifactCache | None) -> ArtifactCache | None:
    """Swap the process-wide cache; returns the previous one (tests use
    this to point experiments at a temporary directory)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = cache
    return previous
