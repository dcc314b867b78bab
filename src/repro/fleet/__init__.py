"""The fleet layer: parallel walk execution over a persistent artifact cache.

``repro.fleet`` turns the one-walk-at-a-time evaluation pipeline into a
batched engine: describe walks as :class:`WalkJob` values, hand them to
:func:`run_walks` with ``workers=N``, and the expensive offline
artifacts (surveys, trained error models) come from the
content-addressed :class:`ArtifactCache` instead of being rebuilt per
figure.  See README "Parallel execution & caching".
"""

from repro.fleet.cache import (
    CACHE_VERSION,
    ArtifactCache,
    CacheEntry,
    config_fingerprint,
    config_hash,
    default_cache,
    place_builders,
    protocol_setup_seed,
    set_default_cache,
)
from repro.fleet.executor import (
    MAX_WORKER_CRASH_RETRIES,
    FleetError,
    WalkFailure,
    WalkJob,
    execute_job,
    iter_walks,
    run_walks,
)

__all__ = [
    "CACHE_VERSION",
    "MAX_WORKER_CRASH_RETRIES",
    "ArtifactCache",
    "CacheEntry",
    "FleetError",
    "WalkFailure",
    "WalkJob",
    "config_fingerprint",
    "config_hash",
    "default_cache",
    "execute_job",
    "iter_walks",
    "place_builders",
    "protocol_setup_seed",
    "run_walks",
    "set_default_cache",
]
