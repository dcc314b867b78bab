"""The one sanctioned clock in the codebase: injectable wall/monotonic time.

Everything in ``repro`` that needs a timestamp or a duration reads it
through this module instead of calling :func:`time.time` or
:func:`time.perf_counter` directly.  Two reasons:

1. **Determinism is auditable.**  The repo's headline guarantees —
   byte-identical serial/parallel walks, stateless fault-plan draws,
   content-addressed cache keys — all assume no wall-clock value leaks
   into a simulation or cache-key path.  The ``DET002`` rule of
   ``repro lint`` enforces that assumption statically, and its
   allowlist is exactly this helper; any other direct clock call in
   ``src/`` is a lint error, the obs timers included.
2. **Time-dependent logic is testable.**  :func:`override` swaps the
   process clock for a constant (or any callable) inside a ``with``
   block, so cache-age rendering, backoff timing, and latency budgets
   can be asserted exactly instead of with sleeps and tolerances.

``now_s()`` is the wall clock (Unix epoch seconds — for display and
file-age arithmetic only, never for seeding or keys); ``monotonic_s()``
is the high-resolution monotonic clock used for all duration
measurement (spans, timers, the framework's stage clock).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

_wall: Callable[[], float] = time.time
_monotonic: Callable[[], float] = time.perf_counter


def now_s() -> float:
    """Return the current wall-clock time in epoch seconds."""
    return _wall()


def monotonic_s() -> float:
    """Return the monotonic clock in seconds (durations only)."""
    return _monotonic()


@contextmanager
def override(
    wall: float | Callable[[], float] | None = None,
    monotonic: float | Callable[[], float] | None = None,
) -> Iterator[None]:
    """Replace the process clocks inside a ``with`` block.

    Pass a float to freeze a clock at a constant, or a callable for a
    scripted clock (e.g. an iterator-backed ramp).  ``None`` leaves that
    clock untouched.  Always restores the previous clocks on exit, so
    nested overrides compose.
    """
    global _wall, _monotonic
    previous = (_wall, _monotonic)
    if wall is not None:
        frozen_wall = wall
        _wall = frozen_wall if callable(frozen_wall) else (lambda: frozen_wall)
    if monotonic is not None:
        frozen_mono = monotonic
        _monotonic = (
            frozen_mono if callable(frozen_mono) else (lambda: frozen_mono)
        )
    try:
        yield
    finally:
        _wall, _monotonic = previous
