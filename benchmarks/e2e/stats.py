"""Order statistics used by the end-to-end benchmark."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    Raises:
        ValueError: on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports_percentile(n: int, q: float) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n`` samples lie beyond ``q``."""
    return n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9


def per_op_min(passes: Sequence[Sequence[float]]) -> list[float]:
    """Each op's minimum across passes that replay the same ops.

    Host noise only ever adds time, so the minimum over identical
    replays is the op's own cost; a tail percentile over these minima
    measures slow *steps*, not slow moments of the host.

    Raises:
        ValueError: if the passes differ in length.
    """
    if not passes:
        return []
    n = len(passes[0])
    if any(len(p) != n for p in passes):
        raise ValueError("passes must replay the same number of ops")
    return [min(p[i] for p in passes) for i in range(n)]
