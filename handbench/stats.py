"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


class Percentile(NamedTuple):
    value: float
    count: int      # samples the percentile was taken over
    beyond: int     # samples strictly past its rank


def percentile(values, q: float) -> Percentile:
    """Nearest-rank q-th percentile of ``values`` with its sample count.

    Refuses (ValueError) when fewer than ``MIN_BEYOND`` samples lie beyond the
    rank, e.g. p90 needs at least 100 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {max(beyond, 0)}")
    return Percentile(ordered[rank - 1], n, beyond)


def median(values) -> Percentile:
    """Median with its sample count (no tail requirement)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    return Percentile(statistics.median(ordered), len(ordered), len(ordered) // 2)
