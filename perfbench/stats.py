"""The percentile the benchmark reports."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
