"""Summary statistics shared by the runner, the steadiness check and the tests."""

from __future__ import annotations

import math
import statistics


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile (0 < q <= 100) and the sample count.

    The value is an observed sample: the smallest one with at least q% of
    the samples at or below it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1], len(ordered)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank q-th percentile."""
    return count - max(math.ceil(q / 100 * count), 1)


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no items attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def quartile_spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
