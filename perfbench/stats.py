"""Order statistics shared by the run, sweep and compare modes."""

from __future__ import annotations

import statistics


def tail_percentile(n: int) -> int:
    """Highest whole percentile (50..99) with at least ten samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is
    reported as the tail.
    """
    for p in range(99, 49, -1):
        if n * (100 - p) >= 1000:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < p <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
