"""Order statistics shared by the benchmark, its series runner and compare."""

from __future__ import annotations

import statistics

TAIL_MARGIN = 10  # samples that must lie above the reported tail


def tail_index(n: int) -> int:
    """Ascending index of the tail sample among ``n`` sorted samples.

    It is the highest rank that still has at least ``TAIL_MARGIN`` samples
    above it.  With too few samples that rank falls at or below the median,
    and the median's rank is used instead, so the tail never reads lower
    than the median.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return max(n - 1 - TAIL_MARGIN, n // 2)


def latency_summary(samples: list[float]) -> dict:
    """Median, tail value, the tail's percentile and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = tail_index(n)
    return {
        "p50": statistics.median(ordered),
        "ptail": ordered[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "samples": n,
        "above_tail": n - 1 - idx,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)
