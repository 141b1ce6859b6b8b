"""Percentiles as the benchmark reports them."""

from __future__ import annotations

TAIL = 10  # samples that must lie beyond a reported percentile


def percentile_with_tail(values, q: float) -> tuple[float, float]:
    """(value, percentile used): the q-quantile, or the highest one below it
    that still has TAIL samples beyond it; the median when none has.

    Linear interpolation between order statistics at position q * (n - 1).
    """
    v = sorted(values)
    n = len(v)
    if n <= TAIL:
        q = 0.5
    elif int(q * (n - 1)) > n - 1 - TAIL:
        q = (n - 1 - TAIL) / (n - 1)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo), q
