"""Order statistics used for the benchmark's timings."""

from __future__ import annotations

import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least `min_beyond` samples above it.

    Returns (value, percentile, samples beyond).  The value is the order
    statistic with exactly `min_beyond` samples above it, and the percentile
    is the share of samples at or below it.  With `min_beyond` or fewer
    samples no percentile qualifies: the maximum is returned with 0 samples
    beyond it, so the caller can see that the tail is unresolved.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= min_beyond:
        return xs[-1], 100.0, 0
    k = n - min_beyond - 1
    return xs[k], 100.0 * (k + 1) / n, min_beyond


def iqr_frac(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
