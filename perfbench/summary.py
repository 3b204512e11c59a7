"""Order statistics shared by the benchmark's samples and its driver.

Every timing is reported as a median plus a *tail*: the highest
percentile on the ladder below that still has at least ten samples
beyond it, so the tail is never read off a handful of outliers.  The
percentile actually used and the sample count travel with the value.
"""

import math
from fractions import Fraction

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def _rank_index(p, count):
    """0-based nearest-rank index, in exact arithmetic (0.999 * 10000 in
    floating point rounds up past 9990)."""
    index = math.ceil(Fraction(str(p)) * count / 100) - 1
    return min(max(index, 0), count - 1)


def nearest_rank(ordered, p):
    """The nearest-rank ``p``-th percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank_index(p, len(ordered))]


def tail_percentile(count):
    """The highest ladder percentile with >= 10 of ``count`` samples beyond.

    Returns ``None`` when even the median has fewer than ten samples
    beyond it.
    """
    for p in TAIL_LADDER:
        if count - 1 - _rank_index(p, count) >= TAIL_MIN_BEYOND:
            return p
    return None


def distribution(samples):
    """``{"p50", "tail", "tail_pct", "count"}`` for a list of numbers."""
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    if pct is None:
        raise ValueError(
            "%d samples are too few for a tail percentile" % len(ordered)
        )
    return {
        "p50": nearest_rank(ordered, 50.0),
        "tail": nearest_rank(ordered, pct),
        "tail_pct": pct,
        "count": len(ordered),
    }


def median(values):
    """The median of a non-empty list (mean of the middle pair if even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty list")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
