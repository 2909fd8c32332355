"""Small statistics helpers shared by the workloads and the tracer.

Kept free of numpy and of the program under test so the unit tests in
``test_perfbench.py`` check them against hand-computed cases.
"""

import math


def percentile(values, q):
    """The q-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method: the rank
    ``(n - 1) * q / 100`` is interpolated between its neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile %r outside 0..100" % q)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values):
    return percentile(values, 50)


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values: %r"
                         % (values,))
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of *intervals*.

    Overlapping or nested intervals count once; parts outside the
    window are clipped off.
    """
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start, end, child_intervals):
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(child_intervals, start, end)
