"""Statistics shared by the benchmark runner and the compare step.

Percentiles of raw samples and of 1-ns latency histograms, histogram
means, the choice of the highest percentile a sample supports, span self
times, and the quartile spread used for steadiness and for the compare
rule.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(count):
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND samples
    beyond it in a sample of `count`, or None when none qualifies."""
    for p in TAIL_LADDER:
        # Samples beyond the p-th percentile: count * (100 - p) / 100,
        # compared in integers so 1000 samples support p99 exactly.
        if count * round((100.0 - p) * 100) >= MIN_BEYOND * 10000:
            return p
    return None


def percentile(values, p):
    """The p-th percentile of raw samples, interpolating between the two
    nearest ranks (the 'linear' method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def histogram_count(histogram):
    return sum(count for _, count in histogram)


def histogram_percentile(histogram, p):
    """The p-th percentile of a histogram of whole-nanosecond readings,
    given as [[value, count], ...] in ascending order. A reading v stands
    for a time in [v, v + 1), so the result interpolates inside the bucket
    that holds the rank."""
    total = histogram_count(histogram)
    if total == 0:
        raise ValueError("percentile of an empty histogram")
    rank = total * p / 100.0
    seen = 0
    for value, count in histogram:
        if seen + count >= rank:
            return value + (rank - seen) / count
        seen += count
    return float(histogram[-1][0] + 1)


def histogram_mean(histogram):
    """Mean of a histogram of whole-nanosecond readings, each reading v
    standing for the middle of [v, v + 1)."""
    total = histogram_count(histogram)
    if total == 0:
        raise ValueError("mean of an empty histogram")
    return sum((value + 0.5) * count for value, count in histogram) / total


def quartile_spread(values):
    """(Q3 - Q1) / median of `values`, with the quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Children may nest or overlap one another; the
    covered part is the union of their intervals clipped to the parent.

    `spans` holds (name, id, parent, request, start, end) tuples; a parent
    id that no span carries means the span is a root. Returns
    {id: self_ns} and the ids of children not inside their parent."""
    by_id = {s[1]: s for s in spans}
    children = {}
    for s in spans:
        if s[2] in by_id:
            children.setdefault(s[2], []).append(s)
    result = {}
    outside = []
    for s in spans:
        start, end = s[4], s[5]
        covered = 0
        reach = start
        for child in sorted(children.get(s[1], ()), key=lambda c: c[4]):
            if child[4] < start or child[5] > end:
                outside.append(child[1])
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s[1]] = (end - start) - covered
    return result, outside
