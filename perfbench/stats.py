"""The benchmark's arithmetic: percentile choice and per-op normalisation.

Kept free of any cluster code so ``test_perfbench.py`` can check it alone.
"""

from __future__ import annotations

import statistics

#: Percentiles a latency tail may be reported at, highest first, in tenths
#: of a percent (999 is p99.9).  Integer tenths keep the "samples beyond"
#: test exact; ``n * 0.001`` in floating point is not.
LADDER_TENTHS = (999, 990, 950, 900, 750, 500)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and one stray sample moves it.
MIN_BEYOND = 10


def supported_tail(n: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it in a sample of *n*, or None when even p50 is not."""
    for tenths in LADDER_TENTHS:
        if n - rank(n, tenths) >= MIN_BEYOND:
            return tenths / 10
    return None


def rank(n: int, tenths: int) -> int:
    """Nearest-rank position (1-based) of percentile ``tenths / 10`` in *n*
    sorted samples: the smallest k with ``k / n >= p / 100``."""
    return max(1, -(-n * tenths // 1000))


def percentile(sorted_samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not sorted_samples:
        raise ValueError("percentile of an empty sample")
    return sorted_samples[rank(len(sorted_samples), round(pct * 10)) - 1]


def chunk_size(pct: float) -> int:
    """The fewest samples with at least :data:`MIN_BEYOND` beyond
    percentile *pct*: 20 for p50, 1000 for p99."""
    return -(-MIN_BEYOND * 1000 // (1000 - round(pct * 10)))


def chunked_percentile(samples: list[float], pct: float, center=statistics.fmean) -> float:
    """*center* (the mean, or the median) over consecutive chunks of
    *samples* (in arrival order), each of at least :func:`chunk_size`
    samples, of each chunk's percentile; the plain percentile when
    *samples* is too small to split.

    Latency here is a mixture: the machine the benchmark runs on may
    switch between a fast and a slow speed for seconds at a time, and an
    op may take one of two paths of different cost.  A percentile of the
    pooled samples jumps from one mode's value to the other's as the
    share of the slow mode crosses the percentile, so a small change in
    that share moves it by the whole gap.  The mean over chunks moves in
    proportion to the share, and one slow stretch moves it by the weight
    of the chunks it covers.  The median over chunks is not moved by a
    burst of stalls confined to a few chunks, which is how a machine that
    takes the CPU away now and then shows in a tail.
    """
    n = len(samples)
    k = max(1, n // chunk_size(pct))
    return center(
        [percentile(sorted(samples[i * n // k : (i + 1) * n // k]), pct) for i in range(k)]
    )


#: Thread CPU seconds ``workloads.speed_probe`` takes at the reference
#: speed.  Times are reported as they would read at that speed.
REF_PROBE_S = 0.008


def speed_factor(before: float, after: float) -> float:
    """What scales the times of a slice to the reference speed, given the
    speed probes taken just before and just after it: the reference probe
    time over their mean, below 1 when the machine ran slow."""
    return REF_PROBE_S * 2 / (before + after)


def value_at(points: list[tuple[int, float]], x: int) -> float:
    """The value at *x* of a quantity sampled as ``(x, value)`` points in
    increasing *x*: interpolated between the samples either side of *x*,
    or on the line through the first and last samples past the last."""
    if len(points) == 1:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x < x1:
            break
    else:
        (x0, y0), (x1, y1) = points[0], points[-1]
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def per_op(total: float, ops: int) -> float:
    """*total* spread over *ops* operations; 0.0 for an empty window."""
    return total / ops if ops else 0.0
