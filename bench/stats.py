"""Percentiles with the "at least ten samples beyond" support rule."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Percentiles a tail metric may be reported at, highest first.
LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported_percentile(n: int, at_most: float = LADDER[0]) -> float:
    """Highest ladder percentile <= ``at_most`` with MIN_BEYOND samples beyond.

    Falls back to the median when the sample supports nothing higher, so a
    short smoke run still reports a number (and says which one).
    """
    for q in LADDER:
        if q <= at_most and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def summarize(
    values: Sequence[float], tail_q: float, scale: float = 1.0, chunks: int = 1
) -> Dict[str, float]:
    """Median, the supported tail percentile (<= ``tail_q``) and the count.

    With ``chunks`` > 1 the samples are cut, in order, into that many equal
    runs; the median and the tail are taken per run and the **median over
    the runs** is reported.  Interference on a shared box comes in bursts
    that slow a stretch of consecutive samples; a burst then moves a few
    runs' numbers instead of the one number.  The percentile is still chosen
    by the support of the whole sample.
    """
    q = supported_percentile(len(values), at_most=tail_q)
    size = len(values) // chunks
    if chunks > 1 and size >= 1:
        runs = [values[i * size:(i + 1) * size] for i in range(chunks)]
        middle = statistics.median(statistics.median(run) for run in runs)
        tail = statistics.median(percentile(run, q) for run in runs)
    else:
        middle, tail = statistics.median(values), percentile(values, q)
    return {"p50": middle * scale, "tail": tail * scale, "tail_q": q, "n": len(values),
            "chunks": chunks}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf
