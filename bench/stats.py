"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a latency sample may be summarised by, highest first, each
#: with the share of the sample beyond it in thousandths (exact arithmetic).
PERCENTILES = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250), (50.0, 500))

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile by nearest rank (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]; got %r" % (q,))
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(n: int) -> float:
    """The highest of :data:`PERCENTILES` that leaves at least
    :data:`SAMPLES_BEYOND` of ``n`` samples beyond it (50 when none does)."""
    for q, beyond_per_mille in PERCENTILES:
        if n * beyond_per_mille >= SAMPLES_BEYOND * 1000:
            return q
    return 50.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
