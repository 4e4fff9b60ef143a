"""Percentiles as the benchmark reports them.

Timings use the nearest-rank percentile, and a percentile is refused
when fewer than ``min_beyond`` samples lie above its rank: a p99 over
300 samples would rest on three values.  Run-to-run spread uses
``statistics.quantiles(values, n=4)``, so anyone recomputing the
quartiles from the same numbers gets the same spread.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], fraction: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile of ``values``.

    Raises:
        TooFewSamples: when fewer than ``min_beyond`` samples rank above
            the percentile (or the sample is empty).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = len(values)
    rank = max(1, math.ceil(fraction * count))
    if count == 0 or count - rank < min_beyond:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples leaves {max(0, count - rank)} "
            f"beyond it; need {min_beyond}"
        )
    return sorted(values)[rank - 1]


def percentile_or_zero(values: Sequence[float], fraction: float) -> float:
    """``percentile``, or 0.0 (the per-layer "not measured") when refused."""
    try:
        return percentile(values, fraction)
    except TooFewSamples:
        return 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


__all__ = ["MIN_BEYOND", "TooFewSamples", "percentile", "percentile_or_zero", "quartiles"]
