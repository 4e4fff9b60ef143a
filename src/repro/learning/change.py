"""Binomial change detection for acceptance ratios (Section 4.2.2).

Acceptance ratios drift over the day (rush hour vs. late night).  MAPS
flags a change when, for a price whose previous acceptance ratio estimate
is ``S_hat(p)``, the number of acceptances among the latest ``m`` offers
falls outside the two-standard-deviation band

    m * S_hat(p)  +-  2 * sqrt( m * S_hat(p) * (1 - S_hat(p)) )

of the binomial distribution.  When the deviation is statistically
significant, the price's statistics are reset so the UCB index re-explores
it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple


def binomial_deviation_bounds(expected_ratio: float, window: int, z: float = 2.0) -> Tuple[float, float]:
    """Acceptance-count bounds ``m*S +- z*sqrt(m*S*(1-S))`` for ``m`` offers.

    Args:
        expected_ratio: Previously estimated acceptance ratio ``S_hat(p)``.
        window: Number of recent offers ``m``.
        z: Width of the band in standard deviations (the paper uses 2).

    Returns:
        ``(lower, upper)`` bounds on the acceptance count, clipped to
        ``[0, window]``.
    """
    if not 0.0 <= expected_ratio <= 1.0:
        raise ValueError("expected_ratio must lie in [0, 1]")
    if window <= 0:
        raise ValueError("window must be positive")
    if z <= 0:
        raise ValueError("z must be positive")
    mean = window * expected_ratio
    spread = z * math.sqrt(window * expected_ratio * (1.0 - expected_ratio))
    return max(0.0, mean - spread), min(float(window), mean + spread)


@dataclass
class _PriceWindow:
    """Sliding window of recent accept/reject outcomes for one price.

    ``acceptances`` is kept as a running count, updated when an outcome
    enters the window and when the bounded deque evicts its oldest one,
    so each observation costs ``O(1)`` instead of a pass over the window.
    """

    outcomes: Deque[bool]
    reference_ratio: Optional[float] = None
    acceptances: int = 0

    def append(self, accepted: bool) -> None:
        outcomes = self.outcomes
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self.acceptances -= 1
        outcomes.append(accepted)
        if accepted:
            self.acceptances += 1


class BinomialChangeDetector:
    """Detects statistically-significant shifts of per-price acceptance ratios.

    Args:
        window: Number of most recent offers ``m`` examined per price.
        z: Band width in standard deviations (paper: 2).
        min_observations: Observations required before a reference ratio is
            frozen and deviations can be flagged.  Prevents spurious flags
            when the estimate itself is still noisy.
    """

    def __init__(self, window: int = 50, z: float = 2.0, min_observations: int = 20) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if min_observations <= 0:
            raise ValueError("min_observations must be positive")
        self.window = int(window)
        self.z = float(z)
        self.min_observations = int(min_observations)
        self._windows: Dict[float, _PriceWindow] = {}

    # ------------------------------------------------------------------
    # recording & detection
    # ------------------------------------------------------------------
    def observe(self, price: float, accepted: bool) -> bool:
        """Record one observation; return True when a change is flagged.

        When a change is flagged the internal window for the price is
        cleared and its reference ratio forgotten, so the detector starts
        re-learning the post-change behaviour (callers should also reset
        the corresponding :class:`~repro.learning.estimator.PriceStats`).
        """
        key = float(price)
        state = self._windows.get(key)
        if state is None:
            state = _PriceWindow(outcomes=deque(maxlen=self.window))
            self._windows[key] = state
        state.append(bool(accepted))

        if state.reference_ratio is None:
            if len(state.outcomes) >= self.min_observations:
                state.reference_ratio = state.acceptances / len(state.outcomes)
            return False

        if len(state.outcomes) < self.window:
            return False

        lower, upper = binomial_deviation_bounds(
            state.reference_ratio, len(state.outcomes), self.z
        )
        count = state.acceptances
        if count < lower - 1e-9 or count > upper + 1e-9:
            self.reset_price(price)
            return True
        return False

    def reference_ratio(self, price: float) -> Optional[float]:
        state = self._windows.get(float(price))
        return state.reference_ratio if state else None

    def reset_price(self, price: float) -> None:
        """Forget everything recorded for a price."""
        self._windows.pop(float(price), None)

    def reset(self) -> None:
        self._windows.clear()


__all__ = ["BinomialChangeDetector", "binomial_deviation_bounds"]
