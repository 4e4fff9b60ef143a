"""Per-grid, per-price acceptance-ratio statistics.

Both Base Pricing and MAPS keep, for every grid ``g`` and candidate price
``p``, the number of times ``p`` was offered (``N(p)``) and the number of
acceptances, giving the sample mean ``S_hat(p)``.  MAPS additionally needs
the total number of requesters observed in the grid (``N``) for its UCB
confidence radius and must be able to reset a price's statistics when the
change detector flags a demand shift.

:class:`GridAcceptanceEstimator` owns those counters for one grid;
:class:`PriceStats` is the per-price record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class PriceStats:
    """Offer/acceptance counters for a single candidate price."""

    price: float
    offers: int = 0
    acceptances: int = 0

    def record(self, accepted: bool, count: int = 1) -> None:
        """Record ``count`` offers with the same outcome."""
        if count <= 0:
            raise ValueError("count must be positive")
        self.offers += count
        if accepted:
            self.acceptances += count

    def record_batch(self, offers: int, acceptances: int) -> None:
        """Record a batch of offers with ``acceptances`` positive outcomes."""
        if offers < 0 or acceptances < 0 or acceptances > offers:
            raise ValueError("need 0 <= acceptances <= offers")
        self.offers += offers
        self.acceptances += acceptances

    @property
    def sample_mean(self) -> float:
        """``S_hat(p)``; defined as 0 before any observation."""
        if self.offers == 0:
            return 0.0
        return self.acceptances / self.offers

    def reset(self) -> None:
        self.offers = 0
        self.acceptances = 0


@dataclass(frozen=True)
class AcceptanceEstimate:
    """A read-only snapshot ``(price, S_hat(p), N(p))`` used by Algorithm 3."""

    price: float
    sample_mean: float
    offers: int


class GridAcceptanceEstimator:
    """Acceptance-ratio estimator for one grid over a fixed price ladder.

    Args:
        grid_index: 1-based grid index (for bookkeeping / error messages).
        candidate_prices: The price ladder shared by all grids.

    The estimator is deliberately ignorant of *how* prices are chosen; it
    only stores observations and exposes snapshots.  Base Pricing drives
    it with a fixed sampling plan, MAPS with UCB-selected prices.
    """

    def __init__(self, grid_index: int, candidate_prices: Sequence[float]) -> None:
        if not candidate_prices:
            raise ValueError("candidate_prices must be non-empty")
        self.grid_index = int(grid_index)
        self._stats: Dict[float, PriceStats] = {
            float(price): PriceStats(price=float(price)) for price in candidate_prices
        }
        # The ladder is fixed at construction; cache it sorted once so
        # ``ladder`` never re-sorts dict keys.
        self._ladder: List[PriceStats] = [
            self._stats[price] for price in sorted(self._stats)
        ]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, price: float, accepted: bool, count: int = 1) -> None:
        """Record an accept/reject observation at a ladder price."""
        self._stats_for(price).record(accepted, count)

    def record_batch(self, price: float, offers: int, acceptances: int) -> None:
        self._stats_for(price).record_batch(offers, acceptances)

    def reset_price(self, price: float) -> None:
        """Forget the history of one price (after a detected demand change)."""
        self._stats_for(price).reset()

    def reset_all(self) -> None:
        for stats in self._stats.values():
            stats.reset()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def candidate_prices(self) -> List[float]:
        return sorted(self._stats.keys())

    @property
    def total_offers(self) -> int:
        """``N`` — the total number of price offers observed in the grid."""
        return sum(stats.offers for stats in self._stats.values())

    def offers_at(self, price: float) -> int:
        """``N(p)`` for a ladder price."""
        return self._stats_for(price).offers

    def sample_mean(self, price: float) -> float:
        """``S_hat(p)`` for a ladder price."""
        return self._stats_for(price).sample_mean

    def snapshot(self, price: float) -> AcceptanceEstimate:
        stats = self._stats_for(price)
        return AcceptanceEstimate(
            price=stats.price, sample_mean=stats.sample_mean, offers=stats.offers
        )

    def snapshots(self) -> List[AcceptanceEstimate]:
        """Snapshots for every ladder price, in increasing price order."""
        return [self.snapshot(price) for price in self.candidate_prices]

    @property
    def ladder(self) -> Sequence[PriceStats]:
        """The live per-price records, in increasing price order.

        The read MAPS's demand tables make once per grid per planning
        round; callers must not mutate the records.
        """
        return self._ladder

    def best_revenue_price(self) -> Tuple[float, float]:
        """``argmax_p p * S_hat(p)`` with ties broken towards smaller prices.

        This is line 9 of Algorithm 1 (the estimated Myerson reserve price
        of the grid).  Returns ``(price, estimated revenue curve value)``.
        """
        best_price: Optional[float] = None
        best_value = -1.0
        for price in self.candidate_prices:
            value = price * self.sample_mean(price)
            if value > best_value + 1e-12:
                best_value = value
                best_price = price
        assert best_price is not None
        return best_price, best_value

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stats_for(self, price: float) -> PriceStats:
        key = float(price)
        if key not in self._stats:
            # Tolerate tiny float drift from repeated multiplication.
            for candidate in self._stats:
                if abs(candidate - key) <= 1e-9 * max(1.0, abs(candidate)):
                    return self._stats[candidate]
            raise KeyError(
                f"price {price} is not on the ladder of grid {self.grid_index}; "
                f"candidates are {self.candidate_prices}"
            )
        return self._stats[key]


__all__ = ["PriceStats", "AcceptanceEstimate", "GridAcceptanceEstimator"]
