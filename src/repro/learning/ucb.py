"""Upper-confidence-bound scoring of candidate prices (Section 4.2.2).

MAPS chooses, for a grid with allocated supply ``n`` and task distances
``d_(1) >= d_(2) >= ...``, the candidate price maximising the index

    I~(p) = min( p * S_hat(p) + c(p) ,  (D / C) * p )

where

* ``c(p) = p * sqrt(2 ln N / N(p))`` is the confidence radius (``N`` the
  total number of requesters seen in the grid, ``N(p)`` the number of
  offers at price ``p``; the radius is defined as 0 when ``N(p) = 0`` is
  impossible — the paper treats an untested price as having an infinite
  radius so it gets explored, and we follow that convention by returning
  ``+inf``);
* ``C = sum_r d_r`` is the demand-curve coefficient and
  ``D = sum_{i<=n} d_(i)`` the supply-curve coefficient, so ``(D/C) p``
  is the supply cap normalised per unit of demand distance.

The index therefore optimistically scores the demand curve while never
exceeding what the allocated supply could deliver.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

from repro.learning.estimator import AcceptanceEstimate


def confidence_radius(price: float, total_offers: int, offers_at_price: int) -> float:
    """``c(p) = p * sqrt(2 ln N / N(p))``.

    Returns ``+inf`` when the price has never been offered (forcing
    exploration) and 0 when no offer has been made in the grid at all
    (``N = 0``), matching the paper's remark that the radius is zero when
    ``N(p)`` is zero at initialisation time.
    """
    if price < 0:
        raise ValueError("price must be non-negative")
    if total_offers < 0 or offers_at_price < 0:
        raise ValueError("counts must be non-negative")
    if total_offers == 0:
        return 0.0
    if offers_at_price == 0:
        return math.inf
    return price * math.sqrt(2.0 * math.log(total_offers) / offers_at_price)


def ucb_score(
    estimate: AcceptanceEstimate,
    total_offers: int,
    demand_coefficient: float,
    supply_coefficient: float,
) -> float:
    """The index ``I~(p)`` of one candidate price.

    Args:
        estimate: Snapshot ``(p, S_hat(p), N(p))`` of the price.
        total_offers: ``N`` — total offers observed in the grid.
        demand_coefficient: ``C = sum_r d_r`` (must be positive when the
            grid has tasks; a zero value yields a zero index).
        supply_coefficient: ``D = sum_{i<=n} d_(i)``.

    Returns:
        ``min(p * S_hat(p) + c(p), (D / C) * p)``.
    """
    if demand_coefficient < 0 or supply_coefficient < 0:
        raise ValueError("curve coefficients must be non-negative")
    if demand_coefficient == 0.0:
        return 0.0
    price = estimate.price
    radius = confidence_radius(price, total_offers, estimate.offers)
    optimistic_demand = price * estimate.sample_mean + radius
    supply_cap = (supply_coefficient / demand_coefficient) * price
    return min(optimistic_demand, supply_cap)


def first_best(
    prices: Iterable[float], values: Iterable[float]
) -> Tuple[float, float]:
    """Algorithm 3's scan: the first strict improvement, prices descending.

    Walks ``(price, value)`` pairs in the given order (the ladder from big
    to small) and keeps a pair only when its value beats the best so far
    by more than ``1e-12``, so ties resolve in favour of the larger price.

    Returns:
        ``(best_price, best_value)``.

    Raises:
        ValueError: if no pair is given.
    """
    best_price: Optional[float] = None
    best_value = -math.inf
    for price, value in zip(prices, values):
        if value > best_value + 1e-12:
            best_value = value
            best_price = price
    if best_price is None:
        raise ValueError("no candidate prices to score")
    return best_price, best_value


def ucb_index(
    estimates: Sequence[AcceptanceEstimate],
    total_offers: int,
    demand_coefficient: float,
    supply_coefficient: float,
) -> Tuple[float, float]:
    """Choose the candidate price with the maximum UCB index (Algorithm 3).

    Algorithm 3 iterates prices "from big to small" and keeps the first
    strict improvement (:func:`first_best`), so ties are resolved in
    favour of the larger price.

    Args:
        estimates: Snapshots of every candidate price.
        total_offers: ``N`` for the grid.
        demand_coefficient: ``C``.
        supply_coefficient: ``D``.

    Returns:
        ``(best_price, best_index_value)``.

    Raises:
        ValueError: if ``estimates`` is empty.
    """
    if not estimates:
        raise ValueError("estimates must be non-empty")
    descending = sorted(estimates, key=lambda e: e.price, reverse=True)
    return first_best(
        (estimate.price for estimate in descending),
        (
            ucb_score(estimate, total_offers, demand_coefficient, supply_coefficient)
            for estimate in descending
        ),
    )


__all__ = ["confidence_radius", "first_best", "ucb_score", "ucb_index"]
