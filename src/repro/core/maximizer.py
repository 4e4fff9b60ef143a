"""Algorithm 3: calculating the per-grid maximizer under a supply level.

Given a grid with task distances ``d_(1) >= d_(2) >= ...`` and an allocated
supply of ``n`` workers, MAPS needs the candidate price maximising the
revenue approximation

    L^g(n, p) = min( C * p * S(p) ,  D_n * p )

with ``C = sum_r d_r`` and ``D_n = sum_{i<=n} d_(i)``.  The true acceptance
ratio ``S(p)`` is unknown, so Algorithm 3 scores every ladder price with
the optimistic UCB index

    I~(p) = min( p * S_hat(p) + c(p) ,  (D_n / C) * p ),

iterating prices from large to small and keeping the first strict
improvement, and reports both the chosen price and the marginal gain
``Delta^g`` of moving from the previous supply level to the new one.

This module exposes the computation as a pure function so it can be tested
in isolation.  The descending scan itself is
:func:`repro.learning.ucb.first_best`, which this module shares with
:func:`repro.learning.ucb.ucb_index`; the CappedUCB baseline reaches it
through ``ucb_index`` (the special case ``n = |W^{tg}|`` with all
distances set to 1).  The MAPS planner inlines the same scan over each
grid's demand table, built once per period by :func:`ucb_demand_table`
(or the ablation's :func:`exploitation_demand_table`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.learning.estimator import AcceptanceEstimate, GridAcceptanceEstimator
from repro.learning.ucb import first_best, ucb_score

#: Ladder prices in descending order, and the index's demand side at each.
DemandTable = Tuple[List[float], List[float]]
DemandTableFn = Callable[[GridAcceptanceEstimator], DemandTable]


@dataclass(frozen=True)
class MaximizerResult:
    """Result of one Algorithm 3 invocation.

    Attributes:
        price: The ladder price with the maximum UCB-scored index.
        index_value: The index ``I~(price)`` (per unit of demand distance).
        approx_revenue: The index scaled back to revenue units,
            ``C * I~(price)`` — an optimistic estimate of ``L^g(n, price)``.
        delta: Marginal gain over the revenue estimate of the previous
            supply level (never negative).
    """

    price: float
    index_value: float
    approx_revenue: float
    delta: float


def _maximize(
    estimator: GridAcceptanceEstimator,
    sorted_distances: Sequence[float],
    new_supply: int,
    previous_supply: Optional[int],
    score: Callable[[AcceptanceEstimate, int, float, float], float],
) -> MaximizerResult:
    """Algorithm 3 with ``score(estimate, N, C, D)`` as the price index."""
    if new_supply < 0:
        raise ValueError("new_supply must be non-negative")
    if previous_supply is None:
        previous_supply = max(0, new_supply - 1)
    if previous_supply > new_supply:
        raise ValueError("previous_supply cannot exceed new_supply")
    distances = [float(d) for d in sorted_distances]
    if any(b > a + 1e-9 for a, b in zip(distances, distances[1:])):
        raise ValueError("sorted_distances must be non-increasing")

    demand_coefficient = float(sum(distances))
    estimates = estimator.snapshots()
    total_offers = estimator.total_offers

    if demand_coefficient <= 0.0:
        # Grid without demand: any price yields zero revenue.
        price = estimates[0].price if estimates else 0.0
        return MaximizerResult(price=price, index_value=0.0, approx_revenue=0.0, delta=0.0)

    # Scan ladder prices from large to small, keep the first strict best.
    descending = sorted(estimates, key=lambda e: e.price, reverse=True)

    def scaled_best(supply: int) -> Tuple[float, float]:
        supply_coefficient = float(sum(distances[: min(supply, len(distances))]))
        best_price, best_value = first_best(
            (estimate.price for estimate in descending),
            (
                score(estimate, total_offers, demand_coefficient, supply_coefficient)
                for estimate in descending
            ),
        )
        return best_price, max(0.0, best_value)

    new_price, new_index = scaled_best(new_supply)
    new_revenue = demand_coefficient * new_index
    if previous_supply == new_supply:
        delta = 0.0
    elif previous_supply == 0:
        delta = new_revenue
    else:
        _, old_index = scaled_best(previous_supply)
        delta = max(0.0, demand_coefficient * (new_index - old_index))
    return MaximizerResult(
        price=new_price, index_value=new_index, approx_revenue=new_revenue, delta=delta
    )


def calculate_maximizer(
    estimator: GridAcceptanceEstimator,
    sorted_distances: Sequence[float],
    new_supply: int,
    previous_supply: Optional[int] = None,
) -> MaximizerResult:
    """Run Algorithm 3 for one grid.

    Args:
        estimator: The grid's acceptance statistics (``S_hat``, ``N``,
            ``N(p)`` per ladder price).
        sorted_distances: The grid's task distances in non-increasing order.
        new_supply: The candidate supply level ``n^{tg}_{new}``.
        previous_supply: The supply level the marginal gain is measured
            against; defaults to ``new_supply - 1``.

    Returns:
        The :class:`MaximizerResult` with the chosen price and ``Delta^g``.

    Raises:
        ValueError: on inconsistent supply levels or unsorted distances.
    """
    return _maximize(estimator, sorted_distances, new_supply, previous_supply, ucb_score)


def _exploitation_score(
    estimate: AcceptanceEstimate,
    total_offers: int,
    demand_coefficient: float,
    supply_coefficient: float,
) -> float:
    """``min(p * S_hat(p), (D / C) p)``: the UCB index without ``c(p)``."""
    return min(
        estimate.price * estimate.sample_mean,
        (supply_coefficient / demand_coefficient) * estimate.price,
    )


def exploitation_maximizer(
    estimator: GridAcceptanceEstimator,
    sorted_distances: Sequence[float],
    new_supply: int,
    previous_supply: Optional[int] = None,
) -> MaximizerResult:
    """Ablation variant of Algorithm 3 without the UCB confidence radius.

    Scores every ladder price with ``min(p * S_hat(p), (D/C) p)`` — pure
    exploitation of the current estimates.  Untested prices score zero, so
    this variant can lock onto an initially lucky price and never explore;
    the ablation benchmark quantifies the revenue this loses.  Arguments,
    result and validation are those of :func:`calculate_maximizer`.
    """
    return _maximize(
        estimator, sorted_distances, new_supply, previous_supply, _exploitation_score
    )


def ucb_demand_table(estimator: GridAcceptanceEstimator) -> DemandTable:
    """Algorithm 3's demand side ``p S_hat(p) + c(p)``, descending.

    The table form of :func:`calculate_maximizer`, in one plain-Python
    pass over :attr:`~repro.learning.estimator.GridAcceptanceEstimator.ladder`
    (a ladder has a few rungs, too few to repay array overhead).
    """
    ladder = estimator.ladder
    total = sum([stats.offers for stats in ladder])
    # No offers anywhere: zero radius, and untested prices score
    # p * 0 = 0 on the demand side.  Otherwise an untested price's
    # radius is infinite.
    two_ln_total = 2.0 * math.log(total) if total else 0.0
    prices: List[float] = []
    values: List[float] = []
    for stats in reversed(ladder):
        price = stats.price
        value = price * stats.sample_mean
        if total:
            offers = stats.offers
            value += price * math.sqrt(two_ln_total / offers) if offers else math.inf
        prices.append(price)
        values.append(value)
    return prices, values


def exploitation_demand_table(estimator: GridAcceptanceEstimator) -> DemandTable:
    """The radius-free demand side ``p S_hat(p)``, descending.

    The table form of :func:`exploitation_maximizer`.
    """
    ladder = estimator.ladder[::-1]
    return (
        [stats.price for stats in ladder],
        [stats.price * stats.sample_mean for stats in ladder],
    )


__all__ = [
    "DemandTable",
    "DemandTableFn",
    "MaximizerResult",
    "calculate_maximizer",
    "exploitation_demand_table",
    "exploitation_maximizer",
    "ucb_demand_table",
]
