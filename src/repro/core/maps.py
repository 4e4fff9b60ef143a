"""MAPS — the MAtching-based Pricing Strategy (Algorithm 2).

Per time period MAPS jointly decides, for every grid, how many workers to
dedicate to it (its *supply* ``n^{tg}``) and which unit price to quote, so
that the sum of per-grid revenue approximations ``sum_g L^g(n^{tg}, p^{tg})``
is maximised subject to the range constraints and the one-task-per-worker
constraint.  The key ingredients are:

* a max-heap of per-grid marginal gains ``Delta^g`` (lazy greedy over a
  submodular objective, Theorem 8);
* an incrementally grown *pre-matching* that certifies an extra supply unit
  for a grid is actually feasible (Algorithm 2 lines 10/16);
* the UCB-scored maximizer of Algorithm 3 that picks the best ladder price
  for a given supply level without knowing the true acceptance ratios,
  run over each grid's demand table
  (:func:`~repro.core.maximizer.ucb_demand_table`).

The planner is stateless across periods except for the acceptance
statistics, which live in the per-grid
:class:`~repro.learning.estimator.GridAcceptanceEstimator` objects owned by
the caller (the :class:`~repro.pricing.maps_strategy.MAPSStrategy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.gdp import PeriodInstance
from repro.core.maximizer import DemandTableFn, ucb_demand_table
from repro.learning.estimator import GridAcceptanceEstimator
from repro.matching.incremental import IncrementalMatcher


@dataclass
class MAPSPlan:
    """Output of one MAPS planning round.

    Attributes:
        prices: Unit price per grid index (every grid of the pricing grid
            gets a price; grids without demand or supply fall back to the
            base price).
        supply: Planned number of workers per grid (``n^{tg}``).
        approx_revenue: The planner's estimate ``sum_g L^g(n^{tg}, p^{tg})``
            (optimistic, since it uses UCB-scored acceptance ratios).
        iterations: Number of heap extractions performed (for complexity
            experiments).
        matcher: The pre-matching's matcher, read by :attr:`pre_matching`
            (``None``: an empty pre-matching).
    """

    prices: Dict[int, float]
    supply: Dict[int, int]
    approx_revenue: float
    iterations: int
    matcher: Optional[IncrementalMatcher] = field(
        default=None, repr=False, compare=False
    )

    @property
    def pre_matching(self) -> Dict[int, int]:
        """The pre-matching ``M'`` as ``{task_position: worker_position}``
        over the period's bipartite graph.

        Built on demand: no engine reads it, so planning does not pay for
        a dict over every task each period.
        """
        return {} if self.matcher is None else self.matcher.matching()


class MAPSPlanner:
    """Plans prices and supply for one period (Algorithm 2).

    Args:
        base_price: The base price ``p_b`` from Algorithm 1, used for grids
            that receive no dedicated supply.
        p_min: Minimum quotable unit price.
        p_max: Maximum quotable unit price (prices are capped at it, line
            13–14 of Algorithm 2).
        demand_table: Builds a grid's Algorithm 3 demand table from its
            estimator: :func:`~repro.core.maximizer.ucb_demand_table`
            (default), or ``exploitation_demand_table`` for the
            no-exploration ablation.
    """

    def __init__(
        self,
        base_price: float,
        p_min: float,
        p_max: float,
        demand_table: DemandTableFn = ucb_demand_table,
    ) -> None:
        if p_min <= 0 or p_max < p_min:
            raise ValueError("need 0 < p_min <= p_max")
        if not p_min <= base_price <= p_max:
            base_price = min(p_max, max(p_min, base_price))
        self.base_price = float(base_price)
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.demand_table = demand_table

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self,
        instance: PeriodInstance,
        estimators: Mapping[int, GridAcceptanceEstimator],
    ) -> MAPSPlan:
        """Run Algorithm 2 for one period over flat arrays.

        The plan equals, field for field, that of the per-grid loop with an
        addressable heap and one Algorithm 3 call per proposal, kept as
        :func:`repro.simulation.legacy.reference_maps_plan`; the property
        suite fuzzes the two and the regression tests pin them across whole
        simulations.  Three observations make the hot loop cheap without
        changing one extraction's semantics:

        * the demand side of Algorithm 3's index depends only on the
          estimator state, which is frozen during planning, so each grid's
          demand table (:attr:`demand_table`) is built **once per grid per
          period**; each candidate evaluation then only applies the supply
          cap ``(D_n / C) p`` and the descending first-strict-improvement
          scan;
        * the per-grid supply coefficients ``D_n`` are prefix sums of the
          sorted distance profile, precomputed per grid (Python-``sum``
          associativity preserved, so the floats match the loop exactly);
        * the queue is a plain :mod:`heapq` min-heap of ``(-Delta,
          insertion counter, grid position, supply, price)`` tuples:
          the unique counter makes its order the addressable heap's
          strict total order (priority descending, insertion ascending,
          so equal gains — ``+inf``, or ``0.0`` against ``-0.0`` —
          pop first-in first-out) without ever comparing the payload,
          and per-grid state lives in flat lists instead of dicts.

        Evaluations are memoised per ``(grid, supply)`` within the round
        (the index is a pure function of them once the tables are fixed);
        the ``Delta^g`` arithmetic replicates
        :func:`~repro.core.maximizer.calculate_maximizer` operation for
        operation.

        Args:
            instance: The period's tasks, workers and bipartite graph.
            estimators: Per-grid acceptance statistics (must contain an
                estimator for every grid that has tasks this period).

        Returns:
            The :class:`MAPSPlan` with prices, supply and the pre-matching.
        """
        grid = instance.grid
        matcher = IncrementalMatcher(
            instance.graph, grid_tasks=instance.tasks_by_grid
        )
        gs = instance.grid_indices_with_tasks()
        count = len(gs)
        base_price = self.base_price
        p_max = self.p_max

        # Per-grid demand profiles and Algorithm 3 tables, one pass.
        lengths: List[int] = []
        demand_c: List[float] = []  # C = sum of distances
        prefix_d: List[List[float]] = []  # D_n = sum of n largest
        prices_desc: List[List[float]] = []
        demand_values: List[List[float]] = []  # demand side, desc
        zero_price: List[float] = []  # Algorithm 3's zero-demand fallback
        for g in gs:
            estimator = estimators.get(g)
            if estimator is None:
                raise KeyError(f"no acceptance estimator for grid {g}")
            profile = instance.distances_in_grid(g)
            lengths.append(len(profile))
            prefix = list(accumulate(profile))
            prefix_d.append(prefix)
            demand_c.append(prefix[-1] if prefix else 0.0)
            table_prices, table_values = self.demand_table(estimator)
            prices_desc.append(table_prices)
            demand_values.append(table_values)
            zero_price.append(table_prices[-1] if table_prices else 0.0)

        # (price, index) of Algorithm 3's scan at one supply level,
        # memoised per (grid position, supply).
        eval_cache: Dict[Tuple[int, int], Tuple[float, float]] = {}

        def scaled_best(gi: int, n: int) -> Tuple[float, float]:
            cached = eval_cache.get((gi, n))
            if cached is not None:
                return cached
            length = lengths[gi]
            k = n if n < length else length
            ratio = (prefix_d[gi][k - 1] if k > 0 else 0.0) / demand_c[gi]
            best_value = -math.inf
            best_p = 0.0
            for p, demand_value in zip(prices_desc[gi], demand_values[gi]):
                cap = ratio * p
                value = demand_value if demand_value <= cap else cap
                if value > best_value + 1e-12:
                    best_value = value
                    best_p = p
            result = (best_p, best_value if best_value > 0.0 else 0.0)
            eval_cache[(gi, n)] = result
            return result

        def evaluate(gi: int, new_supply: int, previous: int) -> Tuple[float, float]:
            """``(price, Delta^g)`` exactly as ``calculate_maximizer``."""
            if demand_c[gi] <= 0.0:
                return zero_price[gi], 0.0
            new_price, new_index = scaled_best(gi, new_supply)
            if previous == new_supply:
                return new_price, 0.0
            if previous == 0:
                return new_price, demand_c[gi] * new_index
            _, old_index = scaled_best(gi, previous)
            delta = demand_c[gi] * (new_index - old_index)
            return new_price, delta if delta > 0.0 else 0.0

        # A grid is queued at most once at a time: every pop is followed
        # by at most one push of the same grid.
        queue = [(-math.inf, gi, gi, 0, base_price) for gi in range(count)]
        counter = count
        supply = [0] * count
        prices = [base_price] * count
        approx = [0.0] * count

        iterations = 0
        while queue:
            iterations += 1
            key, _, gi, candidate_supply, candidate_price = heappop(queue)
            g = gs[gi]
            delta = -key

            if not math.isinf(delta):
                if delta <= 1e-12:
                    # Lines 11-14: finalise the grid's price.
                    prices[gi] = min(candidate_price, p_max)
                    continue
                matched_task = matcher.augment_grid(g)
                if matched_task is None:
                    # Stale gain: re-evaluate at the current supply.
                    if demand_c[gi] <= 0.0:
                        price = zero_price[gi]
                    else:
                        price, _ = scaled_best(gi, supply[gi])
                    price = price if supply[gi] > 0 else base_price
                    heappush(queue, (0.0, counter, gi, supply[gi], price))
                    counter += 1
                    continue
                supply[gi] = candidate_supply
                prices[gi] = min(candidate_price, p_max)
                approx[gi] += delta

            # Lines 15-21: propose the next supply increase.
            if not lengths[gi] or not matcher.can_augment_grid(g):
                current_price = prices[gi] if supply[gi] > 0 else base_price
                entry = (0.0, counter, gi, supply[gi], current_price)
            elif supply[gi] >= lengths[gi]:
                entry = (0.0, counter, gi, supply[gi], prices[gi])
            else:
                new_supply = supply[gi] + 1
                price, delta = evaluate(gi, new_supply, supply[gi])
                entry = (-delta, counter, gi, new_supply, price)
            heappush(queue, entry)
            counter += 1

        prices_out: Dict[int, float] = {
            cell.index: base_price for cell in grid.cells()
        }
        supply_out: Dict[int, int] = {cell.index: 0 for cell in grid.cells()}
        for gi, g in enumerate(gs):
            prices_out[g] = prices[gi]
            supply_out[g] = supply[gi]
        return MAPSPlan(
            prices=prices_out,
            supply=supply_out,
            approx_revenue=sum(approx),
            iterations=iterations,
            matcher=matcher,
        )


__all__ = ["MAPSPlanner", "MAPSPlan"]
