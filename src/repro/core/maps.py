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
  for a given supply level without knowing the true acceptance ratios.

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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.gdp import PeriodInstance
from repro.core.maximizer import MaximizerResult, calculate_maximizer
from repro.learning.estimator import GridAcceptanceEstimator
from repro.matching.incremental import IncrementalMatcher
from repro.utils.heap import AddressableMaxHeap

#: Signature of the per-grid maximizer; swap in
#: :func:`repro.core.maximizer.exploitation_maximizer` for the ablation.
MaximizerFn = Callable[[GridAcceptanceEstimator, Sequence[float], int, Optional[int]], MaximizerResult]


@dataclass
class MAPSPlan:
    """Output of one MAPS planning round.

    Attributes:
        prices: Unit price per grid index (every grid of the pricing grid
            gets a price; grids without demand or supply fall back to the
            base price).
        supply: Planned number of workers per grid (``n^{tg}``).
        pre_matching: The pre-matching ``M'`` as ``{task_position:
            worker_position}`` over the period's bipartite graph.
        approx_revenue: The planner's estimate ``sum_g L^g(n^{tg}, p^{tg})``
            (optimistic, since it uses UCB-scored acceptance ratios).
        iterations: Number of heap extractions performed (for complexity
            experiments).
    """

    prices: Dict[int, float]
    supply: Dict[int, int]
    pre_matching: Dict[int, int]
    approx_revenue: float
    iterations: int


class MAPSPlanner:
    """Plans prices and supply for one period (Algorithm 2).

    Args:
        base_price: The base price ``p_b`` from Algorithm 1, used for grids
            that receive no dedicated supply.
        p_min: Minimum quotable unit price.
        p_max: Maximum quotable unit price (prices are capped at it, line
            13–14 of Algorithm 2).
        maximizer: The per-grid price maximizer (Algorithm 3 by default).
    """

    def __init__(
        self,
        base_price: float,
        p_min: float,
        p_max: float,
        maximizer: MaximizerFn = calculate_maximizer,
        vectorized: Optional[bool] = None,
    ) -> None:
        if p_min <= 0 or p_max < p_min:
            raise ValueError("need 0 < p_min <= p_max")
        if not p_min <= base_price <= p_max:
            base_price = min(p_max, max(p_min, base_price))
        self.base_price = float(base_price)
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self._maximizer = maximizer
        if vectorized is None:
            # The array path inlines Algorithm 3, so it only replaces the
            # stock maximizer; custom maximizers keep the generic loop.
            vectorized = maximizer is calculate_maximizer
        elif vectorized and maximizer is not calculate_maximizer:
            raise ValueError(
                "vectorized planning inlines calculate_maximizer; pass "
                "vectorized=False (or drop the custom maximizer)"
            )
        self.vectorized = bool(vectorized)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self,
        instance: PeriodInstance,
        estimators: Mapping[int, GridAcceptanceEstimator],
    ) -> MAPSPlan:
        """Run Algorithm 2 for one period.

        Dispatches to the array-native planner (the default; see
        :meth:`_plan_vectorized`) or the reference per-grid loop — the
        two are bit-identical, which the property suite fuzzes and the
        regression tests pin across whole simulations.

        Args:
            instance: The period's tasks, workers and bipartite graph.
            estimators: Per-grid acceptance statistics (must contain an
                estimator for every grid that has tasks this period).

        Returns:
            The :class:`MAPSPlan` with prices, supply and the pre-matching.
        """
        if self.vectorized:
            return self._plan_vectorized(instance, estimators)
        return self._plan_loop(instance, estimators)

    def _plan_loop(
        self,
        instance: PeriodInstance,
        estimators: Mapping[int, GridAcceptanceEstimator],
    ) -> MAPSPlan:
        """Reference implementation: per-grid dicts, Python heap."""
        grid = instance.grid
        # Sharing the instance's grid buckets (and, inside the matcher,
        # the graph's cached CSR view) keeps the pre-matching from
        # re-deriving per-period structure the pipeline already built.
        matcher = IncrementalMatcher(
            instance.graph, grid_tasks=instance.tasks_by_grid
        )

        # Every grid starts at the base price; grids with demand may be
        # re-priced below.
        prices: Dict[int, float] = {
            cell.index: self.base_price for cell in grid.cells()
        }
        supply: Dict[int, int] = {cell.index: 0 for cell in grid.cells()}
        approx_revenue: Dict[int, float] = {cell.index: 0.0 for cell in grid.cells()}

        # Per-grid demand profiles: instances built by the engine serve
        # these from the cached, pre-sorted PeriodArrays view, so the
        # descending distance sort happens once per period rather than
        # once per planning query.
        distances: Dict[int, List[float]] = {
            g: instance.distances_in_grid(g) for g in instance.grid_indices_with_tasks()
        }

        heap = AddressableMaxHeap()
        # Initialisation (lines 3-4): one entry per grid with demand.  Grids
        # without tasks keep the base price and never enter the competition,
        # which is what lines 16-17 reduce to for them.
        for g in distances:
            estimator = estimators.get(g)
            if estimator is None:
                raise KeyError(f"no acceptance estimator for grid {g}")
            heap.push(g, math.inf, payload=(0, self.base_price))

        iterations = 0
        while heap:
            iterations += 1
            entry = heap.pop()
            g = entry.key
            delta = entry.priority
            candidate_supply, candidate_price = entry.payload

            if not math.isinf(delta):
                if delta <= 1e-12:
                    # Lines 11-14: no further gain; finalise the grid's price.
                    prices[g] = min(candidate_price, self.p_max)
                    continue
                # Lines 8-10: admit the supply increase if it is still
                # feasible (other grids may have consumed the needed worker
                # since the gain was computed).
                matched_task = matcher.augment_grid(g)
                if matched_task is None:
                    # The gain is stale; re-evaluate the grid at its current
                    # supply and finalise it on the next extraction.
                    result = self._maximizer(
                        estimators[g], distances[g], supply[g], supply[g]
                    )
                    price = result.price if supply[g] > 0 else self.base_price
                    heap.push(g, 0.0, payload=(supply[g], price))
                    continue
                supply[g] = candidate_supply
                prices[g] = min(candidate_price, self.p_max)
                approx_revenue[g] += delta

            # Lines 15-21: propose the next supply increase for the grid.
            if not distances[g] or not matcher.can_augment_grid(g):
                # No demand left to serve or no feasible worker: freeze at
                # the current price (zero further gain).
                current_price = prices[g] if supply[g] > 0 else self.base_price
                heap.push(g, 0.0, payload=(supply[g], current_price))
                continue
            if supply[g] >= len(distances[g]):
                # Supply already covers every task; more workers cannot help.
                heap.push(g, 0.0, payload=(supply[g], prices[g]))
                continue
            new_supply = supply[g] + 1
            result = self._maximizer(estimators[g], distances[g], new_supply, supply[g])
            heap.push(g, result.delta, payload=(new_supply, result.price))

        total_approx = sum(approx_revenue.values())
        return MAPSPlan(
            prices=prices,
            supply=supply,
            pre_matching=matcher.matching(),
            approx_revenue=total_approx,
            iterations=iterations,
        )

    # ------------------------------------------------------------------
    # array-native planning
    # ------------------------------------------------------------------
    def _plan_vectorized(
        self,
        instance: PeriodInstance,
        estimators: Mapping[int, GridAcceptanceEstimator],
    ) -> MAPSPlan:
        """Algorithm 2 over flat arrays, bit-identical to the loop planner.

        Three observations make the hot loop cheap without changing one
        extraction's semantics:

        * the UCB *demand* side of Algorithm 3's index — ``p S_hat(p) +
          c(p)`` — depends only on the estimator state, which is frozen
          during planning, so it is computed **once per grid per period**
          (via the estimators' cached :meth:`snapshot_table` arrays, one
          batched query instead of one snapshot list per maximizer call);
          each candidate evaluation then only applies the supply cap
          ``(D_n / C) p`` and the descending first-strict-improvement
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
        optimistic: List[List[float]] = []  # p * S_hat(p) + c(p), desc
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
            ladder, means, offers, total = estimator.snapshot_table()
            if total == 0:
                # No offers anywhere: zero radius, and untested prices
                # score p * 0 = 0 on the demand side.
                demand_side = ladder * means
            else:
                ln_total = math.log(total)
                with np.errstate(divide="ignore", invalid="ignore"):
                    radius = ladder * np.sqrt(2.0 * ln_total / offers)
                radius[offers == 0.0] = math.inf
                demand_side = ladder * means + radius
            prices_desc.append(ladder[::-1].tolist())
            optimistic.append(demand_side[::-1].tolist())
            zero_price.append(float(ladder[0]) if ladder.size else 0.0)

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
            for p, demand_value in zip(prices_desc[gi], optimistic[gi]):
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
            pre_matching=matcher.matching(),
            approx_revenue=sum(approx),
            iterations=iterations,
        )


__all__ = ["MAPSPlanner", "MAPSPlan", "MaximizerFn"]
