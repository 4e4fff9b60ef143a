"""The vectorised per-period pipeline: quote → decide → match → feedback.

The simulation engine used to interleave pricing, per-task accept/reject
loops, matching and feedback bookkeeping inside one monolithic ``run``
method.  This module decomposes one period into four composable stages
driven by :class:`PeriodPipeline`:

* **quote** — ask the strategy for one unit price per grid;
* **decide** — realise the requesters' accept/reject decisions as array
  ops over the period's :class:`~repro.core.gdp.PeriodArrays` view:
  ``price <= valuation`` for tasks with private valuations and a single
  batched RNG draw for tasks governed by an external acceptance model.
  The RNG consumption is identical to the seed engine's per-task scalar
  draws, so fixed seeds reproduce the exact same decisions;
* **match** — compute the realized maximum-weight matching
  (Definition 5) over the CSR graph with the matroid greedy; a deferred
  period graph is built over the accepted tasks' rows only;
* **feedback** — pack one period's outcomes into a
  :class:`~repro.pricing.strategy.PriceFeedbackBatch` (``served`` is set
  in the same pass, not by rebuilding per-task objects) and hand it to
  the strategy.

The batch period loop (:class:`~repro.simulation.sharded.ShardedEngine`)
and the dynamic dispatch session call the stages one by one; each stage
is independently callable, which is what the equivalence tests and
``benchmarks/test_bench_pipeline.py`` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.gdp import PeriodInstance
from repro.market.acceptance import PerGridAcceptance
from repro.matching.weighted import max_weight_matching
from repro.pricing.strategy import PriceFeedbackBatch, PricingStrategy


# eq=False: ndarray fields would make the generated __eq__ raise; results
# are identity-compared.
@dataclass(frozen=True, eq=False)
class DecideResult:
    """Output of the decide stage.

    Attributes:
        prices: ``float64`` clamped offered unit price per task position.
        accepted: Boolean accept/reject decision per task position.
    """

    prices: np.ndarray
    accepted: np.ndarray

    @property
    def accepted_positions(self) -> np.ndarray:
        """Positions of accepted tasks, ascending."""
        return np.flatnonzero(self.accepted)


class PeriodPipeline:
    """Composable per-period stages over the struct-of-arrays view.

    Args:
        price_bounds: The quotable ``(p_min, p_max)`` interval.
        acceptance: Ground-truth acceptance models used for tasks without
            an attached private valuation.
    """

    def __init__(
        self,
        price_bounds: Tuple[float, float],
        acceptance: PerGridAcceptance,
    ) -> None:
        self.p_min, self.p_max = (float(price_bounds[0]), float(price_bounds[1]))
        self.acceptance = acceptance

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def quote(
        self, strategy: PricingStrategy, instance: PeriodInstance
    ) -> Dict[int, float]:
        """Ask the strategy for the period's per-grid unit prices."""
        return strategy.price_period(instance)

    def decide(
        self,
        instance: PeriodInstance,
        grid_prices: Mapping[int, float],
        rng: np.random.Generator,
    ) -> DecideResult:
        """Realise the requesters' accept/reject decisions, vectorised.

        Grids the strategy did not price default to ``p_min`` (defensive:
        shipped strategies always price every grid that has tasks).  Tasks
        carrying a private valuation accept iff ``price <= valuation``;
        the remaining tasks draw once from ``rng`` each, in task order, so
        the stream matches the seed engine's scalar loop exactly.
        """
        arrays = instance.ensure_arrays()
        prices = arrays.prices_per_task(grid_prices, self.p_min, self.p_max)
        accepted = np.zeros(arrays.num_tasks, dtype=bool)
        has_valuation = arrays.has_valuation
        accepted[has_valuation] = (
            prices[has_valuation] <= arrays.valuations[has_valuation]
        )
        missing = np.flatnonzero(~has_valuation)
        if missing.size:
            # One batched lookup per period: quoted prices are per grid,
            # so the (grid, price) pairs collapse to a few unique combos
            # (values identical to the former per-task scalar calls).
            probabilities = self.acceptance.acceptance_ratios(
                arrays.task_grids[missing], prices[missing]
            )
            accepted[missing] = rng.random(missing.size) < probabilities
        return DecideResult(prices=prices, accepted=accepted)

    def match(
        self,
        instance: PeriodInstance,
        decision: DecideResult,
    ) -> Tuple[Dict[int, int], float]:
        """Maximum-weight matching of the accepted tasks (Definition 5).

        A deferred graph is built over the accepted rows only; a graph
        already built (say by MAPS's planner while quoting) is matched
        as is with the rejected rows masked out.
        """
        arrays = instance.ensure_arrays()
        weights = arrays.distances * decision.prices
        accepted = decision.accepted_positions
        graph = instance.rows_graph(accepted)
        if graph is None:
            return max_weight_matching(instance.graph, weights, allowed_tasks=accepted)
        # Row k is task accepted[k].  The renumbering is monotone, so the
        # greedy's order, its ties and its float sum are those of the
        # full graph, and the matching maps back bit-identically.
        rows_matching, revenue = max_weight_matching(graph, weights[accepted])
        rows = accepted.tolist()
        return {rows[row]: worker for row, worker in rows_matching.items()}, revenue

    def feedback(
        self,
        instance: PeriodInstance,
        decision: DecideResult,
        matching: Mapping[int, int],
    ) -> PriceFeedbackBatch:
        """Pack the period's outcomes into a batch, ``served`` included."""
        arrays = instance.ensure_arrays()
        served = np.zeros(arrays.num_tasks, dtype=bool)
        if matching:
            served[
                np.fromiter(matching.keys(), dtype=np.int64, count=len(matching))
            ] = True
        return PriceFeedbackBatch(
            period=instance.period,
            grid_indices=arrays.task_grids,
            prices=decision.prices,
            accepted=decision.accepted,
            distances=arrays.distances,
            served=served,
        )


__all__ = [
    "PeriodPipeline",
    "DecideResult",
]
