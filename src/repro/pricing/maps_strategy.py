"""The MAPS pricing strategy (the paper's contribution) as a strategy object.

Wires together the pieces of Section 4 for use inside the simulation
engine:

* a per-grid :class:`~repro.learning.estimator.GridAcceptanceEstimator`
  shared across periods (optionally warm-started from the Base Pricing
  calibration),
* a :class:`~repro.learning.change.BinomialChangeDetector` per grid that
  resets a price's statistics when the demand distribution shifts,
* the :class:`~repro.core.maps.MAPSPlanner` that runs Algorithm 2 every
  period to allocate supply and set prices, scoring each grid's ladder
  with Algorithm 3 over the grid's demand table.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.base_pricing import BasePricingResult
from repro.core.gdp import PeriodInstance
from repro.core.maps import MAPSPlan, MAPSPlanner
from repro.core.maximizer import DemandTableFn, ucb_demand_table
from repro.learning.change import BinomialChangeDetector
from repro.learning.estimator import GridAcceptanceEstimator
from repro.learning.sampling import price_ladder
from repro.pricing.strategy import PriceFeedback, PriceFeedbackBatch, PricingStrategy


class MAPSStrategy(PricingStrategy):
    """MAtching-based Pricing Strategy.

    Args:
        base_price: The base price ``p_b`` (from Algorithm 1) used for
            grids without dedicated supply and as the neutral initial
            quote.
        p_min: Lower bound of the candidate price ladder.
        p_max: Upper bound of the ladder and the hard cap on quoted prices.
        alpha: Geometric step of the ladder.
        warm_start: Optional Base Pricing result whose per-grid statistics
            seed the UCB estimators (the paper notes MAPS "takes the base
            price as initial input"; re-using the calibration samples is
            the natural warm start).
        change_detection: Enable the binomial change detector of
            Section 4.2.2.
        change_window: Window size ``m`` of the change detector.
        demand_table: The demand side of Algorithm 3's index, forwarded
            to the one planner, :class:`~repro.core.maps.MAPSPlanner`:
            :func:`~repro.core.maximizer.ucb_demand_table` (default) or,
            for the no-UCB ablation, ``exploitation_demand_table``.  The
            planner's test oracle is
            :func:`repro.simulation.legacy.reference_maps_plan`.
    """

    name = "MAPS"

    def __init__(
        self,
        base_price: float,
        p_min: float = 1.0,
        p_max: float = 5.0,
        alpha: float = 0.5,
        warm_start: Optional[BasePricingResult] = None,
        change_detection: bool = True,
        change_window: int = 60,
        demand_table: DemandTableFn = ucb_demand_table,
    ) -> None:
        if p_min <= 0 or p_max < p_min:
            raise ValueError("need 0 < p_min <= p_max")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.alpha = float(alpha)
        self.base_price = self.clamp_price(base_price, self.p_min, self.p_max)
        self._ladder = price_ladder(self.p_min, self.p_max, self.alpha)
        self._ladder_array = np.asarray(self._ladder, dtype=np.float64)
        self._planner = MAPSPlanner(
            base_price=self.base_price,
            p_min=self.p_min,
            p_max=self.p_max,
            demand_table=demand_table,
        )
        self._warm_start = warm_start
        self._change_detection = bool(change_detection)
        self._change_window = int(change_window)
        self._estimators: Dict[int, GridAcceptanceEstimator] = {}
        self._detectors: Dict[int, BinomialChangeDetector] = {}
        self._last_plan: Optional[MAPSPlan] = None
        self._apply_warm_start()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_calibration(
        cls,
        calibration: BasePricingResult,
        p_min: float = 1.0,
        p_max: float = 5.0,
        alpha: float = 0.5,
        **kwargs,
    ) -> "MAPSStrategy":
        """Build MAPS directly from an Algorithm 1 calibration result."""
        return cls(
            base_price=calibration.base_price,
            p_min=p_min,
            p_max=p_max,
            alpha=alpha,
            warm_start=calibration,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # PricingStrategy interface
    # ------------------------------------------------------------------
    def price_period(self, instance: PeriodInstance) -> Dict[int, float]:
        estimators = {
            grid_index: self._estimator_for(grid_index)
            for grid_index in instance.grid_indices_with_tasks()
        }
        plan = self._planner.plan(instance, estimators)
        self._last_plan = plan
        return {
            grid_index: plan.prices[grid_index]
            for grid_index in instance.grid_indices_with_tasks()
        }

    def observe_feedback(self, feedback: Sequence[PriceFeedback]) -> None:
        for item in feedback:
            self._record_observation(item.grid_index, item.price, item.accepted)

    def observe_feedback_batch(self, batch: PriceFeedbackBatch) -> None:
        if self._item_feedback_overridden(MAPSStrategy):
            super().observe_feedback_batch(batch)
            return
        if not len(batch):
            return
        # Snap every offered price to the ladder in one array op; argmin
        # returns the first minimal index, matching the per-item
        # ``min(ladder, key=...)`` tie-breaking.
        snapped = self._ladder_array[
            np.abs(batch.prices[:, None] - self._ladder_array[None, :]).argmin(axis=1)
        ]
        for grid_index, price, accepted in zip(
            batch.grid_indices.tolist(), snapped.tolist(), batch.accepted.tolist()
        ):
            self._record_observation(grid_index, price, accepted, snap=False)

    def reset(self) -> None:
        self._estimators.clear()
        self._detectors.clear()
        self._last_plan = None
        self._apply_warm_start()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def last_plan(self) -> Optional[MAPSPlan]:
        """The :class:`MAPSPlan` produced by the most recent period."""
        return self._last_plan

    def estimator_for_grid(self, grid_index: int) -> GridAcceptanceEstimator:
        """Expose the per-grid estimator (used by tests and diagnostics)."""
        return self._estimator_for(grid_index)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply_warm_start(self) -> None:
        if self._warm_start is None:
            return
        for grid_index, calibrated in self._warm_start.estimators.items():
            estimator = GridAcceptanceEstimator(grid_index, self._ladder)
            for snapshot in calibrated.snapshots():
                price = self._snap_to_ladder(snapshot.price)
                acceptances = int(round(snapshot.sample_mean * snapshot.offers))
                if snapshot.offers > 0:
                    estimator.record_batch(price, snapshot.offers, acceptances)
            self._estimators[grid_index] = estimator

    def _record_observation(
        self, grid_index: int, price: float, accepted: bool, snap: bool = True
    ) -> None:
        estimator = self._estimator_for(grid_index)
        if snap:
            price = self._snap_to_ladder(price)
        estimator.record(price, accepted)
        if self._change_detection:
            detector = self._detectors.get(grid_index)
            if detector is None:
                detector = BinomialChangeDetector(window=self._change_window)
                self._detectors[grid_index] = detector
            if detector.observe(price, accepted):
                # Demand shift detected: forget this price's history so
                # the UCB index re-explores it.
                estimator.reset_price(price)

    def _estimator_for(self, grid_index: int) -> GridAcceptanceEstimator:
        if grid_index not in self._estimators:
            self._estimators[grid_index] = GridAcceptanceEstimator(grid_index, self._ladder)
        return self._estimators[grid_index]

    def _snap_to_ladder(self, price: float) -> float:
        return min(self._ladder, key=lambda p: abs(p - price))


__all__ = ["MAPSStrategy"]
