"""The discrete-time simulation engine.

Reproduces the batch-mode operation of the platform described in the
paper: in each one-minute period the platform observes the newly issued
tasks and the currently available workers, quotes one unit price per grid,
the requesters accept or reject according to their private valuations, and
the accepted tasks are assigned workers through a maximum-weight matching
(Definition 5), producing the period's revenue.

The per-period work itself lives in
:class:`~repro.simulation.pipeline.PeriodPipeline` (vectorised
quote → decide → match → feedback stages over the period's
struct-of-arrays view); the engine is a thin driver that owns the worker
pool dynamics and the metrics bookkeeping.  The original scalar loop is
preserved in :mod:`repro.simulation.legacy` and the regression tests
assert both produce identical metrics for fixed seeds.

Worker dynamics: a worker appears at his/her start period, stays available
until matched (or until the availability duration ``delta_w`` expires, for
workloads that set it), and leaves the system after serving one task —
matching the paper's model where serving a task removes the worker from
the local markets' supply for the rest of the horizon under consideration.
Tasks are batch-processed: a task not served in its issue period is gone
(its requester leaves the platform).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base_pricing import BasePricingConfig, BasePricingResult, run_base_pricing
from repro.core.gdp import PeriodInstance
from repro.market.entities import Worker
from repro.pricing.strategy import PricingStrategy
from repro.simulation.config import WorkloadBundle
from repro.simulation.metrics import MetricsCollector, StrategyMetrics
from repro.simulation.oracle import SimulatedProbeOracle
from repro.simulation.pipeline import PeriodPipeline
from repro.utils.rng import derive_seed


def calibrate_base_price_for_context(
    acceptance,
    price_bounds: Tuple[float, float],
    seed: int,
    grids: Sequence[int],
    config: Optional[BasePricingConfig] = None,
) -> BasePricingResult:
    """Run Algorithm 1 against a market context without a full workload.

    The streaming and sharded engines cannot pre-scan their (lazy) demand
    for grids with tasks, so they calibrate an explicit grid list — by
    default every cell — against the ground-truth acceptance models.
    Shared here so the calibration recipe cannot drift between engines;
    the seed derivation matches :meth:`SimulationEngine.calibrate_base_price`.
    """
    if not grids:
        raise ValueError("need at least one grid to calibrate")
    p_min, p_max = price_bounds
    config = config or BasePricingConfig(p_min=p_min, p_max=p_max)
    oracle = SimulatedProbeOracle(acceptance, seed=derive_seed(seed, "calibration"))
    return run_base_pricing(list(grids), oracle, config)


@dataclass
class PeriodOutcome:
    """Details of one simulated period (kept only when requested)."""

    period: int
    num_tasks: int
    num_workers: int
    prices: Dict[int, float]
    accepted_tasks: int
    served_tasks: int
    revenue: float


@dataclass
class SimulationResult:
    """Outcome of one strategy over one workload.

    Attributes:
        metrics: Aggregated revenue / time / memory metrics.
        outcomes: Per-period details (empty unless ``keep_details=True``).
        description: The workload description for reporting.
    """

    metrics: StrategyMetrics
    outcomes: List[PeriodOutcome] = field(default_factory=list)
    description: str = ""

    @property
    def total_revenue(self) -> float:
        return self.metrics.total_revenue


class SimulationEngine:
    """Runs pricing strategies over a generated workload.

    Args:
        workload: The workload bundle to simulate.
        seed: Seed for the accept/reject randomness of tasks without an
            attached valuation (tasks generated by the shipped generators
            always carry valuations, so runs are deterministic given the
            workload).
        matching_backend: Backend for the realized maximum-weight matching,
            resolved by name through :mod:`repro.matching.registry`
            (``matroid`` is exact and the default; see
            :func:`repro.matching.weighted.max_weight_matching`).
        track_memory: Enable peak-memory tracking in the metrics.
        keep_details: Store a :class:`PeriodOutcome` per period.
        max_degree: Optional cap on each task's adjacency — only its
            ``max_degree`` nearest workers enter the bipartite graph.
            ``None`` (default) keeps the exact graph, so default runs are
            bit-identical to uncapped ones.
    """

    def __init__(
        self,
        workload: WorkloadBundle,
        seed: int = 0,
        matching_backend: str = "matroid",
        track_memory: bool = False,
        keep_details: bool = False,
        max_degree: Optional[int] = None,
    ) -> None:
        workload.validate()
        self.workload = workload
        self.seed = int(seed)
        self.matching_backend = matching_backend
        self.track_memory = bool(track_memory)
        self.keep_details = bool(keep_details)
        self.max_degree = None if max_degree is None else int(max_degree)

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def calibrate_base_price(
        self,
        config: Optional[BasePricingConfig] = None,
        grids: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> BasePricingResult:
        """Run Algorithm 1 against the workload's ground-truth demand.

        Represents the historical calibration phase that precedes dynamic
        pricing.  By default every grid that has at least one task anywhere
        in the horizon is calibrated.
        """
        if grids is None:
            seen = set()
            for tasks in self.workload.tasks_by_period:
                for task in tasks:
                    seen.add(task.grid_index)
            grids = sorted(g for g in seen if g is not None)
        if not grids:
            raise ValueError("workload has no tasks; nothing to calibrate")
        p_min, p_max = self.workload.price_bounds
        # Default to the full Hoeffding probe budget of Algorithm 1.  MAPS
        # re-uses the calibration statistics as its UCB warm start, and a
        # truncated budget leaves the confidence radii so wide that MAPS
        # over-prices well-supplied grids.
        config = config or BasePricingConfig(p_min=p_min, p_max=p_max)
        oracle = SimulatedProbeOracle(
            self.workload.acceptance,
            seed=derive_seed(self.seed if seed is None else seed, "calibration"),
        )
        return run_base_pricing(grids, oracle, config)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, strategy: PricingStrategy) -> SimulationResult:
        """Simulate the full horizon with one pricing strategy.

        The strategy is ``reset()`` first, so one engine can run many
        strategies (or the same strategy repeatedly) with identical
        randomness: the accept/reject RNG stream is derived from
        ``(seed, "acceptance", strategy.name)`` only, never from wall
        clock or call order.

        Per period: newly appearing workers join the pool and expired
        ones leave; if the period has tasks, a
        :class:`~repro.core.gdp.PeriodInstance` over (period tasks,
        pooled workers) flows through the
        :class:`~repro.simulation.pipeline.PeriodPipeline` stages
        (quote → decide → match → feedback) and matched workers leave
        the pool.  Task-less periods consume no randomness and record no
        metrics row.

        Args:
            strategy: The pricing strategy to simulate.

        Returns:
            A :class:`SimulationResult`: aggregated
            :class:`~repro.simulation.metrics.StrategyMetrics` (revenue,
            stage timings, optional peak memory, served / accepted
            counts, per-period revenue series) plus per-period
            :class:`PeriodOutcome` details when ``keep_details`` is set.
            The event-driven :class:`~repro.simulation.streaming.StreamingEngine`
            returns the same result type and reproduces these metrics
            bit-identically when its stream is binned at the period
            length.
        """
        strategy.reset()
        collector = MetricsCollector(strategy.name, track_memory=self.track_memory)
        collector.start()
        rng = np.random.default_rng(derive_seed(self.seed, "acceptance", strategy.name))
        pipeline = PeriodPipeline(
            price_bounds=self.workload.price_bounds,
            acceptance=self.workload.acceptance,
            matching_backend=self.matching_backend,
        )

        outcomes: List[PeriodOutcome] = []
        available_workers: List[Worker] = []

        for period in range(self.workload.num_periods):
            available_workers.extend(self.workload.workers_by_period[period])
            # Drop workers whose availability window expired (this happens
            # for every period, including task-less ones, so the pool never
            # carries stale workers across an idle minute).
            available_workers = [
                worker for worker in available_workers if worker.available_in(period)
            ]
            tasks = self.workload.tasks_by_period[period]
            if not tasks:
                if self.keep_details:
                    outcomes.append(
                        PeriodOutcome(
                            period=period,
                            num_tasks=0,
                            num_workers=len(available_workers),
                            prices={},
                            accepted_tasks=0,
                            served_tasks=0,
                            revenue=0.0,
                        )
                    )
                continue

            instance = PeriodInstance.build(
                period=period,
                grid=self.workload.grid,
                tasks=tasks,
                workers=available_workers,
                metric=self.workload.metric,
                max_degree=self.max_degree,
            )

            result = pipeline.run_period(strategy, instance, rng, collector)

            # Matched workers leave the pool.
            matched_worker_positions = set(result.matching.values())
            available_workers = [
                worker
                for worker_pos, worker in enumerate(instance.workers)
                if worker_pos not in matched_worker_positions
            ]

            collector.record_period(
                revenue=result.revenue,
                served_tasks=result.served_tasks,
                accepted_tasks=result.accepted_tasks,
                total_tasks=len(tasks),
            )
            if self.keep_details:
                outcomes.append(
                    PeriodOutcome(
                        period=period,
                        num_tasks=len(tasks),
                        num_workers=len(instance.workers),
                        prices=result.grid_prices,
                        accepted_tasks=result.accepted_tasks,
                        served_tasks=result.served_tasks,
                        revenue=result.revenue,
                    )
                )

        metrics = collector.finish()
        return SimulationResult(
            metrics=metrics, outcomes=outcomes, description=self.workload.description
        )

    def run_many(self, strategies: Sequence[PricingStrategy]) -> Dict[str, SimulationResult]:
        """Run several strategies over the same workload (same randomness)."""
        return {strategy.name: self.run(strategy) for strategy in strategies}


__all__ = [
    "SimulationEngine",
    "SimulationResult",
    "PeriodOutcome",
    "calibrate_base_price_for_context",
]
