"""The discrete-time simulation engine.

Reproduces the batch-mode operation of the platform described in the
paper: in each one-minute period the platform observes the newly issued
tasks and the currently available workers, quotes one unit price per grid,
the requesters accept or reject according to their private valuations, and
the accepted tasks are assigned workers through a maximum-weight matching
(Definition 5), producing the period's revenue.

:class:`SimulationEngine` is the one-shard configuration of
:class:`~repro.simulation.sharded.ShardedEngine`: with a single shard the
sharded period loop solves the global problem, so there is one batch
period loop in the package.  The per-period work lives in
:class:`~repro.simulation.pipeline.PeriodPipeline` (quote → decide →
match → feedback over the period's struct-of-arrays view).  The original
scalar loop is preserved in :mod:`repro.simulation.legacy` as a test
oracle, and the regression tests assert both produce identical metrics
for fixed seeds.

Worker dynamics: a worker appears at his/her start period, stays available
until matched (or until the availability duration ``delta_w`` expires, for
workloads that set it), and leaves the system after serving one task —
matching the paper's model where serving a task removes the worker from
the local markets' supply for the rest of the horizon under consideration.
Tasks are batch-processed: a task not served in its issue period is gone
(its requester leaves the platform).
"""

from __future__ import annotations

from typing import Optional

from repro.simulation.config import WorkloadBundle
from repro.simulation.oracle import calibrate_base_price_for_context
from repro.simulation.results import PeriodOutcome, SimulationResult
from repro.simulation.sharded import ShardedEngine


class SimulationEngine(ShardedEngine):
    """Runs pricing strategies over a generated workload.

    A :class:`~repro.simulation.sharded.ShardedEngine` with one shard:
    :meth:`run` simulates the horizon period by period and
    :meth:`calibrate_base_price` runs Algorithm 1 over the grids that see
    demand.

    Args:
        workload: The workload bundle to simulate.
        seed: Seed for the accept/reject randomness of tasks without an
            attached valuation (tasks generated by the shipped generators
            always carry valuations, so runs are deterministic given the
            workload).  The stream is derived from ``(seed, "acceptance",
            strategy.name)`` only, so one engine can run many strategies
            with identical randomness.
        track_memory: Enable peak-memory tracking in the metrics.
        keep_details: Store a :class:`PeriodOutcome` per period.
        max_degree: Optional cap on each task's adjacency — only its
            ``max_degree`` nearest workers enter the bipartite graph.
            ``None`` (default) keeps the exact graph; a cap below one
            raises :class:`ValueError`.
    """

    def __init__(
        self,
        workload: WorkloadBundle,
        seed: int = 0,
        track_memory: bool = False,
        keep_details: bool = False,
        max_degree: Optional[int] = None,
    ) -> None:
        super().__init__(
            workload,
            seed=seed,
            track_memory=track_memory,
            keep_details=keep_details,
            max_degree=max_degree,
        )


__all__ = [
    "SimulationEngine",
    "SimulationResult",
    "PeriodOutcome",
    "calibrate_base_price_for_context",
]
