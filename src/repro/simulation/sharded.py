"""The batch period loop, optionally sharded for city-scale workloads.

One global bipartite problem per period caps the batch solve at tens of
thousands of tasks: augmenting paths wander across the whole city, and
the per-period graph grows with the full worker pool.  Most task–worker
edges are spatially local, though — a courier three districts away is
outside every nearby task's service radius — so the grid can be
partitioned into rectangular shards (:class:`~repro.spatial.grid.GridTiling`)
that quote, decide and match *independently*, reconciling only at shard
boundaries.

Per period the :class:`ShardedEngine`:

1. **partitions** the period's tasks and the live worker pool by shard
   (a task belongs to the shard owning its origin cell, a worker to the
   shard owning its location cell);
2. **dispatches** each shard with tasks through the
   :class:`~repro.simulation.pipeline.PeriodPipeline` stages — quote →
   decide → match — over the shard-local instance;
3. **reconciles** across boundaries with one halo-exchange pass: accepted
   tasks left unmatched within ``halo`` cells of a shard border are
   re-offered, together with the residual (still unmatched) workers of
   the halo band, as one small reconciliation instance solved with the
   same matching backend.  Matches found here recover revenue the
   partition's dropped cross-border edges would otherwise lose;
4. **feeds back** one batch per shard (halo-served tasks included) and
   lets matched workers leave the pool.

**One batch loop.**  With ``num_shards=1`` the single shard *is* the
global problem, and that configuration is the batch engine:
:class:`~repro.simulation.engine.SimulationEngine` is this class with one
shard.  ``tests/simulation/test_sharded.py`` holds it to the seed loop
(:func:`repro.simulation.legacy.run_reference`) and to the binned
streaming engine across all five pricing strategies.  With
``num_shards>1`` the solve is a restriction of the global edge set, so
per-period revenue can only be lost at boundaries; the tests bound the
total-revenue gap on every registered scenario.

**Consistency trade-off.**  Shards never see each other's supply inside a
period: a boundary task may go unserved even though an adjacent shard had
a reachable idle worker, unless the halo pass catches it.  Larger
``halo`` values recover more of those matches at the cost of a larger
reconciliation instance; ``halo=0`` disables reconciliation entirely.
See ``docs/sharding.md`` for the full design discussion.

**One data plane.**  Every workload runs through the same columnar
shard loop: period chunks stay struct-of-arrays end to end (see
:mod:`repro.simulation.arena`) and ``Task``/``Worker`` records
materialise lazily.  A :class:`~repro.simulation.config.WorkloadBundle`
or a :class:`~repro.simulation.config.ChunkedWorkload` without native
columns feeds the loop through its ``iter_period_columns()``
conversion.

**One process.**  Shards are dispatched in-process, one after another:
the halo pass at period *t* decides which workers stay in the pool at
*t+1* and what each shard's strategy is fed back, so shards in separate
processes would need a barrier every period (``docs/performance.md``
gives the measured case).  Runs parallelise across processes through
:class:`~repro.experiments.parallel.ParallelRunner` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base_pricing import BasePricingConfig, BasePricingResult
from repro.core.gdp import PeriodInstance
from repro.kernels.halo import halo_residual_workers, halo_task_candidates
from repro.market.entities import Task, Worker
from repro.matching.weighted import max_weight_matching
from repro.pricing.strategy import PricingStrategy
from repro.simulation.config import ChunkedWorkload, WorkloadBundle
from repro.simulation.metrics import MetricsCollector
from repro.simulation.oracle import calibrate_base_price_for_context
from repro.simulation.pipeline import DecideResult, PeriodPipeline
from repro.simulation.results import PeriodOutcome, SimulationResult
from repro.spatial.grid import GridTiling
from repro.spatial.index import checked_degree_cap
from repro.utils.rng import derive_seed

#: Workload types the engine consumes interchangeably.
ShardableWorkload = Union[WorkloadBundle, ChunkedWorkload]

#: Sentinel worker position marking a task served by the halo pass in the
#: served-map handed to the feedback stage (only the keys are read there).
_HALO_SERVED = -1


@dataclass
class _ShardDispatch:
    """Working state of one shard for one period."""

    shard: int
    instance: PeriodInstance
    grid_prices: Dict[int, float]
    decision: DecideResult
    matching: Dict[int, int]
    revenue: float
    #: Pool positions of the shard's workers (the local worker position
    #: ``i`` is pool position ``worker_positions[i]``).
    worker_positions: np.ndarray
    #: Task positions matched by the halo-exchange pass (local positions).
    halo_served: List[int] = field(default_factory=list)
    #: Worker positions taken from this shard by the halo-exchange pass.
    halo_taken: List[int] = field(default_factory=list)


class ShardedEngine:
    """Runs pricing strategies over a spatially sharded workload.

    One run is one in-process period loop over every shard (see the
    module docstring's "One process").

    Args:
        workload: A :class:`WorkloadBundle` or lazily generated
            :class:`ChunkedWorkload` to simulate.
        num_shards: Number of rectangular shards the grid is tiled into
            (``1``, the default, is the global batch solve).
        halo: Width, in grid cells, of the boundary band taking part in
            the halo-exchange reconciliation pass (``0`` disables it).
        seed: Accept/reject randomness seed; the stream is derived from
            ``(seed, "acceptance", strategy.name)`` and consumed in shard
            order within each period (fully deterministic).
        matching_backend: Matching backend for both the shard-local and
            the reconciliation matchings, resolved by name through
            :mod:`repro.matching.registry`.
        track_memory: Enable peak-memory tracking in the metrics.
        keep_details: Store a :class:`PeriodOutcome` per period (shard
            results merged).
        max_degree: Optional per-task adjacency cap (nearest workers
            only), applied to shard-local instances *and* the halo
            reconciliation instance.  ``None`` keeps the exact graphs;
            a cap below one raises :class:`ValueError`.
    """

    def __init__(
        self,
        workload: ShardableWorkload,
        num_shards: int = 1,
        halo: int = 1,
        seed: int = 0,
        matching_backend: str = "matroid",
        track_memory: bool = False,
        keep_details: bool = False,
        max_degree: Optional[int] = None,
    ) -> None:
        workload.validate()
        if halo < 0:
            raise ValueError("halo must be non-negative")
        self.workload = workload
        self.tiling = GridTiling(workload.grid, num_shards)
        self.halo = int(halo)
        self.seed = int(seed)
        self.matching_backend = matching_backend
        self.track_memory = bool(track_memory)
        self.keep_details = bool(keep_details)
        self.max_degree = checked_degree_cap(max_degree)
        # Boolean mask over 0-based cell positions of the halo band.
        self._boundary = self.tiling.boundary_cells(self.halo)

    @property
    def num_shards(self) -> int:
        return self.tiling.num_shards

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

        A bundle calibrates the grids that have at least one task anywhere
        in the horizon (:meth:`WorkloadBundle.demand_grids`).  A chunked
        workload would need a full generation pass just to find them, so
        it calibrates every grid cell instead.  Both run the shared
        :func:`~repro.simulation.oracle.calibrate_base_price_for_context`
        the streaming engine uses.
        """
        if grids is None:
            if isinstance(self.workload, WorkloadBundle):
                grids = self.workload.demand_grids()
            else:
                grids = [cell.index for cell in self.workload.grid.cells()]
        return calibrate_base_price_for_context(
            acceptance=self.workload.acceptance,
            price_bounds=self.workload.price_bounds,
            seed=self.seed if seed is None else seed,
            grids=grids,
            config=config,
        )

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, strategy: PricingStrategy) -> SimulationResult:
        """Simulate the full horizon with one pricing strategy.

        The strategy is ``reset()`` first, so one engine can run many
        strategies (or the same strategy repeatedly) with identical
        randomness.  Dispatch order inside a period is deterministic
        (ascending shard id), so fixed seeds always reproduce the same
        run.  Task-less periods consume no randomness and record no
        metrics row.

        Per period: the pool absorbs arrivals and drops expired workers,
        every shard with tasks runs quote → decide → match (ascending
        shard id, one shared RNG stream), the halo pass reconciles the
        boundary band, then each shard feeds back and matched workers
        leave the pool.  Tasks and the worker pool stay struct-of-arrays
        (:mod:`repro.simulation.arena`) and records materialise lazily,
        so the per-period cost scales with the array ops rather than with
        Python object churn.

        Returns:
            A :class:`SimulationResult`: aggregated
            :class:`~repro.simulation.metrics.StrategyMetrics` (revenue,
            stage timings, optional peak memory, served / accepted
            counts, per-period revenue series) plus per-period
            :class:`PeriodOutcome` details when ``keep_details`` is set.
        """
        from repro.simulation.arena import ColumnarWorkerPool

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
        pool = ColumnarWorkerPool()

        for period, (task_cols, worker_cols) in enumerate(
            self.workload.iter_period_columns()
        ):
            pool.extend(worker_cols)
            pool.retain_available(period)
            if not len(task_cols):
                if self.keep_details:
                    outcomes.append(
                        PeriodOutcome(
                            period=period,
                            num_tasks=0,
                            num_workers=len(pool),
                            prices={},
                            accepted_tasks=0,
                            served_tasks=0,
                            revenue=0.0,
                        )
                    )
                continue

            num_workers = len(pool)
            dispatches, leftover = self._dispatch_shards(
                period, task_cols, pool, strategy, rng, pipeline, collector
            )

            halo_revenue = 0.0
            if self.num_shards > 1 and self.halo > 0:
                with collector.time_matching():
                    halo_revenue, leftover = self._reconcile_halo(
                        period, dispatches, leftover, pool.worker
                    )

            for dispatch in dispatches:
                served_map = dict(dispatch.matching)
                for task_pos in dispatch.halo_served:
                    served_map[task_pos] = _HALO_SERVED
                with collector.time_decide():
                    batch = pipeline.feedback(
                        dispatch.instance, dispatch.decision, served_map
                    )
                with collector.time_pricing():
                    strategy.observe_feedback_batch(batch)

            # Matched workers (local and halo) leave the pool; survivors
            # keep shard order, then the leftover workers.
            kept: List[np.ndarray] = []
            for dispatch in dispatches:
                taken = set(dispatch.matching.values())
                taken.update(dispatch.halo_taken)
                positions = dispatch.worker_positions
                if taken:
                    keep_mask = np.ones(positions.shape[0], dtype=bool)
                    keep_mask[np.fromiter(taken, dtype=np.int64, count=len(taken))] = False
                    kept.append(positions[keep_mask])
                else:
                    kept.append(positions)
            if leftover:
                kept.append(
                    np.fromiter(
                        (pos for pos, _cell in leftover),
                        dtype=np.int64,
                        count=len(leftover),
                    )
                )
            pool.retain(
                np.concatenate(kept) if kept else np.zeros(0, dtype=np.int64)
            )

            revenue = 0.0
            served = 0
            accepted = 0
            for dispatch in dispatches:
                revenue += dispatch.revenue
                served += len(dispatch.matching) + len(dispatch.halo_served)
                accepted += int(dispatch.decision.accepted.sum())
            revenue += halo_revenue

            collector.record_period(
                revenue=revenue,
                served_tasks=served,
                accepted_tasks=accepted,
                total_tasks=len(task_cols),
            )
            if self.keep_details:
                prices: Dict[int, float] = {}
                for dispatch in dispatches:
                    prices.update(dispatch.grid_prices)
                outcomes.append(
                    PeriodOutcome(
                        period=period,
                        num_tasks=len(task_cols),
                        num_workers=num_workers,
                        prices=prices,
                        accepted_tasks=accepted,
                        served_tasks=served,
                        revenue=revenue,
                    )
                )

        metrics = collector.finish()
        return SimulationResult(
            metrics=metrics, outcomes=outcomes, description=self.workload.description
        )

    def run_many(self, strategies: Sequence[PricingStrategy]) -> Dict[str, SimulationResult]:
        """Run several strategies over the same workload (same randomness)."""
        return {strategy.name: self.run(strategy) for strategy in strategies}

    def _dispatch_shards(
        self,
        period: int,
        task_cols,
        pool,
        strategy: PricingStrategy,
        rng: np.random.Generator,
        pipeline: PeriodPipeline,
        collector: MetricsCollector,
    ) -> Tuple[List[_ShardDispatch], List[Tuple[int, int]]]:
        """Columnar quote → decide → match over every shard with tasks.

        The partition is pure array work: tasks split by their (already
        annotated) cells, pool workers by one vectorised ``locate_many``.
        Returns the dispatch states plus ``(pool_position, cell)`` pairs
        of workers whose shard had no tasks this period.
        """
        grid = self.workload.grid
        num_shards = self.num_shards
        num_workers = len(pool)
        columns = pool.columns
        if num_workers:
            worker_cells = grid.locate_many(columns.xs, columns.ys)
        else:
            worker_cells = np.zeros(0, dtype=np.int64)

        if num_shards == 1:
            shard_task_positions: Dict[int, Optional[np.ndarray]] = {0: None}
            shard_worker_positions = {0: np.arange(num_workers, dtype=np.int64)}
        else:
            task_shards = self.tiling.shards_of_cells(task_cols.cells)
            shard_task_positions = {
                shard: np.flatnonzero(task_shards == shard)
                for shard in np.unique(task_shards).tolist()
            }
            shard_worker_positions = {}
            if num_workers:
                worker_shards = self.tiling.shards_of_cells(worker_cells)
                shard_worker_positions = {
                    shard: np.flatnonzero(worker_shards == shard)
                    for shard in np.unique(worker_shards).tolist()
                }

        dispatches: List[_ShardDispatch] = []
        leftover: List[Tuple[int, int]] = []
        for shard in range(num_shards):
            worker_positions = shard_worker_positions.get(
                shard, np.zeros(0, dtype=np.int64)
            )
            if shard not in shard_task_positions:
                for pool_pos in worker_positions.tolist():
                    leftover.append((pool_pos, int(worker_cells[pool_pos])))
                continue
            task_positions = shard_task_positions[shard]
            shard_cols = (
                task_cols if task_positions is None else task_cols.take(task_positions)
            )
            instance = PeriodInstance.from_columns(
                period=period,
                grid=grid,
                task_columns=shard_cols,
                workers=pool.view(worker_positions),
                metric=self.workload.metric,
                max_degree=self.max_degree,
                worker_grids=worker_cells[worker_positions],
                worker_x=columns.xs[worker_positions],
                worker_y=columns.ys[worker_positions],
                worker_radii=columns.radii[worker_positions],
            )
            with collector.time_pricing():
                grid_prices = pipeline.quote(strategy, instance)
            with collector.time_decide():
                decision = pipeline.decide(instance, grid_prices, rng)
            with collector.time_matching():
                matching, revenue = pipeline.match(instance, decision)
            dispatches.append(
                _ShardDispatch(
                    shard=shard,
                    instance=instance,
                    grid_prices=dict(grid_prices),
                    decision=decision,
                    matching=matching,
                    revenue=revenue,
                    worker_positions=worker_positions,
                )
            )
        return dispatches, leftover

    def _reconcile_halo(
        self,
        period: int,
        dispatches: List[_ShardDispatch],
        leftover: List[Tuple[int, int]],
        worker_of: Callable[[int], Worker],
    ) -> Tuple[float, List[Tuple[int, int]]]:
        """One halo-exchange pass over the boundary band.

        Accepted-but-unmatched tasks in halo cells are re-offered to the
        residual workers of the halo band (of *any* shard — a worker just
        across the border is the common case; an own-shard worker freed
        differently by the reconciliation matching is a harmless bonus).
        Mutates the dispatch states (``halo_served`` / ``halo_taken``) and
        returns the recovered revenue plus the leftover workers that
        remain unmatched.

        ``leftover`` pairs are ``(pool_position, cell)``; ``worker_of``
        resolves a pool position to its record on demand.
        """
        boundary = self._boundary
        tasks: List[Task] = []
        task_refs: List[Tuple[int, int]] = []
        weights: List[float] = []
        for dispatch_pos, dispatch in enumerate(dispatches):
            arrays = dispatch.instance.ensure_arrays()
            prices = dispatch.decision.prices
            distances = arrays.distances
            # Accepted-but-unmatched boundary tasks, ascending — selected
            # by the halo kernel.
            candidates = halo_task_candidates(
                dispatch.decision.accepted_positions,
                dispatch.matching,
                arrays.task_grids,
                boundary,
            )
            if not candidates.size:
                continue
            instance_tasks = dispatch.instance.tasks
            for task_pos in candidates.tolist():
                tasks.append(instance_tasks[task_pos])
                task_refs.append((dispatch_pos, task_pos))
                weights.append(float(distances[task_pos] * prices[task_pos]))
        if not tasks:
            return 0.0, leftover

        workers: List[Worker] = []
        worker_refs: List[Tuple[int, int]] = []
        for dispatch_pos, dispatch in enumerate(dispatches):
            residual = halo_residual_workers(
                dispatch.matching,
                dispatch.instance.ensure_arrays().worker_grids,
                boundary,
            )
            # Index rather than iterate: lazy columnar views then only
            # materialise the residual boundary workers actually appended.
            instance_workers = dispatch.instance.workers
            for worker_pos in residual.tolist():
                workers.append(instance_workers[worker_pos])
                worker_refs.append((dispatch_pos, worker_pos))
        leftover_taken: set = set()
        for leftover_pos, (pool_pos, cell) in enumerate(leftover):
            if boundary[cell - 1]:
                workers.append(worker_of(pool_pos))
                worker_refs.append((-1, leftover_pos))
        if not workers:
            return 0.0, leftover

        instance = PeriodInstance.build(
            period=period,
            grid=self.workload.grid,
            tasks=tasks,
            workers=workers,
            metric=self.workload.metric,
            max_degree=self.max_degree,
        )
        matching, revenue = max_weight_matching(
            instance.graph, weights, backend=self.matching_backend
        )
        for reconcile_task, reconcile_worker in matching.items():
            dispatch_pos, task_pos = task_refs[reconcile_task]
            dispatches[dispatch_pos].halo_served.append(task_pos)
            owner, worker_pos = worker_refs[reconcile_worker]
            if owner >= 0:
                dispatches[owner].halo_taken.append(worker_pos)
            else:
                leftover_taken.add(worker_pos)
        remaining = [
            pair for pos, pair in enumerate(leftover) if pos not in leftover_taken
        ]
        return revenue, remaining


__all__ = ["ShardedEngine", "ShardableWorkload"]
