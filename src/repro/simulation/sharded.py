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
   decide → match — over the shard-local instance, whose graph is
   deferred so the match stage builds only the accepted tasks' rows;
3. **reconciles** across boundaries with one halo-exchange pass: accepted
   tasks left unmatched within ``halo`` cells of a shard border are
   re-offered, together with the residual (still unmatched) workers of
   the halo band, as one small reconciliation instance solved with the
   same matroid-greedy matcher.  The pass stays columnar: it gathers
   task columns and pool positions and materialises no record.  Matches
   found here recover revenue the partition's dropped cross-border edges
   would otherwise lose;
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base_pricing import BasePricingConfig, BasePricingResult
from repro.core.gdp import PeriodInstance
from repro.kernels.halo import halo_residual_workers, halo_task_candidates
from repro.matching.weighted import _check_backend, max_weight_matching
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
    #: Period positions of the shard's tasks (the local task position
    #: ``i`` is period position ``task_positions[i]``; ``None`` in a
    #: one-shard run, whose one shard holds every task and which has no
    #: halo pass).
    task_positions: Optional[np.ndarray]
    #: Pool positions of the shard's workers (the local worker position
    #: ``i`` is pool position ``worker_positions[i]``).
    worker_positions: np.ndarray
    #: Task positions matched by the halo-exchange pass (local positions).
    halo_served: List[int] = field(default_factory=list)
    #: Worker positions taken from this shard by the halo-exchange pass.
    halo_taken: List[int] = field(default_factory=list)


def _group_by_shard(
    shards: np.ndarray, num_shards: int
) -> Tuple[np.ndarray, List[int]]:
    """Positions grouped by shard, ascending within each, and the bounds.

    Shard ``s`` owns ``order[bounds[s]:bounds[s + 1]]`` (one stable sort
    instead of one mask per shard).
    """
    order = np.argsort(shards, kind="stable")
    bounds = np.searchsorted(shards[order], np.arange(num_shards + 1))
    return order, bounds.tolist()


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
        matching_backend: Must be ``"matroid"``, the one matcher of both
            the shard-local and the reconciliation matchings; any other
            name raises :class:`ValueError`.  It selects nothing.
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
        _check_backend(matching_backend)
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
            dispatches, leftover, leftover_cells = self._dispatch_shards(
                period, task_cols, pool, strategy, rng, pipeline, collector
            )

            halo_revenue = 0.0
            if self.num_shards > 1 and self.halo > 0:
                with collector.time_matching():
                    halo_revenue, leftover = self._reconcile_halo(
                        period, task_cols, pool, dispatches, leftover, leftover_cells
                    )

            for dispatch in dispatches:
                served_map = dispatch.matching
                if dispatch.halo_served:
                    served_map = dict(served_map)
                    served_map.update(dict.fromkeys(dispatch.halo_served, _HALO_SERVED))
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
                taken = [*dispatch.matching.values(), *dispatch.halo_taken]
                positions = dispatch.worker_positions
                if taken:
                    keep_mask = np.ones(positions.shape[0], dtype=bool)
                    keep_mask[taken] = False
                    kept.append(positions[keep_mask])
                else:
                    kept.append(positions)
            if leftover.size:
                kept.append(leftover)
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
    ) -> Tuple[List[_ShardDispatch], np.ndarray, np.ndarray]:
        """Columnar quote → decide → match over every shard with tasks.

        The partition is pure array work: tasks split by their (already
        annotated) cells, pool workers by one vectorised ``locate_many``.
        Returns the dispatch states plus the pool positions and cells of
        the workers whose shard had no tasks this period (the leftover).
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
            # The one shard holds every task and worker as they are.
            sorted_cols = task_cols
            task_order = None
            task_bounds = [0, len(task_cols)]
            worker_order = np.arange(num_workers, dtype=np.int64)
            worker_bounds = [0, num_workers]
        else:
            # Group each side by shard once; a shard's tasks are then a
            # contiguous slice of the shard-sorted columns.
            task_order, task_bounds = _group_by_shard(
                self.tiling.shards_of_cells(task_cols.cells), num_shards
            )
            sorted_cols = task_cols.take(task_order)
            worker_order, worker_bounds = _group_by_shard(
                self.tiling.shards_of_cells(worker_cells), num_shards
            )

        dispatches: List[_ShardDispatch] = []
        leftover_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        for shard in range(num_shards):
            worker_positions = worker_order[
                worker_bounds[shard] : worker_bounds[shard + 1]
            ]
            start, stop = task_bounds[shard], task_bounds[shard + 1]
            if start == stop:
                leftover_parts.append(worker_positions)
                continue
            shard_cols = sorted_cols.take(slice(start, stop))
            task_positions = None if task_order is None else task_order[start:stop]
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
                build_graph=False,
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
                    task_positions=task_positions,
                    worker_positions=worker_positions,
                )
            )
        leftover = np.concatenate(leftover_parts)
        return dispatches, leftover, worker_cells[leftover]

    def _reconcile_halo(
        self,
        period: int,
        task_cols,
        pool,
        dispatches: List[_ShardDispatch],
        leftover: np.ndarray,
        leftover_cells: np.ndarray,
    ) -> Tuple[float, np.ndarray]:
        """One halo-exchange pass over the boundary band.

        Accepted-but-unmatched tasks in halo cells are re-offered to the
        residual workers of the halo band (of *any* shard — a worker just
        across the border is the common case; an own-shard worker freed
        differently by the reconciliation matching is a harmless bonus).
        Mutates the dispatch states (``halo_served`` / ``halo_taken``) and
        returns the recovered revenue plus the pool positions of the
        leftover workers that remain unmatched.

        The pass is columnar: candidate tasks are gathered from the
        period's ``task_cols`` by position and workers as pool positions,
        so the reconciliation instance reads coordinate slices and
        materialises no ``Task`` or ``Worker`` record.
        """
        boundary = self._boundary
        task_positions: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        task_refs: List[Tuple[int, int]] = []
        for dispatch_pos, dispatch in enumerate(dispatches):
            arrays = dispatch.instance.ensure_arrays()
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
            task_positions.append(dispatch.task_positions[candidates])
            weights.append(
                arrays.distances[candidates] * dispatch.decision.prices[candidates]
            )
            task_refs.extend((dispatch_pos, pos) for pos in candidates.tolist())
        if not task_refs:
            return 0.0, leftover

        pool_positions: List[np.ndarray] = []
        worker_cells: List[np.ndarray] = []
        worker_refs: List[Tuple[int, int]] = []
        for dispatch_pos, dispatch in enumerate(dispatches):
            worker_grids = dispatch.instance.ensure_arrays().worker_grids
            residual = halo_residual_workers(dispatch.matching, worker_grids, boundary)
            pool_positions.append(dispatch.worker_positions[residual])
            worker_cells.append(worker_grids[residual])
            worker_refs.extend((dispatch_pos, pos) for pos in residual.tolist())
        # Leftover workers belong to no dispatch (owner -1); their
        # position is their index into ``leftover``.
        in_band = np.flatnonzero(boundary[leftover_cells - 1])
        pool_positions.append(leftover[in_band])
        worker_cells.append(leftover_cells[in_band])
        worker_refs.extend((-1, index) for index in in_band.tolist())
        if not worker_refs:
            return 0.0, leftover

        positions = np.concatenate(pool_positions)
        columns = pool.columns
        instance = PeriodInstance.from_columns(
            period=period,
            grid=self.workload.grid,
            task_columns=task_cols.take(np.concatenate(task_positions)),
            workers=pool.view(positions),
            metric=self.workload.metric,
            max_degree=self.max_degree,
            worker_grids=np.concatenate(worker_cells),
            worker_x=columns.xs[positions],
            worker_y=columns.ys[positions],
            worker_radii=columns.radii[positions],
        )
        matching, revenue = max_weight_matching(instance.graph, np.concatenate(weights))
        leftover_taken: List[int] = []
        for reconcile_task, reconcile_worker in matching.items():
            dispatch_pos, task_pos = task_refs[reconcile_task]
            dispatches[dispatch_pos].halo_served.append(task_pos)
            owner, worker_pos = worker_refs[reconcile_worker]
            if owner >= 0:
                dispatches[owner].halo_taken.append(worker_pos)
            else:
                leftover_taken.append(worker_pos)
        return revenue, np.delete(leftover, leftover_taken)


__all__ = ["ShardedEngine", "ShardableWorkload"]
