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

**Process-per-shard execution.**  For multi-core hosts,
``shard_jobs > 1`` splits the workload's columns spatially up front —
bundles and chunked workloads alike — and runs each shard's *entire
horizon* in its own process (each with its own strategy replica),
merging metrics at the end.  This requires ``halo=0`` — processes
cannot reconcile boundaries mid-period — and is exact for the shipped
strategies, whose learned state is keyed by grid cell and therefore
never crosses shard borders.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
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
from repro.simulation.metrics import MetricsCollector, StrategyMetrics
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


@dataclass(frozen=True)
class _ArenaShardJob:
    """Everything one shard worker process needs besides the strategy.

    The heavy payload — every period's task/worker columns — lives in the
    shared-memory arena; this record carries only the picklable handle
    plus the small market context, so submitting a job moves kilobytes
    through the queue however large the horizon is.
    """

    handle: "WorkloadArenaHandle"
    shard: int
    grid: object
    acceptance: object
    metric: str
    price_bounds: Tuple[float, float]
    description: str
    num_periods: int
    seed: int
    matching_backend: str
    track_memory: bool
    max_degree: Optional[int]


def _execute_shard_horizon_arena(
    job: _ArenaShardJob, strategy: PricingStrategy
) -> SimulationResult:
    """Attach to the arena by handle and run one shard's horizon.

    Top-level (picklable) worker of the zero-copy process-per-shard
    mode.  The attach maps the owner's segment read-only; the worker
    never unlinks it (see :mod:`repro.utils.shm`'s ownership protocol),
    so a crashing worker cannot leak ``/dev/shm`` segments.
    """
    from repro.simulation.arena import WorkloadArena

    arena = WorkloadArena.attach(job.handle)
    try:
        workload = ChunkedWorkload(
            grid=job.grid,
            periods=lambda: (
                (task_cols.to_tasks(), worker_cols.to_workers())
                for task_cols, worker_cols in arena.iter_shard(job.shard)
            ),
            column_periods=lambda: arena.iter_shard(job.shard),
            num_periods=job.num_periods,
            acceptance=job.acceptance,
            metric=job.metric,
            price_bounds=job.price_bounds,
            description=f"{job.description} [shard {job.shard}]",
        )
        engine = ShardedEngine(
            workload,
            num_shards=1,
            halo=0,
            seed=job.seed,
            matching_backend=job.matching_backend,
            track_memory=job.track_memory,
            keep_details=True,
            max_degree=job.max_degree,
        )
        return engine.run(strategy)
    finally:
        arena.close()


class ShardedEngine:
    """Runs pricing strategies over a spatially sharded workload.

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
        shard_jobs: Worker processes for process-per-shard execution
            (``1`` = sequential in-process shards).  Requires ``halo=0``
            and takes effect with ``num_shards > 1``, for bundles and
            chunked workloads alike; see the module docstring.
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
        shard_jobs: int = 1,
        max_degree: Optional[int] = None,
    ) -> None:
        workload.validate()
        if halo < 0:
            raise ValueError("halo must be non-negative")
        if shard_jobs < 1:
            raise ValueError("shard_jobs must be >= 1")
        self.workload = workload
        self.tiling = GridTiling(workload.grid, num_shards)
        self.halo = int(halo)
        self.seed = int(seed)
        self.matching_backend = matching_backend
        self.track_memory = bool(track_memory)
        self.keep_details = bool(keep_details)
        self.shard_jobs = int(shard_jobs)
        self.max_degree = checked_degree_cap(max_degree)
        if self.shard_jobs > 1 and self.num_shards > 1:
            if self.halo > 0:
                raise ValueError(
                    "process-per-shard execution cannot reconcile halo "
                    "boundaries; construct with halo=0"
                )
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

        Returns:
            A :class:`SimulationResult`: aggregated
            :class:`~repro.simulation.metrics.StrategyMetrics` (revenue,
            stage timings, optional peak memory, served / accepted
            counts, per-period revenue series) plus per-period
            :class:`PeriodOutcome` details when ``keep_details`` is set.
        """
        if self.shard_jobs > 1 and self.num_shards > 1:
            return self._run_process_per_shard(strategy)
        return self._run_columnar(strategy)

    def run_many(self, strategies: Sequence[PricingStrategy]) -> Dict[str, SimulationResult]:
        """Run several strategies over the same workload (same randomness)."""
        return {strategy.name: self.run(strategy) for strategy in strategies}

    # ------------------------------------------------------------------
    # columnar shard loop (zero-copy data plane)
    # ------------------------------------------------------------------
    def _run_columnar(self, strategy: PricingStrategy) -> SimulationResult:
        """The in-process shard loop over columnar period chunks.

        Per period: the pool absorbs arrivals and drops expired workers,
        every shard with tasks runs quote → decide → match (ascending
        shard id, one shared RNG stream), the halo pass reconciles the
        boundary band, then each shard feeds back and matched workers
        leave the pool.  Tasks and the worker pool stay struct-of-arrays
        (:mod:`repro.simulation.arena`) and records materialise lazily,
        so the per-period cost scales with the array ops rather than with
        Python object churn.
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

    # ------------------------------------------------------------------
    # process-per-shard execution (zero-copy)
    # ------------------------------------------------------------------
    def _split_columns(self):
        """Partition the horizon's columns spatially, one chunk list per shard."""
        from repro.simulation.arena import TaskColumns, WorkerColumns

        grid = self.workload.grid
        num_shards = self.num_shards
        chunks: Dict[int, List[Tuple[TaskColumns, WorkerColumns]]] = {
            shard: [] for shard in range(num_shards)
        }
        empty = np.zeros(0, dtype=np.int64)
        for task_cols, worker_cols in self.workload.iter_period_columns():
            task_shards = (
                self.tiling.shards_of_cells(task_cols.cells)
                if len(task_cols)
                else empty
            )
            if len(worker_cols):
                worker_cells = grid.locate_many(worker_cols.xs, worker_cols.ys)
                worker_shards = self.tiling.shards_of_cells(worker_cells)
            else:
                worker_shards = empty
            for shard in range(num_shards):
                chunks[shard].append(
                    (
                        task_cols.take(np.flatnonzero(task_shards == shard)),
                        worker_cols.take(np.flatnonzero(worker_shards == shard)),
                    )
                )
        return chunks

    def _run_process_per_shard(self, strategy: PricingStrategy) -> SimulationResult:
        """Run each shard's full horizon in its own process and merge.

        The split horizon is materialised **once** into a shared-memory
        :class:`~repro.simulation.arena.WorkloadArena`; each worker
        process receives a kilobyte-sized :class:`_ArenaShardJob` handle
        and maps its shard's columns zero-copy instead of unpickling a
        per-shard workload.  Every process gets its own strategy replica.
        This is exact for the shipped strategies (learned state is
        grid-keyed and grids never cross shards) whenever every task
        carries a private valuation; valuationless tasks draw from
        per-shard RNG streams, so their runs are statistically — not
        bitwise — equivalent to the in-process shard loop.  Hosts that
        cannot start process pools fall back to running the same
        per-shard horizons sequentially in-process (against the same
        arena), producing identical results.  The arena segment is
        unlinked before returning — worker crashes cannot leak it, since
        workers only ever attach.
        """
        from repro.simulation.arena import WorkloadArena

        arena = WorkloadArena.create(self._split_columns())
        try:
            jobs = [
                _ArenaShardJob(
                    handle=arena.handle,
                    shard=shard,
                    grid=self.workload.grid,
                    acceptance=self.workload.acceptance,
                    metric=self.workload.metric,
                    price_bounds=self.workload.price_bounds,
                    description=self.workload.description,
                    num_periods=self.workload.num_periods,
                    seed=derive_seed(self.seed, "shard", shard),
                    matching_backend=self.matching_backend,
                    track_memory=self.track_memory,
                    max_degree=self.max_degree,
                )
                for shard in range(self.num_shards)
            ]
            results: Optional[List[SimulationResult]] = None
            try:
                pickle.dumps(strategy)
                pickle.dumps(jobs[0])
            except Exception as error:
                warnings.warn(
                    f"ShardedEngine: job payload is not picklable ({error!r}); "
                    "running all shards sequentially in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                try:
                    # Never start more processes than there are shards to
                    # run — an oversized shard_jobs would only fork idle
                    # workers that still pay interpreter start-up cost.
                    pool_size = min(self.shard_jobs, self.num_shards)
                    with ProcessPoolExecutor(max_workers=pool_size) as executor:
                        results = list(
                            executor.map(
                                _execute_shard_horizon_arena,
                                jobs,
                                [strategy] * len(jobs),
                            )
                        )
                except (OSError, BrokenExecutor) as error:  # pragma: no cover - host-dependent
                    warnings.warn(
                        f"ShardedEngine: process pool unavailable ({error!r}); "
                        "re-running all shards sequentially in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            if results is None:
                results = [
                    _execute_shard_horizon_arena(job, strategy) for job in jobs
                ]
        finally:
            arena.unlink()
        return self._merge_shard_results(results)

    def _merge_shard_results(
        self, results: Sequence[SimulationResult]
    ) -> SimulationResult:
        """Merge per-shard horizon results into one global result.

        Stage timings are summed across shards (CPU seconds, not wall
        clock); peak memory is the per-process maximum.
        """
        metrics = StrategyMetrics(strategy=results[0].metrics.strategy)
        outcomes: List[PeriodOutcome] = []
        for period in range(self.workload.num_periods):
            rows = [result.outcomes[period] for result in results]
            num_tasks = sum(row.num_tasks for row in rows)
            revenue = 0.0
            served = accepted = 0
            prices: Dict[int, float] = {}
            for row in rows:
                revenue += row.revenue
                served += row.served_tasks
                accepted += row.accepted_tasks
                prices.update(row.prices)
            if num_tasks:
                metrics.total_revenue += revenue
                metrics.revenue_by_period.append(revenue)
                metrics.served_tasks += served
                metrics.accepted_tasks += accepted
                metrics.total_tasks += num_tasks
            if self.keep_details:
                outcomes.append(
                    PeriodOutcome(
                        period=period,
                        num_tasks=num_tasks,
                        num_workers=sum(row.num_workers for row in rows),
                        prices=prices,
                        accepted_tasks=accepted,
                        served_tasks=served,
                        revenue=revenue,
                    )
                )
        for result in results:
            metrics.pricing_time_seconds += result.metrics.pricing_time_seconds
            metrics.decide_time_seconds += result.metrics.decide_time_seconds
            metrics.matching_time_seconds += result.metrics.matching_time_seconds
            metrics.peak_memory_bytes = max(
                metrics.peak_memory_bytes, result.metrics.peak_memory_bytes
            )
        return SimulationResult(
            metrics=metrics, outcomes=outcomes, description=self.workload.description
        )


__all__ = ["ShardedEngine", "ShardableWorkload"]
