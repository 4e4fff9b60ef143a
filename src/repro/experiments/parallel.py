"""Parallel multi-run executor for strategy / seed sweeps.

The engine's per-strategy runs are embarrassingly parallel: every
``(strategy, seed)`` cell simulates the same workload with an independent
random stream (the engine derives its accept/reject stream as
``derive_seed(seed, "acceptance", strategy.name)``, so the stream depends
only on the cell, never on scheduling).  :class:`ParallelRunner` fans
those cells across a ``ProcessPoolExecutor`` and is guaranteed to return
*exactly* the results of running
:meth:`~repro.simulation.engine.SimulationEngine.run_many` sequentially
for each seed — the determinism tests assert equality.  Every batch cell
runs the one batch period loop,
:class:`~repro.simulation.sharded.ShardedEngine`: with one shard unless
a :class:`ShardSpec` asks for more.

Strategies are described by :class:`StrategySpec` (a name for
:func:`repro.pricing.registry.create_strategy` plus keyword arguments)
rather than live objects, so each worker process constructs its own
strategy and no mutable learning state crosses process boundaries.

Streaming runs follow the same recipe-based design: an arrival stream is
usually backed by a generator (unpicklable), so :class:`StreamSpec` names
a registered scenario (see :mod:`repro.simulation.scenarios`) plus its
parameters, and every worker process rebuilds the stream locally before
driving a :class:`~repro.simulation.streaming.StreamingEngine` through it.
Because scenario streams are deterministic in their seed, parallel
streaming results are identical to sequential ones too.

Sharded runs follow the same pattern: a picklable :class:`ShardSpec`
carries the shard count and halo width, and each worker process builds
its cell's engine from it.  Processes parallelise across cells only; one
run's shards are always dispatched in its own process.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.pricing.registry import create_strategy
from repro.utils.affinity import effective_cpu_count
from repro.simulation.config import ChunkedWorkload, WorkloadBundle
from repro.simulation.results import SimulationResult
from repro.simulation.sharded import ShardableWorkload, ShardedEngine
from repro.simulation.streaming import (
    ArrivalStream,
    DynamicStreamingEngine,
    StreamingEngine,
)

#: Key of one run: ``(strategy name, seed)``.
RunKey = Tuple[str, int]


@dataclass(frozen=True)
class ShardSpec:
    """A picklable recipe for spatially sharded execution.

    Attributes:
        num_shards: Rectangular shards the grid is tiled into (``1``,
            the default, is the batch engine).
        halo: Boundary band width, in grid cells, of the halo-exchange
            reconciliation pass (``0`` disables it).
    """

    num_shards: int = 1
    halo: int = 1

    def build_engine(
        self,
        workload: ShardableWorkload,
        seed: int,
        track_memory: bool,
        keep_details: bool,
        max_degree: Optional[int] = None,
    ) -> ShardedEngine:
        """Construct the sharded engine for one ``(strategy, seed)`` cell."""
        return ShardedEngine(
            workload,
            num_shards=self.num_shards,
            halo=self.halo,
            seed=seed,
            track_memory=track_memory,
            keep_details=keep_details,
            max_degree=max_degree,
        )


@dataclass(frozen=True)
class StreamSpec:
    """A picklable recipe for one scenario-backed arrival stream.

    Attributes:
        scenario: Name registered in :mod:`repro.simulation.scenarios`.
        scale: Scale factor forwarded to the scenario.
        seed: Scenario (workload) seed; ``None`` keeps the scenario default.
        window: Dispatch window length for the streaming engine, in period
            units.
        params: Extra scenario parameters (must be picklable).
        dynamic: Dispatch through the
            :class:`~repro.simulation.streaming.DynamicStreamingEngine`
            (one matching maintained under churn by delta repair) instead
            of the match-or-lose-forever :class:`StreamingEngine`.
        task_lifetime: Default task lifetime, in period units, for the
            dynamic engine (``None`` keeps its default; only honored with
            ``dynamic=True``).
    """

    scenario: str
    scale: float = 1.0
    seed: Optional[int] = None
    window: float = 1.0
    params: Mapping[str, object] = field(default_factory=dict)
    dynamic: bool = False
    task_lifetime: Optional[float] = None

    def build(self) -> ArrivalStream:
        """Rebuild the arrival stream (called in each worker process)."""
        from repro.simulation.scenarios import get_scenario

        return get_scenario(self.scenario).stream(
            scale=self.scale, seed=self.seed, **dict(self.params)
        )


@dataclass(frozen=True)
class StrategySpec:
    """A picklable recipe for one strategy.

    Attributes:
        name: Registry name (``MAPS``, ``BaseP``, ``SDR``, ``SDE``,
            ``CappedUCB``).
        kwargs: Keyword arguments forwarded to
            :func:`repro.pricing.registry.create_strategy` (``base_price``
            is required by most strategies; ``calibration`` warm-starts
            MAPS).
        label: Optional result key; defaults to ``name``.  Give two specs
            of the same strategy (e.g. two MAPS hyperparameter settings)
            distinct labels so both runs survive in the keyed results.
    """

    name: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def key(self) -> str:
        return self.label if self.label is not None else self.name

    def build(self):
        return create_strategy(self.name, **dict(self.kwargs))


def _execute_run(
    workload: ShardableWorkload,
    spec: StrategySpec,
    seed: int,
    track_memory: bool,
    keep_details: bool,
    shards: Optional[ShardSpec] = None,
    max_degree: Optional[int] = None,
) -> Tuple[RunKey, SimulationResult]:
    """Top-level worker function (must be picklable for process pools).

    Without a shard spec the run is the one-shard batch solve.
    """
    engine = (shards or ShardSpec()).build_engine(
        workload, seed, track_memory, keep_details, max_degree
    )
    return (spec.key, seed), engine.run(spec.build())


def _execute_stream_run(
    stream_spec: StreamSpec,
    spec: StrategySpec,
    seed: int,
    track_memory: bool,
    keep_details: bool,
    max_degree: Optional[int] = None,
) -> Tuple[RunKey, SimulationResult]:
    """Streaming counterpart of :func:`_execute_run` (also picklable)."""
    if stream_spec.dynamic:
        lifetime_kwargs = (
            {}
            if stream_spec.task_lifetime is None
            else {"task_lifetime": stream_spec.task_lifetime}
        )
        engine: StreamingEngine = DynamicStreamingEngine(
            stream_spec.build(),
            seed=seed,
            window=stream_spec.window,
            track_memory=track_memory,
            keep_details=keep_details,
            max_degree=max_degree,
            **lifetime_kwargs,
        )
    else:
        engine = StreamingEngine(
            stream_spec.build(),
            seed=seed,
            window=stream_spec.window,
            track_memory=track_memory,
            keep_details=keep_details,
            max_degree=max_degree,
        )
    return (spec.key, seed), engine.run(spec.build())


#: Per-worker-process workload, installed once by the pool initializer so
#: the (potentially multi-megabyte) bundle is not re-pickled per job.
_WORKER_WORKLOAD: Optional[ShardableWorkload] = None


def _init_worker(workload: WorkloadBundle) -> None:
    global _WORKER_WORKLOAD
    _WORKER_WORKLOAD = workload


@dataclass(frozen=True)
class _ArenaWorkloadMeta:
    """Small picklable market context shipped next to an arena handle.

    The horizon length itself travels in the arena handle, which is what
    the attach path iterates by.
    """

    grid: object
    acceptance: object
    metric: str
    price_bounds: Tuple[float, float]
    description: str


def _init_worker_from_arena(handle, meta: _ArenaWorkloadMeta) -> None:
    """Pool initializer: run the workload straight off shared memory.

    The owner process packs the bundle's period columns into one
    :class:`~repro.simulation.arena.WorkloadArena`.  Every worker maps
    the segment read-only for the rest of its life and runs a
    :class:`~repro.simulation.config.ChunkedWorkload` whose
    ``column_periods`` yields the arena's zero-copy views, so the batch
    period loop reads the owner's columns with no per-worker pickling
    and no round trip through ``Task`` / ``Worker`` objects.  A worker
    crash cannot leak the segment: only the owner unlinks, and a
    worker's mapping ends with its process.
    """
    from repro.simulation.arena import WorkloadArena

    global _WORKER_WORKLOAD
    arena = WorkloadArena.attach(handle)

    def object_periods():
        for task_cols, worker_cols in arena.iter_period_columns():
            yield task_cols.to_tasks(), worker_cols.to_workers()

    _WORKER_WORKLOAD = ChunkedWorkload(
        grid=meta.grid,
        periods=object_periods,
        num_periods=handle.num_periods,
        acceptance=meta.acceptance,
        metric=meta.metric,
        price_bounds=meta.price_bounds,
        description=meta.description,
        column_periods=arena.iter_period_columns,
    )


def _execute_run_pooled(
    spec: StrategySpec,
    seed: int,
    track_memory: bool,
    keep_details: bool,
    shards: Optional[ShardSpec] = None,
    max_degree: Optional[int] = None,
) -> Tuple[RunKey, SimulationResult]:
    assert _WORKER_WORKLOAD is not None, "worker pool initializer did not run"
    return _execute_run(
        _WORKER_WORKLOAD,
        spec,
        seed,
        track_memory,
        keep_details,
        shards,
        max_degree,
    )


class ParallelRunner:
    """Fan ``(strategy, seed)`` simulation runs across processes.

    Args:
        workload: The workload every run simulates (batch mode).  Pass
            ``None`` and give ``stream`` instead for streaming mode.
        specs: Strategy recipes; plain strings are promoted to
            :class:`StrategySpec` with ``shared_kwargs``.
        seeds: Engine seeds; one full strategy sweep runs per seed.
        shared_kwargs: Keyword arguments applied to every promoted string
            spec (e.g. ``base_price`` / ``p_min`` / ``p_max``).
        max_workers: Process count.  ``None`` (default) resolves to the
            *effective* core count (the scheduling-affinity mask, so
            container cpusets and ``taskset`` are respected, where raw
            ``os.cpu_count()`` oversubscribes restricted hosts).  ``1``
            forces the in-process sequential path.
        track_memory: Forwarded to the engines.  Peak-memory numbers are
            per-process when running parallel.
        keep_details: Forwarded to the engines.
        stream: A :class:`StreamSpec` switching every run to the
            event-driven :class:`~repro.simulation.streaming.StreamingEngine`
            over the named scenario's arrival stream (rebuilt inside each
            worker process; exactly one of ``workload`` / ``stream`` must
            be given).
        shards: A :class:`ShardSpec` switching every batch run to the
            spatially sharded
            :class:`~repro.simulation.sharded.ShardedEngine` (batch mode
            only; the spec is picklable, so sharded cells fan across
            processes like plain ones).
        max_degree: Optional per-task adjacency cap (nearest workers
            only) forwarded to every engine; ``None`` keeps exact graphs.
        workload_via_arena: Ship the workload to worker processes as a
            shared-memory :class:`~repro.simulation.arena.WorkloadArena`
            handle instead of pickling the bundle.  ``None`` (default)
            enables it exactly when the multiprocessing start method
            cannot inherit the bundle for free (i.e. anything but
            ``fork``); forcing ``True`` exercises the zero-copy path on
            fork platforms too.  Results are identical either way.

    Results are keyed by ``(strategy name, seed)`` and their order is
    fixed by the spec/seed declaration order, independent of which process
    finishes first.
    """

    def __init__(
        self,
        workload: Optional[WorkloadBundle],
        specs: Sequence[object],
        seeds: Sequence[int] = (0,),
        shared_kwargs: Optional[Mapping[str, object]] = None,
        max_workers: Optional[int] = None,
        track_memory: bool = False,
        keep_details: bool = False,
        stream: Optional[StreamSpec] = None,
        shards: Optional[ShardSpec] = None,
        max_degree: Optional[int] = None,
        workload_via_arena: Optional[bool] = None,
    ) -> None:
        if not specs:
            raise ValueError("need at least one strategy spec")
        if not seeds:
            raise ValueError("need at least one seed")
        if (workload is None) == (stream is None):
            raise ValueError("give exactly one of workload (batch) or stream (streaming)")
        if shards is not None and stream is not None:
            raise ValueError("sharded execution is batch-mode; drop stream or shards")
        shared = dict(shared_kwargs or {})
        self.workload = workload
        self.stream = stream
        self.shards = shards
        self.specs: List[StrategySpec] = [
            spec if isinstance(spec, StrategySpec) else StrategySpec(str(spec), shared)
            for spec in specs
        ]
        keys = [spec.key for spec in self.specs]
        if len(set(keys)) != len(keys):
            raise ValueError(
                "duplicate strategy result keys; give specs sharing a name "
                f"distinct labels: {keys}"
            )
        self.seeds = [int(seed) for seed in seeds]
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds would collapse results: {self.seeds}")
        # One process per *effective* core by default — the affinity mask,
        # not os.cpu_count(), is what a container cpuset or taskset grants.
        self.max_workers = int(
            effective_cpu_count() if max_workers is None else max_workers
        )
        self.track_memory = bool(track_memory)
        self.keep_details = bool(keep_details)
        self.max_degree = None if max_degree is None else int(max_degree)
        self.workload_via_arena = workload_via_arena

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _jobs(self) -> List[Tuple[StrategySpec, int]]:
        return [(spec, seed) for seed in self.seeds for spec in self.specs]

    def _run_cell(self, spec: StrategySpec, seed: int) -> Tuple[RunKey, SimulationResult]:
        if self.stream is not None:
            return _execute_stream_run(
                self.stream,
                spec,
                seed,
                self.track_memory,
                self.keep_details,
                self.max_degree,
            )
        assert self.workload is not None
        return _execute_run(
            self.workload,
            spec,
            seed,
            self.track_memory,
            self.keep_details,
            self.shards,
            self.max_degree,
        )

    def run_sequential(self) -> Dict[RunKey, SimulationResult]:
        """Run every cell in this process (the reference order)."""
        results: Dict[RunKey, SimulationResult] = {}
        for spec, seed in self._jobs():
            key, result = self._run_cell(spec, seed)
            results[key] = result
        return results

    def run(self) -> Dict[RunKey, SimulationResult]:
        """Run every cell, fanning across processes when it can help.

        Falls back to :meth:`run_sequential` when only one worker (or one
        job) is requested, or when the platform cannot start a process
        pool — the results are identical either way.
        """
        jobs = self._jobs()
        if self.max_workers == 1 or len(jobs) == 1:
            return self.run_sequential()
        # Unpicklable payloads are detected up front so the degradation is
        # deterministic; exceptions raised *inside* a worker stay fatal and
        # propagate with their original type rather than triggering a
        # silent (and potentially expensive) sequential rerun.  Specs are
        # tiny and always cross the job queue; the (potentially large)
        # workload only needs pickling on non-fork start methods — forked
        # workers inherit the initializer args without serialisation.
        use_arena = self.workload is not None and (
            self.workload_via_arena
            if self.workload_via_arena is not None
            else multiprocessing.get_start_method() != "fork"
        )
        try:
            pickle.dumps(self.specs)
            pickle.dumps(self.stream)
            pickle.dumps(self.shards)
            if (
                self.workload is not None
                and not use_arena
                and multiprocessing.get_start_method() != "fork"
            ):
                pickle.dumps(self.workload)
        except Exception as error:
            warnings.warn(
                f"ParallelRunner: payload is not picklable ({error!r}); "
                "running all cells sequentially in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.run_sequential()
        arena = None
        try:
            if self.stream is not None:
                # Stream recipes are tiny; each job pickles its own cell
                # and rebuilds the arrival stream inside the worker.
                with ProcessPoolExecutor(max_workers=self.max_workers) as executor:
                    outputs = list(
                        executor.map(
                            _execute_stream_run,
                            [self.stream] * len(jobs),
                            [spec for spec, _ in jobs],
                            [seed for _, seed in jobs],
                            [self.track_memory] * len(jobs),
                            [self.keep_details] * len(jobs),
                            [self.max_degree] * len(jobs),
                        )
                    )
            else:
                # The workload is shipped once per worker via the
                # initializer; each job only pickles its (spec, seed)
                # cell.  Zero-copy mode packs the horizon's columns into
                # one shared-memory arena and hands workers the handle —
                # kilobytes through the queue instead of the bundle.
                assert self.workload is not None
                if use_arena:
                    from repro.simulation.arena import WorkloadArena

                    arena = WorkloadArena.create(
                        list(self.workload.iter_period_columns())
                    )
                    initializer = _init_worker_from_arena
                    initargs = (
                        arena.handle,
                        _ArenaWorkloadMeta(
                            grid=self.workload.grid,
                            acceptance=self.workload.acceptance,
                            metric=self.workload.metric,
                            price_bounds=self.workload.price_bounds,
                            description=self.workload.description,
                        ),
                    )
                else:
                    initializer = _init_worker
                    initargs = (self.workload,)
                with ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=initializer,
                    initargs=initargs,
                ) as executor:
                    outputs = list(
                        executor.map(
                            _execute_run_pooled,
                            [spec for spec, _ in jobs],
                            [seed for _, seed in jobs],
                            [self.track_memory] * len(jobs),
                            [self.keep_details] * len(jobs),
                            [self.shards] * len(jobs),
                            [self.max_degree] * len(jobs),
                        )
                    )
        except (
            OSError,  # pool could not start (sandboxed / restricted hosts)
            BrokenExecutor,  # pool died mid-run (e.g. a worker was OOM-killed)
        ) as error:
            warnings.warn(
                f"ParallelRunner: process pool unavailable ({error!r}); "
                "re-running all cells sequentially in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.run_sequential()
        finally:
            if arena is not None:
                arena.unlink()
        return dict(outputs)

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    def run_by_strategy(self) -> Dict[str, Dict[int, SimulationResult]]:
        """Results regrouped as ``{strategy: {seed: result}}``."""
        grouped: Dict[str, Dict[int, SimulationResult]] = {}
        for (name, seed), result in self.run().items():
            grouped.setdefault(name, {})[seed] = result
        return grouped


__all__ = ["ParallelRunner", "ShardSpec", "StrategySpec", "StreamSpec", "RunKey"]
