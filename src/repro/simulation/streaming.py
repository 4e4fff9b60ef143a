"""Event-driven streaming dispatch engine.

The paper's setting is inherently online: tasks and workers arrive
continuously and the platform quotes prices and dispatches in short
windows.  The batch :class:`~repro.simulation.engine.SimulationEngine`
approximates this by pre-materialising per-period task/worker lists; this
module removes that restriction.  :class:`StreamingEngine` consumes an
*arrival stream* — a generator yielding timestamped
:class:`TaskArrival` / :class:`WorkerArrival` events — buffers arrivals
into dispatch windows of configurable length, and dispatches each window
through the same quote → decide → match → feedback stages as the batch
engine.

Time is measured in *periods* (the paper's one-minute unit): an event at
time ``7.3`` happens during period 7, and a window of length ``1.0``
reproduces the paper's per-minute batching exactly.  Shorter windows
dispatch more eagerly (lower latency, less pooling); longer windows pool
more arrivals per matching.

**Window dispatch.**  Committed assignments are physical actions —
once a worker is dispatched to a task, the pair cannot be re-routed when
later arrivals would prefer a different plan.  The engine grows one
monotone matching over the whole stream instead of re-solving a global
(whole-horizon) problem: commitment is enforced by the worker pool
(dispatched workers leave it forever, freezing their pairs for every
later window), and each window matches only its own accepted tasks over
the free frontier.  That is the batch period loop with windows for
periods, and :class:`StreamingEngine` runs exactly that loop (the
one-shard :class:`~repro.simulation.sharded.ShardedEngine`) over the
stream's windows.

**One binning rule.**  A worker arriving in window ``k`` stays in the
pool at every later window start ``j * window`` with ``j * window <
period + duration`` (:func:`_windows_available`), and
:func:`stream_to_workload` bins by the same windows and rule, so the
window engine equals the batch engine over the binned stream bit for
bit at any window length.  For a stream of a batch workload
(:func:`workload_to_stream`) at ``window=1.0`` the bins are the
workload's own periods: the engine reproduces the batch engine's
revenue / served / accepted metrics *bit-identically* for fixed seeds.
``tests/simulation/test_streaming.py`` asserts both across all five
pricing strategies.

**Dynamic dispatch: one session core, two drivers.**  Where
:class:`StreamingEngine` matches or loses a task in its own window, the
dynamic path keeps accepted tasks tentatively matched until a deadline
in one maintained matching.  All of that state lives in one
:class:`DispatchSession`: the pre-scanned universe
(:func:`build_universe`), the dynamic matcher, the live population and
the deadline and departure heaps.  :class:`DynamicStreamingEngine`
drives it one window at a time (:meth:`DispatchSession.on_window`);
:class:`EventStreamingEngine` and the ``repro.service`` server drive it
one event at a time (:meth:`DispatchSession.on_task` /
:meth:`DispatchSession.on_worker`).
"""

from __future__ import annotations

import heapq
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.gdp import PeriodInstance
from repro.market.acceptance import PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.matching.incremental import DynamicMatcher, LazyDynamicMatcher
from repro.matching.weighted import eligible_order
from repro.pricing.strategy import PricingStrategy
from repro.simulation.arena import NO_DURATION, TaskColumns, WorkerColumns
from repro.simulation.config import ChunkedWorkload, WorkloadBundle
from repro.simulation.metrics import MetricsCollector
from repro.simulation.oracle import calibrate_base_price_for_context
from repro.simulation.pipeline import DecideResult, PeriodPipeline
from repro.simulation.results import PeriodOutcome, SimulationResult
from repro.simulation.sharded import ShardedEngine
from repro.spatial.grid import Grid
from repro.spatial.index import IncrementalAdjacencyIndex
from repro.utils.rng import derive_seed


# ---------------------------------------------------------------------------
# events and streams
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskArrival:
    """A task entering the platform at ``time`` (in period units)."""

    time: float
    task: Task


@dataclass(frozen=True)
class WorkerArrival:
    """A worker coming online at ``time`` (in period units)."""

    time: float
    worker: Worker


ArrivalEvent = Union[TaskArrival, WorkerArrival]
#: Either a re-iterable collection of events or a zero-argument factory
#: returning a fresh iterator (so one stream can back several runs).
EventSource = Union[Iterable[ArrivalEvent], Callable[[], Iterator[ArrivalEvent]]]


@dataclass
class ArrivalStream:
    """An arrival stream plus the market context needed to dispatch it.

    Attributes:
        grid: The pricing grid.
        acceptance: Ground-truth per-grid acceptance models (used for tasks
            without a private valuation and by base-price calibration).
        events: The arrival events, ordered by non-decreasing ``time``.
            Either a re-iterable collection or a zero-argument callable
            returning a fresh iterator; a plain one-shot generator supports
            a single run only.
        metric: Distance metric of the range constraint.
        price_bounds: Quotable ``(p_min, p_max)`` interval.
        description: Human-readable label for reports.
        horizon: Optional end of the stream in period units (used when
            binning the stream into a :class:`WorkloadBundle` so trailing
            empty periods are preserved).
        demand_grids: Optional registry metadata naming the grid cells
            that ever see task demand — either the cell-index collection
            itself or a zero-argument callable computing it (so scenarios
            can defer the scan until calibration actually asks).  Used by
            :meth:`StreamingEngine.calibrate_base_price` to avoid
            calibrating every cell of a city-scale grid; ``None`` keeps
            the calibrate-everything fallback.
    """

    grid: Grid
    acceptance: PerGridAcceptance
    events: EventSource
    metric: str = "euclidean"
    price_bounds: Tuple[float, float] = (1.0, 5.0)
    description: str = "stream"
    horizon: Optional[float] = None
    demand_grids: Optional[Union[Sequence[int], Callable[[], Sequence[int]]]] = None

    def iter_events(self) -> Iterator[ArrivalEvent]:
        """A fresh iterator over the events (calls the factory if given).

        Raises:
            ValueError: when the event source is a one-shot iterator (a
                plain generator) that an earlier pass already consumed.
                A second pass over an exhausted generator would silently
                yield nothing — a zero-revenue "result" that looks valid —
                so the reuse fails loudly instead.
        """
        if callable(self.events):
            return iter(self.events())
        iterator = iter(self.events)
        if iterator is self.events:
            if getattr(self, "_consumed", False):
                raise ValueError(
                    "arrival stream's one-shot event source was already "
                    "consumed; back the stream with a re-iterable collection "
                    "or a zero-argument factory to iterate it again"
                )
            self._consumed = True
        return iterator


def _validated_events(stream: ArrivalStream) -> Iterator[ArrivalEvent]:
    """Iterate a stream's events while enforcing the time contract.

    Shared by the engine's window formation and the batch binning so both
    consumers reject malformed streams identically: times must be
    non-negative and non-decreasing.
    """
    last_time = -math.inf
    for event in stream.iter_events():
        if event.time < last_time:
            raise ValueError(
                f"arrival stream is not time-ordered: {event.time} after {last_time}"
            )
        if event.time < 0:
            raise ValueError("arrival times must be non-negative")
        last_time = event.time
        yield event


def resolve_demand_grids(stream: ArrivalStream) -> Optional[List[int]]:
    """The stream's demand-cell metadata as a sorted unique index list.

    Resolves :attr:`ArrivalStream.demand_grids` (calling it when it is a
    factory) into the canonical form base-price calibration consumes —
    the same sorted-unique shape the batch engine derives by scanning its
    materialised workload — or ``None`` when the stream carries no
    metadata.  An *empty* metadata collection resolves to ``None`` too: a
    stream that claims zero demand cells is indistinguishable from one
    whose generator forgot to populate the field, and calibrating nothing
    would silently produce an unusable result.
    """
    source = stream.demand_grids
    if source is None:
        return None
    grids = source() if callable(source) else source
    resolved = sorted({int(index) for index in grids})
    return resolved or None


def checked_duration(value: float, name: str) -> float:
    """``value`` as a float if it is a finite, positive span of period time.

    Window lengths and task lifetimes must be both: an infinite window
    puts every window start at ``0 * inf``, which is NaN, and a NaN
    lifetime slips past a ``<= 0`` check only to fail mid-run.

    Raises:
        ValueError: if ``value`` is not finite or not positive.
    """
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def window_index(time: float, length: float) -> int:
    """The index ``k`` with ``k * length <= time < (k + 1) * length``.

    Not the same as ``int(time // length)``: Python's float floor-division
    computes ``(time - time % length) / length``, whose rounding can land
    an arrival *exactly on* a window edge in the previous window.  The
    concrete failure: ``1.0 // 0.1 == 9.0`` even though ``10 * 0.1 == 1.0``
    exactly, so an event at ``t=1.0`` with ``window=0.1`` fell into window
    9 (``[0.9, 1.0)``) instead of window 10 — landing in a half-open
    interval that does not contain it.  The quotient is therefore nudged
    until the half-open contract holds under exact float comparison; each
    ``while`` moves at most one step in practice (the quotient is off by
    at most one ulp-rounding).
    """
    index = int(time // length)
    while (index + 1) * length <= time:
        index += 1
    while index > 0 and index * length > time:
        index -= 1
    return index


def workload_to_stream(
    workload: Union[WorkloadBundle, ChunkedWorkload],
) -> ArrivalStream:
    """Unroll a period-chunked workload into an arrival stream.

    Within each period the period's workers arrive first, then its tasks,
    at evenly spaced timestamps inside ``[p, p + 1)`` that preserve the
    batch lists' order — so binning the stream back at ``window=1.0``
    reproduces the batch engine's per-period lists exactly, while
    non-integer windows still see genuinely spread arrivals.  A
    :class:`ChunkedWorkload` stays lazy; its stream carries no
    ``demand_grids`` (finding them takes a pass over the horizon).
    """

    def _events() -> Iterator[ArrivalEvent]:
        for period, (tasks, workers) in enumerate(workload.iter_periods()):
            count = len(workers) + len(tasks)
            if not count:
                continue
            step = 1.0 / count
            offset = 0
            for worker in workers:
                yield WorkerArrival(time=period + offset * step, worker=worker)
                offset += 1
            for task in tasks:
                yield TaskArrival(time=period + offset * step, task=task)
                offset += 1

    return ArrivalStream(
        grid=workload.grid,
        acceptance=workload.acceptance,
        events=_events,
        metric=workload.metric,
        price_bounds=workload.price_bounds,
        description=workload.description,
        horizon=float(workload.num_periods),
        # The scan the batch engine calibrates, so both calibrations see
        # the identical grid set.
        demand_grids=(
            workload.demand_grids if isinstance(workload, WorkloadBundle) else None
        ),
    )


def _windows(
    stream: ArrivalStream, length: float
) -> Iterator[Tuple[int, List[Task], List[Worker]]]:
    """Group the event stream into ``(window_index, tasks, workers)``.

    Window ``k`` holds the events at ``k * length <= time < (k + 1) *
    length`` (:func:`window_index`), in stream order.  Windows without
    any event are skipped.
    """
    current_index: Optional[int] = None
    tasks: List[Task] = []
    workers: List[Worker] = []
    for event in _validated_events(stream):
        index = window_index(event.time, length)
        if current_index is not None and index != current_index:
            yield current_index, tasks, workers
            tasks, workers = [], []
        current_index = index
        if isinstance(event, TaskArrival):
            tasks.append(event.task)
        else:
            workers.append(event.worker)
    if current_index is not None:
        yield current_index, tasks, workers


def _windows_available(worker: Worker, window: int, length: float) -> Optional[int]:
    """How many window starts, from its arrival window on, find ``worker``.

    The one worker-expiry rule of windowed dispatch: a worker arriving in
    window ``window`` is in the pool at every window start ``k * length``
    (``k >= window``) with ``k * length < worker.period +
    worker.duration`` — :meth:`~repro.market.entities.Worker.available_in`
    read on the continuous axis and checked once per window, at its
    start.  So a worker whose availability ends mid-window can still be
    committed to a task arriving later in that window; the event-at-a-time
    path (:class:`DispatchSession`) settles departures at event time
    instead (``docs/service.md``).  At ``length == 1.0`` the count is the
    worker's ``duration`` whenever it arrives in its own period.

    Returns:
        The count (``0``: gone before its own window starts), or ``None``
        for a worker available until matched.
    """
    if worker.duration is None:
        return None
    end = worker.period + worker.duration
    # ``window_index`` puts ``end`` in ``[k * length, (k + 1) * length)``,
    # so window ``k`` starts before ``end`` unless it starts exactly there.
    first_closed = window_index(end, length)
    if first_closed * length < end:
        first_closed += 1
    return max(0, first_closed - window)


def _binned_windows(
    stream: ArrivalStream, length: float
) -> Iterator[Tuple[int, List[Task], List[Worker], List[Optional[int]]]]:
    """:func:`_windows` with each worker's availability counted in windows.

    Yields ``(window_index, tasks, workers, durations)``: ``durations[i]``
    is :func:`_windows_available` of ``workers[i]``, and workers available
    at no window start are dropped.  The one grouping both
    :class:`StreamingEngine` and :func:`stream_to_workload` read, so the
    window engine is the batch loop over the binned workload.
    """
    for index, tasks, workers in _windows(stream, length):
        kept: List[Worker] = []
        durations: List[Optional[int]] = []
        for worker in workers:
            duration = _windows_available(worker, index, length)
            if duration != 0:
                kept.append(worker)
                durations.append(duration)
        yield index, tasks, kept, durations


def stream_to_workload(
    stream: ArrivalStream, period_length: float = 1.0
) -> WorkloadBundle:
    """Bin an arrival stream into a batch :class:`WorkloadBundle`.

    Events landing in ``[k * period_length, (k + 1) * period_length)`` form
    period ``k``; entities are re-labelled with their bin so the bundle
    validates.  A worker's ``duration`` becomes the number of bins whose
    start it is available at (:func:`_windows_available`), and a worker
    available at none is dropped — the rule :class:`StreamingEngine`
    dispatches by, so ``StreamingEngine(stream, window=L)`` and the batch
    engine over ``stream_to_workload(stream, L)`` agree bit for bit.  At
    the default ``period_length=1.0`` durations are unchanged.  This is
    how natively streaming scenarios (e.g. ``hotspot_burst``) expose a
    batch workload.
    """
    if period_length <= 0:
        raise ValueError("period_length must be positive")
    tasks_by_period: Dict[int, List[Task]] = {}
    workers_by_period: Dict[int, List[Worker]] = {}
    num_periods = 0
    for index, tasks, workers, durations in _binned_windows(stream, period_length):
        tasks_by_period[index] = [
            task if task.period == index else replace(task, period=index)
            for task in tasks
        ]
        workers_by_period[index] = [
            worker
            if worker.period == index and worker.duration == duration
            else replace(worker, period=index, duration=duration)
            for worker, duration in zip(workers, durations)
        ]
        num_periods = index + 1
    if stream.horizon is not None:
        num_periods = max(num_periods, int(math.ceil(stream.horizon / period_length)))
    if num_periods <= 0:
        raise ValueError("stream yielded no events and has no horizon")
    bundle = WorkloadBundle(
        grid=stream.grid,
        tasks_by_period=[tasks_by_period.get(p, []) for p in range(num_periods)],
        workers_by_period=[workers_by_period.get(p, []) for p in range(num_periods)],
        acceptance=stream.acceptance,
        metric=stream.metric,
        price_bounds=stream.price_bounds,
        description=stream.description,
    )
    bundle.validate()
    return bundle


def build_universe(
    stream: ArrivalStream,
    max_degree: Optional[int] = None,
) -> Tuple[PeriodInstance, List[float], List[float]]:
    """Pre-scan a (re-iterable) stream into one all-time instance.

    Returns the universe :class:`PeriodInstance` over every task and
    worker the stream will ever yield (in stream order, so positions
    align with running arrival counters), plus the per-position task and
    worker arrival times.  Every :class:`DispatchSession` owns one, so
    both of its drivers (:class:`DynamicStreamingEngine` and
    :class:`EventStreamingEngine`) and the ``repro.service`` front end
    agree on positions.

    The graph stays behind a lazy proxy until someone touches
    ``.graph``: an uncapped session matches on the live plane and never
    does, while the capped universe
    :class:`~repro.matching.incremental.DynamicMatcher` builds it (with
    the ``max_degree`` cap) as soon as it is constructed.
    """
    tasks: List[Task] = []
    workers: List[Worker] = []
    task_arrivals: List[float] = []
    worker_arrivals: List[float] = []
    for event in _validated_events(stream):
        if isinstance(event, TaskArrival):
            tasks.append(event.task)
            task_arrivals.append(float(event.time))
        else:
            workers.append(event.worker)
            worker_arrivals.append(float(event.time))
    instance = PeriodInstance.build(
        period=0,
        grid=stream.grid,
        tasks=tasks,
        workers=workers,
        metric=stream.metric,
        max_degree=None if max_degree is None else int(max_degree),
        build_graph=False,
    )
    return instance, task_arrivals, worker_arrivals


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class _WindowColumns:
    """A stream's windows as a columnar workload of the batch period loop.

    Window ``k`` is period ``k``: the tasks and workers that arrived in it
    (:func:`_binned_windows`), as :class:`~repro.simulation.arena.TaskColumns`
    / :class:`~repro.simulation.arena.WorkerColumns` whose periods read
    ``k`` and whose worker durations count windows.  Windows without
    events are fed empty; :attr:`event_windows` lists the others, in
    order, once a pass is done.  Reading the columns reads the stream, so
    a one-shot stream backs one pass, and the horizon is known only at its
    end — why this is not a :class:`ChunkedWorkload`, which states
    ``num_periods`` up front.
    """

    def __init__(self, stream: ArrivalStream, window: float) -> None:
        self.stream = stream
        self.window = window
        self.grid = stream.grid
        self.acceptance = stream.acceptance
        self.metric = stream.metric
        self.price_bounds = stream.price_bounds
        self.description = stream.description
        self.event_windows: List[int] = []

    def validate(self) -> None:
        """Nothing to check before the stream is read."""

    def iter_period_columns(self) -> Iterator[Tuple[TaskColumns, WorkerColumns]]:
        empty = (TaskColumns.from_tasks([]), WorkerColumns.from_workers([]))
        self.event_windows = []
        next_period = 0
        for index, tasks, workers, durations in _binned_windows(
            self.stream, self.window
        ):
            for _ in range(next_period, index):
                yield empty
            next_period = index + 1
            self.event_windows.append(index)
            worker_cols = WorkerColumns.from_workers(workers)
            yield (
                replace(TaskColumns.from_tasks(tasks, self.grid), period=index),
                replace(
                    worker_cols,
                    periods=np.full(len(workers), index, dtype=np.int64),
                    durations=np.array(
                        [NO_DURATION if d is None else d for d in durations],
                        dtype=np.int64,
                    ),
                ),
            )


class StreamingEngine:
    """Dispatches an arrival stream in fixed-length windows.

    :meth:`run` is the one-shard
    :class:`~repro.simulation.sharded.ShardedEngine` fed window ``k`` as
    period ``k`` (:class:`_WindowColumns`), so
    ``StreamingEngine(stream, window=L)`` equals the batch engine over
    ``stream_to_workload(stream, L)`` bit for bit.

    Args:
        stream: The arrival stream (events plus market context).
        seed: Seed for accept/reject randomness of tasks without a private
            valuation; derived exactly as in the batch engine, so a stream
            binned at the batch period length consumes the identical RNG
            stream.
        window: Dispatch window length in period units.  ``1.0`` (default)
            reproduces the paper's one-minute batching.
        track_memory: Enable peak-memory tracking in the metrics.
        keep_details: Store a :class:`PeriodOutcome` per window holding
            an event (``period`` holds the window index).  Unlike the
            batch engine, which emits an empty outcome for every period
            of its fixed horizon, the streaming engine reports no
            event-less window (there is no horizon, only events), so
            those are absent from ``outcomes`` — join batch and streaming
            outcome lists on their ``period`` field, not by position.
            The *metrics* are unaffected: both engines record metric rows
            only for task-bearing periods/windows.
        max_degree: Optional per-task adjacency cap (nearest workers
            only) for the window instances; ``None`` keeps exact graphs.

    The result is the same :class:`SimulationResult` the batch engine
    returns, so reports, sweeps and tests consume both interchangeably.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        seed: int = 0,
        window: float = 1.0,
        track_memory: bool = False,
        keep_details: bool = False,
        max_degree: Optional[int] = None,
    ) -> None:
        self.stream = stream
        self.seed = int(seed)
        self.window = checked_duration(window, "window")
        self.track_memory = bool(track_memory)
        self.keep_details = bool(keep_details)
        self.max_degree = None if max_degree is None else int(max_degree)

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def calibrate_base_price(
        self,
        grids: Optional[Sequence[int]] = None,
        config=None,
        seed: Optional[int] = None,
    ):
        """Run Algorithm 1 against the stream's acceptance ground truth.

        Unlike the batch engine, the stream cannot be pre-scanned for
        grids with demand without consuming it, so by default calibration
        consults the stream's :attr:`~ArrivalStream.demand_grids` registry
        metadata (the demand-cell set the scenario generator already
        knows) and only falls back to *every* grid cell when the stream
        carries none — the old default, which on a ``city_scale`` grid
        probes hundreds of cells that never see a task.  With metadata
        present the grid list is identical to the batch engine's
        demand scan, so both calibrations return the same result
        bit-for-bit (asserted by ``tests/simulation/test_streaming.py``).
        """
        if grids is None:
            grids = resolve_demand_grids(self.stream)
        if grids is None:
            grids = sorted(cell.index for cell in self.stream.grid.cells())
        return calibrate_base_price_for_context(
            acceptance=self.stream.acceptance,
            price_bounds=self.stream.price_bounds,
            seed=self.seed if seed is None else seed,
            grids=grids,
            config=config,
        )

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, strategy: PricingStrategy) -> SimulationResult:
        """Dispatch the full stream with one pricing strategy.

        One pass of the one-shard batch loop over the windows: new
        workers join the pool, expired workers leave, the window's tasks
        are quoted, decided and matched against the free pool, and
        matched workers leave the pool for good, so the committed
        matching only grows.
        """
        windows = _WindowColumns(self.stream, self.window)
        result = ShardedEngine(
            windows,
            seed=self.seed,
            track_memory=self.track_memory,
            keep_details=self.keep_details,
            max_degree=self.max_degree,
        ).run(strategy)
        if self.keep_details:
            event_windows = set(windows.event_windows)
            result.outcomes = [
                outcome for outcome in result.outcomes if outcome.period in event_windows
            ]
        return result

    def run_many(self, strategies: Sequence[PricingStrategy]) -> Dict[str, SimulationResult]:
        """Run several strategies over the same stream (same randomness).

        Requires a re-iterable event source (a collection or a factory
        callable); a one-shot generator is consumed by the first run and
        the second run raises :class:`ValueError` (see
        :meth:`ArrivalStream.iter_events`).
        """
        return {strategy.name: self.run(strategy) for strategy in strategies}


# ---------------------------------------------------------------------------
# the dynamic matcher rule and the settlement loop
# ---------------------------------------------------------------------------
class _LiveSessionMatcher:
    """Positional :class:`DynamicMatcher` facade over the live planes.

    The uncapped dynamic matcher: a
    :class:`~repro.spatial.index.IncrementalAdjacencyIndex` (both planes)
    plus a :class:`~repro.matching.incremental.LazyDynamicMatcher` with
    the transpose maintained, driven in lockstep so index slots and
    matcher ids coincide.  Slots are allocated in *market-entry* order
    (accepted tasks / joined workers only), so they are private to this
    adapter; callers keep talking in universe positions and the maps
    here translate.  Rows are computed against the live population only
    — per-arrival cost tracks the live neighbourhood, not the stream
    horizon.

    Exposes exactly the methods :class:`DispatchSession` and the
    ``rewindow`` rebuild call on the universe
    :class:`DynamicMatcher` (``insert_workers`` / ``insert_tasks`` /
    ``is_task_matched`` / ``task_of`` / ``commit_task`` /
    ``remove_task`` / ``remove_worker``, plus the ``total_weight`` /
    ``is_valid_matching`` views the per-window gates read), with
    identical positional semantics — the lazy matcher's repairs are
    bit-identical to the universe delta repairs over the same arrival
    sequence (the fuzzed contract of ``tests/matching/test_lazy_dynamic.py``,
    which keeps the universe matcher as its lockstep oracle).

    Inserts take batches and pay one plane query per batch: a batch of
    joining workers is one ``insert_workers`` plus one ``worker_rows``
    call, a batch of tasks one ``task_rows`` plus one ``insert_tasks``
    call.  The rows then enter the lazy matcher one by one in batch
    order, exactly as one-element batches would: joins only add
    workers, so the task plane a worker row reads does not change
    during a batch, and inserts only add tasks, so the worker plane a
    task row reads does not either.
    """

    def __init__(
        self,
        grid: Grid,
        metric: str,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
    ) -> None:
        self.plane = IncrementalAdjacencyIndex(
            grid, metric=metric, max_degree=None
        )
        self.lazy = LazyDynamicMatcher()
        self._tasks = tasks
        self._workers = workers
        self._task_slot: Dict[int, int] = {}
        self._task_pos: List[int] = []
        self._worker_slot: Dict[int, int] = {}
        self._worker_pos: Dict[int, int] = {}

    def _guard(self, slot: int, lazy_id: int, side: str) -> None:
        if slot != lazy_id:
            raise RuntimeError(
                f"live-plane {side} slots diverged: plane allocated "
                f"{slot}, matcher allocated {lazy_id}"
            )

    def insert_workers(self, worker_positions: Sequence[int]) -> None:
        """Bring a batch of workers live, in order."""
        if not worker_positions:
            return
        workers = [self._workers[pos] for pos in worker_positions]
        slots = self.plane.insert_workers(
            [worker.location.x for worker in workers],
            [worker.location.y for worker in workers],
            [worker.radius for worker in workers],
        )
        rows = self.plane.worker_rows(slots)
        for worker_pos, slot, row in zip(worker_positions, slots.tolist(), rows):
            lazy_id, _ = self.lazy.new_worker(row)
            self._guard(slot, lazy_id, "worker")
            self._worker_slot[worker_pos] = slot
            self._worker_pos[slot] = worker_pos

    def remove_worker(self, worker_pos: int) -> None:
        slot = self._worker_slot.pop(worker_pos)
        del self._worker_pos[slot]
        self.lazy.remove_worker(slot)
        self.plane.remove_worker(slot)

    def insert_tasks(
        self,
        task_positions: Sequence[int],
        weights: Sequence[float],
        greedy: bool = False,
    ) -> List[bool]:
        """Insert a batch of tasks in order; whether each matched on entry.

        ``greedy`` takes the lazy matcher's bounded first-free-worker
        path instead of the exact delta repair for every task of the
        batch.
        """
        if not task_positions:
            return []
        origins = [self._tasks[pos].origin for pos in task_positions]
        xs = [origin.x for origin in origins]
        ys = [origin.y for origin in origins]
        rows = self.plane.task_rows(xs, ys)
        slots = self.plane.insert_tasks(xs, ys).tolist()
        matched: List[bool] = []
        for task_pos, weight, slot, row in zip(task_positions, weights, slots, rows):
            lazy_id, hit = self.lazy.new_task(row, weight, greedy=greedy)
            self._guard(slot, lazy_id, "task")
            self._task_slot[task_pos] = slot
            self._task_pos.append(task_pos)
            matched.append(hit)
        return matched

    def is_task_matched(self, task_pos: int) -> bool:
        # Never inserted (a rejected quote), committed or expired: not
        # matched, as for the universe matcher.
        slot = self._task_slot.get(task_pos)
        return slot is not None and self.lazy.worker_of(slot) is not None

    def task_of(self, worker_pos: int) -> Optional[int]:
        slot = self._worker_slot.get(worker_pos)
        task_slot = None if slot is None else self.lazy.task_of(slot)
        return None if task_slot is None else self._task_pos[task_slot]

    def total_weight(self) -> float:
        return self.lazy.total_weight()

    def is_valid_matching(self) -> bool:
        return self.lazy.is_valid_matching()

    def commit_task(self, task_pos: int) -> int:
        slot = self._task_slot.pop(task_pos)
        worker_slot = self.lazy.commit_task(slot)
        self.plane.remove_task(slot)
        self.plane.remove_worker(worker_slot)
        worker_pos = self._worker_pos.pop(worker_slot)
        del self._worker_slot[worker_pos]
        return worker_pos

    def remove_task(self, task_pos: int) -> None:
        slot = self._task_slot.pop(task_pos)
        self.lazy.remove_task(slot)
        self.plane.remove_task(slot)


#: Either dynamic matcher; both expose the same positional interface.
_Matcher = Union[DynamicMatcher, _LiveSessionMatcher]
#: One settlement: ``(kind, due, task_pos, worker_pos, revenue)``.
_Settled = Tuple[str, float, Optional[int], Optional[int], float]


def _dynamic_matcher(
    stream: ArrivalStream,
    max_degree: Optional[int],
    universe: PeriodInstance,
) -> _Matcher:
    """The one backend rule: the degree cap alone picks the dynamic matcher.

    Uncapped, the live plane (:class:`_LiveSessionMatcher` over the
    universe's position-aligned tasks and workers): an insert costs its
    live neighbourhood and the universe graph is never read.  Capped,
    the universe :class:`DynamicMatcher` over ``universe.graph``: the cap
    keeps a task's nearest live-*or-future* workers, a whole-universe
    rule the live plane does not define.  :class:`DispatchSession`, and
    so both of its drivers, the service and the ``rewindow`` rebuild,
    gets its matcher here.

    An uncapped run's floats equal the universe matcher's even though
    windowed tasks enter in ``(-weight, position)`` order, so lazy task
    slots are not universe positions; ``docs/dynamic_matching.md`` ("The
    backend rule") gives the three facts that carry it.
    """
    if max_degree is None:
        return _LiveSessionMatcher(
            stream.grid, stream.metric, universe.tasks, universe.workers
        )
    return DynamicMatcher(universe.graph, [0.0] * len(universe.tasks))


def _settle(
    matcher: _Matcher,
    deadlines: List[Tuple[float, int]],
    departures: List[Tuple[float, int]],
    live_weights: Dict[int, float],
    live_workers: set,
    bound: float,
) -> Iterator[_Settled]:
    """Commit, expire and depart everything due at or before ``bound``.

    The settlement loop of every dynamic engine.  Deadlines and
    departures interleave in global time order, deadlines first on ties,
    then position order (both heaps are keyed ``(time, position)``); an
    entry whose task or worker already left is skipped, so liveness is
    re-checked on every pop.  Yields one :data:`_Settled` per settlement
    in processing order — ``kind`` is ``"commit"`` (``revenue`` is the
    task's weight), ``"expire"`` or ``"depart"`` — and settles lazily, so
    the caller must exhaust it.
    """
    while deadlines or departures:
        due_deadline = deadlines[0][0] if deadlines else math.inf
        due_departure = departures[0][0] if departures else math.inf
        if min(due_deadline, due_departure) > bound:
            return
        if due_deadline <= due_departure:
            due, task_pos = heapq.heappop(deadlines)
            if task_pos not in live_weights:
                continue
            weight = live_weights.pop(task_pos)
            if matcher.is_task_matched(task_pos):
                worker_pos = matcher.commit_task(task_pos)
                live_workers.discard(worker_pos)
                yield "commit", due, task_pos, worker_pos, weight
            else:
                matcher.remove_task(task_pos)
                yield "expire", due, task_pos, None, 0.0
        else:
            due, worker_pos = heapq.heappop(departures)
            if worker_pos not in live_workers:
                continue  # retired by an earlier commit
            matcher.remove_worker(worker_pos)
            live_workers.discard(worker_pos)
            yield "depart", due, None, worker_pos, 0.0


def _commit_totals(settlements: Iterable["Settlement"]) -> Tuple[float, int]:
    """Revenue (summed from ``0.0`` in settlement order) and commits."""
    revenue = 0.0
    commits = 0
    for settlement in settlements:
        if settlement.kind == "commit":
            revenue += settlement.revenue
            commits += 1
    return revenue, commits


def _refuse_batch_planner(strategy: PricingStrategy) -> None:
    """Refuse MAPS, which plans a batch's supply and so cannot quote one event."""
    if strategy.name == "MAPS":
        raise ValueError(
            "MAPS prices a window batch against its worker supply and "
            "cannot quote single events; choose a grid-state strategy "
            "(BaseP, SDR, SDE, CappedUCB) for event-at-a-time dispatch"
        )


# ---------------------------------------------------------------------------
# dynamic (delta-repair) dispatch
# ---------------------------------------------------------------------------
class DynamicStreamingEngine(StreamingEngine):
    """Window dispatch that maintains *one* matching under churn.

    Where :class:`StreamingEngine` freezes a task's assignment in the
    window it arrives (match-or-lose-forever), this engine keeps accepted
    tasks *tentatively* matched across windows until their deadline, and
    applies every population change as a *delta* to a single maintained
    maximum-weight matching:

    * an accepted task **inserts** (possibly evicting a lower-priority
      tentative task from its transversal-matroid circuit);
    * a departing worker **removes**, repairing only along the alternating
      paths the deletion touched;
    * at a task's deadline the tentative pair — if any — **commits**
      (revenue is realised, the worker retires), otherwise the task
      expires unserved.

    The maintained matching always equals the batch ``matroid`` re-solve
    over the *live* population (the tests assert this per window), so the
    engine is a per-window re-solve whose cost scales with the churn
    delta, not the standing population.

    The engine is a thin driver: it groups the stream into windows and
    hands each to :meth:`DispatchSession.on_window`, which owns the
    matcher, the live population and the deadline and departure heaps.
    The **backend rule** is the session's (:func:`_dynamic_matcher`):
    without ``max_degree`` the matching lives on the live adjacency
    plane (:class:`~repro.spatial.index.IncrementalAdjacencyIndex` +
    :class:`~repro.matching.incremental.LazyDynamicMatcher`), so an
    arrival costs its live neighbourhood and no universe graph is built;
    a capped run uses the universe
    :class:`~repro.matching.incremental.DynamicMatcher` (the cap is a
    whole-universe rule).  Both ``resolve`` modes follow the rule.

    Args:
        stream: The arrival stream.  **Must be re-iterable** (a collection
            or factory callable): the engine pre-scans the events once
            into the session's universe, then streams them again.
        seed: Accept/reject RNG seed, derived as in the base engine.
        window: Dispatch window length in period units.
        task_lifetime: Default number of period units an accepted task
            stays open (from its arrival time) before its tentative
            assignment commits or the requester gives up.  Per-task
            ``Task.duration`` overrides it.
        resolve: ``"delta"`` (default) repairs the maintained matching
            incrementally; ``"rewindow"`` rebuilds it from scratch every
            dispatched window, a test oracle that the delta mode must
            equal window for window.  Both modes settle
            deadlines/departures identically.
        max_degree: Optional per-task adjacency cap on the *universe*
            graph (nearest live-or-future workers); selects the universe
            matcher.
        track_memory / keep_details: As in the base engine.

    Feedback semantics: the pricing strategy observes a task as "served"
    if it is *tentatively* matched at the end of its arrival window — the
    platform's best knowledge at quote time.  A later eviction or worker
    departure can still expire it unserved; metric rows record revenue
    and served counts at *commit* time, so ``total_revenue`` is exactly
    the committed revenue.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        seed: int = 0,
        window: float = 1.0,
        task_lifetime: float = 4.0,
        resolve: str = "delta",
        max_degree: Optional[int] = None,
        track_memory: bool = False,
        keep_details: bool = False,
    ) -> None:
        super().__init__(
            stream,
            seed=seed,
            window=window,
            track_memory=track_memory,
            keep_details=keep_details,
            max_degree=max_degree,
        )
        self.task_lifetime = checked_duration(task_lifetime, "task_lifetime")
        if resolve not in ("delta", "rewindow"):
            raise ValueError(
                f"unknown resolve mode {resolve!r}; choose 'delta' or 'rewindow'"
            )
        self.resolve = resolve

    def _rebuild(
        self,
        universe: PeriodInstance,
        live_weights: Dict[int, float],
        live_workers: set,
    ) -> _Matcher:
        """Fresh batch re-solve over the live population (rewindow mode)."""
        matcher = _dynamic_matcher(self.stream, self.max_degree, universe)
        matcher.insert_workers(sorted(live_workers))
        order = sorted(live_weights, key=lambda pos: (-live_weights[pos], pos))
        matcher.insert_tasks(order, [live_weights[pos] for pos in order])
        return matcher

    def _post_window_hook(
        self,
        widx: int,
        matcher: _Matcher,
        live_weights: Dict[int, float],
        live_workers: set,
        universe: PeriodInstance,
    ) -> None:
        """Test seam: called after each dispatched window's deltas apply."""

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, strategy: PricingStrategy) -> SimulationResult:
        """Dispatch the full stream, maintaining one matching under churn.

        Each dispatched window goes to :meth:`DispatchSession.on_window`
        (settle to the window start, join its workers, quote and decide
        its tasks against the free live workers, insert the accepted
        ones, feed back).  After the last event the session drains
        (tentative pairs commit unless their worker departs first).
        """
        collector = MetricsCollector(strategy.name, track_memory=self.track_memory)
        collector.start()
        session = DispatchSession(
            self.stream,
            strategy,
            seed=self.seed,
            task_lifetime=self.task_lifetime,
            max_degree=self.max_degree,
            universe=build_universe(self.stream, max_degree=self.max_degree),
            collector=collector,
        )
        outcomes: List[PeriodOutcome] = []
        next_task = 0
        next_worker = 0
        for widx, tasks, workers in _windows(self.stream, self.window):
            outcome = session.on_window(
                widx,
                widx * self.window,
                range(next_task, next_task + len(tasks)),
                range(next_worker, next_worker + len(workers)),
            )
            next_task += len(tasks)
            next_worker += len(workers)
            if self.resolve == "rewindow":
                session.matcher = self._rebuild(
                    session.universe, session.live_weights, session.live_workers
                )
            self._post_window_hook(
                widx,
                session.matcher,
                session.live_weights,
                session.live_workers,
                session.universe,
            )
            if outcome.num_tasks or outcome.revenue or outcome.served_tasks:
                collector.record_period(
                    revenue=outcome.revenue,
                    served_tasks=outcome.served_tasks,
                    accepted_tasks=outcome.accepted_tasks,
                    total_tasks=outcome.num_tasks,
                )
            if self.keep_details:
                outcomes.append(outcome)

        # Drain everything still pending after the final event.
        revenue, commits = _commit_totals(session.drain())
        if revenue or commits:
            collector.record_period(
                revenue=revenue,
                served_tasks=commits,
                accepted_tasks=0,
                total_tasks=0,
            )

        metrics = collector.finish()
        return SimulationResult(
            metrics=metrics, outcomes=outcomes, description=self.stream.description
        )


# ---------------------------------------------------------------------------
# event-at-a-time dispatch
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class QuoteOutcome:
    """What happened to one task arrival at quote time.

    Attributes:
        task_pos: Universe position of the task.
        task_id: The task's id (wire-level identity for the service).
        grid_index: Cell the quote was priced for.
        price: The quoted (clamped) price.
        accepted: Whether the requester accepted the quote.
        matched: Whether the task is tentatively matched right after its
            insertion (commitment only happens at the deadline).
        degraded: Whether the degraded greedy insert path served the
            quote instead of the exact delta repair.
        weight: The task's matching weight (``distance * price``); zero
            for rejected quotes.
        deadline: When the tentative assignment settles (``None`` for
            rejected quotes, which never enter the matching).
    """

    task_pos: int
    task_id: int
    grid_index: Optional[int]
    price: float
    accepted: bool
    matched: bool
    degraded: bool
    weight: float
    deadline: Optional[float]


@dataclass(frozen=True)
class Settlement:
    """One settlement record: a commit, an expiry or a departure.

    ``kind`` is ``"commit"`` (tentative pair realised at the task's
    deadline; ``revenue`` is its weight), ``"expire"`` (deadline passed
    unmatched) or ``"depart"`` (worker left the market).  ``time`` is the
    simulation time the settlement was due, not the wall clock it was
    processed at.
    """

    kind: str
    time: float
    task_id: Optional[int] = None
    worker_id: Optional[int] = None
    revenue: float = 0.0


class DispatchSession:
    """Dispatch over one maintained matching: the one session core.

    The session owns the position-aligned universe
    (:func:`build_universe`), one resident dynamic matcher
    (:func:`_dynamic_matcher`), the live task weights and workers, and
    the deadline and departure heaps.  Every arrival takes the same
    steps: settle everything due up to its time, join workers as one
    batch, quote and decide tasks, insert the accepted ones as one batch
    in ``eligible_order`` with a deadline at arrival + lifetime, and
    feed the tentative serve signals back.  Two drivers feed it:
    :meth:`on_window` takes a window as one micro-batch
    (:class:`DynamicStreamingEngine`), and :meth:`on_task` /
    :meth:`on_worker` / :meth:`depart_worker` take one event at a time,
    as one-element batches (:class:`EventStreamingEngine` and
    ``repro.service``, whose differential gate against the offline
    engine is exact because both make the same calls on the same
    floats).  A task or worker position already live, or repeated in
    one window, is refused like a bad time.

    The drivers differ in two documented ways (``docs/service.md``).  A
    window settles and checks worker expiry at its *start*, an event at
    its own time.  And an event is priced on a single-task instance with
    no workers: SDR, SDE and CappedUCB, which read ``workers_by_grid``,
    see no supply there, and MAPS, which plans against the batch's
    supply, cannot quote it at all (:meth:`on_task` refuses it).  Every
    event time must be finite and no earlier than :attr:`clock`; a bad
    time raises :class:`ValueError` before any state changes.

    Args:
        stream: The arrival stream (market context; its events are read
            only to pre-scan the universe when ``universe`` is not
            supplied).
        strategy: The pricing strategy; it is ``reset()`` and then owned
            by the session (feedback mutates its state).
        seed: Accept/reject RNG seed, derived exactly as the engines do.
        task_lifetime: Default task lifetime (``Task.duration`` overrides
            per task).
        max_degree: Optional universe adjacency cap; selects the universe
            matcher (which builds the universe graph) and caps each
            window instance's graph.
        universe: Pre-built ``(instance, task_arrivals, worker_arrivals)``
            triple from :func:`build_universe` (with the same
            ``max_degree``); when omitted the session pre-scans the
            stream itself.
        collector: Optional :class:`MetricsCollector`; stage timings are
            attributed like the batch engine (quote/observe → pricing,
            decide/feedback → decide, settle/join/insert → matching).
        stage_hook: Optional ``(stage, seconds)`` callback observing wall
            time per stage (``settle``/``quote``/``decide``/``match``/
            ``feedback``) — the service's latency histograms.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        strategy: PricingStrategy,
        seed: int = 0,
        task_lifetime: float = 4.0,
        max_degree: Optional[int] = None,
        universe: Optional[Tuple[PeriodInstance, Sequence[float], Sequence[float]]] = None,
        collector: Optional[MetricsCollector] = None,
        stage_hook: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        self.stream = stream
        self.strategy = strategy
        self.seed = int(seed)
        self.task_lifetime = checked_duration(task_lifetime, "task_lifetime")
        self.max_degree = max_degree
        if universe is None:
            universe = build_universe(stream, max_degree=max_degree)
        self.universe, self._task_arrivals, self._worker_arrivals = universe
        self._tasks: Sequence[Task] = self.universe.tasks
        self._workers: Sequence[Worker] = self.universe.workers
        self.collector = collector
        self.stage_hook = stage_hook

        strategy.reset()
        self.rng = np.random.default_rng(
            derive_seed(self.seed, "acceptance", strategy.name)
        )
        self.pipeline = PeriodPipeline(
            price_bounds=stream.price_bounds,
            acceptance=stream.acceptance,
        )
        self.matcher = _dynamic_matcher(stream, max_degree, self.universe)
        self.live_weights: Dict[int, float] = {}
        self.live_workers: set = set()
        self._deadlines: List[Tuple[float, int]] = []
        self._departures: List[Tuple[float, int]] = []
        self.clock = 0.0

        # Outcome counters (the service's /stats surface reads these).
        self.revenue = 0.0
        self.quoted = 0
        self.accepted = 0
        self.degraded = 0
        self.committed = 0
        self.expired = 0
        self.departed = 0
        self.commit_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # stage timing and the clock
    # ------------------------------------------------------------------
    @contextmanager
    def _staged(self, stage: str, timer_name: str) -> Iterator[None]:
        """Stack the collector timer and the stage hook."""
        start = perf_counter() if self.stage_hook is not None else 0.0
        if self.collector is not None:
            with getattr(self.collector, timer_name)():
                yield
        else:
            yield
        if self.stage_hook is not None:
            self.stage_hook(stage, perf_counter() - start)

    def _advance(self, time: float) -> float:
        """Move the clock to ``time``, refusing a non-finite or past time.

        Every entry point calls it first: no due time compares greater
        than NaN, so a NaN bound would settle everything pending.
        """
        at = float(time) if isinstance(time, numbers.Real) else math.nan
        if not (math.isfinite(at) and at >= self.clock):
            raise ValueError(
                f"event time {time!r} must be finite and not before the "
                f"session clock {self.clock!r}"
            )
        self.clock = at
        return at

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------
    def settle_until(self, bound: float) -> List[Settlement]:
        """Commit/expire/depart everything due at or before ``bound``.

        Runs the settlement loop (:func:`_settle`) and returns the
        settlement records in processing order.
        """
        records: List[Settlement] = []
        for kind, due, task_pos, worker_pos, amount in _settle(
            self.matcher, self._deadlines, self._departures,
            self.live_weights, self.live_workers, bound,
        ):
            task_id = None if task_pos is None else self._tasks[task_pos].task_id
            worker_id = (
                None if worker_pos is None else self._workers[worker_pos].worker_id
            )
            if kind == "commit":
                self.revenue += amount
                self.committed += 1
                self.commit_log.append((task_id, worker_id))
            elif kind == "expire":
                self.expired += 1
            else:
                self.departed += 1
            records.append(Settlement(kind, due, task_id, worker_id, amount))
        return records

    def drain(self) -> List[Settlement]:
        """Settle everything still pending (end of stream)."""
        with self._staged("settle", "time_matching"):
            return self.settle_until(math.inf)

    # ------------------------------------------------------------------
    # the shared steps
    # ------------------------------------------------------------------
    def _refuse_live(
        self, task_positions: Sequence[int], worker_positions: Sequence[int]
    ) -> None:
        """Refuse a position that is live or repeated, before any state change.

        A second live copy of a position would leave the live plane two
        slots for one universe position (a phantom worker that serves a
        task, then a ``KeyError`` at settlement).  Checked against the
        population live when the call is made, before it settles.
        """
        for side, positions, live in (
            ("task", task_positions, self.live_weights),
            ("worker", worker_positions, self.live_workers),
        ):
            seen: set = set()
            for pos in positions:
                if pos in live or pos in seen:
                    raise ValueError(
                        f"{side} position {pos} is already live or repeated "
                        "in one call"
                    )
                seen.add(pos)

    def _join(self, worker_positions: Sequence[int], at: float) -> List[int]:
        """Enter workers into the market at ``at`` as one batch.

        Returns the positions that joined, in order; a worker whose
        availability ended at or before ``at`` does not.
        """
        joined: List[int] = []
        for worker_pos in worker_positions:
            worker = self._workers[worker_pos]
            if worker.duration is not None:
                departs = float(worker.period + worker.duration)
                if departs <= at:
                    continue  # its availability ended before it arrived
                heapq.heappush(self._departures, (departs, worker_pos))
            joined.append(worker_pos)
        self.matcher.insert_workers(joined)
        self.live_workers.update(joined)
        return joined

    def _instance(
        self,
        period: int,
        task_positions: Sequence[int],
        worker_positions: Sequence[int],
    ) -> PeriodInstance:
        """The instance over universe positions, sliced from the universe arrays.

        Its tasks and workers are the universe's (annotated when it was
        built), its arrays a :meth:`~repro.core.gdp.PeriodArrays.take` of
        the universe's.  Only the MAPS planner reads an instance graph,
        so it stays deferred: the matchers keep their own adjacency.
        """
        return PeriodInstance.from_arrays(
            period,
            self.stream.grid,
            [self._tasks[pos] for pos in task_positions],
            [self._workers[pos] for pos in worker_positions],
            self.universe.ensure_arrays().take(task_positions, worker_positions),
            metric=self.stream.metric,
            max_degree=self.max_degree,
        )

    def _lifetime(self, task: Task) -> float:
        return float(task.duration if task.duration is not None else self.task_lifetime)

    def _dispatch(
        self,
        instance: PeriodInstance,
        task_positions: Sequence[int],
        arrivals: Sequence[float],
        degrade: bool = False,
    ) -> Tuple[Dict[int, float], DecideResult, Dict[int, int]]:
        """Quote, decide, insert and feed back ``instance.tasks``.

        ``task_positions[i]`` / ``arrivals[i]`` are the universe position
        and arrival time of task ``i``.  Returns the grid prices, the
        decision and the tentatively matched local positions.
        """
        with self._staged("quote", "time_pricing"):
            grid_prices = self.pipeline.quote(self.strategy, instance)
        with self._staged("decide", "time_decide"):
            decision = self.pipeline.decide(instance, grid_prices, self.rng)
        with self._staged("match", "time_matching"):
            weights = instance.ensure_arrays().distances * decision.prices
            weight_arr, order = eligible_order(
                instance.num_tasks, weights, decision.accepted_positions
            )
            inserted = [task_positions[local_pos] for local_pos in order]
            inserted_weights = [float(weight_arr[local_pos]) for local_pos in order]
            self.matcher.insert_tasks(inserted, inserted_weights, greedy=degrade)
            for local_pos, task_pos, weight in zip(order, inserted, inserted_weights):
                self.live_weights[task_pos] = weight
                deadline = arrivals[local_pos] + self._lifetime(instance.tasks[local_pos])
                heapq.heappush(self._deadlines, (deadline, task_pos))
            if degrade:
                self.degraded += len(inserted)
        # Tentative serve signals: what the platform believes at quote
        # time (the feedback stage reads the matched-task keys only).
        tentative = {
            local_pos: -1
            for local_pos, task_pos in enumerate(task_positions)
            if self.matcher.is_task_matched(task_pos)
        }
        with self._staged("feedback", "time_decide"):
            batch = self.pipeline.feedback(instance, decision, tentative)
        with self._staged("feedback", "time_pricing"):
            self.strategy.observe_feedback_batch(batch)
        self.quoted += len(task_positions)
        self.accepted += int(decision.accepted.sum())
        return grid_prices, decision, tentative

    # ------------------------------------------------------------------
    # the window driver's entry point
    # ------------------------------------------------------------------
    def on_window(
        self,
        period: int,
        start: float,
        task_positions: Sequence[int],
        worker_positions: Sequence[int],
    ) -> PeriodOutcome:
        """Dispatch one window as a micro-batch.

        Settles to the window ``start``, joins the window's workers as
        one batch, then quotes and decides its tasks as one instance
        against the free live workers and inserts the accepted ones as
        one batch.  The returned outcome counts those free workers and
        the commits settled at ``start``.

        Raises:
            ValueError: for a bad ``start``, or a task or worker position
                that is already live or repeated in the window; before
                any state change.
        """
        self._refuse_live(task_positions, worker_positions)
        at = self._advance(start)
        with self._staged("settle", "time_matching"):
            revenue, commits = _commit_totals(self.settle_until(at))
        with self._staged("match", "time_matching"):
            self._join(worker_positions, at)
        grid_prices: Dict[int, float] = {}
        accepted = 0
        num_free = 0
        if task_positions:
            free = [
                pos for pos in sorted(self.live_workers)
                if self.matcher.task_of(pos) is None
            ]
            num_free = len(free)
            instance = self._instance(period, task_positions, free)
            grid_prices, decision, _ = self._dispatch(
                instance,
                task_positions,
                [self._task_arrivals[pos] for pos in task_positions],
            )
            accepted = int(decision.accepted.sum())
        return PeriodOutcome(
            period=period,
            num_tasks=len(task_positions),
            num_workers=num_free,
            prices=grid_prices,
            accepted_tasks=accepted,
            served_tasks=commits,
            revenue=revenue,
        )

    # ------------------------------------------------------------------
    # the event driver's entry points
    # ------------------------------------------------------------------
    def on_worker(
        self, worker_pos: int, time: Optional[float] = None
    ) -> Tuple[bool, List[Settlement]]:
        """A worker comes online: settle up to now, then join the market.

        Returns ``(joined, settlements)``; ``joined`` is ``False`` when
        the worker's availability already expired at its own arrival
        time (a zero-length shift).  The join is a one-element batch.

        Raises:
            ValueError: for a bad time or an already live worker; either
                before any state change.
        """
        self._refuse_live((), (worker_pos,))
        at = self._advance(self._worker_arrivals[worker_pos] if time is None else time)
        with self._staged("settle", "time_matching"):
            settlements = self.settle_until(at)
        with self._staged("match", "time_matching"):
            joined = bool(self._join((worker_pos,), at))
        return joined, settlements

    def depart_worker(
        self, worker_pos: int, time: float
    ) -> Tuple[bool, List[Settlement]]:
        """Explicit worker departure (e.g. a service disconnect message).

        Returns ``(departed, settlements)``; ``departed`` is ``False``
        when the worker was not live (never joined, already committed or
        already departed).  Any duration-scheduled departure left in the
        heap is skipped when it comes up (liveness is re-checked there).
        """
        at = self._advance(time)
        with self._staged("settle", "time_matching"):
            settlements = self.settle_until(at)
        if worker_pos not in self.live_workers:
            return False, settlements
        with self._staged("match", "time_matching"):
            self.matcher.remove_worker(worker_pos)
        self.live_workers.discard(worker_pos)
        self.departed += 1
        settlements = settlements + [
            Settlement(
                kind="depart",
                time=at,
                worker_id=self._workers[worker_pos].worker_id,
            )
        ]
        return True, settlements

    def on_task(
        self,
        task_pos: int,
        time: Optional[float] = None,
        degrade: bool = False,
    ) -> Tuple[QuoteOutcome, List[Settlement]]:
        """A task arrives: settle up to now, quote, decide, insert.

        The quote runs on a single-task instance with no workers, the
        accept/reject decision consumes the RNG exactly like the batch
        decide stage, and an accepted task enters the maintained
        matching through the same steps as a window's tasks.  With
        ``degrade=True`` the insert takes the bounded greedy path
        (:meth:`~repro.matching.incremental.DynamicMatcher.insert_task_greedy`)
        instead of the exact delta repair — the service's SLO fallback.

        Raises:
            ValueError: for MAPS, which cannot quote a single event, for
                a bad time and for an already live task; each before any
                state change.
        """
        _refuse_batch_planner(self.strategy)
        self._refuse_live((task_pos,), ())
        at = self._advance(self._task_arrivals[task_pos] if time is None else time)
        with self._staged("settle", "time_matching"):
            settlements = self.settle_until(at)
        task = self._tasks[task_pos]
        instance = self._instance(window_index(at, 1.0), (task_pos,), ())
        _, decision, tentative = self._dispatch(instance, [task_pos], [at], degrade)
        inserted = task_pos in self.live_weights
        outcome = QuoteOutcome(
            task_pos=task_pos,
            task_id=task.task_id,
            grid_index=task.grid_index,
            price=float(decision.prices[0]),
            accepted=bool(decision.accepted[0]),
            matched=0 in tentative,
            degraded=degrade and inserted,
            weight=self.live_weights.get(task_pos, 0.0),
            deadline=at + self._lifetime(task) if inserted else None,
        )
        return outcome, settlements


class EventStreamingEngine(DynamicStreamingEngine):
    """Offline event-at-a-time replay: the service's reference run.

    Drives a :class:`DispatchSession` over the stream's events in order
    — no window loop at all — and aggregates metric rows per unit period
    so reports stay comparable with the other engines.  The service's
    differential gate replays the same stream over the socket and
    asserts the committed pairs and total revenue are bitwise equal to
    this engine's (``session.revenue`` accumulates per commit in
    settlement order on both sides).

    The ``window`` of the parent is fixed at ``1.0`` and only used for
    metric binning; ``resolve`` does not apply (there is nothing to
    re-window).  The stream must be re-iterable, as for the parent: the
    session pre-scans it into its universe, then the replay loop
    iterates it.  After :meth:`run`, the session is kept on
    :attr:`last_session` for gates that need the commit log.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        seed: int = 0,
        task_lifetime: float = 4.0,
        max_degree: Optional[int] = None,
        track_memory: bool = False,
        keep_details: bool = False,
    ) -> None:
        super().__init__(
            stream,
            seed=seed,
            window=1.0,
            task_lifetime=task_lifetime,
            resolve="delta",
            max_degree=max_degree,
            track_memory=track_memory,
            keep_details=keep_details,
        )
        self.last_session: Optional[DispatchSession] = None

    def run(self, strategy: PricingStrategy) -> SimulationResult:
        """Replay every event through a fresh session, in stream order."""
        collector = MetricsCollector(strategy.name, track_memory=self.track_memory)
        collector.start()
        session = DispatchSession(
            self.stream,
            strategy,
            seed=self.seed,
            task_lifetime=self.task_lifetime,
            max_degree=self.max_degree,
            collector=collector,
        )
        self.last_session = session

        # Per-unit-period aggregation for the metric rows: settlements
        # are attributed to the period they were due in, quotes to their
        # arrival period.
        rows: Dict[int, Dict[str, float]] = {}
        prices: Dict[int, Dict[int, float]] = {}
        workers_by_period: Dict[int, int] = {}

        def _row(period: int) -> Dict[str, float]:
            return rows.setdefault(
                period, {"revenue": 0.0, "commits": 0, "accepted": 0, "tasks": 0}
            )

        def _absorb(settlements: List[Settlement]) -> None:
            for settlement in settlements:
                if settlement.kind != "commit":
                    continue
                row = _row(window_index(settlement.time, 1.0))
                row["revenue"] += settlement.revenue
                row["commits"] += 1

        next_task = 0
        next_worker = 0
        for event in _validated_events(self.stream):
            if isinstance(event, TaskArrival):
                task_pos = next_task
                next_task += 1
                outcome, settlements = session.on_task(task_pos, float(event.time))
                period = window_index(float(event.time), 1.0)
                row = _row(period)
                row["tasks"] += 1
                row["accepted"] += int(outcome.accepted)
                if outcome.grid_index is not None:
                    prices.setdefault(period, {})[outcome.grid_index] = outcome.price
            else:
                worker_pos = next_worker
                next_worker += 1
                period = window_index(float(event.time), 1.0)
                workers_by_period[period] = workers_by_period.get(period, 0) + 1
                _, settlements = session.on_worker(worker_pos, float(event.time))
            _absorb(settlements)
        _absorb(session.drain())

        outcomes: List[PeriodOutcome] = []
        for period in sorted(rows):
            row = rows[period]
            if not (row["tasks"] or row["revenue"] or row["commits"]):
                continue
            collector.record_period(
                revenue=row["revenue"],
                served_tasks=int(row["commits"]),
                accepted_tasks=int(row["accepted"]),
                total_tasks=int(row["tasks"]),
            )
            if self.keep_details:
                outcomes.append(
                    PeriodOutcome(
                        period=period,
                        num_tasks=int(row["tasks"]),
                        num_workers=workers_by_period.get(period, 0),
                        prices=prices.get(period, {}),
                        accepted_tasks=int(row["accepted"]),
                        served_tasks=int(row["commits"]),
                        revenue=row["revenue"],
                    )
                )

        metrics = collector.finish()
        return SimulationResult(
            metrics=metrics, outcomes=outcomes, description=self.stream.description
        )


__all__ = [
    "ArrivalEvent",
    "ArrivalStream",
    "DispatchSession",
    "DynamicStreamingEngine",
    "EventStreamingEngine",
    "QuoteOutcome",
    "Settlement",
    "StreamingEngine",
    "TaskArrival",
    "WorkerArrival",
    "build_universe",
    "checked_duration",
    "resolve_demand_grids",
    "stream_to_workload",
    "window_index",
    "workload_to_stream",
]
