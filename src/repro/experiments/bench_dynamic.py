"""Delta-repair matching throughput vs per-window re-solve, shared by
bench and tooling.

One measurement protocol feeds two consumers:

* ``benchmarks/test_bench_dynamic.py`` — the tier-1 gate asserting the
  :class:`~repro.matching.incremental.DynamicMatcher` delta path beats a
  fresh per-window re-solve by the required factor on the high-churn
  scenario (CI-sized horizon);
* ``tools/bench_to_json.py --benchmark dynamic`` — the writer that
  records the full-size trajectory point (``BENCH_dynamic.json``).

**What is measured.**  The ``churn_city`` stream is pre-compiled into a
*trajectory*: a universe adjacency over every task/worker the stream
yields, plus per-window operation lists (worker arrivals with departure
times, accepted tasks with fixed-price weights ``d_r * base_price`` and
deadlines).  The same trajectory then runs through two passes:

* ``delta`` — one maintained :class:`DynamicMatcher`; every window
  settles due deadlines/departures (commit / expire / repair) and
  inserts the window's arrivals.  Timed: the matcher operations.
* ``rewindow`` — the baseline.  Every window rebuilds a fresh matcher
  from scratch over the live population (workers ascending, tasks in
  ``(-weight, pos)`` order — the transversal-matroid greedy, i.e. the
  batch ``matroid`` solve).  Timed: the rebuilds.  Settlement replays
  the delta pass's recorded commit/expire/depart events, so both passes
  walk the *identical* population trajectory — which is what makes the
  bit-identity check meaningful.
* ``incremental`` — the warm path this chain exists to measure: a
  :class:`~repro.matching.incremental.LazyDynamicMatcher` whose
  universe grows one arrival at a time, with candidate rows answered
  per arrival by an
  :class:`~repro.spatial.index.IncrementalAdjacencyIndex` over the live
  population.  No universe pre-scan, live-only state; timed: index
  maintenance + matcher operations.  Gated per window against
  ``incremental_rewindow``, a fresh matroid re-solve over the realised
  rows (also timed, as this path's own re-solve baseline).

**Bit-identity contract.**  After every window the rewindow pass asserts
that its freshly re-solved matching has the same matched-task basis and
the same ``repr``-identical total weight as the delta pass recorded:
the maintained matching *is* the per-window re-solve, delivered at
delta cost.  The final committed revenue is asserted ``repr``-identical
between the passes.  The incremental pass carries the same per-window
contract against re-solves over its realised rows; under a degree cap
its trajectory is its own (the realised-population cap is a denser —
strictly more useful — adjacency than the universe cap), while the
*exact* (uncapped) sub-measurement pins both passes to one trajectory
and gates every window bit-identical across the two implementations.

**Horizon chunking.**  The universe adjacency is quadratic in the
population, so a 1M-task horizon cannot be one graph.  The horizon is
chunked into independent *epochs* (fresh seed, drained at the end);
churn statistics are horizon-invariant, so per-epoch measurements sum
honestly.  ``scale`` stretches the number of epochs (the city_scale
convention: density fixed, horizon scaled); scale 1.0 is the ~1M-task
horizon (200 epochs x 125 periods x ~40 tasks/period).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.gdp import PeriodInstance
from repro.experiments.host import host_fingerprint
from repro.matching.incremental import DynamicMatcher, LazyDynamicMatcher
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import TaskArrival, _settle as settle_due, window_index
from repro.spatial.index import IncrementalAdjacencyIndex
from repro.utils.rng import derive_seed

#: Epochs at scale 1.0 — together the ~1M-task horizon.
FULL_EPOCHS = 200

#: Periods per epoch (the largest population whose universe adjacency
#: stays comfortably in memory at churn_city density).
EPOCH_PERIODS = 125


@dataclass(frozen=True)
class DynamicBenchPoint:
    """One measured resolve mode."""

    config: str
    seconds: float
    total_tasks: int
    tasks_per_second: float
    revenue: float
    committed: int


@dataclass(frozen=True)
class _WindowOps:
    """One dispatch window's pre-compiled population delta."""

    start: float
    #: ``(worker_pos, departure_time_or_None)`` in arrival order.
    workers: List[Tuple[int, Optional[float]]]
    #: ``(task_pos, weight, deadline)`` in ``(-weight, pos)`` order.
    tasks: List[Tuple[int, float, float]]


@dataclass
class _Epoch:
    graph: object
    num_tasks: int
    num_workers: int
    windows: List[_WindowOps]
    #: The lazy/incremental pass needs raw geometry, not the universe
    #: graph: per-universe-position coordinates (and worker radii) plus
    #: the grid/metric to run an :class:`IncrementalAdjacencyIndex` over.
    grid: object = None
    metric: str = "euclidean"
    task_x: Optional[np.ndarray] = None
    task_y: Optional[np.ndarray] = None
    worker_x: Optional[np.ndarray] = None
    worker_y: Optional[np.ndarray] = None
    worker_radius: Optional[np.ndarray] = None
    #: Seconds spent building the universe adjacency — the pre-scan the
    #: delta pass depends on but does not time, reported alongside so
    #: end-to-end comparisons against the index-backed pass stay honest.
    universe_build_seconds: float = 0.0


def _build_epoch(
    seed: int,
    epoch_periods: int,
    window: float,
    task_lifetime: float,
    worker_lifetime: float,
    base_price: float,
    max_degree: Optional[int],
) -> _Epoch:
    """Compile one churn_city epoch into a universe graph + window ops."""
    stream = get_scenario("churn_city").stream(
        scale=1.0,
        seed=seed,
        num_periods=epoch_periods,
        task_lifetime=task_lifetime,
        worker_lifetime=worker_lifetime,
    )
    tasks, workers, task_times = [], [], []
    per_window: Dict[int, Tuple[list, list]] = {}
    for event in stream.iter_events():
        widx = window_index(float(event.time), window)
        ops = per_window.setdefault(widx, ([], []))
        if isinstance(event, TaskArrival):
            pos = len(tasks)
            tasks.append(event.task)
            task_times.append(float(event.time))
            ops[1].append(pos)
        else:
            pos = len(workers)
            worker = event.worker
            workers.append(worker)
            departs = (
                None
                if worker.duration is None
                else float(worker.period + worker.duration)
            )
            ops[0].append((pos, departs))
    build_start = time.perf_counter()
    instance = PeriodInstance.build(
        period=0,
        grid=stream.grid,
        tasks=tasks,
        workers=workers,
        metric=stream.metric,
        max_degree=max_degree,
    )
    universe_build_seconds = time.perf_counter() - build_start
    distances = instance.ensure_arrays().distances
    windows: List[_WindowOps] = []
    for widx in sorted(per_window):
        worker_ops, task_positions = per_window[widx]
        entries = []
        for pos in task_positions:
            lifetime = (
                tasks[pos].duration
                if tasks[pos].duration is not None
                else task_lifetime
            )
            entries.append(
                (
                    pos,
                    float(distances[pos]) * base_price,
                    task_times[pos] + float(lifetime),
                )
            )
        entries.sort(key=lambda entry: (-entry[1], entry[0]))
        windows.append(
            _WindowOps(start=widx * window, workers=worker_ops, tasks=entries)
        )
    return _Epoch(
        graph=instance.graph,
        num_tasks=len(tasks),
        num_workers=len(workers),
        windows=windows,
        grid=stream.grid,
        metric=stream.metric,
        task_x=np.array([task.origin.x for task in tasks], dtype=np.float64),
        task_y=np.array([task.origin.y for task in tasks], dtype=np.float64),
        worker_x=np.array([w.location.x for w in workers], dtype=np.float64),
        worker_y=np.array([w.location.y for w in workers], dtype=np.float64),
        worker_radius=np.array([w.radius for w in workers], dtype=np.float64),
        universe_build_seconds=universe_build_seconds,
    )


@dataclass
class _DeltaTrace:
    """Everything the rewindow pass needs to replay the delta pass."""

    seconds: float = 0.0
    revenue: float = 0.0
    committed: int = 0
    #: Per window: the settlement events applied *before* its arrivals,
    #: as ``("commit", task, worker) | ("expire", task, -1) |
    #: ("depart", worker, -1)``; the last entry is the final drain.
    settlements: List[List[Tuple[str, int, int]]] = field(default_factory=list)
    #: Per window: (sorted matched-task basis, repr(total_weight)).
    bases: List[Tuple[Tuple[int, ...], str]] = field(default_factory=list)
    live_task_samples: List[int] = field(default_factory=list)
    settled_tasks: int = 0


def _settle(
    matcher: DynamicMatcher,
    deadlines: List[Tuple[float, int]],
    departures: List[Tuple[float, int]],
    live_weights: Dict[int, float],
    live_workers: set,
    bound: float,
    log: List[Tuple[str, int, int]],
) -> Tuple[float, int]:
    """Commit/expire everything due at or before ``bound`` through the
    streaming engines' settlement loop, logging the applied events."""
    revenue = 0.0
    commits = 0
    for kind, _due, task_pos, worker_pos, amount in settle_due(
        matcher, deadlines, departures, live_weights, live_workers, bound
    ):
        if kind == "commit":
            revenue += amount
            commits += 1
            log.append((kind, task_pos, worker_pos))
        elif kind == "expire":
            log.append((kind, task_pos, -1))
        else:
            log.append((kind, worker_pos, -1))
    return revenue, commits


def _run_delta(epoch: _Epoch, trace: _DeltaTrace) -> None:
    """Maintained-matching pass; times the matcher operations only."""
    matcher = DynamicMatcher(epoch.graph, [0.0] * epoch.num_tasks)
    live_weights: Dict[int, float] = {}
    live_workers: set = set()
    deadlines: List[Tuple[float, int]] = []
    departures: List[Tuple[float, int]] = []
    for ops in epoch.windows:
        log: List[Tuple[str, int, int]] = []
        start = time.perf_counter()
        revenue, commits = _settle(
            matcher, deadlines, departures, live_weights, live_workers,
            ops.start, log,
        )
        for worker_pos, departs in ops.workers:
            if departs is not None and departs <= ops.start:
                continue
            matcher.insert_worker(worker_pos)
            live_workers.add(worker_pos)
            if departs is not None:
                heapq.heappush(departures, (departs, worker_pos))
        for task_pos, weight, deadline in ops.tasks:
            matcher.insert_task(task_pos, weight)
            live_weights[task_pos] = weight
            heapq.heappush(deadlines, (deadline, task_pos))
        trace.seconds += time.perf_counter() - start
        trace.revenue += revenue
        trace.committed += commits
        trace.settlements.append(log)
        trace.settled_tasks += sum(
            1 for kind, _, _ in log if kind in ("commit", "expire")
        )
        trace.live_task_samples.append(len(live_weights))
        basis = tuple(
            sorted(pos for pos in live_weights if matcher.is_task_matched(pos))
        )
        trace.bases.append((basis, repr(matcher.total_weight())))
    # Drain everything still pending after the final window.
    log = []
    start = time.perf_counter()
    revenue, commits = _settle(
        matcher, deadlines, departures, live_weights, live_workers,
        math.inf, log,
    )
    trace.seconds += time.perf_counter() - start
    trace.revenue += revenue
    trace.committed += commits
    trace.settlements.append(log)
    trace.settled_tasks += sum(
        1 for kind, _, _ in log if kind in ("commit", "expire")
    )


def _replay(
    log: List[Tuple[str, int, int]],
    live_weights: Dict[int, float],
    live_workers: set,
) -> Tuple[float, int]:
    """Apply a recorded settlement log to the live population."""
    revenue = 0.0
    commits = 0
    for kind, pos, worker_pos in log:
        if kind == "commit":
            revenue += live_weights.pop(pos)
            commits += 1
            live_workers.discard(worker_pos)
        elif kind == "expire":
            live_weights.pop(pos)
        else:
            live_workers.discard(pos)
    return revenue, commits


def _run_rewindow(epoch: _Epoch, trace: _DeltaTrace) -> Tuple[float, float, int]:
    """Per-window re-solve pass; times the rebuilds only.

    Settlement replays the delta pass's recorded events so both passes
    walk the identical population trajectory; after every rebuild the
    matched basis and total weight are asserted bit-identical to the
    delta pass.  Returns ``(seconds, revenue, committed)``.
    """
    live_weights: Dict[int, float] = {}
    live_workers: set = set()
    seconds = 0.0
    revenue = 0.0
    committed = 0
    for index, ops in enumerate(epoch.windows):
        window_revenue, commits = _replay(
            trace.settlements[index], live_weights, live_workers
        )
        revenue += window_revenue
        committed += commits
        for worker_pos, departs in ops.workers:
            if departs is not None and departs <= ops.start:
                continue
            live_workers.add(worker_pos)
        for task_pos, weight, _ in ops.tasks:
            live_weights[task_pos] = weight
        start = time.perf_counter()
        matcher = DynamicMatcher(epoch.graph, [0.0] * epoch.num_tasks)
        for worker_pos in sorted(live_workers):
            matcher.insert_worker(worker_pos)
        for task_pos in sorted(
            live_weights, key=lambda pos: (-live_weights[pos], pos)
        ):
            matcher.insert_task(task_pos, live_weights[task_pos])
        seconds += time.perf_counter() - start
        basis = tuple(
            sorted(pos for pos in live_weights if matcher.is_task_matched(pos))
        )
        expected_basis, expected_total = trace.bases[index]
        if basis != expected_basis:
            raise AssertionError(
                f"window {index}: re-solved basis diverged from the "
                f"maintained matching ({len(basis)} vs "
                f"{len(expected_basis)} matched tasks)"
            )
        total = repr(matcher.total_weight())
        if total != expected_total:
            raise AssertionError(
                f"window {index}: re-solved total {total} != maintained "
                f"{expected_total}"
            )
    window_revenue, commits = _replay(
        trace.settlements[-1], live_weights, live_workers
    )
    revenue += window_revenue
    committed += commits
    return seconds, revenue, committed


@dataclass
class _IncrementalTotals:
    """Measurements of the index-backed lazy pass (plus its gate's cost)."""

    seconds: float = 0.0
    resolve_seconds: float = 0.0
    revenue: float = 0.0
    committed: int = 0
    windows_checked: int = 0


def _resolve_realised(
    rows_of: Dict[int, List[int]],
    weight_of_slot: Dict[int, float],
    live_workers: set,
) -> Tuple[set, float]:
    """Fresh matroid-greedy re-solve over the realised live rows.

    The incremental pass's per-window gate baseline: tasks in
    ``(-weight, slot)`` priority order, augmenting over each task's
    realised row restricted to the live workers.  Returns the matched
    task-slot basis and the total accumulated in that same priority
    order (the lazy matcher's exact float sequence).
    """
    order = sorted(weight_of_slot, key=lambda slot: (-weight_of_slot[slot], slot))
    match_worker: Dict[int, int] = {}
    for start in order:
        visited: set = set()
        tasks_stack = [start]
        iters = [iter(rows_of[start])]
        chosen: List[Optional[int]] = [None]
        success = False
        while tasks_stack:
            descended = False
            for worker in iters[-1]:
                if worker in visited or worker not in live_workers:
                    continue
                visited.add(worker)
                chosen[-1] = worker
                owner = match_worker.get(worker)
                if owner is None:
                    for task, picked in zip(tasks_stack, chosen):
                        match_worker[picked] = task
                    success = True
                    break
                tasks_stack.append(owner)
                iters.append(iter(rows_of[owner]))
                chosen.append(None)
                descended = True
                break
            if success:
                break
            if not descended:
                tasks_stack.pop()
                iters.pop()
                chosen.pop()
    basis = set(match_worker.values())
    total = 0.0
    for slot in order:
        if slot in basis:
            total += weight_of_slot[slot]
    return basis, total


def _settle_incremental(
    matcher: LazyDynamicMatcher,
    index: IncrementalAdjacencyIndex,
    task_slot: Dict[int, int],
    worker_slot: Dict[int, int],
    worker_pos_of: Dict[int, int],
    rows_of: Dict[int, List[int]],
    weight_of_slot: Dict[int, float],
    deadlines: List[Tuple[float, int]],
    departures: List[Tuple[float, int]],
    bound: float,
) -> Tuple[float, int]:
    """Commit/expire/depart everything due at or before ``bound``.

    Same global time-order rules as :func:`_settle`, but driving the
    lazy matcher and both index planes through the universe-position →
    slot maps.
    """
    revenue = 0.0
    commits = 0
    while deadlines or departures:
        due_deadline = deadlines[0][0] if deadlines else math.inf
        due_departure = departures[0][0] if departures else math.inf
        if min(due_deadline, due_departure) > bound:
            break
        if due_deadline <= due_departure:
            _, task_pos = heapq.heappop(deadlines)
            tslot = task_slot.pop(task_pos, None)
            if tslot is None:
                continue
            if matcher.worker_of(tslot) is not None:
                wslot = matcher.commit_task(tslot)
                index.remove_worker(wslot)
                revenue += weight_of_slot.pop(tslot)
                commits += 1
                del worker_slot[worker_pos_of.pop(wslot)]
            else:
                matcher.remove_task(tslot)
                weight_of_slot.pop(tslot)
            index.remove_task(tslot)
            rows_of.pop(tslot)
        else:
            _, worker_pos = heapq.heappop(departures)
            wslot = worker_slot.pop(worker_pos, None)
            if wslot is None:
                continue
            del worker_pos_of[wslot]
            matcher.remove_worker(wslot)
            index.remove_worker(wslot)
    return revenue, commits


def _run_incremental(
    epoch: _Epoch,
    max_degree: Optional[int],
    totals: _IncrementalTotals,
    trace: Optional[_DeltaTrace] = None,
) -> None:
    """Index-backed lazy pass: no universe pre-scan, live-only state.

    One :class:`LazyDynamicMatcher` whose universe grows one arrival at
    a time, with candidate rows answered per arrival by an
    :class:`IncrementalAdjacencyIndex` over the live population (batched
    per window — the chunked column ingestion the engine paths use).
    Timed: index maintenance + matcher operations, i.e. everything this
    path needs — it never builds the epoch graph the delta pass's
    untimed pre-scan produces.

    Under a degree cap the realised-population cap differs from the
    universe cap (capping does not commute with arrival order), so this
    pass walks its *own* settlement trajectory under the identical
    arrival stream and settlement rules; after every window the matched
    basis and priority-ordered total are asserted bit-identical to a
    fresh matroid re-solve over the realised rows
    (:func:`_resolve_realised`, timed as the ``incremental_rewindow``
    baseline).  Uncapped, the trajectory coincides with the delta pass's
    (checked at test scale).
    """
    index = IncrementalAdjacencyIndex(
        epoch.grid, metric=epoch.metric, max_degree=max_degree
    )
    matcher = LazyDynamicMatcher()
    task_slot: Dict[int, int] = {}
    worker_slot: Dict[int, int] = {}
    worker_pos_of: Dict[int, int] = {}
    rows_of: Dict[int, List[int]] = {}
    weight_of_slot: Dict[int, float] = {}
    deadlines: List[Tuple[float, int]] = []
    departures: List[Tuple[float, int]] = []
    for window_at, ops in enumerate(epoch.windows + [None]):
        final = ops is None
        bound = math.inf if final else ops.start
        start = time.perf_counter()
        revenue, commits = _settle_incremental(
            matcher, index, task_slot, worker_slot, worker_pos_of,
            rows_of, weight_of_slot, deadlines, departures, bound,
        )
        if not final:
            arriving = [
                (pos, departs)
                for pos, departs in ops.workers
                if departs is None or departs > ops.start
            ]
            if arriving:
                wpos = np.fromiter(
                    (pos for pos, _ in arriving), np.int64, len(arriving)
                )
                slots = index.insert_workers(
                    epoch.worker_x[wpos],
                    epoch.worker_y[wpos],
                    epoch.worker_radius[wpos],
                )
                task_rows = index.worker_rows(slots)
                for (pos, departs), slot, task_row in zip(
                    arriving, slots.tolist(), task_rows
                ):
                    wid, _ = matcher.new_worker(task_row)
                    if wid != slot:
                        raise RuntimeError(
                            "incremental index and matcher slots diverged"
                        )
                    worker_slot[pos] = slot
                    worker_pos_of[slot] = pos
                    for tslot in task_row:
                        rows_of[tslot].append(slot)
                    if departs is not None:
                        heapq.heappush(departures, (departs, pos))
            if ops.tasks:
                tpos = np.fromiter(
                    (pos for pos, _, _ in ops.tasks), np.int64, len(ops.tasks)
                )
                tx = epoch.task_x[tpos]
                ty = epoch.task_y[tpos]
                slots = index.insert_tasks(tx, ty)
                rows = index.task_rows(tx, ty)
                for (pos, weight, deadline), slot, row in zip(
                    ops.tasks, slots.tolist(), rows
                ):
                    tid, _ = matcher.new_task(row, weight)
                    if tid != slot:
                        raise RuntimeError(
                            "incremental index and matcher slots diverged"
                        )
                    task_slot[pos] = slot
                    rows_of[slot] = list(row)
                    weight_of_slot[slot] = weight
                    heapq.heappush(deadlines, (deadline, pos))
        totals.seconds += time.perf_counter() - start
        totals.revenue += revenue
        totals.committed += commits
        if final:
            break
        resolve_start = time.perf_counter()
        live_workers = set(worker_pos_of)
        basis, total = _resolve_realised(rows_of, weight_of_slot, live_workers)
        totals.resolve_seconds += time.perf_counter() - resolve_start
        maintained = set(matcher.matching())
        if maintained != basis:
            raise AssertionError(
                f"incremental basis diverged from the realised-row re-solve "
                f"({len(maintained)} vs {len(basis)} matched tasks)"
            )
        maintained_total = repr(matcher.total_weight())
        if maintained_total != repr(total):
            raise AssertionError(
                f"incremental total {maintained_total} != re-solved {total!r}"
            )
        totals.windows_checked += 1
        if trace is not None:
            # Uncapped, the realised adjacency is the universe adjacency
            # restricted to the live population, so the maintained state
            # must be bit-identical to the delta pass window by window.
            expected_basis, expected_total = trace.bases[window_at]
            universe_basis = tuple(
                sorted(
                    pos
                    for pos, slot in task_slot.items()
                    if matcher.worker_of(slot) is not None
                )
            )
            if universe_basis != expected_basis:
                raise AssertionError(
                    f"window {window_at}: incremental basis diverged from "
                    f"the delta pass ({len(universe_basis)} vs "
                    f"{len(expected_basis)} matched tasks)"
                )
            if maintained_total != expected_total:
                raise AssertionError(
                    f"window {window_at}: incremental total "
                    f"{maintained_total} != delta {expected_total}"
                )


def measure_dynamic_throughput(
    scale: float = 1.0,
    seed: int = 0,
    window: float = 1.0,
    epochs: Optional[int] = None,
    epoch_periods: int = EPOCH_PERIODS,
    task_lifetime: float = 8.0,
    worker_lifetime: float = 6.0,
    base_price: float = 2.0,
    max_degree: Optional[int] = 16,
    exact_epochs: int = 1,
    exact_epoch_periods: Optional[int] = None,
) -> Dict[str, object]:
    """Measure delta-repair vs per-window re-solve matching throughput.

    Args:
        scale: Horizon scale (1.0 = the ~1M-task horizon); stretches the
            number of epochs while per-window churn density stays fixed.
        seed: Root seed; each epoch derives its own stream seed.
        window: Dispatch window length in period units.
        epochs: Explicit epoch count (overrides ``scale``).
        epoch_periods: Periods per epoch.
        task_lifetime: Mean periods a request stays open (the churn
            knob: per-window turnover is ~``2 / task_lifetime``).
        worker_lifetime: Mean worker shift length in periods.
        base_price: Fixed price; weights are ``distance * base_price``
            (no pricing pipeline — the measurement is matcher-only).
        max_degree: Per-task cap on the universe adjacency (16 nearest
            workers by default — the hot-path cap the degree-capped
            configurations of ``BENCH_matching.json`` run at; both
            passes solve the identical capped graph, so the comparison
            stays exact).  ``None`` uncaps.  Note the caps of the delta
            and incremental passes are *different problems*: the delta
            pass caps each universe row over every worker the epoch ever
            yields (mostly workers never concurrently live), while the
            index-backed pass caps over the workers live at insert time
            — a denser, strictly more useful adjacency, which is why its
            committed revenue runs well above the delta pass's under a
            cap.  Uncapped the two coincide exactly.
        exact_epochs: Epochs of the *exact* (uncapped) head-to-head
            sub-measurement, where both passes provably walk the
            identical trajectory and every window is gated bit-identical
            across them.  The delta pass's universe rows grow with the
            horizon uncapped, so this sub-run is kept short; ``0``
            disables it.
        exact_epoch_periods: Periods per exact-sub-measurement epoch
            (defaults to ``epoch_periods``; shrink it to keep CI-sized
            runs fast — the delta pass's uncapped cost is superlinear in
            the epoch length).

    Returns:
        A JSON-ready payload: all passes' measurements, the speedups
        over the re-solve baseline, the incremental-vs-delta ratios
        (operations-only and end-to-end with the universe pre-scan the
        delta pass needs), churn statistics, the number of windows whose
        bit-identity was asserted, and the ``exact`` sub-measurement.
    """
    if epochs is None:
        epochs = max(1, int(round(FULL_EPOCHS * scale)))
    total_tasks = 0
    total_workers = 0
    num_windows = 0
    rewindow_seconds = 0.0
    rewindow_revenue = 0.0
    rewindow_committed = 0
    trace_totals = _DeltaTrace()
    incremental = _IncrementalTotals()
    universe_build_seconds = 0.0
    live_samples: List[int] = []
    arrivals = 0
    settled = 0
    for epoch_index in range(epochs):
        epoch = _build_epoch(
            seed=derive_seed(seed, "dynamic-bench", epoch_index),
            epoch_periods=epoch_periods,
            window=window,
            task_lifetime=task_lifetime,
            worker_lifetime=worker_lifetime,
            base_price=base_price,
            max_degree=max_degree,
        )
        universe_build_seconds += epoch.universe_build_seconds
        trace = _DeltaTrace()
        _run_delta(epoch, trace)
        _run_incremental(epoch, max_degree, incremental)
        seconds, revenue, committed = _run_rewindow(epoch, trace)
        if repr(revenue) != repr(trace.revenue):
            raise AssertionError(
                f"epoch {epoch_index}: rewindow revenue {revenue!r} != "
                f"delta revenue {trace.revenue!r}"
            )
        total_tasks += epoch.num_tasks
        total_workers += epoch.num_workers
        num_windows += len(epoch.windows)
        rewindow_seconds += seconds
        rewindow_revenue += revenue
        rewindow_committed += committed
        trace_totals.seconds += trace.seconds
        trace_totals.revenue += trace.revenue
        trace_totals.committed += trace.committed
        live_samples.extend(trace.live_task_samples)
        arrivals += sum(len(ops.tasks) for ops in epoch.windows)
        settled += trace.settled_tasks

    # Exact head-to-head: uncapped, the realised adjacency IS the
    # universe adjacency restricted to the live population, so the delta
    # and index-backed passes walk one trajectory and every window gates
    # bit-identical across implementations.  Kept to a short horizon —
    # the delta pass's uncapped universe rows make it quadratically
    # expensive, which is the point being measured.
    exact: Optional[Dict[str, object]] = None
    if exact_epochs > 0:
        exact_delta = _DeltaTrace()
        exact_inc = _IncrementalTotals()
        exact_tasks = 0
        exact_windows = 0
        exact_build_seconds = 0.0
        for epoch_index in range(exact_epochs):
            epoch = _build_epoch(
                seed=derive_seed(seed, "dynamic-bench-exact", epoch_index),
                epoch_periods=(
                    epoch_periods if exact_epoch_periods is None
                    else exact_epoch_periods
                ),
                window=window,
                task_lifetime=task_lifetime,
                worker_lifetime=worker_lifetime,
                base_price=base_price,
                max_degree=None,
            )
            trace = _DeltaTrace()
            _run_delta(epoch, trace)
            epoch_inc = _IncrementalTotals()
            _run_incremental(epoch, None, epoch_inc, trace=trace)
            if repr(epoch_inc.revenue) != repr(trace.revenue):
                raise AssertionError(
                    f"exact epoch {epoch_index}: incremental revenue "
                    f"{epoch_inc.revenue!r} != delta revenue "
                    f"{trace.revenue!r}"
                )
            exact_inc.seconds += epoch_inc.seconds
            exact_inc.resolve_seconds += epoch_inc.resolve_seconds
            exact_inc.revenue += epoch_inc.revenue
            exact_inc.committed += epoch_inc.committed
            exact_inc.windows_checked += epoch_inc.windows_checked
            exact_delta.seconds += trace.seconds
            exact_delta.revenue += trace.revenue
            exact_delta.committed += trace.committed
            exact_tasks += epoch.num_tasks
            exact_windows += len(epoch.windows)
            exact_build_seconds += epoch.universe_build_seconds
        exact = {
            "max_degree": None,
            "epochs": int(exact_epochs),
            "epoch_periods": int(
                epoch_periods if exact_epoch_periods is None
                else exact_epoch_periods
            ),
            "total_tasks": exact_tasks,
            "windows_bit_identical": exact_windows,
            "universe_build_seconds": exact_build_seconds,
            "results": [
                asdict(
                    DynamicBenchPoint(
                        config="delta",
                        seconds=exact_delta.seconds,
                        total_tasks=exact_tasks,
                        tasks_per_second=exact_tasks / exact_delta.seconds,
                        revenue=exact_delta.revenue,
                        committed=exact_delta.committed,
                    )
                ),
                asdict(
                    DynamicBenchPoint(
                        config="incremental",
                        seconds=exact_inc.seconds,
                        total_tasks=exact_tasks,
                        tasks_per_second=exact_tasks / exact_inc.seconds,
                        revenue=exact_inc.revenue,
                        committed=exact_inc.committed,
                    )
                ),
            ],
            "speedup_incremental_vs_delta": exact_delta.seconds / exact_inc.seconds,
            "speedup_incremental_vs_delta_end_to_end": (
                (exact_delta.seconds + exact_build_seconds) / exact_inc.seconds
            ),
        }

    mean_live = sum(live_samples) / len(live_samples) if live_samples else 0.0
    # Turnover fraction: population changes (inserts + settlements) per
    # window relative to the standing population — ~2/task_lifetime, the
    # churn_city docstring's definition (~20-25% at the defaults).
    churn = (
        (arrivals + settled) / (num_windows * mean_live)
        if num_windows and mean_live
        else 0.0
    )
    results = [
        DynamicBenchPoint(
            config="rewindow",
            seconds=rewindow_seconds,
            total_tasks=total_tasks,
            tasks_per_second=total_tasks / rewindow_seconds,
            revenue=rewindow_revenue,
            committed=rewindow_committed,
        ),
        DynamicBenchPoint(
            config="delta",
            seconds=trace_totals.seconds,
            total_tasks=total_tasks,
            tasks_per_second=total_tasks / trace_totals.seconds,
            revenue=trace_totals.revenue,
            committed=trace_totals.committed,
        ),
        DynamicBenchPoint(
            config="incremental_rewindow",
            seconds=incremental.resolve_seconds,
            total_tasks=total_tasks,
            tasks_per_second=total_tasks / incremental.resolve_seconds,
            revenue=incremental.revenue,
            committed=incremental.committed,
        ),
        DynamicBenchPoint(
            config="incremental",
            seconds=incremental.seconds,
            total_tasks=total_tasks,
            tasks_per_second=total_tasks / incremental.seconds,
            revenue=incremental.revenue,
            committed=incremental.committed,
        ),
    ]
    baseline = results[0]
    delta_point = results[1]
    incremental_point = results[3]
    return {
        "benchmark": "dynamic_matching_throughput",
        "host": host_fingerprint(),
        "scenario": "churn_city",
        "scale": float(scale),
        "seed": int(seed),
        "window": float(window),
        "epochs": int(epochs),
        "epoch_periods": int(epoch_periods),
        "task_lifetime": float(task_lifetime),
        "worker_lifetime": float(worker_lifetime),
        "base_price": float(base_price),
        "max_degree": max_degree,
        "total_tasks": total_tasks,
        "total_workers": total_workers,
        "num_windows": num_windows,
        "mean_live_tasks": mean_live,
        "churn_per_window": churn,
        "windows_bit_identical": num_windows,
        "windows_gated_realised": incremental.windows_checked,
        "universe_build_seconds": universe_build_seconds,
        "baseline_config": baseline.config,
        "results": [asdict(point) for point in results],
        "speedup_vs_baseline": {
            point.config: point.tasks_per_second / baseline.tasks_per_second
            for point in results
        },
        # The headline warm-path ratio: matcher-ops only, and end-to-end
        # with the delta pass charged for the universe pre-scan it needs
        # (the incremental pass has no equivalent untimed setup).
        "speedup_incremental_vs_delta": (
            incremental_point.tasks_per_second / delta_point.tasks_per_second
        ),
        "speedup_incremental_vs_delta_end_to_end": (
            (delta_point.seconds + universe_build_seconds)
            / incremental_point.seconds
        ),
        "revenue_ratio_vs_baseline": {
            point.config: (
                point.revenue / baseline.revenue if baseline.revenue else 1.0
            )
            for point in results
        },
        "exact": exact,
    }


__all__ = [
    "EPOCH_PERIODS",
    "FULL_EPOCHS",
    "DynamicBenchPoint",
    "measure_dynamic_throughput",
]
