"""LazyDynamicMatcher vs the universe DynamicMatcher, fuzzed in lockstep.

The lazy matcher's contract: when ids are allocated in arrival order and
each arrival brings its candidate row off the incremental adjacency
plane, the matcher evolves **bit-identical** matched state to a
:class:`DynamicMatcher` built over the full universe graph and driven
with the same operation sequence — same pairs after every operation,
same committed workers, same ``repr``-equal totals.  That holds too for
the positional session facade when tasks enter out of arrival order, in
window batches sorted ``(-weight, position)`` as the windowed engine
inserts them, and across epochs of persistent, churning workers and
one-epoch tasks, where every epoch must equal a cold re-solve.  And
the facade's window batches (one plane query per batch) replay its
one-element batches bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, CSRGraph, build_graph_from_arrays
from repro.matching.incremental import DynamicMatcher, LazyDynamicMatcher
from repro.simulation.streaming import _LiveSessionMatcher
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.spatial.index import IncrementalAdjacencyIndex

GRID = Grid.square(80.0, 8)


def _universe(rng, num_tasks, num_workers):
    tx = rng.uniform(0, 80, num_tasks)
    ty = rng.uniform(0, 80, num_tasks)
    wx = rng.uniform(0, 80, num_workers)
    wy = rng.uniform(0, 80, num_workers)
    wr = rng.uniform(5, 30, num_workers)
    # ~1 in 8 tasks arrives non-positive (live but ineligible).
    weights = np.where(
        rng.random(num_tasks) < 0.125, 0.0, rng.uniform(0.5, 5.0, num_tasks)
    )
    graph = build_graph_from_arrays(
        [None] * num_tasks,
        [None] * num_workers,
        tx,
        ty,
        wx,
        wy,
        wr,
        "euclidean",
        GRID,
    )
    return tx, ty, wx, wy, wr, weights, graph


def _entities(tx, ty, wx, wy, wr):
    """Position-aligned tasks and workers over the universe coordinates."""
    tasks = [
        Task(
            task_id=pos,
            period=0,
            origin=Point(float(x), float(y)),
            destination=Point(float(x), float(y)),
            valuation=1.0,
        )
        for pos, (x, y) in enumerate(zip(tx, ty))
    ]
    workers = [
        Worker(
            worker_id=pos,
            period=0,
            location=Point(float(x), float(y)),
            radius=float(r),
        )
        for pos, (x, y, r) in enumerate(zip(wx, wy, wr))
    ]
    return tasks, workers


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lazy_matcher_replays_universe_matcher_bitwise(seed):
    """Random arrival/removal/commit interleavings, gated every step."""
    rng = np.random.default_rng(seed)
    num_tasks, num_workers = 30, 30
    tx, ty, wx, wy, wr, weights, graph = _universe(rng, num_tasks, num_workers)

    uni = DynamicMatcher(graph, [0.0] * num_tasks)
    lazy = LazyDynamicMatcher()
    plane = IncrementalAdjacencyIndex(GRID)

    next_task = next_worker = 0
    live_tasks: set = set()
    live_workers: set = set()
    steps = 0
    while steps < 250 and (
        next_task < num_tasks or next_worker < num_workers or live_tasks
    ):
        steps += 1
        roll = rng.random()
        if roll < 0.3 and next_task < num_tasks:
            pos, next_task = next_task, next_task + 1
            # Row off the plane BEFORE the task enters it (a task is not
            # its own neighbour), then lockstep slot allocation.
            row = plane.task_rows([tx[pos]], [ty[pos]])[0]
            (slot,) = plane.insert_tasks([tx[pos]], [ty[pos]]).tolist()
            assert slot == pos
            got = uni.insert_task(pos, float(weights[pos]))
            lazy_id, matched = lazy.new_task(row, float(weights[pos]))
            assert lazy_id == pos
            assert matched == got
            live_tasks.add(pos)
        elif roll < 0.55 and next_worker < num_workers:
            pos, next_worker = next_worker, next_worker + 1
            (slot,) = plane.insert_workers(
                [wx[pos]], [wy[pos]], [wr[pos]]
            ).tolist()
            assert slot == pos
            (row,) = plane.worker_rows([pos])
            absorbed_uni = uni.insert_worker(pos)
            lazy_id, absorbed_lazy = lazy.new_worker(row)
            assert lazy_id == pos
            assert absorbed_uni == absorbed_lazy
            live_workers.add(pos)
        elif roll < 0.7 and live_tasks:
            pos = int(rng.choice(sorted(live_tasks)))
            freed_uni = uni.remove_task(pos)
            freed_lazy = lazy.remove_task(pos)
            assert freed_uni == freed_lazy
            plane.remove_task(pos)
            live_tasks.discard(pos)
        elif roll < 0.85 and live_workers:
            pos = int(rng.choice(sorted(live_workers)))
            assert uni.remove_worker(pos) == lazy.remove_worker(pos)
            plane.remove_worker(pos)
            live_workers.discard(pos)
        else:
            matched = [pos for pos in sorted(live_tasks) if uni.worker_of(pos) is not None]
            if not matched:
                continue
            pos = int(rng.choice(matched))
            worker_uni = uni.commit_task(pos)
            worker_lazy = lazy.commit_task(pos)
            assert worker_uni == worker_lazy
            plane.remove_task(pos)
            plane.remove_worker(worker_uni)
            live_tasks.discard(pos)
            live_workers.discard(worker_uni)

        assert lazy.matching() == uni.matching(), f"step {steps}"
        assert repr(lazy.total_weight()) == repr(uni.total_weight()), f"step {steps}"

    assert steps > 50  # the interleaving actually exercised the matchers


#: Window weights drawn from a small set, so ties within and across
#: windows are the rule; zero inserts a live but ineligible task.
_TIED_WEIGHTS = (0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_session_facade_replays_universe_matcher_out_of_arrival_order(seed):
    """Window batches inserted ``(-weight, position)``, gated every op.

    Each window settles (commits, expiries, departures), lets workers
    arrive in position order, then inserts its task batch sorted by
    weight with forced ties — the windowed engine's order, under which
    the facade's lazy task slots are not positions.  After every
    operation both matchers hold the same pairs (by position) and a
    ``repr``-equal total.
    """
    rng = np.random.default_rng(seed)
    num_tasks, num_workers = 48, 36
    tx, ty, wx, wy, wr, _, graph = _universe(rng, num_tasks, num_workers)
    tasks, workers = _entities(tx, ty, wx, wy, wr)
    uni = DynamicMatcher(graph, [0.0] * num_tasks)
    live = _LiveSessionMatcher(GRID, "euclidean", tasks, workers)

    ops = 0

    def gate():
        nonlocal ops
        ops += 1
        for pos in range(num_workers):
            assert live.task_of(pos) == uni.task_of(pos), f"op {ops}"
        for pos in range(num_tasks):
            assert live.is_task_matched(pos) == uni.is_task_matched(pos), f"op {ops}"
        assert repr(live.total_weight()) == repr(uni.total_weight()), f"op {ops}"
        assert live.is_valid_matching()

    next_task = next_worker = 0
    live_tasks: set = set()
    live_workers: set = set()
    while next_task < num_tasks or live_tasks:
        for pos in sorted(live_tasks):
            if rng.random() < 0.25:
                if uni.is_task_matched(pos):
                    worker_pos = uni.commit_task(pos)
                    assert live.commit_task(pos) == worker_pos
                    live_workers.discard(worker_pos)
                else:
                    uni.remove_task(pos)
                    live.remove_task(pos)
                live_tasks.discard(pos)
                gate()
        for pos in sorted(live_workers):
            if rng.random() < 0.1:
                uni.remove_worker(pos)
                live.remove_worker(pos)
                live_workers.discard(pos)
                gate()
        for _ in range(min(int(rng.integers(0, 5)), num_workers - next_worker)):
            pos, next_worker = next_worker, next_worker + 1
            uni.insert_worker(pos)
            live.insert_workers([pos])
            live_workers.add(pos)
            gate()
        batch = range(next_task, min(next_task + int(rng.integers(2, 8)), num_tasks))
        next_task = batch.stop
        weights = {pos: float(rng.choice(_TIED_WEIGHTS)) for pos in batch}
        for pos in sorted(batch, key=lambda pos: (-weights[pos], pos)):
            weight = weights[pos]
            assert live.insert_tasks([pos], [weight]) == [uni.insert_task(pos, weight)]
            live_tasks.add(pos)
            gate()

    assert ops > 100  # the windows actually exercised both matchers


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_window_batches_equal_one_element_batches(seed):
    """One plane query per batch == one per arrival, bit for bit.

    The session joins a window's workers and inserts its tasks as one
    batch each (one ``insert_workers`` / ``worker_rows`` and one
    ``task_rows`` / ``insert_tasks`` plane call).  Random churn —
    commits, expiries, departures, joins, and ``(-weight, position)``
    task batches inserted exactly or greedily — is driven through two
    facades, one taking each window as a batch, the other as
    one-element batches.  After every window the plane slots, the lazy
    matching, the ``repr`` of the total and every worker's task agree.
    """
    rng = np.random.default_rng(seed)
    num_tasks, num_workers = 64, 48
    tx, ty, wx, wy, wr, _, _ = _universe(rng, num_tasks, num_workers)
    tasks, workers = _entities(tx, ty, wx, wy, wr)
    batched = _LiveSessionMatcher(GRID, "euclidean", tasks, workers)
    single = _LiveSessionMatcher(GRID, "euclidean", tasks, workers)

    next_task = next_worker = 0
    live_tasks: set = set()
    live_workers: set = set()
    windows = 0
    while next_task < num_tasks or live_tasks:
        for pos in sorted(live_tasks):
            if rng.random() < 0.25:
                if batched.is_task_matched(pos):
                    worker_pos = batched.commit_task(pos)
                    assert single.commit_task(pos) == worker_pos
                    live_workers.discard(worker_pos)
                else:
                    batched.remove_task(pos)
                    single.remove_task(pos)
                live_tasks.discard(pos)
        for pos in sorted(live_workers):
            if rng.random() < 0.1:
                batched.remove_worker(pos)
                single.remove_worker(pos)
                live_workers.discard(pos)
        joins = range(
            next_worker, min(next_worker + int(rng.integers(0, 6)), num_workers)
        )
        next_worker = joins.stop
        batched.insert_workers(joins)
        for pos in joins:
            single.insert_workers([pos])
        live_workers.update(joins)
        batch = range(next_task, min(next_task + int(rng.integers(1, 9)), num_tasks))
        next_task = batch.stop
        weights = {pos: float(rng.choice(_TIED_WEIGHTS)) for pos in batch}
        order = sorted(batch, key=lambda pos: (-weights[pos], pos))
        greedy = bool(rng.random() < 0.3)
        matched = batched.insert_tasks(order, [weights[pos] for pos in order], greedy)
        assert matched == [
            single.insert_tasks([pos], [weights[pos]], greedy)[0] for pos in order
        ]
        live_tasks.update(batch)
        windows += 1

        assert batched._task_slot == single._task_slot, f"window {windows}"
        assert batched._worker_slot == single._worker_slot, f"window {windows}"
        assert batched.lazy.matching() == single.lazy.matching(), f"window {windows}"
        assert repr(batched.total_weight()) == repr(single.total_weight())
        for pos in range(num_workers):
            assert batched.task_of(pos) == single.task_of(pos), f"window {windows}"

    assert windows > 8 and batched.lazy.num_matched == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_epochs_equal_cold_resolve(seed):
    """Persistent workers, one-epoch tasks == a cold per-epoch solve.

    Workers persist with churn between epochs; each epoch's tasks insert
    in priority order (weight descending, index ascending), a few workers
    arrive mid-epoch and absorb, then matched pairs commit and unmatched
    tasks expire.  Every epoch's pairs must equal a fresh universe
    ``DynamicMatcher`` replaying the same realised instance cold.
    """
    rng = np.random.default_rng(seed)
    plane = IncrementalAdjacencyIndex(GRID)
    lazy = LazyDynamicMatcher()
    live: dict = {}

    def arrive(count):
        xs, ys = rng.uniform(0, 80, count), rng.uniform(0, 80, count)
        rs = rng.uniform(5, 30, count)
        slots = plane.insert_workers(xs, ys, rs).tolist()
        rows = plane.worker_rows(slots)
        for slot, row in zip(slots, rows):
            worker_id, _ = lazy.new_worker(row)
            assert worker_id == slot
            live[slot] = row
        return slots

    for epoch in range(10):
        for slot in [s for s in sorted(live) if rng.random() < 0.3]:
            plane.remove_worker(slot)
            lazy.remove_worker(slot)
            del live[slot]
        early = arrive(int(rng.integers(3, 9)))
        num_epoch_tasks = int(rng.integers(2, 10))
        etx = rng.uniform(0, 80, num_epoch_tasks)
        ety = rng.uniform(0, 80, num_epoch_tasks)
        ew = rng.uniform(0.5, 5.0, num_epoch_tasks)
        order = sorted(range(num_epoch_tasks), key=lambda i: (-ew[i], i))
        rows = plane.task_rows(etx, ety)

        task_id_of = {}
        for i in order:
            task_id, _ = lazy.new_task(rows[i], float(ew[i]))
            (slot,) = plane.insert_tasks([etx[i]], [ety[i]]).tolist()
            assert slot == task_id
            task_id_of[i] = task_id
        position_of = {task_id: i for i, task_id in task_id_of.items()}
        late = arrive(int(rng.integers(0, 3)))
        lazy_pairs = {
            pos: lazy.worker_of(task_id_of[pos])
            for pos in range(num_epoch_tasks)
            if lazy.worker_of(task_id_of[pos]) is not None
        }
        assert lazy.is_valid_matching()

        # Cold reference over exactly the realised rows: the live workers
        # first, then the tasks in priority order, then the late arrivals.
        edges = sorted(
            {(i, w) for i in range(num_epoch_tasks) for w in rows[i]}
            | {(position_of[t], w) for w in late for t in live[w]}
        )
        csr = CSRGraph.from_edge_arrays(
            np.array([i for i, _ in edges], dtype=np.int64),
            np.array([w for _, w in edges], dtype=np.int64),
            num_epoch_tasks,
            max(live) + 1,
        )
        ref = DynamicMatcher(
            BipartiteGraph.from_csr(
                [None] * num_epoch_tasks, [None] * (max(live) + 1), csr
            ),
            [0.0] * num_epoch_tasks,
        )
        for slot in sorted(live):
            if slot not in late:
                ref.insert_worker(slot)
        for i in order:
            ref.insert_task(i, float(ew[i]))
        for slot in late:
            ref.insert_worker(slot)
        assert lazy_pairs == ref.matching(), f"epoch {epoch}"
        assert early  # every epoch brings supply before its tasks

        # Epoch end: commit the matched pairs, expire the rest.
        for pos in range(num_epoch_tasks):
            task_id = task_id_of[pos]
            if pos in lazy_pairs:
                slot = lazy.commit_task(task_id)
                assert slot == lazy_pairs[pos]
                plane.remove_worker(slot)
                del live[slot]
            else:
                assert lazy.remove_task(task_id) is None
            plane.remove_task(task_id)
        assert lazy.num_matched == 0


def test_worker_arrival_absorbs_the_waiting_task():
    """A worker arriving next to an eligible unmatched task takes it."""
    lazy = LazyDynamicMatcher()
    task_id, matched = lazy.new_task([], 1.0)  # eligible, no adjacent worker
    assert not matched
    worker_id, absorbed = lazy.new_worker([task_id])
    assert absorbed == task_id
    assert lazy.worker_of(task_id) == worker_id
    assert lazy.is_valid_matching()


def test_capped_sessions_are_refused_semantics():
    """The lazy row is the universe row restricted to live workers only
    when uncapped; a realised-population cap is a different problem.
    This pins the documented contract by example: capping the plane
    changes the row, so consumers must not mix capped planes with
    universe gating."""
    rng = np.random.default_rng(5)
    capped = IncrementalAdjacencyIndex(GRID, max_degree=2)
    uncapped = IncrementalAdjacencyIndex(GRID)
    xs, ys = rng.uniform(30, 50, 6), rng.uniform(30, 50, 6)
    rs = np.full(6, 40.0)
    capped.insert_workers(xs, ys, rs)
    uncapped.insert_workers(xs, ys, rs)
    row_capped = capped.task_rows([40.0], [40.0])[0]
    row_uncapped = uncapped.task_rows([40.0], [40.0])[0]
    assert len(row_capped) == 2
    assert len(row_uncapped) == 6
