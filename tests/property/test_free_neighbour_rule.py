"""The free-neighbour-first rule against the plain augmenting-path DFS.

Every augmenting search takes a task's first free, unmarked worker
before it re-routes a matched one
(:func:`repro.kernels.augmenting.augmenting_path`).  The rule may change
only the pairing.  ``_plain_augmenting_path`` below is the DFS without
it, as a test-only copy, and the suites check on random graphs, orders
and insert/delete sequences that

* the matched task set is the plain DFS's;
* a failed search visits the same workers, in the same order;
* no successful path is longer than the plain DFS's on the same state;
* a path ends at the first free, unmarked worker in its last task's row;
* totals equal :func:`~repro.matching.weighted.scipy_max_weight_matching`'s;
* the universe matcher's :func:`~repro.kernels.dynamic.dynamic_augment`
  finds the same path as ``augmenting_path`` on the same state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kernels.augmenting import (
    DEAD,
    augmenting_path,
    csr_rows,
    flip_path,
    matroid_augment,
)
from repro.kernels.dynamic import dynamic_augment
from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.incremental import LazyDynamicMatcher
from repro.matching.maximum_matching import UNMATCHED
from repro.matching.weighted import (
    eligible_order,
    max_weight_matching,
    scipy_max_weight_matching,
)
from repro.spatial.geometry import Point

Path = Optional[Tuple[List[int], int]]


def _plain_augmenting_path(
    rows: Sequence[Sequence[int]],
    match_worker: List[int],
    mark: List[int],
    stamp: int,
    start: int,
    touched: List[int],
) -> Path:
    """``augmenting_path`` without the rule: the classic recursive order."""
    tasks = [start]
    iters = [iter(rows[start])]
    while iters:
        for worker_pos in iters[-1]:
            if mark[worker_pos] >= stamp:
                continue
            mark[worker_pos] = stamp
            touched.append(worker_pos)
            owner = match_worker[worker_pos]
            if owner == UNMATCHED:
                return tasks, worker_pos
            tasks.append(owner)
            iters.append(iter(rows[owner]))
            break
        else:
            tasks.pop()
            iters.pop()
    return None


def _search_both(rows, match_worker, mark, stamp, start) -> Tuple[Path, List[int]]:
    """Run the rule's search, checked against the plain DFS on the same state.

    ``mark`` is updated by the rule's search only.
    """
    before = list(mark)
    plain_touched: List[int] = []
    plain = _plain_augmenting_path(
        rows, match_worker, list(mark), stamp, start, plain_touched
    )
    touched: List[int] = []
    found = augmenting_path(rows, match_worker, mark, stamp, start, touched)
    assert (found is None) == (plain is None)
    if found is None:
        assert touched == plain_touched
        return None, touched
    tasks, worker_pos = found
    assert tasks[0] == start
    assert len(tasks) <= len(plain[0])
    first_free = next(
        w
        for w in rows[tasks[-1]]
        if match_worker[w] == UNMATCHED and before[w] < stamp
    )
    assert worker_pos == first_free
    return found, touched


def _plain_greedy(rows: List[List[int]], num_workers: int, order) -> List[int]:
    """``matroid_augment`` over the plain DFS."""
    match_task = [UNMATCHED] * len(rows)
    match_worker = [UNMATCHED] * num_workers
    mark = [0] * num_workers
    for stamp, start in enumerate(order, start=1):
        touched: List[int] = []
        found = _plain_augmenting_path(rows, match_worker, mark, stamp, start, touched)
        if found is None:
            for worker_pos in touched:
                mark[worker_pos] = DEAD
        else:
            flip_path(match_task, match_worker, *found)
    return match_task


@st.composite
def instances(draw):
    """Rows from a small pool of shared worker sets, and a weight order.

    Overlapping rows make searches re-route matches; more tasks than
    workers make later searches fail; ties in the weights are common.
    """
    num_workers = draw(st.integers(min_value=1, max_value=12))
    num_tasks = draw(st.integers(min_value=1, max_value=24))
    workers = st.integers(min_value=0, max_value=num_workers - 1)
    pool = draw(st.lists(st.sets(workers, max_size=num_workers), min_size=1, max_size=4))
    rows = []
    for _ in range(num_tasks):
        base = set(pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))])
        base |= draw(st.sets(workers, max_size=2))
        base -= draw(st.sets(workers, max_size=2))
        rows.append(sorted(base))
    weights = draw(
        st.lists(
            st.sampled_from([-1.0, 0.0, 1.0, 2.5, 2.5, 4.0]),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    return rows, num_workers, weights


def _graph(rows: List[List[int]], num_workers: int) -> BipartiteGraph:
    tasks = [
        Task(
            task_id=pos,
            period=0,
            origin=Point(0.0, 0.0),
            destination=Point(1.0, 0.0),
            distance=1.0,
            grid_index=1,
        )
        for pos in range(len(rows))
    ]
    workers = [
        Worker(worker_id=pos, period=0, location=Point(0.0, 0.0), radius=1.0)
        for pos in range(num_workers)
    ]
    worker_neighbors: List[List[int]] = [[] for _ in range(num_workers)]
    for task_pos, row in enumerate(rows):
        for worker_pos in row:
            worker_neighbors[worker_pos].append(task_pos)
    return BipartiteGraph(
        tasks=tasks,
        workers=workers,
        task_neighbors=[list(row) for row in rows],
        worker_neighbors=worker_neighbors,
    )


def _matched(match_task: Sequence[int]) -> Set[int]:
    return {pos for pos, worker in enumerate(match_task) if worker != UNMATCHED}


class TestBatchSearch:
    @given(instances())
    def test_each_search_against_the_plain_dfs(self, instance):
        """The greedy's searches, each checked on the state it ran on."""
        rows, num_workers, weights = instance
        _, order = eligible_order(len(rows), weights, None)
        match_task = [UNMATCHED] * len(rows)
        match_worker = [UNMATCHED] * num_workers
        mark = [0] * num_workers
        for stamp, start in enumerate(order, start=1):
            found, touched = _search_both(rows, match_worker, mark, stamp, start)
            if found is None:
                for worker_pos in touched:
                    mark[worker_pos] = DEAD
            else:
                flip_path(match_task, match_worker, *found)
        csr = CSRGraph.from_adjacency(rows, num_workers)
        assert matroid_augment(csr, list(order)) == match_task

    @given(instances())
    def test_matched_task_set_and_total(self, instance):
        rows, num_workers, weights = instance
        _, order = eligible_order(len(rows), weights, None)
        csr = CSRGraph.from_adjacency(rows, num_workers)
        match_task = matroid_augment(csr, list(order))
        assert _matched(match_task) == _matched(
            _plain_greedy(rows, num_workers, order)
        )
        graph = _graph(rows, num_workers)
        matching, total = max_weight_matching(graph, weights)
        assert set(matching) == _matched(match_task)
        _, dense_total = scipy_max_weight_matching(graph, weights)
        assert total == pytest.approx(dense_total, abs=1e-9)

    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_dynamic_augment_finds_the_same_path(self, instance, seed):
        """The universe matcher's kernel, on a matching and a live mask."""
        rows, num_workers, weights = instance
        _, order = eligible_order(len(rows), weights, None)
        csr = CSRGraph.from_adjacency(rows, num_workers)
        half = len(order) // 2
        match_task = matroid_augment(csr, list(order[:half]))
        match_worker = [UNMATCHED] * num_workers
        for task_pos, worker_pos in enumerate(match_task):
            if worker_pos != UNMATCHED:
                match_worker[worker_pos] = task_pos
        rng = np.random.default_rng(seed)
        live = rng.random(num_workers) < 0.8
        # Departed workers are free and dead, as the matchers keep them.
        for worker_pos in np.flatnonzero(~live):
            task_pos = match_worker[worker_pos]
            if task_pos != UNMATCHED:
                match_task[task_pos] = UNMATCHED
                match_worker[worker_pos] = UNMATCHED
        mark = [0 if alive else DEAD for alive in live]
        visited = np.zeros(num_workers, dtype=np.int64)
        path_tasks = np.empty(len(rows), dtype=np.int64)
        path_workers = np.empty(len(rows), dtype=np.int64)
        visited_out = np.empty(max(num_workers, 1), dtype=np.int64)
        stamp = 0
        for start in order[half:]:
            if match_task[start] != UNMATCHED:
                continue
            stamp += 1
            touched: List[int] = []
            found = augmenting_path(
                csr_rows(csr), match_worker, list(mark), stamp, start, touched
            )
            result = dynamic_augment(
                csr.indptr,
                csr.indices,
                np.asarray(match_worker, dtype=np.int64),
                live.astype(np.uint8),
                visited,
                stamp,
                start,
                path_tasks,
                path_workers,
                visited_out,
            )
            if found is None:
                assert result < 0
                assert list(visited_out[: -result - 1]) == touched
                continue
            tasks, worker_pos = found
            assert result == len(tasks)
            # Deepest-first: the path's last task and the free worker.
            assert list(path_tasks[:result]) == tasks[::-1]
            assert int(path_workers[0]) == worker_pos

    def test_long_chain_is_not_re_paired(self):
        """A free worker late in the row beats a chain through the row.

        Task ``k`` sees workers ``0..k``; tasks arrive in order, so the
        plain DFS re-routes every earlier task on each arrival while the
        rule pairs task ``k`` with worker ``k`` at once.
        """
        size = 12
        rows = [list(range(k + 1)) for k in range(size)]
        match_worker = [UNMATCHED] * size
        match_task = [UNMATCHED] * size
        mark = [0] * size
        for stamp, start in enumerate(range(size), start=1):
            found, _ = _search_both(rows, match_worker, mark, stamp, start)
            assert found == ([start], start)
            flip_path(match_task, match_worker, *found)
        assert match_task == list(range(size))


class _CheckedLazy(LazyDynamicMatcher):
    """The lazy matcher whose every search is checked against the plain DFS."""

    def _try_augment(self, start: int) -> Optional[List[int]]:
        self._stamp += 1
        found, touched = _search_both(
            self._rows, self._match_worker, self._visited, self._stamp, start
        )
        if found is None:
            return touched
        flip_path(self._match_task, self._match_worker, *found)
        return None


class _PlainLazy(LazyDynamicMatcher):
    """The lazy matcher over the plain DFS."""

    def _try_augment(self, start: int) -> Optional[List[int]]:
        self._stamp += 1
        touched: List[int] = []
        found = _plain_augmenting_path(
            self._rows, self._match_worker, self._visited, self._stamp, start, touched
        )
        if found is None:
            return touched
        flip_path(self._match_task, self._match_worker, *found)
        return None


NUM_ZONES = 4
WEIGHTS = st.sampled_from([-1.0, 0.0, 0.5, 1.25, 1.25, 2.0, 3.75])


class LazyRuleMachine(RuleBasedStateMachine):
    """Random inserts and deletes, the rule's matcher beside the plain one.

    Commits and greedy inserts are left out: they retire or pick a
    worker by the pairing, so the two matchers' live populations, and
    with them their bases, would part by construction.
    """

    def __init__(self) -> None:
        super().__init__()
        self.matcher = _CheckedLazy()
        self.plain = _PlainLazy()
        self.task_zone: List[int] = []
        self.worker_zones: List[Set[int]] = []
        self.live_tasks: Set[int] = set()
        self.live_workers: Set[int] = set()

    def _both(self, method: str, *args):
        got = getattr(self.matcher, method)(*args)
        want = getattr(self.plain, method)(*args)
        return got, want

    @rule(zone=st.integers(min_value=0, max_value=NUM_ZONES - 1), weight=WEIGHTS)
    def new_task(self, zone, weight):
        row = [w for w in sorted(self.live_workers) if zone in self.worker_zones[w]]
        (task_id, matched), (_, plain_matched) = self._both("new_task", row, weight)
        assert matched == plain_matched
        self.task_zone.append(zone)
        self.live_tasks.add(task_id)

    @rule(
        zones=st.sets(
            st.integers(min_value=0, max_value=NUM_ZONES - 1), min_size=1, max_size=2
        )
    )
    def new_worker(self, zones):
        row = [t for t in sorted(self.live_tasks) if self.task_zone[t] in zones]
        (worker_id, absorbed), (_, plain_absorbed) = self._both("new_worker", row)
        assert absorbed == plain_absorbed
        self.worker_zones.append(zones)
        self.live_workers.add(worker_id)

    @precondition(lambda self: self.live_tasks)
    @rule(data=st.data())
    def remove_task(self, data):
        task_id = data.draw(st.sampled_from(sorted(self.live_tasks)))
        self._both("remove_task", task_id)
        self.live_tasks.discard(task_id)

    @precondition(lambda self: self.live_workers)
    @rule(data=st.data())
    def remove_worker(self, data):
        worker_id = data.draw(st.sampled_from(sorted(self.live_workers)))
        self._both("remove_worker", worker_id)
        self.live_workers.discard(worker_id)

    @invariant()
    def same_basis_and_total(self):
        assert self.matcher.is_valid_matching()
        assert set(self.matcher.matching()) == set(self.plain.matching())
        total = self.matcher.total_weight()
        assert total == self.plain.total_weight()
        tasks = sorted(self.live_tasks)
        workers = sorted(self.live_workers)
        column = {worker_id: pos for pos, worker_id in enumerate(workers)}
        rows = [
            [
                column[w]
                for w in workers
                if self.task_zone[task_id] in self.worker_zones[w]
            ]
            for task_id in tasks
        ]
        weights = [self.matcher.weight_of(task_id) for task_id in tasks]
        _, dense_total = scipy_max_weight_matching(_graph(rows, len(workers)), weights)
        assert total == pytest.approx(dense_total, abs=1e-9)


TestLazyRule = LazyRuleMachine.TestCase
