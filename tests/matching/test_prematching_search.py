"""Call-for-call parity of MAPS's pre-matching with its earlier search.

:class:`~repro.matching.incremental.IncrementalMatcher` answers the
planner's grid probes with the augmenting-path search it shares with the
batch matroid greedy (:func:`repro.kernels.augmenting.augmenting_path`).
The pre-matching a plan hands to the engine depends on *which* path each
probe finds, so the search must visit workers in the order of the
matcher's earlier one.  ``_OracleMatcher`` below is that earlier matcher:
its ``_find_augmenting_path`` (a ``visited`` stamp list, a ``dead``
bytearray, an index pointer and a chosen worker per level) is kept
verbatim but for the lookahead that takes an entered task's first free
worker, with the grid probe, the probe-then-commit cache and the path
application it ran under.

Hypothesis draws graphs whose rows come from a small pool of shared
worker sets (so searches revisit workers and re-route matches), with
more tasks than workers (so grids saturate and failed searches mark
workers dead), and sequences of ``can_augment_grid``, ``augment_grid``
and ``augment_task`` calls, including probe-then-commit pairs.  After
every call the return value and ``matching()`` must equal the oracle's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.incremental import IncrementalMatcher
from repro.matching.maximum_matching import UNMATCHED
from repro.spatial.geometry import Point


class _OracleMatcher:
    """The earlier insert-only pre-matching, as a test-only reference."""

    def __init__(self, graph: BipartiteGraph, grid_tasks: Dict[int, List[int]]):
        csr = graph.csr()
        self._indptr = csr.indptr_list
        self._indices = csr.indices_list
        self._match_task = [UNMATCHED] * graph.num_tasks
        self._match_worker = [UNMATCHED] * graph.num_workers
        self._grid_tasks = grid_tasks
        self._visited = [0] * graph.num_workers
        self._dead = bytearray(graph.num_workers)
        self._stamp = 0
        self._version = 0
        self._cached_grid: Optional[int] = None
        self._cached_version = -1
        self._cached_result: Optional[Tuple[int, List[Tuple[int, int]]]] = None

    def matching(self) -> Dict[int, int]:
        return {
            task_pos: int(worker_pos)
            for task_pos, worker_pos in enumerate(self._match_task)
            if worker_pos != UNMATCHED
        }

    def is_task_matched(self, task_pos: int) -> bool:
        return self._match_task[task_pos] != UNMATCHED

    def can_augment_grid(self, grid_index: int) -> bool:
        result = self._grid_augmenting_path_cached(grid_index)
        return result is not None

    def augment_grid(self, grid_index: int) -> Optional[int]:
        result = self._grid_augmenting_path_cached(grid_index)
        if result is None:
            return None
        start_task, path = result
        self._apply_path(path)
        return start_task

    def _grid_augmenting_path_cached(
        self, grid_index: int
    ) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
        if self._cached_grid == grid_index and self._cached_version == self._version:
            return self._cached_result
        result = self._find_grid_augmenting_path(grid_index)
        self._cached_grid = grid_index
        self._cached_version = self._version
        self._cached_result = result
        return result

    def augment_task(self, task_pos: int) -> bool:
        if self.is_task_matched(task_pos):
            return True
        path = self._find_augmenting_path(task_pos)
        if path is None:
            return False
        self._apply_path(path)
        return True

    def _find_grid_augmenting_path(
        self, grid_index: int
    ) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
        for task_pos in self._grid_tasks.get(grid_index, []):
            if self.is_task_matched(task_pos):
                continue
            path = self._find_augmenting_path(task_pos)
            if path is not None:
                return task_pos, path
        return None

    def _find_augmenting_path(self, start_task: int) -> Optional[List[Tuple[int, int]]]:
        """Iterative DFS for an augmenting path.

        Returns the (task, worker) pairs to set, deepest first, so that
        applying every pair (in order) flips matched/unmatched edges
        correctly.  Takes an entered task's first free worker, else
        visits workers in the order of the recursive search, but walks an
        explicit stack: city-scale dispatch windows produce augmenting chains far
        deeper than the interpreter's recursion limit, which used to blow
        the stack with ``RecursionError``.  Failed searches additionally
        mark every visited worker as saturated (see ``__init__``), which
        keeps repeated infeasible queries — e.g. a saturated grid probed
        every period — near-linear instead of quadratic.
        """
        indptr = self._indptr
        indices = self._indices
        match_worker = self._match_worker
        visited = self._visited
        dead = self._dead
        self._stamp += 1
        stamp = self._stamp

        tasks_stack = [start_task]
        iters = [indptr[start_task]]
        chosen = [UNMATCHED]
        touched: List[int] = []
        while tasks_stack:
            depth = len(tasks_stack) - 1
            task_pos = tasks_stack[depth]
            end = indptr[task_pos + 1]
            pointer = iters[depth]
            if pointer == indptr[task_pos]:
                # Entering the task: free neighbour first.
                for look in range(pointer, end):
                    worker_pos = indices[look]
                    if (
                        match_worker[worker_pos] == UNMATCHED
                        and not dead[worker_pos]
                        and visited[worker_pos] != stamp
                    ):
                        chosen[depth] = worker_pos
                        return [
                            (tasks_stack[level], chosen[level])
                            for level in range(depth, -1, -1)
                        ]
            descended = False
            while pointer < end:
                worker_pos = indices[pointer]
                pointer += 1
                if dead[worker_pos] or visited[worker_pos] == stamp:
                    continue
                visited[worker_pos] = stamp
                touched.append(worker_pos)
                iters[depth] = pointer
                chosen[depth] = worker_pos
                owner = match_worker[worker_pos]
                if owner == UNMATCHED:
                    # Deepest pair first, matching the recursive unwind.
                    return [
                        (tasks_stack[level], chosen[level])
                        for level in range(depth, -1, -1)
                    ]
                tasks_stack.append(owner)
                iters.append(indptr[owner])
                chosen.append(UNMATCHED)
                descended = True
                break
            if not descended:
                tasks_stack.pop()
                iters.pop()
                chosen.pop()
        for worker_pos in touched:
            dead[worker_pos] = 1
        return None

    def _apply_path(self, path: Iterable[Tuple[int, int]]) -> None:
        for task_pos, worker_pos in path:
            self._match_task[task_pos] = worker_pos
            self._match_worker[worker_pos] = task_pos
        self._version += 1


def _graph(rows: List[List[int]], task_grids: List[int], num_workers: int):
    tasks = [
        Task(
            task_id=pos,
            period=0,
            origin=Point(0.0, 0.0),
            destination=Point(1.0, 0.0),
            grid_index=grid,
        )
        for pos, grid in enumerate(task_grids)
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
        task_neighbors=rows,
        worker_neighbors=worker_neighbors,
    )


@st.composite
def sessions(draw):
    """A graph with grid-annotated tasks and a sequence of matcher calls."""
    num_workers = draw(st.integers(min_value=1, max_value=10))
    num_tasks = draw(st.integers(min_value=1, max_value=20))
    num_grids = draw(st.integers(min_value=1, max_value=5))
    workers = st.integers(min_value=0, max_value=num_workers - 1)
    pool = draw(st.lists(st.sets(workers, max_size=num_workers), min_size=1, max_size=4))
    rows = []
    for _ in range(num_tasks):
        base = set(pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))])
        base |= draw(st.sets(workers, max_size=2))
        base -= draw(st.sets(workers, max_size=2))
        rows.append(sorted(base))
    task_grids = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_grids - 1),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    # Grid num_grids has no tasks at all.
    grids = st.integers(min_value=0, max_value=num_grids)
    call = st.one_of(
        st.tuples(st.just("can_augment_grid"), grids),
        st.tuples(st.just("augment_grid"), grids),
        st.tuples(st.just("probe_then_commit"), grids),
        st.tuples(st.just("augment_task"), st.integers(0, num_tasks - 1)),
    )
    calls = draw(st.lists(call, min_size=1, max_size=40))
    return rows, task_grids, num_workers, calls


def _grid_tasks(task_grids: List[int]) -> Dict[int, List[int]]:
    buckets: Dict[int, List[int]] = {}
    for pos, grid in enumerate(task_grids):
        buckets.setdefault(grid, []).append(pos)
    return buckets


def _expand(calls):
    for name, argument in calls:
        if name == "probe_then_commit":
            yield "can_augment_grid", argument
            yield "augment_grid", argument
        else:
            yield name, argument


class TestPrematchingSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(sessions(), st.booleans())
    def test_every_call_equals_the_oracle(self, session, pass_buckets):
        rows, task_grids, num_workers, calls = session
        graph = _graph(rows, task_grids, num_workers)
        buckets = _grid_tasks(task_grids)
        # Without buckets the matcher derives them from the tasks' grid
        # annotations, in the same task order.
        matcher = IncrementalMatcher(
            graph, grid_tasks=buckets if pass_buckets else None
        )
        oracle = _OracleMatcher(graph, buckets)
        for name, argument in _expand(calls):
            assert getattr(matcher, name)(argument) == getattr(oracle, name)(
                argument
            ), (name, argument)
            assert matcher.matching() == oracle.matching(), (name, argument)
        assert matcher.is_valid_matching()

    def test_saturated_grid_reroutes_then_fails(self):
        """Three tasks on two shared workers: the third probe fails.

        Task 1's only worker is worker 0, so it pushes task 0 on to its
        free worker 1, after which every worker is matched; the failed
        search for task 2 marks both dead, and a repeated probe still
        answers ``False``.
        """
        rows = [[0, 1], [0], [0, 1]]
        graph = _graph(rows, [0, 1, 2], 2)
        matcher = IncrementalMatcher(graph)
        oracle = _OracleMatcher(graph, _grid_tasks([0, 1, 2]))
        for name, argument in [
            ("augment_grid", 0),
            ("can_augment_grid", 1),
            ("augment_grid", 1),
            ("can_augment_grid", 2),
            ("augment_grid", 2),
            ("augment_task", 2),
        ]:
            assert getattr(matcher, name)(argument) == getattr(oracle, name)(argument)
            assert matcher.matching() == oracle.matching()
        assert matcher.matching() == {0: 1, 1: 0}
