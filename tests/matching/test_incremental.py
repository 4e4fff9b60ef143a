"""Tests for the incremental augmenting-path matcher used by MAPS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.incremental import IncrementalMatcher
from repro.matching.maximum_matching import maximum_matching_size
from repro.spatial.geometry import Point


def _graph_with_grids(edges, task_grids, num_workers):
    tasks = [
        Task(
            task_id=i, period=0, origin=Point(i, 0), destination=Point(i, 1)
        ).with_grid(grid)
        for i, grid in enumerate(task_grids)
    ]
    workers = [
        Worker(worker_id=j, period=0, location=Point(j, 0), radius=1.0)
        for j in range(num_workers)
    ]
    graph = BipartiteGraph(tasks=tasks, workers=workers)
    for t, w in edges:
        graph.add_edge(t, w)
    return graph


class TestAugmentation:
    def test_basic_grid_augmentation(self):
        graph = _graph_with_grids([(0, 0), (1, 0), (2, 1)], [9, 9, 11], 2)
        matcher = IncrementalMatcher(graph)
        assert matcher.size == 0
        assert matcher.can_augment_grid(9)
        assert matcher.augment_grid(9) in (0, 1)
        assert matcher.size == 1
        # Second task of grid 9 shares the single worker: no more supply.
        assert not matcher.can_augment_grid(9)
        assert matcher.augment_grid(9) is None
        # Grid 11 has its own worker.
        assert matcher.augment_grid(11) == 2
        assert matcher.size == 2
        assert matcher.is_valid_matching()

    def test_augmentation_reroutes_existing_matches(self):
        # Task 0 (grid 1) connects to workers 0 and 1; task 1 (grid 2) only
        # to worker 0.  After matching task 0 to worker 0, adding supply to
        # grid 2 must re-route task 0 to worker 1.
        graph = _graph_with_grids([(0, 0), (0, 1), (1, 0)], [1, 2], 2)
        matcher = IncrementalMatcher(graph)
        assert matcher.augment_grid(1) == 0
        assert matcher.worker_of(0) == 0
        assert matcher.augment_grid(2) == 1
        assert matcher.size == 2
        assert matcher.worker_of(0) == 1
        assert matcher.worker_of(1) == 0
        assert matcher.is_valid_matching()

    def test_augment_unknown_grid(self):
        graph = _graph_with_grids([(0, 0)], [3], 1)
        matcher = IncrementalMatcher(graph)
        assert matcher.augment_grid(99) is None
        assert not matcher.can_augment_grid(99)

    def test_augment_task_direct(self):
        graph = _graph_with_grids([(0, 0), (1, 0)], [1, 1], 1)
        matcher = IncrementalMatcher(graph)
        assert matcher.augment_task(0)
        assert matcher.augment_task(0)  # already matched -> True
        assert not matcher.augment_task(1)

    def test_requires_grid_annotation(self):
        tasks = [Task(task_id=0, period=0, origin=Point(0, 0), destination=Point(0, 1))]
        workers = [Worker(worker_id=0, period=0, location=Point(0, 0), radius=2.0)]
        graph = BipartiteGraph(tasks=tasks, workers=workers)
        graph.add_edge(0, 0)
        matcher = IncrementalMatcher(graph)
        with pytest.raises(ValueError):
            matcher.augment_grid(1)

    def test_grid_task_queries(self):
        graph = _graph_with_grids([(0, 0), (1, 1)], [5, 5], 2)
        matcher = IncrementalMatcher(graph)
        assert matcher.unmatched_tasks_in_grid(5) == [0, 1]
        matcher.augment_grid(5)
        assert len(matcher.matched_tasks_in_grid(5)) == 1
        assert len(matcher.unmatched_tasks_in_grid(5)) == 1


class TestAgainstHopcroftKarp:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_augmentation_reaches_maximum_matching(self, seed):
        """Repeated grid augmentation must end at a maximum matching."""
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 12))
        num_workers = int(rng.integers(1, 12))
        num_grids = int(rng.integers(1, 5))
        task_grids = [int(rng.integers(1, num_grids + 1)) for _ in range(num_tasks)]
        edges = [
            (t, w)
            for t in range(num_tasks)
            for w in range(num_workers)
            if rng.random() < 0.35
        ]
        graph = _graph_with_grids(edges, task_grids, num_workers)
        matcher = IncrementalMatcher(graph)

        progress = True
        while progress:
            progress = False
            for grid in set(task_grids):
                if matcher.augment_grid(grid) is not None:
                    progress = True
        assert matcher.is_valid_matching()
        assert matcher.size == maximum_matching_size(graph)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_matching_dict_consistency(self, seed):
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 10))
        num_workers = int(rng.integers(1, 10))
        edges = [
            (t, w)
            for t in range(num_tasks)
            for w in range(num_workers)
            if rng.random() < 0.4
        ]
        graph = _graph_with_grids(edges, [1] * num_tasks, num_workers)
        matcher = IncrementalMatcher(graph)
        while matcher.augment_grid(1) is not None:
            pass
        matching = matcher.matching()
        assert len(set(matching.values())) == len(matching)
        for task_pos, worker_pos in matching.items():
            assert matcher.task_of(worker_pos) == task_pos
            assert matcher.worker_of(task_pos) == worker_pos


class TestDeepChainRegression:
    def test_augmenting_chain_beyond_the_recursion_limit(self):
        """A 1500-deep alternating chain used to raise RecursionError.

        Task ``i`` prefers worker ``i + 1`` (insertion order), so after
        inserting tasks 0..n-1 the final task — whose only edge is the
        last worker — must re-route the entire chain in one augmentation.
        """
        n = 1500
        edges = []
        for i in range(n):
            edges.append((i, i + 1))
            edges.append((i, i))
        edges.append((n, n))
        graph = _graph_with_grids(edges, [1] * (n + 1), n + 1)
        matcher = IncrementalMatcher(graph)
        for i in range(n):
            assert matcher.augment_task(i)
        assert matcher.augment_task(n)
        assert matcher.size == n + 1
        assert matcher.is_valid_matching()


class TestSaturationPruning:
    def test_failed_searches_do_not_change_later_results(self):
        """Saturation pruning must be invisible to callers.

        Repeated infeasible grid queries (the planner probing a saturated
        grid every period) mark workers dead; later augmentations must
        still reach exactly the maximum matching.
        """
        # Grid 1 tasks share one worker; grid 2 task has its own.
        edges = [(0, 0), (1, 0), (2, 0), (3, 1)]
        graph = _graph_with_grids(edges, [1, 1, 1, 2], 2)
        matcher = IncrementalMatcher(graph)
        assert matcher.augment_grid(1) is not None
        for _ in range(5):  # saturated: every retry fails and prunes
            assert matcher.augment_grid(1) is None
            assert not matcher.can_augment_grid(1)
        # The pruning must not leak into grid 2's feasible augmentation.
        assert matcher.augment_grid(2) is not None
        assert matcher.size == maximum_matching_size(graph)
        assert matcher.is_valid_matching()


class TestGreedyInsert:
    """``DynamicMatcher.insert_task_greedy`` — the service's SLO fallback.

    Bounded-cost inserts keep the matching *valid* but deliberately give
    up the lex-max-basis invariant, so these tests assert structure and
    the documented first-free-worker behaviour, never optimality.
    """

    @staticmethod
    def _dynamic(edges, num_tasks, num_workers):
        from repro.matching.incremental import DynamicMatcher

        graph = _graph_with_grids(edges, [1] * num_tasks, num_workers)
        return DynamicMatcher(graph, [0.0] * num_tasks)

    def test_matches_first_free_adjacent_worker(self):
        matcher = self._dynamic([(0, 0), (0, 1), (0, 2)], 1, 3)
        for worker in range(3):
            matcher.insert_worker(worker)
        assert matcher.insert_task_greedy(0, weight=2.0)
        # CSR row order, not weight or repair logic, picks the worker.
        assert matcher.worker_of(0) == 0
        assert matcher.is_valid_matching()

    def test_skips_occupied_and_dead_workers(self):
        matcher = self._dynamic([(0, 0), (1, 0), (1, 1), (1, 2)], 2, 3)
        for worker in range(3):
            matcher.insert_worker(worker)
        assert matcher.insert_task_greedy(0, weight=1.0)  # takes worker 0
        matcher.remove_worker(1)  # worker 1 leaves the market
        assert matcher.insert_task_greedy(1, weight=1.0)
        assert matcher.worker_of(1) == 2  # 0 occupied, 1 gone -> 2
        assert matcher.is_valid_matching()

    def test_no_free_worker_leaves_task_live_and_unmatched(self):
        """Greedy never evicts: a repairing insert would re-route here."""
        matcher = self._dynamic([(0, 0), (1, 0)], 2, 1)
        matcher.insert_worker(0)
        assert matcher.insert_task_greedy(0, weight=1.0)
        assert not matcher.insert_task_greedy(1, weight=5.0)
        assert matcher.is_task_live(1)
        assert matcher.worker_of(1) is None
        # The heavier task did NOT displace the lighter one — the
        # documented optimality gap of the degraded path.
        assert matcher.worker_of(0) == 0

    def test_non_positive_weight_is_live_but_ineligible(self):
        matcher = self._dynamic([(0, 0)], 1, 1)
        matcher.insert_worker(0)
        assert not matcher.insert_task_greedy(0, weight=0.0)
        assert matcher.is_task_live(0)
        assert matcher.weight_of(0) == 0.0
        assert matcher.worker_of(0) is None

    def test_double_insert_raises(self):
        matcher = self._dynamic([(0, 0)], 1, 1)
        matcher.insert_worker(0)
        assert matcher.insert_task_greedy(0, weight=1.0)
        with pytest.raises(ValueError, match="already live"):
            matcher.insert_task_greedy(0, weight=1.0)

    def test_greedy_inserted_task_settles_like_any_other(self):
        """Commit and removal work unchanged on a greedy-matched task."""
        matcher = self._dynamic([(0, 0), (1, 1)], 2, 2)
        matcher.insert_worker(0)
        matcher.insert_worker(1)
        assert matcher.insert_task_greedy(0, weight=1.5)
        assert matcher.insert_task_greedy(1, weight=2.5)
        assert matcher.commit_task(0) == 0
        assert not matcher.is_task_live(0)
        assert not matcher.is_worker_live(0)
        # No unmatched task is waiting, so the freed worker absorbs nothing.
        assert matcher.remove_task(1) is None
        assert matcher.is_worker_live(1)
        assert matcher.task_of(1) is None
        assert matcher.is_valid_matching()

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_greedy_inserts_are_maximal_and_never_beat_exact(self, seed):
        """Greedy inserts build a maximal matching worth at most the optimum."""
        from repro.matching.weighted import scipy_max_weight_matching

        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 10))
        num_workers = int(rng.integers(1, 10))
        edges = [
            (t, w)
            for t in range(num_tasks)
            for w in range(num_workers)
            if rng.random() < 0.35
        ]
        weights = [float(rng.uniform(0.1, 10.0)) for _ in range(num_tasks)]
        matcher = self._dynamic(edges, num_tasks, num_workers)
        for worker in range(num_workers):
            matcher.insert_worker(worker)
        for task in rng.permutation(num_tasks):
            matcher.insert_task_greedy(int(task), weight=weights[task])

        assert matcher.is_valid_matching()
        for task, worker in edges:
            assert matcher.worker_of(task) is not None or matcher.task_of(worker) is not None
        _, exact = scipy_max_weight_matching(matcher.graph, weights)
        assert matcher.total_weight() <= exact + 1e-9
