"""Tests for maximum-cardinality and maximum-weight matching algorithms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.maximum_matching import hopcroft_karp_matching, maximum_matching_size
from repro.matching.weighted import (
    max_weight_matching,
    scipy_max_weight_matching,
    scipy_weight_matching,
)
from repro.spatial.geometry import Point


def _graph(num_tasks, num_workers, edges):
    tasks = [
        Task(task_id=i, period=0, origin=Point(i, 0), destination=Point(i, 1))
        for i in range(num_tasks)
    ]
    workers = [
        Worker(worker_id=j, period=0, location=Point(j, 0), radius=1.0)
        for j in range(num_workers)
    ]
    graph = BipartiteGraph(tasks=tasks, workers=workers)
    for task_pos, worker_pos in edges:
        graph.add_edge(task_pos, worker_pos)
    return graph


def _random_graph(rng, num_tasks, num_workers, edge_probability):
    edges = [
        (t, w)
        for t in range(num_tasks)
        for w in range(num_workers)
        if rng.random() < edge_probability
    ]
    return _graph(num_tasks, num_workers, edges)


def _matching_is_valid(graph, matching):
    used_workers = set()
    for task_pos, worker_pos in matching.items():
        assert graph.has_edge(task_pos, worker_pos)
        assert worker_pos not in used_workers
        used_workers.add(worker_pos)


class TestHopcroftKarp:
    def test_simple_perfect_matching(self):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        task_to_worker, worker_to_task = hopcroft_karp_matching(graph)
        assert task_to_worker == {0: 0, 1: 1}
        assert worker_to_task == {0: 0, 1: 1}

    def test_augmenting_path_needed(self):
        # Task 0 connects to both workers, task 1 only to worker 0: the
        # matching must route task 0 to worker 1.
        graph = _graph(2, 2, [(0, 0), (0, 1), (1, 0)])
        task_to_worker, _ = hopcroft_karp_matching(graph)
        assert len(task_to_worker) == 2
        assert task_to_worker[1] == 0
        assert task_to_worker[0] == 1

    def test_restricted_task_set(self):
        graph = _graph(3, 1, [(0, 0), (1, 0), (2, 0)])
        task_to_worker, _ = hopcroft_karp_matching(graph, allowed_tasks=[2])
        assert task_to_worker == {2: 0}
        with pytest.raises(IndexError):
            hopcroft_karp_matching(graph, allowed_tasks=[5])

    def test_empty_graph(self):
        graph = _graph(0, 0, [])
        assert hopcroft_karp_matching(graph) == ({}, {})

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 12))
        num_workers = int(rng.integers(1, 12))
        graph = _random_graph(rng, num_tasks, num_workers, 0.3)
        task_to_worker, worker_to_task = hopcroft_karp_matching(graph)
        _matching_is_valid(graph, task_to_worker)
        assert {v: k for k, v in task_to_worker.items()} == worker_to_task

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from([("t", i) for i in range(num_tasks)], bipartite=0)
        nx_graph.add_nodes_from([("w", j) for j in range(num_workers)], bipartite=1)
        for t, w in graph.edges():
            nx_graph.add_edge(("t", t), ("w", w))
        nx_matching = nx.algorithms.matching.maximal_matching  # placeholder to avoid confusion
        size = len(
            nx.algorithms.bipartite.maximum_matching(
                nx_graph, top_nodes=[("t", i) for i in range(num_tasks)]
            )
        ) // 2
        assert len(task_to_worker) == size


class TestTaskWeightedMatching:
    def test_prefers_heavier_task(self):
        graph = _graph(2, 1, [(0, 0), (1, 0)])
        matching, total = max_weight_matching(graph, [1.0, 5.0])
        assert matching == {1: 0}
        assert total == pytest.approx(5.0)

    def test_augments_to_keep_heavy_task(self):
        # Heavy task 0 shares worker 0 with task 1; worker 1 reaches task 0
        # only.  Optimal: task 0 -> worker 1, task 1 -> worker 0.
        graph = _graph(2, 2, [(0, 0), (0, 1), (1, 0)])
        matching, total = max_weight_matching(graph, [10.0, 2.0])
        assert total == pytest.approx(12.0)
        assert matching[0] in (0, 1)
        _matching_is_valid(graph, matching)

    def test_zero_weight_tasks_skipped(self):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        matching, total = max_weight_matching(graph, [0.0, 3.0])
        assert matching == {1: 1}
        assert total == pytest.approx(3.0)

    def test_allowed_tasks_subset(self):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        matching, total = max_weight_matching(graph, [4.0, 3.0], allowed_tasks=[1])
        assert matching == {1: 1}
        assert total == pytest.approx(3.0)

    def test_weight_length_mismatch(self):
        graph = _graph(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            max_weight_matching(graph, [1.0])


class TestDenseBackends:
    def test_scipy_simple(self):
        matrix = np.array([[3.0, 1.0], [2.0, 4.0]])
        assignment, total = scipy_weight_matching(matrix)
        assert assignment == {0: 0, 1: 1}
        assert total == pytest.approx(7.0)

    def test_scipy_with_forbidden_edges(self):
        matrix = np.array([[-np.inf, 5.0], [2.0, -np.inf]])
        assignment, total = scipy_weight_matching(matrix)
        assert assignment == {0: 1, 1: 0}
        assert total == pytest.approx(7.0)

    def test_scipy_rectangular(self):
        matrix = np.array([[5.0, 1.0, 2.0]])
        assignment, total = scipy_weight_matching(matrix)
        assert assignment == {0: 0}
        assert total == pytest.approx(5.0)

    def test_scipy_empty(self):
        assignment, total = scipy_weight_matching(np.zeros((0, 0)))
        assert assignment == {}
        assert total == 0.0

    def test_graph_oracle_empty_graph(self):
        assert scipy_max_weight_matching(_graph(0, 0, []), []) == ({}, 0.0)

    def test_graph_oracle_skips_zero_weight_and_isolated_tasks(self):
        # Task 0 weighs nothing, task 2 has no edge: only task 1 is matched.
        graph = _graph(3, 2, [(0, 0), (1, 0), (1, 1)])
        assignment, total = scipy_max_weight_matching(graph, [0.0, 3.0, 9.0])
        assert assignment in ({1: 0}, {1: 1})
        assert total == pytest.approx(3.0)

    def test_graph_oracle_weight_length_mismatch(self):
        graph = _graph(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            scipy_max_weight_matching(graph, [1.0])


class TestBackendAgreement:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matroid_equals_dense_backends(self, seed):
        """The matroid greedy and the dense oracle agree on the total."""
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 10))
        num_workers = int(rng.integers(1, 10))
        graph = _random_graph(rng, num_tasks, num_workers, 0.4)
        weights = [float(rng.uniform(0.1, 10.0)) for _ in range(num_tasks)]

        matching_m, total_m = max_weight_matching(graph, weights)
        _, total_s = scipy_max_weight_matching(graph, weights)
        _matching_is_valid(graph, matching_m)
        assert total_m == pytest.approx(total_s, rel=1e-9, abs=1e-9)

    def test_unknown_backend(self):
        graph = _graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError):
            max_weight_matching(graph, [1.0], backend="quantum")

    def test_allowed_tasks_respected_by_dense_backends(self):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        _, total = scipy_max_weight_matching(graph, [5.0, 3.0], allowed_tasks=[1])
        assert total == pytest.approx(3.0)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_cardinality_of_positive_weight_matching(self, seed):
        """With uniform weights, max-weight matching has maximum cardinality."""
        rng = np.random.default_rng(seed)
        graph = _random_graph(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), 0.35)
        weights = [1.0] * graph.num_tasks
        matching, total = max_weight_matching(graph, weights)
        assert len(matching) == maximum_matching_size(graph)
        assert total == pytest.approx(float(len(matching)))
