"""Tests for bipartite graph construction under the range constraint."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, build_bipartite_graph
from repro.spatial.geometry import Point, euclidean_distance
from repro.spatial.grid import Grid


def _task(task_id, x, y, grid=None):
    task = Task(task_id=task_id, period=0, origin=Point(x, y), destination=Point(x, y + 1))
    return task if grid is None else task.with_grid(grid)


def _worker(worker_id, x, y, radius):
    return Worker(worker_id=worker_id, period=0, location=Point(x, y), radius=radius)


class TestGraphStructure:
    def test_empty_graph(self):
        graph = BipartiteGraph(tasks=[], workers=[])
        assert graph.num_tasks == 0
        assert graph.num_workers == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_add_edge_and_degrees(self):
        graph = BipartiteGraph(tasks=[_task(1, 0, 0), _task(2, 1, 1)], workers=[_worker(1, 0, 0, 5)])
        graph.add_edge(0, 0)
        graph.add_edge(1, 0)
        graph.add_edge(1, 0)  # duplicate ignored
        assert graph.num_edges == 2
        assert graph.degree_of_task(0) == 1
        assert graph.degree_of_worker(0) == 2
        assert graph.has_edge(0, 0)
        assert not graph.has_edge(0, 1) if graph.num_workers > 1 else True

    def test_add_edge_out_of_range(self):
        graph = BipartiteGraph(tasks=[_task(1, 0, 0)], workers=[_worker(1, 0, 0, 5)])
        with pytest.raises(IndexError):
            graph.add_edge(3, 0)
        with pytest.raises(IndexError):
            graph.add_edge(0, 3)

    def test_adjacency_length_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(
                tasks=[_task(1, 0, 0)], workers=[], task_neighbors=[[], []]
            )


class TestRangeConstraintConstruction:
    def test_brute_force_edges(self):
        tasks = [_task(1, 0, 0), _task(2, 10, 0), _task(3, 3, 4)]
        workers = [_worker(1, 0, 0, 5.0), _worker(2, 10, 1, 2.0)]
        graph = build_bipartite_graph(tasks, workers)
        # worker 1 reaches tasks 1 and 3; worker 2 reaches task 2 only.
        assert graph.task_neighbors[0] == [0]
        assert graph.task_neighbors[1] == [1]
        assert graph.task_neighbors[2] == [0]

    def test_boundary_is_inclusive(self):
        tasks = [_task(1, 3, 4)]
        workers = [_worker(1, 0, 0, 5.0)]
        graph = build_bipartite_graph(tasks, workers)
        assert graph.num_edges == 1

    def test_empty_inputs(self):
        assert build_bipartite_graph([], [_worker(1, 0, 0, 1)]).num_edges == 0
        assert build_bipartite_graph([_task(1, 0, 0)], []).num_edges == 0

    def test_index_and_brute_force_agree(self):
        rng = np.random.default_rng(0)
        grid = Grid.square(100.0, 10)
        tasks = [
            _task(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for i in range(40)
        ]
        workers = [
            _worker(j, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), float(rng.uniform(3, 25)))
            for j in range(25)
        ]
        indexed = build_bipartite_graph(tasks, workers, grid=grid)
        brute = build_bipartite_graph(tasks, workers)
        assert indexed.task_neighbors == brute.task_neighbors
        assert indexed.worker_neighbors == brute.worker_neighbors

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_every_edge_satisfies_range_constraint(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.square(50.0, 5)
        tasks = [
            _task(i, float(rng.uniform(0, 50)), float(rng.uniform(0, 50))) for i in range(15)
        ]
        workers = [
            _worker(j, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)), float(rng.uniform(1, 20)))
            for j in range(10)
        ]
        graph = build_bipartite_graph(tasks, workers, grid=grid)
        for task_pos, worker_pos in graph.edges():
            task, worker = graph.tasks[task_pos], graph.workers[worker_pos]
            assert euclidean_distance(worker.location, task.origin) <= worker.radius + 1e-9


class TestGridViews:
    def test_tasks_by_grid(self):
        grid = Grid.square(10.0, 2)
        tasks = [
            _task(1, 1, 1, grid=grid.locate(Point(1, 1))),
            _task(2, 9, 9, grid=grid.locate(Point(9, 9))),
            _task(3, 2, 2, grid=grid.locate(Point(2, 2))),
        ]
        graph = build_bipartite_graph(tasks, [_worker(1, 5, 5, 20)])
        buckets = graph.tasks_by_grid()
        assert buckets[1] == [0, 2]
        assert buckets[4] == [1]
        assert graph.tasks_in_grid(1) == [0, 2]

    def test_tasks_by_grid_requires_annotation(self):
        graph = build_bipartite_graph([_task(1, 0, 0)], [_worker(1, 0, 0, 5)])
        with pytest.raises(ValueError):
            graph.tasks_by_grid()

    def test_subgraph_for_tasks(self):
        tasks = [_task(1, 0, 0), _task(2, 1, 0), _task(3, 2, 0)]
        workers = [_worker(1, 0, 0, 10), _worker(2, 5, 0, 1)]
        graph = build_bipartite_graph(tasks, workers)
        sub = graph.subgraph_for_tasks([0, 2])
        assert sub.num_tasks == 2
        assert sub.num_workers == 2
        assert sub.tasks[0].task_id == 1
        assert sub.tasks[1].task_id == 3
        # Every edge of the subgraph must exist in the original graph.
        original = {(graph.tasks[t].task_id, w) for t, w in graph.edges()}
        for t, w in sub.edges():
            assert (sub.tasks[t].task_id, w) in original


def test_module_doctests_pass():
    """The builder-rule doctest (grid and ``grid=None`` give the same CSR)
    runs in the tier-1 suite as well as in the docs job."""
    import doctest

    import repro.matching.bipartite as bipartite

    result = doctest.testmod(bipartite)
    assert result.attempted > 0
    assert result.failed == 0
