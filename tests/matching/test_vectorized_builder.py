"""Equivalence tests for the vectorised bipartite-graph builder.

The vectorised builder changes *how* the range-constrained graph is
built, never *what* it contains: across fuzzed radii, densities, metrics
and grids it must produce an edge-identical CSR to the all-pairs scan
(``grid=None``, the oracle), with and without the degree cap.  The lazy CSR-backed
:class:`BipartiteGraph` views must in turn agree with the materialised
adjacency lists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import (
    BipartiteGraph,
    CSRGraph,
    build_bipartite_graph,
    build_graph_from_arrays,
)
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.spatial.index import GridBuckets


def _entities(rng, side, num_tasks, num_workers, max_radius):
    tasks = [
        Task(
            task_id=i,
            period=0,
            origin=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            destination=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
        )
        for i in range(num_tasks)
    ]
    workers = [
        Worker(
            worker_id=j,
            period=0,
            location=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            radius=float(rng.uniform(0, max_radius)),
        )
        for j in range(num_workers)
    ]
    return tasks, workers


class TestBuilderEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_tasks=st.integers(min_value=0, max_value=60),
        num_workers=st.integers(min_value=0, max_value=40),
        cells=st.integers(min_value=1, max_value=8),
        max_radius=st.floats(min_value=0.0, max_value=80.0),
        metric=st.sampled_from(["euclidean", "manhattan", "haversine"]),
    )
    @settings(deadline=None)
    def test_vectorized_csr_is_edge_identical_to_all_pairs_scan(
        self, seed, num_tasks, num_workers, cells, max_radius, metric
    ):
        """Identical ``indptr``/``indices`` arrays to the oracle's."""
        rng = np.random.default_rng(seed)
        side = 50.0
        grid = Grid.square(side, cells)
        tasks, workers = _entities(rng, side, num_tasks, num_workers, max_radius)
        vectorized = build_bipartite_graph(tasks, workers, metric=metric, grid=grid)
        scan = build_bipartite_graph(tasks, workers, metric=metric, grid=None)
        assert vectorized.csr().indptr.tolist() == scan.csr().indptr.tolist()
        assert vectorized.csr().indices.tolist() == scan.csr().indices.tolist()

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        max_degree=st.integers(min_value=1, max_value=10),
    )
    @settings(deadline=None)
    def test_degree_cap_parity_between_builders(self, seed, max_degree):
        """Both paths apply the identical k-nearest capping rule."""
        rng = np.random.default_rng(seed)
        side = 30.0
        grid = Grid.square(side, 4)
        tasks, workers = _entities(rng, side, 40, 25, 25.0)
        vectorized = build_bipartite_graph(
            tasks, workers, grid=grid, max_degree=max_degree
        )
        scan = build_bipartite_graph(tasks, workers, grid=None, max_degree=max_degree)
        assert vectorized.task_neighbors == scan.task_neighbors
        assert vectorized.worker_neighbors == scan.worker_neighbors

    def test_metric_callable_takes_the_all_pairs_scan(self):
        """A callable has no array form, so even with a grid it is scanned."""
        rng = np.random.default_rng(3)
        tasks, workers = _entities(rng, 30.0, 40, 25, 12.0)
        grid = Grid.square(30.0, 4)
        calls = []

        def metric(a, b):
            calls.append(1)
            return a.distance_to(b)

        scanned = build_bipartite_graph(tasks, workers, metric=metric, grid=grid)
        assert len(calls) == len(tasks) * len(workers)
        named = build_bipartite_graph(tasks, workers, grid=grid)
        assert scanned.task_neighbors == named.task_neighbors

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None)
    def test_degree_cap_keeps_the_nearest_workers(self, seed):
        """The cap keeps exactly the k nearest (ties by worker position)."""
        rng = np.random.default_rng(seed)
        side = 20.0
        grid = Grid.square(side, 3)
        tasks, workers = _entities(rng, side, 15, 12, 30.0)
        k = 3
        capped = build_bipartite_graph(tasks, workers, grid=grid, max_degree=k)
        exact = build_bipartite_graph(tasks, workers, grid=grid)
        for task_pos, adjacency in enumerate(exact.task_neighbors):
            origin = tasks[task_pos].origin
            expected = sorted(
                sorted(
                    adjacency,
                    key=lambda w: (
                        origin.distance_to(workers[w].location),
                        w,
                    ),
                )[:k]
            )
            assert capped.task_neighbors[task_pos] == expected
            assert len(capped.task_neighbors[task_pos]) <= k


class TestCSRBackedGraph:
    def _csr_graph(self):
        tasks = [
            Task(task_id=i, period=0, origin=Point(i, 0), destination=Point(i, 1))
            for i in range(3)
        ]
        workers = [
            Worker(worker_id=j, period=0, location=Point(j, 0), radius=1.5)
            for j in range(3)
        ]
        csr = CSRGraph.from_edge_arrays(
            np.array([0, 0, 1, 2], dtype=np.int64),
            np.array([0, 1, 1, 2], dtype=np.int64),
            num_tasks=3,
            num_workers=3,
        )
        return BipartiteGraph.from_csr(tasks, workers, csr)

    def test_lazy_adjacency_matches_csr(self):
        graph = self._csr_graph()
        assert graph.num_edges == 4
        assert graph.has_edge(0, 1) and not graph.has_edge(1, 0)
        assert graph.degree_of_task(0) == 2
        assert graph.task_neighbors == [[0, 1], [1], [2]]
        assert graph.worker_neighbors == [[0], [0, 1], [2]]
        assert graph.degree_of_worker(1) == 2

    def test_add_edge_after_csr_backing_invalidates_cache(self):
        graph = self._csr_graph()
        first = graph.csr()
        graph.add_edge(1, 0)
        assert graph.csr() is not first
        assert graph.csr().num_edges == 5
        assert sorted(graph.task_neighbors[1]) == [0, 1]

    def test_empty_csr_backed_graph_has_empty_adjacency(self):
        empty = CSRGraph.from_edge_arrays(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            num_tasks=0,
            num_workers=0,
        )
        graph = BipartiteGraph.from_csr([], [], empty)
        assert graph.task_neighbors == []
        assert graph.worker_neighbors == []
        assert graph == BipartiteGraph(tasks=[], workers=[])

    def test_from_csr_dimension_mismatch_rejected(self):
        graph = self._csr_graph()
        with pytest.raises(ValueError):
            BipartiteGraph.from_csr(graph.tasks[:1], graph.workers, graph.csr())

    def test_max_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            build_bipartite_graph([], [], max_degree=0)

    @pytest.mark.parametrize("max_degree", [0, -1])
    def test_array_builder_rejects_non_positive_cap(self, max_degree):
        # The columnar engines build through this entry point; a zero cap
        # used to yield edgeless graphs and a silent zero-revenue run.
        tasks = [Task(task_id=0, period=0, origin=Point(1, 1), destination=Point(2, 2))]
        workers = [Worker(worker_id=0, period=0, location=Point(1, 1), radius=5.0)]
        one = np.ones(1)
        with pytest.raises(ValueError, match="max_degree"):
            build_graph_from_arrays(
                tasks, workers, one, one, one, one, 5.0 * one, "euclidean",
                Grid.square(10.0, 2), max_degree=max_degree,
            )


class TestGridBuckets:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_points=st.integers(min_value=0, max_value=50),
        num_queries=st.integers(min_value=0, max_value=10),
    )
    @settings(deadline=None)
    def test_batched_queries_match_brute_force(self, seed, num_points, num_queries):
        rng = np.random.default_rng(seed)
        side = 40.0
        grid = Grid.square(side, 4)
        xs = rng.uniform(0, side, num_points)
        ys = rng.uniform(0, side, num_points)
        cx = rng.uniform(0, side, num_queries)
        cy = rng.uniform(0, side, num_queries)
        radii = rng.uniform(0, 30.0, num_queries)
        buckets = GridBuckets(grid, xs, ys)
        centers, points, distances = buckets.query_circles(cx, cy, radii)
        got = set(zip(centers.tolist(), points.tolist()))
        expected = {
            (q, p)
            for q in range(num_queries)
            for p in range(num_points)
            if np.hypot(cx[q] - xs[p], cy[q] - ys[p]) <= radii[q]
        }
        assert got == expected
        assert np.allclose(
            distances, np.hypot(cx[centers] - xs[points], cy[centers] - ys[points])
        )

    def test_chunked_expansion_matches_monolithic(self, monkeypatch):
        """Tiny chunk bounds force both chunk loops through many rounds
        and must not change the results or their ordering."""
        import repro.spatial.index as index_module

        rng = np.random.default_rng(7)
        side = 40.0
        grid = Grid.square(side, 4)
        xs, ys = rng.uniform(0, side, 80), rng.uniform(0, side, 80)
        cx, cy = rng.uniform(0, side, 15), rng.uniform(0, side, 15)
        radii = rng.uniform(0, 30.0, 15)
        buckets = GridBuckets(grid, xs, ys)
        reference = buckets.query_circles(cx, cy, radii)
        monkeypatch.setattr(index_module, "_CELL_CHUNK", 3)
        monkeypatch.setattr(index_module, "_POINT_CHUNK", 5)
        chunked = buckets.query_circles(cx, cy, radii)
        for ref, got in zip(reference, chunked):
            assert ref.tolist() == got.tolist()

    def test_negative_radius_rejected(self):
        buckets = GridBuckets(Grid.square(10.0, 2), [1.0], [1.0])
        with pytest.raises(ValueError):
            buckets.query_circles([1.0], [1.0], [-1.0])

    def test_callable_metric_rejected(self):
        buckets = GridBuckets(Grid.square(10.0, 2), [1.0], [1.0])
        with pytest.raises(ValueError):
            buckets.query_circles([1.0], [1.0], [1.0], metric=lambda a, b: 0.0)
