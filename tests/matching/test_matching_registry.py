"""Tests for the matching backend registry and the CSR graph view."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.registry import (
    available_backends,
    get_backend,
    register_backend,
)
from repro.matching.weighted import max_weight_matching, task_weighted_matching
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


class TestRegistry:
    def test_default_backends_registered(self):
        assert available_backends() == [
            "greedy",
            "hungarian",
            "matroid",
            "scipy",
            "vgreedy",
        ]

    def test_lookup_is_case_insensitive(self):
        assert get_backend("MATROID") is get_backend("matroid")

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("quantum")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_max_weight_matching_unknown_backend_lists_names(self):
        graph = _graph(1, 1, [(0, 0)])
        with pytest.raises(ValueError) as excinfo:
            max_weight_matching(graph, [1.0], backend="quantum")
        assert "matroid" in str(excinfo.value)

    def test_custom_backend_dispatches(self):
        calls = []

        @register_backend("test-noop")
        def _noop(graph, task_weights, allowed_tasks=None):
            calls.append((graph.num_tasks, len(task_weights)))
            return {}, 0.0

        try:
            graph = _graph(2, 2, [(0, 0), (1, 1)])
            matching, total = max_weight_matching(graph, [1.0, 2.0], backend="test-noop")
            assert matching == {}
            assert total == 0.0
            assert calls == [(2, 2)]
        finally:
            # Keep the global registry clean for the other tests.
            from repro.matching import registry as registry_module

            registry_module._BACKENDS.pop("test-noop", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_backend("   ")

    @pytest.mark.parametrize(
        "backend", ["matroid", "greedy", "hungarian", "scipy", "vgreedy"]
    )
    def test_out_of_range_allowed_tasks_rejected_everywhere(self, backend):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(IndexError):
            max_weight_matching(graph, [1.0, 2.0], allowed_tasks=[-1], backend=backend)
        with pytest.raises(IndexError):
            max_weight_matching(graph, [1.0, 2.0], allowed_tasks=[5], backend=backend)


class TestCSRGraph:
    def test_from_adjacency_roundtrip(self):
        graph = _graph(3, 3, [(0, 1), (0, 2), (2, 0)])
        csr = graph.csr()
        assert csr.num_tasks == 3
        assert csr.num_workers == 3
        assert csr.num_edges == 3
        assert csr.indptr.tolist() == [0, 2, 2, 3]
        assert csr.neighbors(0).tolist() == [1, 2]
        assert csr.neighbors(1).tolist() == []
        assert csr.neighbors(2).tolist() == [0]
        assert csr.degrees().tolist() == [2, 0, 1]

    def test_csr_is_cached_and_invalidated_on_add_edge(self):
        graph = _graph(2, 2, [(0, 0)])
        first = graph.csr()
        assert graph.csr() is first
        graph.add_edge(1, 1)
        second = graph.csr()
        assert second is not first
        assert second.num_edges == 2

    def test_dense_mask_matches_adjacency(self):
        rng = np.random.default_rng(3)
        graph = _random_graph(rng, 6, 5, 0.4)
        mask = graph.csr().to_dense_mask()
        for task_pos in range(graph.num_tasks):
            for worker_pos in range(graph.num_workers):
                assert mask[task_pos, worker_pos] == graph.has_edge(task_pos, worker_pos)

    def test_empty_graph(self):
        csr = CSRGraph.from_adjacency([], 0)
        assert csr.num_edges == 0
        assert csr.indptr.tolist() == [0]


class TestCrossBackendAgreement:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_exact_backends_equal_total_weight(self, seed):
        """matroid / hungarian / scipy agree on random bipartite instances."""
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 14))
        num_workers = int(rng.integers(1, 14))
        graph = _random_graph(rng, num_tasks, num_workers, float(rng.uniform(0.1, 0.6)))
        weights = [float(rng.uniform(0.0, 10.0)) for _ in range(num_tasks)]
        allowed = None
        if rng.random() < 0.5:
            allowed = [t for t in range(num_tasks) if rng.random() < 0.7]

        totals = {
            backend: max_weight_matching(
                graph, weights, allowed_tasks=allowed, backend=backend
            )[1]
            for backend in ("matroid", "hungarian", "scipy")
        }
        assert totals["matroid"] == pytest.approx(totals["hungarian"], rel=1e-9, abs=1e-9)
        assert totals["matroid"] == pytest.approx(totals["scipy"], rel=1e-9, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matroid_matches_reference_recursion_exactly(self, seed):
        """The iterative CSR matroid search reproduces the seed recursion.

        Not only the total weight but the *matching itself* must be equal:
        the engine removes matched workers from the pool, so a different
        (equally heavy) assignment would change later periods.
        """
        from repro.simulation.legacy import reference_task_weighted_matching

        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 15))
        num_workers = int(rng.integers(1, 15))
        graph = _random_graph(rng, num_tasks, num_workers, float(rng.uniform(0.1, 0.7)))
        # Duplicate weights exercise the tie-breaking path.
        weights = [float(rng.choice([0.0, 1.0, 2.5, 2.5, 7.0])) for _ in range(num_tasks)]
        allowed = [t for t in range(num_tasks) if rng.random() < 0.8]

        new_matching, new_total = task_weighted_matching(graph, weights, allowed)
        ref_matching, ref_total = reference_task_weighted_matching(graph, weights, allowed)
        assert new_matching == ref_matching
        assert new_total == ref_total
