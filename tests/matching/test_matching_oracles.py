"""Tests for the CSR graph view and the matroid matcher against its oracles.

The matroid greedy (:func:`max_weight_matching`) is the only production
matcher.  SciPy's dense solver is its exact-total oracle, and the seed's
recursive matroid greedy its exact-pairing oracle.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import ParallelRunner, ShardSpec
from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.weighted import max_weight_matching, scipy_max_weight_matching
from repro.simulation.engine import SimulationEngine
from repro.simulation.pipeline import PeriodPipeline
from repro.simulation.sharded import ShardedEngine
from repro.simulation.streaming import StreamingEngine, workload_to_stream
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


class TestOneMatchingBackend:
    """The matroid greedy is the only matcher; no knob selects another."""

    def test_the_registry_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.matching.registry")

    @pytest.mark.parametrize("name", ["vgreedy", "greedy", "hungarian", "scipy"])
    def test_backend_keyword_accepts_only_matroid(self, name):
        graph = _graph(1, 1, [(0, 0)])
        assert max_weight_matching(graph, [1.0], backend="matroid") == ({0: 0}, 1.0)
        with pytest.raises(ValueError, match="only backend is 'matroid'"):
            max_weight_matching(graph, [1.0], backend=name)

    @pytest.mark.parametrize("name", ["vgreedy", "greedy", "hungarian", "scipy"])
    def test_sharded_engine_keyword_accepts_only_matroid(self, tiny_workload, name):
        ShardedEngine(tiny_workload, matching_backend="matroid")
        with pytest.raises(ValueError, match="only backend is 'matroid'"):
            ShardedEngine(tiny_workload, matching_backend=name)

    BUILDERS = {
        "PeriodPipeline": lambda workload, **kw: PeriodPipeline(
            workload.price_bounds, workload.acceptance, **kw
        ),
        "StreamingEngine": lambda workload, **kw: StreamingEngine(
            workload_to_stream(workload), **kw
        ),
        "SimulationEngine": lambda workload, **kw: SimulationEngine(workload, **kw),
        "ShardSpec.build_engine": lambda workload, **kw: ShardSpec().build_engine(
            workload, 0, False, False, **kw
        ),
        "ParallelRunner": lambda workload, **kw: ParallelRunner(
            workload, ["BaseP"], **kw
        ),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_engines_take_no_matching_backend(self, tiny_workload, builder):
        build = self.BUILDERS[builder]
        build(tiny_workload)
        with pytest.raises(TypeError, match="matching_backend"):
            build(tiny_workload, matching_backend="matroid")

    @pytest.mark.parametrize(
        "solve", [max_weight_matching, scipy_max_weight_matching], ids=["matroid", "scipy"]
    )
    def test_out_of_range_allowed_tasks_rejected_everywhere(self, solve):
        graph = _graph(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(IndexError):
            solve(graph, [1.0, 2.0], allowed_tasks=[-1])
        with pytest.raises(IndexError):
            solve(graph, [1.0, 2.0], allowed_tasks=[5])


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
        """The matroid greedy and the scipy oracle agree on random instances."""
        rng = np.random.default_rng(seed)
        num_tasks = int(rng.integers(1, 14))
        num_workers = int(rng.integers(1, 14))
        graph = _random_graph(rng, num_tasks, num_workers, float(rng.uniform(0.1, 0.6)))
        weights = [float(rng.uniform(0.0, 10.0)) for _ in range(num_tasks)]
        allowed = None
        if rng.random() < 0.5:
            allowed = [t for t in range(num_tasks) if rng.random() < 0.7]

        matroid_total = max_weight_matching(graph, weights, allowed_tasks=allowed)[1]
        scipy_total = scipy_max_weight_matching(graph, weights, allowed_tasks=allowed)[1]
        assert matroid_total == pytest.approx(scipy_total, rel=1e-9, abs=1e-9)

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

        new_matching, new_total = max_weight_matching(graph, weights, allowed)
        ref_matching, ref_total = reference_task_weighted_matching(graph, weights, allowed)
        assert new_matching == ref_matching
        assert new_total == ref_total
