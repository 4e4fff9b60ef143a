"""Fuzzed equivalence and edge-case pinning for the streaming engine.

Random tiny workloads — worker-only periods, task-only periods, empty
periods, zero-worker markets, valuationless tasks that consume the
accept/reject RNG — must stream bit-identically to the batch engine at
``window=1.0``.  The regression tests pin the latent edge cases this
fuzzing (and the sharded-engine work) surfaced:

* an augmenting chain longer than the interpreter's recursion limit used
  to crash :class:`~repro.matching.incremental.IncrementalMatcher` (and
  with it any streaming window pooling a large connected component) with
  ``RecursionError``;
* re-running a stream backed by a one-shot generator used to *silently*
  return zero-revenue metrics instead of failing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.market.acceptance import DistributionAcceptanceModel, PerGridAcceptance
from repro.market.entities import Task, Worker
from repro.market.valuation import TruncatedNormalValuation
from repro.pricing.registry import create_strategy
from repro.simulation.config import WorkloadBundle
from repro.simulation.engine import SimulationEngine
from repro.simulation.streaming import (
    ArrivalStream,
    StreamingEngine,
    TaskArrival,
    WorkerArrival,
    workload_to_stream,
)
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid

GRID = Grid(BoundingBox.square(10.0), 3, 3)
ACCEPTANCE = PerGridAcceptance(
    models={},
    default=DistributionAcceptanceModel(TruncatedNormalValuation(mean=2.0, std=1.0)),
)


def random_workload(seed: int) -> WorkloadBundle:
    """A tiny random workload with deliberately degenerate periods."""
    rng = np.random.default_rng(seed)
    num_periods = int(rng.integers(1, 6))
    tasks_by_period, workers_by_period = [], []
    task_id = worker_id = 0
    for period in range(num_periods):
        tasks, workers = [], []
        for _ in range(int(rng.integers(0, 5))):
            origin = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            destination = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            valuation = float(rng.uniform(1, 5)) if rng.random() < 0.6 else None
            tasks.append(
                Task(
                    task_id=task_id,
                    period=period,
                    origin=origin,
                    destination=destination,
                    valuation=valuation,
                )
            )
            task_id += 1
        for _ in range(int(rng.integers(0, 4))):
            duration = int(rng.integers(1, 4)) if rng.random() < 0.7 else None
            workers.append(
                Worker(
                    worker_id=worker_id,
                    period=period,
                    location=Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10))),
                    radius=float(rng.uniform(1, 8)),
                    duration=duration,
                )
            )
            worker_id += 1
        tasks_by_period.append(tasks)
        workers_by_period.append(workers)
    return WorkloadBundle(
        grid=GRID,
        tasks_by_period=tasks_by_period,
        workers_by_period=workers_by_period,
        acceptance=ACCEPTANCE,
        price_bounds=(1.0, 5.0),
    )


class TestFuzzedBatchEquivalence:
    @given(
        workload_seed=st.integers(min_value=0, max_value=10_000),
        engine_seed=st.integers(min_value=0, max_value=50),
        name=st.sampled_from(["BaseP", "MAPS", "CappedUCB"]),
    )
    def test_binned_stream_matches_batch_bitwise(self, workload_seed, engine_seed, name):
        workload = random_workload(workload_seed)
        batch = SimulationEngine(workload, seed=engine_seed).run(
            create_strategy(name, base_price=2.0)
        )
        stream = StreamingEngine(workload_to_stream(workload), seed=engine_seed).run(
            create_strategy(name, base_price=2.0)
        )
        assert stream.metrics.total_revenue == batch.metrics.total_revenue
        assert stream.metrics.served_tasks == batch.metrics.served_tasks
        assert stream.metrics.accepted_tasks == batch.metrics.accepted_tasks
        assert stream.metrics.total_tasks == batch.metrics.total_tasks
        assert stream.metrics.revenue_by_period == batch.metrics.revenue_by_period

    @given(workload_seed=st.integers(min_value=0, max_value=10_000))
    def test_odd_windows_conserve_tasks(self, workload_seed):
        workload = random_workload(workload_seed)
        for window in (0.3, 2.5):
            result = StreamingEngine(
                workload_to_stream(workload), seed=1, window=window
            ).run(create_strategy("BaseP", base_price=2.0))
            metrics = result.metrics
            assert metrics.total_tasks == workload.total_tasks
            assert metrics.served_tasks <= metrics.accepted_tasks <= metrics.total_tasks


def _chain_events(num_pairs: int):
    """One dispatch window whose matching needs a ``num_pairs``-deep chain.

    Task ``i`` prefers worker ``i + 1`` over worker ``i`` (tasks carry
    decreasing weights, so they insert in index order); the final task
    reaches only the last worker, forcing a full-length augmenting path.
    """
    events = []
    for pos in range(num_pairs + 1):
        events.append(
            WorkerArrival(
                time=0.0,
                worker=Worker(
                    worker_id=pos,
                    period=0,
                    location=Point(0.05 + 0.0001 * (pos + 1), 0.5),
                    radius=0.0,
                    duration=None,
                ),
            )
        )
    for pos in range(num_pairs + 1):
        # Distances shrink with the position so eligible_order keeps
        # insertion order; radius-0 workers pin the edge set below.
        events.append(
            TaskArrival(
                time=0.5,
                task=Task(
                    task_id=pos,
                    period=0,
                    origin=Point(0.05, 0.5),
                    destination=Point(0.05, 1.5),
                    distance=float(2 * (num_pairs + 2) - pos),
                    valuation=10.0,
                    grid_index=1,
                ),
            )
        )
    return events


class TestDeepChainRegression:
    def test_incremental_window_matching_survives_deep_chains(self, monkeypatch):
        """A big window pooling a long alternating chain must not blow the
        interpreter stack (regression for the recursive augmenting-path
        search in IncrementalMatcher)."""
        import repro.matching.bipartite as bipartite_module
        from repro.matching.bipartite import BipartiteGraph

        num_pairs = 1500

        def chain_graph(tasks, workers, *columns):
            graph = BipartiteGraph(tasks=list(tasks), workers=list(workers))
            for pos in range(len(tasks)):
                if pos + 1 < len(workers):
                    graph.add_edge(pos, pos + 1)
                graph.add_edge(pos, pos)
            return graph

        # The chain topology is what matters, not the geometry: pin the
        # columnar graph builder so the window's edge set is exactly the
        # chain.
        monkeypatch.setattr(
            "repro.matching.bipartite.build_graph_from_arrays", chain_graph
        )
        stream = ArrivalStream(
            grid=Grid(BoundingBox.square(1.0), 1, 1),
            acceptance=ACCEPTANCE,
            events=_chain_events(num_pairs),
            price_bounds=(1.0, 20.0),
        )
        result = StreamingEngine(stream, seed=0, window=1.0).run(
            create_strategy("BaseP", base_price=2.0)
        )
        assert result.metrics.served_tasks == num_pairs + 1


class TestOneShotStreamReuse:
    def test_second_run_over_a_consumed_generator_raises(self, tiny_workload):
        def events():
            yield from workload_to_stream(tiny_workload).iter_events()

        stream = ArrivalStream(
            grid=tiny_workload.grid,
            acceptance=tiny_workload.acceptance,
            events=events(),  # a one-shot generator, not a factory
            price_bounds=tiny_workload.price_bounds,
        )
        engine = StreamingEngine(stream, seed=3)
        first = engine.run(create_strategy("BaseP", base_price=2.0))
        assert first.metrics.total_tasks == tiny_workload.total_tasks
        with pytest.raises(ValueError, match="already consumed"):
            engine.run(create_strategy("BaseP", base_price=2.0))

    def test_collections_and_factories_stay_reusable(self, tiny_workload):
        stream = workload_to_stream(tiny_workload)  # factory-backed
        engine = StreamingEngine(stream, seed=3)
        first = engine.run(create_strategy("BaseP", base_price=2.0))
        second = engine.run(create_strategy("BaseP", base_price=2.0))
        assert first.metrics.total_revenue == second.metrics.total_revenue

        events = list(stream.iter_events())
        list_stream = ArrivalStream(
            grid=tiny_workload.grid,
            acceptance=tiny_workload.acceptance,
            events=events,
            price_bounds=tiny_workload.price_bounds,
        )
        engine = StreamingEngine(list_stream, seed=3)
        assert (
            engine.run(create_strategy("BaseP", base_price=2.0)).metrics.total_tasks
            == tiny_workload.total_tasks
        )
