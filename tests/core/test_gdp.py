"""Tests for the GDP problem instance and expected-revenue evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gdp import GDPInstance, PeriodInstance
from repro.market.acceptance import PerGridAcceptance, TabularAcceptanceModel
from repro.market.entities import Task, Worker
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid


def _grid():
    return Grid(BoundingBox.square(8.0), 4, 4)


def _tasks():
    return [
        Task(task_id=1, period=0, origin=Point(5.0, 5.0), destination=Point(5.0, 6.3), distance=1.3),
        Task(task_id=2, period=0, origin=Point(1.0, 5.0), destination=Point(1.0, 5.7), distance=0.7),
        Task(task_id=3, period=0, origin=Point(2.0, 6.0), destination=Point(2.0, 7.0), distance=1.0),
    ]


def _workers():
    return [
        Worker(worker_id=1, period=0, location=Point(3.0, 5.0), radius=2.5),
        Worker(worker_id=2, period=0, location=Point(7.0, 5.0), radius=2.5),
        Worker(worker_id=3, period=0, location=Point(5.0, 3.0), radius=2.5),
    ]


class TestPeriodInstance:
    def test_build_annotates_grids_and_counts(self):
        instance = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        assert instance.num_tasks == 3
        assert instance.num_workers == 3
        assert all(task.grid_index is not None for task in instance.tasks)
        # Worker counts per grid: w1 -> grid 10, w2 -> grid 12, w3 -> grid 7.
        assert sum(instance.workers_by_grid.values()) == 3
        assert instance.workers_by_grid[7] == 1

    def test_graph_respects_range_constraint(self):
        instance = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        for task_pos, worker_pos in instance.graph.edges():
            task = instance.tasks[task_pos]
            worker = instance.workers[worker_pos]
            assert worker.location.distance_to(task.origin) <= worker.radius + 1e-9

    def test_grid_views(self):
        instance = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        grids = instance.grid_indices_with_tasks()
        assert len(grids) >= 1
        total_positions = sum(len(instance.tasks_by_grid[g]) for g in grids)
        assert total_positions == 3
        for g in grids:
            distances = instance.distances_in_grid(g)
            assert distances == sorted(distances, reverse=True)
            market = instance.grid_market(g)
            assert market.num_tasks == len(distances)

    def test_price_per_task_expansion(self):
        instance = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        grid_of_first = instance.tasks[0].grid_index
        prices = instance.price_per_task({grid_of_first: 3.0}, default=1.0)
        assert prices[0] == 3.0
        assert all(p in (1.0, 3.0) for p in prices)

    def test_pre_annotated_tasks_kept(self):
        tasks = [t.with_grid(99) for t in _tasks()]
        instance = PeriodInstance.build(0, _grid(), tasks, _workers())
        assert all(task.grid_index == 99 for task in instance.tasks)


class TestGDPInstance:
    @pytest.fixture
    def gdp(self):
        instance = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        acceptance = PerGridAcceptance(
            default=TabularAcceptanceModel({1.0: 0.9, 2.0: 0.8, 3.0: 0.5})
        )
        return GDPInstance(instance=instance, acceptance=acceptance)

    def test_acceptance_probabilities(self, gdp):
        grids = gdp.instance.grid_indices_with_tasks()
        prices = {g: 2.0 for g in grids}
        probabilities = gdp.acceptance_probabilities(prices)
        assert probabilities == pytest.approx([0.8, 0.8, 0.8])

    def test_exact_and_monte_carlo_agree(self, gdp):
        grids = gdp.instance.grid_indices_with_tasks()
        prices = {g: 2.0 for g in grids}
        exact = gdp.expected_total_revenue(prices, method="exact")
        sampled = gdp.expected_total_revenue(
            prices, method="monte-carlo", num_samples=4000, rng=np.random.default_rng(0)
        )
        auto = gdp.expected_total_revenue(prices, method="auto")
        assert auto == pytest.approx(exact)
        assert sampled == pytest.approx(exact, rel=0.1)
        assert exact > 0

    def test_higher_acceptance_not_worse_for_fixed_price(self, gdp):
        grids = gdp.instance.grid_indices_with_tasks()
        low = gdp.expected_total_revenue({g: 3.0 for g in grids}, method="exact")
        # Price 3 has acceptance 0.5; price 2 has 0.8 but lower unit revenue.
        # Just check both are positive and bounded by the full-acceptance bound.
        upper_bound = sum(t.distance * 3.0 for t in gdp.instance.tasks)
        assert 0 < low <= upper_bound

    def test_unknown_method_rejected(self, gdp):
        with pytest.raises(ValueError):
            gdp.expected_total_revenue({}, method="magic")


class TestHandConstructedInstance:
    """Direct ``PeriodInstance(...)`` construction (no ``build``) keeps
    working without the arrays view — the documented tests/notebooks path."""

    def _instance(self, grid_index=None):
        grid = Grid(BoundingBox.square(8.0), 4, 4)
        task = Task(
            task_id=1,
            period=0,
            origin=Point(1.0, 1.0),
            destination=Point(1.0, 4.0),
            grid_index=grid_index,
        )
        from repro.matching.bipartite import BipartiteGraph

        return PeriodInstance(
            period=0,
            grid=grid,
            tasks=[task],
            workers=[],
            graph=BipartiteGraph(tasks=[task], workers=[]),
            tasks_by_grid={5: [0]},
        )

    def test_distances_served_from_supplied_tasks_by_grid(self):
        instance = self._instance(grid_index=None)
        # Unannotated tasks: no arrays exist, the caller's dict is used.
        assert instance.distances_in_grid(5) == [3.0]
        assert instance.distances_in_grid(99) == []

    def test_ensure_arrays_rejects_unannotated_tasks(self):
        instance = self._instance(grid_index=None)
        with pytest.raises(ValueError, match="no grid index"):
            instance.ensure_arrays()

    def test_ensure_arrays_builds_lazily_for_annotated_tasks(self):
        instance = self._instance(grid_index=5)
        assert instance.arrays is None
        arrays = instance.ensure_arrays()
        assert instance.arrays is arrays
        assert instance.distances_in_grid(5) == [3.0]

    def test_built_instances_support_equality(self):
        """The cached arrays view must not leak into dataclass equality
        (ndarray fields would make == raise on multi-task instances)."""
        grid = Grid(BoundingBox.square(8.0), 4, 4)
        tasks = [
            Task(task_id=i, period=0, origin=Point(1.0 + i, 1.0), destination=Point(1.0 + i, 3.0))
            for i in range(3)
        ]
        workers = [Worker(worker_id=1, period=0, location=Point(2.0, 2.0), radius=4.0)]
        first = PeriodInstance.build(period=0, grid=grid, tasks=tasks, workers=workers)
        second = PeriodInstance.build(period=0, grid=grid, tasks=tasks, workers=workers)
        assert first == second
        assert first != PeriodInstance.build(period=1, grid=grid, tasks=tasks, workers=workers)


class TestDerivedGridBuckets:
    """``tasks_by_grid`` / ``workers_by_grid`` are derived on first read."""

    def _columns_instance(self, build_graph=False):
        from repro.simulation.arena import TaskColumns

        tasks = PeriodInstance.build(0, _grid(), _tasks(), _workers()).tasks
        return PeriodInstance.from_columns(
            0, _grid(), TaskColumns.from_tasks(tasks), _workers(), build_graph=build_graph
        )

    @pytest.mark.parametrize("build_graph", [False, True])
    def test_graph_only_instances_never_bucket(self, build_graph):
        instance = self._columns_instance(build_graph)
        instance.graph.num_edges
        assert "tasks_by_grid" not in instance.arrays.__dict__
        assert "workers_by_grid" not in instance.arrays.__dict__

    def test_derived_buckets_equal_the_eager_ones(self):
        instance = self._columns_instance()
        built = PeriodInstance.build(0, _grid(), _tasks(), _workers())
        assert instance.tasks_by_grid == built.tasks_by_grid == {
            g: list(p) for g, p in built.arrays.tasks_by_grid.items()
        }
        assert instance.workers_by_grid == dict(built.arrays.workers_by_grid)
        assert sum(instance.workers_by_grid.values()) == 3

    def test_derived_buckets_are_instance_owned_and_kept(self):
        instance = self._columns_instance()
        buckets = instance.tasks_by_grid
        assert instance.tasks_by_grid is buckets
        buckets.clear()
        assert instance.arrays.tasks_by_grid  # the arrays' cache is untouched
        instance.workers_by_grid = {1: 9}
        assert instance.workers_by_grid == {1: 9}

    def test_default_without_arrays_is_empty(self):
        from repro.matching.bipartite import BipartiteGraph

        instance = PeriodInstance(
            period=0, grid=_grid(), tasks=[], workers=[], graph=BipartiteGraph([], [])
        )
        assert instance.tasks_by_grid == {} and instance.workers_by_grid == {}
