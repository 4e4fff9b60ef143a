"""Regression pins for the array-native matching hot path.

The acceptance bar of the hot-path work: with the degree cap off, the
array-native graph builder must leave every simulation result
**bit-identical** to runs whose graphs come from the all-pairs scan
(``build_bipartite_graph(grid=None)``, the oracle) — across all five
pricing strategies, for the matroid matcher and its dense scipy oracle
alike.  At finite caps, the revenue loss must stay inside the
documented tolerance band, checked over a battery of fuzzed dense
instances (seeded, so failures reproduce), and on a whole ``city_scale``
run.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.gdp as gdp
import repro.matching.bipartite as bipartite
from repro.core.gdp import PeriodInstance
from repro.market.entities import Task, Worker
from repro.matching.weighted import max_weight_matching, scipy_max_weight_matching
from repro.pricing.registry import available_strategies, calibrated_kwargs, create_strategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenarios import get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid


def _metrics_tuple(result):
    metrics = result.metrics
    return (
        metrics.total_revenue,
        metrics.served_tasks,
        metrics.accepted_tasks,
        metrics.total_tasks,
        tuple(metrics.revenue_by_period),
    )


def _outcome_tuples(result):
    return [
        (
            outcome.period,
            outcome.num_tasks,
            outcome.num_workers,
            tuple(sorted(outcome.prices.items())),
            outcome.accepted_tasks,
            outcome.served_tasks,
            outcome.revenue,
        )
        for outcome in result.outcomes
    ]


class TestVectorizedPathBitIdentity:
    @pytest.fixture(scope="class")
    def strategy_specs(self, tiny_workload, tiny_calibration):
        p_min, p_max = tiny_workload.price_bounds
        return [
            (
                name,
                calibrated_kwargs(name, tiny_calibration, p_min=p_min, p_max=p_max),
            )
            for name in available_strategies()
        ]

    @pytest.fixture
    def route_through_all_pairs(self, monkeypatch):
        """Calling the fixture's value routes every later graph build,
        from task objects or from task columns, through the all-pairs scan
        (``grid=None``); it returns the task-row count of each build."""

        def route():
            rows = []
            scan = bipartite.build_bipartite_graph

            def scan_objects(tasks, workers, metric="euclidean", grid=None, max_degree=None):
                rows.append(len(tasks))
                return scan(tasks, workers, metric, None, max_degree=max_degree)

            def scan_columns(
                tasks, workers, task_x, task_y, worker_x, worker_y, radii, metric, grid,
                max_degree=None,
            ):
                return scan_objects(tasks, workers, metric, grid, max_degree)

            monkeypatch.setattr(bipartite, "build_graph_from_arrays", scan_columns)
            monkeypatch.setattr(gdp, "build_bipartite_graph", scan_objects)
            return rows

        return route

    def test_all_strategies_identical_across_builders(
        self, tiny_workload, strategy_specs, route_through_all_pairs
    ):
        """Whole-horizon runs coincide for every shipped strategy."""
        engine = SimulationEngine(tiny_workload, seed=3, keep_details=True)
        vectorized = {
            name: engine.run(create_strategy(name, **kwargs))
            for name, kwargs in strategy_specs
        }
        rows = route_through_all_pairs()
        for name, kwargs in strategy_specs:
            rows.clear()
            oracle = engine.run(create_strategy(name, **kwargs))
            assert _metrics_tuple(vectorized[name]) == _metrics_tuple(oracle), name
            assert _outcome_tuples(vectorized[name]) == _outcome_tuples(oracle), name
            # The scan really served the period loop's builds.
            assert sum(rows) > 0, name

    @pytest.mark.parametrize("num_shards, halo", [(1, 0), (4, 0), (4, 1)])
    def test_sharded_runs_identical_across_builders(
        self, tiny_workload, route_through_all_pairs, num_shards, halo
    ):
        """Shards build their graphs from column slices; the scan must
        serve those builds too and leave the run unchanged."""
        engine = ShardedEngine(
            tiny_workload, num_shards=num_shards, halo=halo, seed=3, keep_details=True
        )
        vectorized = engine.run(create_strategy("BaseP", base_price=2.0))
        rows = route_through_all_pairs()
        oracle = engine.run(create_strategy("BaseP", base_price=2.0))
        assert sum(rows) > 0
        if not halo:
            # Without the halo pass, graphs cover accepted tasks only.
            assert sum(rows) <= oracle.metrics.accepted_tasks
            assert oracle.metrics.accepted_tasks < tiny_workload.total_tasks
        assert _metrics_tuple(vectorized) == _metrics_tuple(oracle)
        assert _outcome_tuples(vectorized) == _outcome_tuples(oracle)

    def test_all_backends_identical_pairs_across_builders(
        self, tiny_workload, route_through_all_pairs
    ):
        """Per-period matchings (pairs, not just weight) coincide."""
        periods = range(len(tiny_workload.tasks_by_period))
        build = lambda period: PeriodInstance.build(
            period=period,
            grid=tiny_workload.grid,
            tasks=tiny_workload.tasks_by_period[period],
            workers=tiny_workload.workers_by_period[period],
            metric=tiny_workload.metric,
        )
        vectorized = [build(period) for period in periods]
        rows = route_through_all_pairs()
        oracle = [build(period) for period in periods]
        assert rows == [len(instance.tasks) for instance in oracle]
        for fast, scan in zip(vectorized, oracle):
            weights = fast.ensure_arrays().distances * 2.0
            for solve in (max_weight_matching, scipy_max_weight_matching):
                matching_v, total_v = solve(fast.graph, weights)
                matching_o, total_o = solve(scan.graph, weights)
                assert matching_v == matching_o, (fast.period, solve.__name__)
                assert total_v == total_o, (fast.period, solve.__name__)


class TestDegreeCapToleranceGate:
    """Fuzzed bound on the revenue cost of finite degree caps.

    Dense random markets (every instance far denser than the capped
    degree) are solved exactly and under caps; the realized matroid
    revenue at cap K must stay within the documented band.  Seeded rng
    fuzz, so a failing instance reproduces deterministically.
    """

    #: (cap, minimum revenue ratio vs exact) — the documented trade-off.
    BANDS = {16: 0.93, 8: 0.88, 4: 0.80}

    def _dense_instance(self, rng):
        side = 60.0
        grid = Grid.square(side, 6)
        num_tasks = int(rng.integers(150, 300))
        num_workers = int(rng.integers(60, 150))
        tasks = [
            Task(
                task_id=i,
                period=0,
                origin=Point(*(float(v) for v in rng.uniform(0, side, 2))),
                destination=Point(*(float(v) for v in rng.uniform(0, side, 2))),
            )
            for i in range(num_tasks)
        ]
        workers = [
            Worker(
                worker_id=j,
                period=0,
                location=Point(*(float(v) for v in rng.uniform(0, side, 2))),
                radius=float(rng.uniform(15.0, 35.0)),
            )
            for j in range(num_workers)
        ]
        return grid, tasks, workers

    @pytest.mark.parametrize("seed", range(8))
    def test_capped_revenue_stays_in_band(self, seed):
        rng = np.random.default_rng(1000 + seed)
        grid, tasks, workers = self._dense_instance(rng)
        exact = PeriodInstance.build(period=0, grid=grid, tasks=tasks, workers=workers)
        weights = exact.ensure_arrays().distances * 2.0
        _, exact_total = max_weight_matching(exact.graph, weights)
        assert exact_total > 0
        previous = 0.0
        for cap in sorted(self.BANDS):
            capped = PeriodInstance.build(
                period=0, grid=grid, tasks=tasks, workers=workers, max_degree=cap
            )
            _, capped_total = max_weight_matching(capped.graph, weights)
            ratio = capped_total / exact_total
            assert ratio <= 1.0 + 1e-9
            assert ratio >= self.BANDS[cap], (
                f"cap {cap} lost {1 - ratio:.1%} revenue (seed {seed}), "
                f"outside the documented {1 - self.BANDS[cap]:.0%} band"
            )
            # A larger cap keeps a superset of edges, so revenue is
            # monotone in the cap.
            assert capped_total >= previous - 1e-9
            previous = capped_total


class TestCityScaleDegreeCap:
    """The degree cap's revenue cost on a whole ``city_scale`` run.

    One shard, seed 0, ``BaseP`` at 2.0, scale 0.01: the run at
    ``max_degree=16`` (the compound configuration's cap) must earn within
    5% of the exact uncapped run.
    """

    #: Allowed relative revenue loss of the capped run.
    REVENUE_TOLERANCE = 0.05

    def test_capped_16_revenue_within_tolerance_of_exact(self):
        def revenue(max_degree):
            workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)
            engine = ShardedEngine(
                workload, num_shards=1, halo=0, seed=0, max_degree=max_degree
            )
            return engine.run(create_strategy("BaseP", base_price=2.0)).metrics.total_revenue

        exact, capped = revenue(None), revenue(16)
        assert exact > 0
        assert abs(1.0 - capped / exact) <= self.REVENUE_TOLERANCE, (
            f"capped revenue drifted {abs(1.0 - capped / exact):.1%} from the "
            f"exact solve (allowed {self.REVENUE_TOLERANCE:.0%})"
        )
