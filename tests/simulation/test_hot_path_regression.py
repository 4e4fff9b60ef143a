"""Regression pins for the array-native matching hot path.

The acceptance bar of the hot-path work: with the degree cap off, the
vectorised graph builder must leave every simulation result
**bit-identical** to the pre-vectorisation path —
across all five pricing strategies, for the matroid matcher and its
dense scipy oracle alike.  At finite caps, the revenue loss must stay inside the
documented tolerance band, checked over a battery of fuzzed dense
instances (seeded, so failures reproduce).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gdp import PeriodInstance
from repro.market.entities import Task, Worker
from repro.matching.bipartite import force_loop_builder
from repro.matching.weighted import max_weight_matching, scipy_max_weight_matching
from repro.pricing.registry import available_strategies, calibrated_kwargs, create_strategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.sharded import ShardedEngine
from repro.spatial.geometry import Point
from repro.spatial.grid import Grid
from repro.spatial.index import GridSpatialIndex


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

    def test_all_strategies_identical_across_builders(
        self, tiny_workload, strategy_specs
    ):
        """Whole-horizon runs coincide for every shipped strategy."""
        for name, kwargs in strategy_specs:
            engine = SimulationEngine(tiny_workload, seed=3, keep_details=True)
            vectorized = engine.run(create_strategy(name, **kwargs))
            with force_loop_builder():
                loop = engine.run(create_strategy(name, **kwargs))
            assert _metrics_tuple(vectorized) == _metrics_tuple(loop), name
            assert _outcome_tuples(vectorized) == _outcome_tuples(loop), name

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_loop_builder_flag_reaches_the_period_loop(
        self, tiny_workload, monkeypatch, num_shards
    ):
        """The period loop builds its graphs from columns, over the
        accepted tasks' rows; the flag must still route those builds
        through the scalar loop builder (with real task records), or the
        comparison above would run the vectorised builder twice."""
        inserts = []
        original = GridSpatialIndex.insert

        def counting_insert(index, item, point):
            inserts.append(item)
            return original(index, item, point)

        monkeypatch.setattr(GridSpatialIndex, "insert", counting_insert)
        engine = ShardedEngine(tiny_workload, num_shards=num_shards, halo=0, seed=3)
        engine.run(create_strategy("BaseP", base_price=2.0))
        assert not inserts
        with force_loop_builder():
            result = engine.run(create_strategy("BaseP", base_price=2.0))
        # Every accepted task of a period with workers enters the loop
        # builder's spatial index (shards without workers short-circuit);
        # rejected tasks get no row.
        assert 0 < len(inserts) <= result.metrics.accepted_tasks
        assert result.metrics.accepted_tasks < tiny_workload.total_tasks

    def test_all_backends_identical_pairs_across_builders(self, tiny_workload):
        """Per-period matchings (pairs, not just weight) coincide."""
        tasks = tiny_workload.tasks_by_period[0]
        workers = tiny_workload.workers_by_period[0]
        build = lambda: PeriodInstance.build(
            period=0,
            grid=tiny_workload.grid,
            tasks=tasks,
            workers=workers,
            metric=tiny_workload.metric,
        )
        vectorized = build()
        with force_loop_builder():
            loop = build()
        weights = vectorized.ensure_arrays().distances * 2.0
        for solve in (max_weight_matching, scipy_max_weight_matching):
            matching_v, total_v = solve(vectorized.graph, weights)
            matching_l, total_l = solve(loop.graph, weights)
            assert matching_v == matching_l, solve.__name__
            assert total_v == total_l, solve.__name__


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
