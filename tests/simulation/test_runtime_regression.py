"""Regression pins for the zero-copy columnar runtime.

Two pinned guarantees:

* **plane bit-identity** — the columnar data plane (struct-of-arrays
  chunks, lazy records, batched sampling/lookup) must leave every
  simulation result bit-identical to the seed simulation loop
  (:func:`repro.simulation.legacy.run_reference`) across all five
  pricing strategies on one uncapped shard; capped multi-shard runs,
  which that loop cannot express, are pinned to exact metrics, and the
  MAPS planner must match its loop oracle
  (:func:`repro.simulation.legacy.reference_maps_plan`) through whole
  engine runs;
* **compound configuration pins** — the ``--shards 8 --max-degree 16``
  configuration (the one ``perf/``'s ``city_batch`` workload times) is
  pinned to exact revenue/served numbers at a CI-sized horizon, and its
  run equals the run over the frozen object generator
  (:func:`_pr4_workload`, the oracle of the columnar generator), so an
  accidental semantic change to sharding, capping or the data plane
  cannot masquerade as a perf win.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.core.maps import MAPSPlanner
from repro.market.entities import Task, Worker
from repro.pricing.registry import available_strategies, calibrated_kwargs, create_strategy
from repro.simulation.config import ChunkedWorkload
from repro.simulation.legacy import reference_maps_plan, run_reference
from repro.simulation.scenarios import get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.spatial.geometry import Point
from repro.utils.rng import derive_seed


def _metrics_tuple(result):
    metrics = result.metrics
    return (
        metrics.total_revenue,
        metrics.served_tasks,
        metrics.accepted_tasks,
        metrics.total_tasks,
        tuple(metrics.revenue_by_period),
    )


def _pr4_workload(scale: float, seed: int) -> ChunkedWorkload:
    """The ``city_scale`` workload under the frozen object generation model.

    Reconstructs the scenario's market (same grid, hotspots and
    acceptance models: the setup RNG stream is unchanged) and replays
    the pre-columnar chunk loop verbatim: one scipy ``truncnorm`` dispatch
    per demanded cell per period and fully materialised ``Task`` /
    ``Worker`` objects.  The batched columnar sampler consumes the same
    RNG stream, so a run over this workload must equal a run over the
    shipping generator's.
    """
    scenario = get_scenario("city_scale")
    shipped = scenario.chunked(scale=scale, seed=seed)
    grid = shipped.grid
    side = scenario.REGION_SIDE
    root_seed = int(seed)

    setup_rng = np.random.default_rng(derive_seed(root_seed, "city-setup"))
    hotspots = [
        Point(
            float(setup_rng.uniform(0.15 * side, 0.85 * side)),
            float(setup_rng.uniform(0.15 * side, 0.85 * side)),
        )
        for _ in range(scenario.NUM_HOTSPOTS)
    ]
    hotspot_xs = np.array([spot.x for spot in hotspots])
    hotspot_ys = np.array([spot.y for spot in hotspots])
    models = {
        cell.index: shipped.acceptance.model_for(cell.index)
        for cell in grid.cells()
    }
    radius = scenario.WORKER_RADIUS
    duration = scenario.WORKER_DURATION

    def _chunks() -> Iterator[tuple]:
        for period in range(shipped.num_periods):
            rng = np.random.default_rng(derive_seed(root_seed, "city-period", period))
            num_tasks = int(rng.poisson(scenario.TASKS_PER_PERIOD))
            num_workers = int(rng.poisson(scenario.WORKERS_PER_PERIOD))
            spot_choice = rng.integers(len(hotspots), size=num_tasks)
            near_spot = rng.random(num_tasks) < 0.5
            xs = np.where(
                near_spot,
                hotspot_xs[spot_choice] + rng.normal(0.0, 0.12 * side, num_tasks),
                rng.uniform(0.0, side, num_tasks),
            )
            ys = np.where(
                near_spot,
                hotspot_ys[spot_choice] + rng.normal(0.0, 0.12 * side, num_tasks),
                rng.uniform(0.0, side, num_tasks),
            )
            xs = np.clip(xs, 0.0, side)
            ys = np.clip(ys, 0.0, side)
            hops = rng.uniform(0.5, 8.0, num_tasks)
            angles = rng.uniform(0.0, 2.0 * np.pi, num_tasks)
            dest_xs = np.clip(xs + hops * np.cos(angles), 0.0, side)
            dest_ys = np.clip(ys + hops * np.sin(angles), 0.0, side)
            cells = grid.locate_many(xs, ys)
            valuations = np.empty(num_tasks, dtype=np.float64)
            for grid_index in np.unique(cells).tolist():
                positions = np.flatnonzero(cells == grid_index)
                valuations[positions] = models[grid_index].distribution.sample(
                    rng, size=int(positions.size)
                )
            task_base = period * 10_000_000
            tasks = [
                Task(
                    task_id=task_base + pos,
                    period=period,
                    origin=Point(float(xs[pos]), float(ys[pos])),
                    destination=Point(float(dest_xs[pos]), float(dest_ys[pos])),
                    valuation=float(valuations[pos]),
                    grid_index=int(cells[pos]),
                )
                for pos in range(num_tasks)
            ]
            worker_xs = rng.uniform(0.0, side, num_workers)
            worker_ys = rng.uniform(0.0, side, num_workers)
            workers = [
                Worker(
                    worker_id=task_base + pos,
                    period=period,
                    location=Point(float(worker_xs[pos]), float(worker_ys[pos])),
                    radius=radius,
                    duration=duration,
                )
                for pos in range(num_workers)
            ]
            yield tasks, workers

    return ChunkedWorkload(
        grid=grid,
        periods=_chunks,
        num_periods=shipped.num_periods,
        acceptance=shipped.acceptance,
        metric=shipped.metric,
        price_bounds=shipped.price_bounds,
        description=f"{shipped.description} [object plane]",
        total_tasks_hint=shipped.total_tasks_hint,
    )


@pytest.fixture(scope="module")
def city_calibration():
    workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)
    return ShardedEngine(workload, num_shards=1, halo=0, seed=0).calibrate_base_price()


@contextmanager
def _deep_recursion(limit: int = 20000):
    """Room for the seed loop's recursive augmenting-path search.

    Its recursion depth follows the longest augmenting path, which on
    dense ``city_scale`` periods exceeds the interpreter's default limit.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


class TestColumnarPlaneBitIdentity:
    #: Capped multi-shard runs of ``city_scale`` at ``scale=0.01``, seed 0,
    #: ``BaseP`` at 2.0: ``(shards, halo, max_degree, backend)`` ->
    #: ``(total_revenue, served, accepted, total_tasks, revenue_by_period)``.
    #: Recorded when the object loop still ran beside the columnar loop,
    #: with both loops emitting these exact values, and re-recorded under
    #: the free-neighbour-first pairing rule.
    CAPPED_PINS = {
        (8, 1, 16, "matroid"): (
            52042.12666536753,
            4719,
            7824,
            10075,
            (13241.103184290127, 13017.843001486699, 12838.711330999322, 12944.469148591375),
        ),
        (4, 2, 8, "matroid"): (
            51449.95754378173,
            4712,
            7824,
            10075,
            (13103.575894410975, 12898.586835722, 12720.187351151157, 12727.607462497603),
        ),
    }

    @pytest.mark.parametrize("name", sorted(available_strategies()))
    def test_single_shard_uncapped_matches_reference(self, name, city_calibration):
        """The acceptance bar: every strategy, exact config, same bits."""
        workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)

        def strategy():
            return create_strategy(
                name, **calibrated_kwargs(name, city_calibration, p_min=1.0, p_max=5.0)
            )

        engine = ShardedEngine(workload, num_shards=1, halo=0, seed=0)
        result = engine.run(strategy())
        with _deep_recursion():
            reference = run_reference(workload.materialize(), strategy(), seed=0)
        assert _metrics_tuple(result) == _metrics_tuple(reference)

    @pytest.mark.parametrize(
        "config", sorted(CAPPED_PINS), ids=lambda config: "-".join(map(str, config))
    )
    def test_sharded_capped_run_is_pinned(self, config):
        shards, halo, max_degree, backend = config
        workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)
        engine = ShardedEngine(
            workload,
            num_shards=shards,
            halo=halo,
            seed=0,
            max_degree=max_degree,
            matching_backend=backend,
        )
        result = engine.run(create_strategy("BaseP", base_price=2.0))
        assert repr(_metrics_tuple(result)) == repr(self.CAPPED_PINS[config])

    def test_maps_planner_matches_oracle_through_engine(
        self, city_calibration, monkeypatch
    ):
        kwargs = calibrated_kwargs("MAPS", city_calibration, p_min=1.0, p_max=5.0)

        def run():
            workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)
            engine = ShardedEngine(workload, num_shards=8, halo=1, seed=0, max_degree=16)
            return engine.run(create_strategy(name="MAPS", **kwargs))

        production = run()
        oracle_calls = []

        def oracle_plan(planner, instance, estimators):
            oracle_calls.append(instance.period)
            return reference_maps_plan(
                planner.base_price, planner.p_min, planner.p_max, instance, estimators
            )

        monkeypatch.setattr(MAPSPlanner, "plan", oracle_plan)
        assert _metrics_tuple(run()) == _metrics_tuple(production)
        assert oracle_calls


class TestCompoundConfigurationPins:
    """Exact pins of the benchmarked ``--shards 8 --max-degree 16`` runs.

    The values were produced by the object pipeline before the columnar
    runtime landed and the columnar loop reproduces them (re-recorded
    under the free-neighbour-first pairing rule); horizon is
    ``scale=0.02`` of ``city_scale`` at seed 0 with ``BaseP``.
    """

    SCALE = 0.02
    PINNED = {
        # backend -> (total_revenue, served, accepted, total_tasks)
        "matroid": (103225.8018843657, 9462, 15637, 20132),
    }

    @pytest.mark.parametrize("backend", sorted(PINNED))
    def test_pinned_revenue_and_served(self, backend):
        workload = get_scenario("city_scale").chunked(scale=self.SCALE, seed=0)
        engine = ShardedEngine(
            workload,
            num_shards=8,
            halo=1,
            seed=0,
            max_degree=16,
            matching_backend=backend,
        )
        result = engine.run(create_strategy("BaseP", base_price=2.0))
        revenue, served, accepted, total = self.PINNED[backend]
        assert result.metrics.total_revenue == revenue
        assert result.metrics.served_tasks == served
        assert result.metrics.accepted_tasks == accepted
        assert result.metrics.total_tasks == total

    def test_columnar_generator_equals_frozen_object_generator(self):
        """Scale 0.01, seed 0: the shipping columnar generator and the
        frozen object generator give the same compound run, to the bit."""

        def run(workload):
            engine = ShardedEngine(
                workload, num_shards=8, halo=1, seed=0, max_degree=16
            )
            return engine.run(create_strategy("BaseP", base_price=2.0)).metrics

        columnar = run(get_scenario("city_scale").chunked(scale=0.01, seed=0))
        frozen = run(_pr4_workload(scale=0.01, seed=0))
        assert frozen.total_tasks == columnar.total_tasks > 0
        assert repr(columnar.total_revenue) == repr(frozen.total_revenue)
        assert columnar.served_tasks == frozen.served_tasks
