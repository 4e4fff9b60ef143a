"""Tests for the spatially sharded engine.

Headline guarantees:

* ``num_shards=1`` — the batch engine — reproduces the seed loop
  (:func:`~repro.simulation.legacy.run_reference`) **bit-identically**
  for fixed seeds across all five pricing strategies, and the binned
  streaming engine outcome for outcome;
* ``num_shards>1`` stays within a tested revenue tolerance of the global
  solve on every registered scenario;
* the halo-exchange pass only ever recovers matches;
* on ``city_scale``, 8 shards run at least twice the tasks/s of the
  global solve and stay within 10% of its revenue;
* chunked (lazy) workloads produce exactly the same run as their
  materialised counterparts.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.experiments.parallel import ParallelRunner, ShardSpec, StrategySpec
from repro.pricing.registry import PAPER_STRATEGIES, calibrated_kwargs, create_strategy
from repro.simulation.config import ChunkedWorkload
from repro.simulation.engine import SimulationEngine
from repro.simulation.legacy import run_reference
from repro.simulation.scenarios import available_scenarios, get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.simulation.streaming import StreamingEngine, workload_to_stream

#: Small-but-dense scales per scenario for the cross-scenario tolerance
#: sweep (city_scale's scale stretches the horizon, not the density).
TOLERANCE_SCALE = {
    "synthetic": 0.008,
    "beijing_rush": 0.002,
    "beijing_night": 0.003,
    "city_scale": 0.005,
    "churn_city": 0.1,
    "food_delivery": 0.05,
    "hotspot_burst": 0.05,
}

#: Allowed relative total-revenue gap between the sharded and the global
#: solve.  Boundary losses at these tiny scales run a few percent; the
#: band leaves room for workload randomness without letting a broken
#: reconciliation slip through.
REVENUE_TOLERANCE = 0.15


def _strategy(name, calibration, price_bounds):
    p_min, p_max = price_bounds
    return create_strategy(
        name, **calibrated_kwargs(name, calibration, p_min=p_min, p_max=p_max)
    )


def _assert_identical(batch, sharded):
    assert sharded.metrics.total_revenue == batch.metrics.total_revenue
    assert sharded.metrics.served_tasks == batch.metrics.served_tasks
    assert sharded.metrics.accepted_tasks == batch.metrics.accepted_tasks
    assert sharded.metrics.total_tasks == batch.metrics.total_tasks
    assert sharded.metrics.revenue_by_period == batch.metrics.revenue_by_period


class TestSingleShardBitEquivalence:
    @pytest.mark.parametrize("name", PAPER_STRATEGIES)
    def test_one_shard_reproduces_batch_engine(
        self, name, tiny_workload, tiny_calibration
    ):
        """The seed loop (matroid, uncapped) is the independent oracle."""
        reference = run_reference(
            tiny_workload,
            _strategy(name, tiny_calibration, tiny_workload.price_bounds),
            seed=3,
        )
        sharded = ShardedEngine(tiny_workload, num_shards=1, seed=3).run(
            _strategy(name, tiny_calibration, tiny_workload.price_bounds)
        )
        _assert_identical(reference, sharded)

    def test_one_shard_outcomes_match_batch(self, tiny_workload, tiny_calibration):
        """Per-period outcomes against the binned streaming engine, which
        skips event-less windows: join on ``period``."""
        binned = StreamingEngine(
            workload_to_stream(tiny_workload), seed=3, window=1.0, keep_details=True
        ).run(_strategy("BaseP", tiny_calibration, tiny_workload.price_bounds))
        sharded = ShardedEngine(
            tiny_workload, num_shards=1, seed=3, keep_details=True
        ).run(_strategy("BaseP", tiny_calibration, tiny_workload.price_bounds))
        assert len(sharded.outcomes) == tiny_workload.num_periods
        by_period = {outcome.period: outcome for outcome in binned.outcomes}
        assert set(by_period) <= {outcome.period for outcome in sharded.outcomes}
        for ours in sharded.outcomes:
            theirs = by_period.get(ours.period)
            if theirs is None:
                assert (ours.num_tasks, ours.revenue) == (0, 0.0)
                continue
            assert (ours.period, ours.num_tasks, ours.num_workers) == (
                theirs.period,
                theirs.num_tasks,
                theirs.num_workers,
            )
            assert ours.prices == theirs.prices
            assert (ours.accepted_tasks, ours.served_tasks, ours.revenue) == (
                theirs.accepted_tasks,
                theirs.served_tasks,
                theirs.revenue,
            )


class TestShardedTolerance:
    @pytest.mark.parametrize("name", sorted(TOLERANCE_SCALE))
    def test_revenue_within_tolerance_on_every_registered_scenario(self, name):
        assert sorted(TOLERANCE_SCALE) == available_scenarios(), (
            "TOLERANCE_SCALE out of sync with the scenario registry"
        )
        workload = get_scenario(name).bundle(scale=TOLERANCE_SCALE[name], seed=7)
        strategy = create_strategy("BaseP", base_price=2.0)
        batch = SimulationEngine(workload, seed=5).run(strategy)
        sharded = ShardedEngine(workload, num_shards=4, halo=1, seed=5).run(strategy)
        assert sharded.metrics.total_tasks == batch.metrics.total_tasks
        gap = abs(sharded.metrics.total_revenue - batch.metrics.total_revenue)
        assert gap <= REVENUE_TOLERANCE * batch.metrics.total_revenue, (
            f"sharded revenue {sharded.metrics.total_revenue:.1f} drifts "
            f"more than {REVENUE_TOLERANCE:.0%} from the global solve "
            f"{batch.metrics.total_revenue:.1f} on scenario {name!r}"
        )

    def test_halo_recovers_boundary_matches(self):
        """On a single period the halo pass can only add matches."""
        workload = get_scenario("city_scale").bundle(
            scale=1.0, seed=3, num_periods=1
        )
        strategy = create_strategy("BaseP", base_price=2.0)
        without = ShardedEngine(workload, num_shards=8, halo=0, seed=5).run(strategy)
        with_halo = ShardedEngine(workload, num_shards=8, halo=1, seed=5).run(strategy)
        assert with_halo.metrics.served_tasks >= without.metrics.served_tasks
        assert with_halo.metrics.total_revenue >= without.metrics.total_revenue
        # The accepted set is decided before matching, so it is identical.
        assert with_halo.metrics.accepted_tasks == without.metrics.accepted_tasks

    def test_shard_without_workers_is_handled(self, tiny_workload):
        """Workers squeezed into one corner leave most shards worker-less."""
        from dataclasses import replace

        from repro.spatial.geometry import Point

        # All supply piles into the bottom-left shard (but stays within
        # service range of the central demand cluster); the other three
        # shards must run their periods with zero workers.
        corner = [
            [
                replace(worker, location=Point(38.0, 38.0))
                for worker in workers
            ]
            for workers in tiny_workload.workers_by_period
        ]
        workload = replace(tiny_workload, workers_by_period=corner)
        result = ShardedEngine(workload, num_shards=4, halo=1, seed=5).run(
            create_strategy("BaseP", base_price=2.0)
        )
        assert result.metrics.total_tasks == workload.total_tasks
        assert 0 < result.metrics.served_tasks <= result.metrics.accepted_tasks


class TestShardedThroughput:
    """Eight shards against the global solve on ``city_scale``.

    Scale 0.01, seed 0, ``BaseP`` at 2.0, halo 1, no degree cap.  The
    speed-up is algorithmic, not parallel: shard-local graphs drop
    cross-region edges and confine augmenting paths, so it holds on one
    core (about 6x on a 2-vCPU host).  Lazy generation is inside the
    timed run.
    """

    #: Minimum tasks/s of 8 shards over 1.
    MIN_SPEEDUP = 2.0
    #: Allowed relative revenue gap of 8 shards against the global solve.
    REVENUE_TOLERANCE = 0.10

    @staticmethod
    def _run(num_shards):
        workload = get_scenario("city_scale").chunked(scale=0.01, seed=0)
        engine = ShardedEngine(
            workload, num_shards=num_shards, halo=1 if num_shards > 1 else 0, seed=0
        )
        start = time.perf_counter()
        metrics = engine.run(create_strategy("BaseP", base_price=2.0)).metrics
        return metrics.total_tasks / (time.perf_counter() - start), metrics.total_revenue

    def test_eight_shards_beat_the_global_solve(self):
        global_rate, global_revenue = self._run(1)
        sharded_rate, sharded_revenue = self._run(8)
        speedup = sharded_rate / global_rate
        assert speedup >= self.MIN_SPEEDUP, (
            f"8 shards ran {speedup:.2f}x the global solve's tasks/s "
            f"(required {self.MIN_SPEEDUP:.1f}x)"
        )
        drift = abs(1.0 - sharded_revenue / global_revenue)
        assert drift <= self.REVENUE_TOLERANCE, (
            f"sharded revenue drifted {drift:.1%} from the global solve "
            f"(allowed {self.REVENUE_TOLERANCE:.0%})"
        )


class TestHaloPairingGoldenPins:
    """Pinned totals of a multi-shard, capped, halo-reconciled run.

    With several shards and a halo the matroid kernel's *pairing* (not
    just its weight) decides which workers are left for the halo pass,
    so these totals move if the kernel's visiting order does — which the
    one-shard ``run_reference`` gate cannot see.  Values recorded before
    the kernel's mark-array rewrite, and re-recorded when the kernel took
    the free-neighbour-first pairing rule.  The materialised bundle reaches
    the same loop through its column conversion and must keep them too.
    """

    PINS = {
        1: ("25053.765170947503", 2445, 3694),
        4: ("24456.936421300503", 2353, 3743),
    }

    @pytest.mark.parametrize("form", ["chunked", "bundle"])
    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_city_scale_halo_run_is_pinned(self, seed, form):
        workload = get_scenario("city_scale").chunked(
            scale=0.02, seed=seed, tasks_per_period=600, workers_per_period=300
        )
        if form == "bundle":
            workload = workload.materialize()
        engine = ShardedEngine(
            workload,
            num_shards=8,
            halo=1,
            max_degree=16,
            matching_backend="matroid",
            seed=seed,
        )
        metrics = engine.run(create_strategy("BaseP", base_price=2.0)).metrics
        revenue, served, accepted = self.PINS[seed]
        assert repr(metrics.total_revenue) == revenue
        assert metrics.served_tasks == served
        assert metrics.accepted_tasks == accepted


    def test_halo_run_materialises_no_record(self, monkeypatch):
        """The shard loop and the halo pass stay columnar: no ``Task`` or
        ``Worker`` record is built, and the pinned totals hold."""
        from repro.simulation import arena, sharded

        materialised = []
        monkeypatch.setattr(
            arena.TaskColumns, "task_at", lambda self, pos: materialised.append(pos)
        )
        monkeypatch.setattr(
            arena.WorkerColumns, "worker_at", lambda self, pos: materialised.append(pos)
        )
        candidates = []
        original = sharded.halo_task_candidates

        def counting_candidates(*args):
            found = original(*args)
            candidates.append(found.size)
            return found

        monkeypatch.setattr(sharded, "halo_task_candidates", counting_candidates)
        workload = get_scenario("city_scale").chunked(
            scale=0.02, seed=1, tasks_per_period=600, workers_per_period=300
        )
        engine = ShardedEngine(workload, num_shards=8, halo=1, max_degree=16, seed=1)
        metrics = engine.run(create_strategy("BaseP", base_price=2.0)).metrics
        assert sum(candidates) > 0
        assert materialised == []
        revenue, served, accepted = self.PINS[1]
        assert repr(metrics.total_revenue) == revenue
        assert (metrics.served_tasks, metrics.accepted_tasks) == (served, accepted)


class TestChunkedWorkloads:
    def test_chunked_run_equals_materialised_run(self):
        chunked = get_scenario("city_scale").chunked(scale=0.005, seed=2)
        bundle = chunked.materialize()
        strategy = create_strategy("BaseP", base_price=2.0)
        lazy = ShardedEngine(chunked, num_shards=4, halo=1, seed=9).run(strategy)
        eager = ShardedEngine(bundle, num_shards=4, halo=1, seed=9).run(strategy)
        _assert_identical(eager, lazy)

    def test_chunk_count_mismatch_is_rejected(self, tiny_workload):
        def two_chunks():
            yield [], []
            yield [], []

        wrong = ChunkedWorkload(
            grid=tiny_workload.grid,
            periods=two_chunks,
            num_periods=3,
            acceptance=tiny_workload.acceptance,
            price_bounds=tiny_workload.price_bounds,
        )
        with pytest.raises(ValueError, match="expected 3"):
            list(wrong.iter_periods())

    def test_calibration_on_chunked_workloads(self):
        chunked = get_scenario("city_scale").chunked(scale=0.005, seed=2)
        engine = ShardedEngine(chunked, num_shards=2, seed=1)
        result = engine.calibrate_base_price(grids=[1, 2, 3])
        assert result.base_price > 0


class TestParallelRunnerIntegration:
    def test_shard_spec_cells_match_direct_engine_runs(self, tiny_workload, tiny_calibration):
        p_min, p_max = tiny_workload.price_bounds
        specs = [
            StrategySpec(
                name, calibrated_kwargs(name, tiny_calibration, p_min=p_min, p_max=p_max)
            )
            for name in ("BaseP", "SDR")
        ]
        runner = ParallelRunner(
            tiny_workload,
            specs,
            seeds=[3],
            shards=ShardSpec(num_shards=4, halo=1),
            max_workers=1,
        )
        results = runner.run()
        for name in ("BaseP", "SDR"):
            direct = ShardedEngine(tiny_workload, num_shards=4, halo=1, seed=3).run(
                _strategy(name, tiny_calibration, tiny_workload.price_bounds)
            )
            _assert_identical(direct, results[(name, 3)])

    @pytest.mark.parametrize("name", ["BaseP", "MAPS"])
    def test_pooled_shard_cells_equal_sequential(self, name, tiny_workload, tiny_calibration):
        # Sharded runs fan out one (strategy, seed) cell per process, each
        # with its halo pass intact; an arena-fed pool must change nothing.
        p_min, p_max = tiny_workload.price_bounds
        spec = StrategySpec(
            name, calibrated_kwargs(name, tiny_calibration, p_min=p_min, p_max=p_max)
        )
        runner = ParallelRunner(
            tiny_workload,
            [spec],
            seeds=[3, 4],
            shards=ShardSpec(num_shards=4, halo=1),
            max_workers=2,
            workload_via_arena=True,
        )
        with warnings.catch_warnings():
            # Hosts that cannot start process pools fall back in-process;
            # either way the results must be identical.
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = runner.run()
        sequential = runner.run_sequential()
        assert list(pooled) == list(sequential) == [(name, 3), (name, 4)]
        for key in sequential:
            _assert_identical(sequential[key], pooled[key])

    def test_shard_spec_is_batch_only(self, tiny_workload):
        from repro.experiments.parallel import StreamSpec

        with pytest.raises(ValueError, match="batch-mode"):
            ParallelRunner(
                None,
                ["BaseP"],
                shared_kwargs={"base_price": 2.0},
                stream=StreamSpec(scenario="synthetic"),
                shards=ShardSpec(num_shards=2),
            )

    def test_shard_spec_has_no_dynamic_halo(self):
        with pytest.raises(TypeError, match="dynamic"):
            ShardSpec(num_shards=2, dynamic=True)


class TestValidation:
    def test_invalid_shard_counts_are_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            ShardedEngine(tiny_workload, num_shards=0)
        with pytest.raises(ValueError, match="tile"):
            # 7 shards cannot tile a 4x4 grid into rectangles.
            ShardedEngine(tiny_workload, num_shards=7)

    def test_negative_halo_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            ShardedEngine(tiny_workload, num_shards=2, halo=-1)

    @pytest.mark.parametrize("form", ["chunked", "bundle"])
    def test_non_positive_degree_cap_rejected(self, form, tiny_workload):
        # A zero cap used to build edgeless columnar graphs and end the
        # run with revenue 0.0 instead of an error.
        if form == "chunked":
            workload = get_scenario("city_scale").chunked(scale=0.005, seed=2)
        else:
            workload = tiny_workload
        with pytest.raises(ValueError, match="max_degree"):
            ShardedEngine(workload, num_shards=4, max_degree=0)
