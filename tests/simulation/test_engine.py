"""Tests for the discrete-time simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pricing.base_price import BasePriceStrategy
from repro.pricing.maps_strategy import MAPSStrategy
from repro.pricing.registry import PAPER_STRATEGIES, calibrated_kwargs, create_strategy
from repro.pricing.strategy import PriceFeedback, PricingStrategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenarios import available_scenarios, get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.oracle import SimulatedProbeOracle


class RecordingStrategy(PricingStrategy):
    """Prices everything at a constant and records what it observes."""

    name = "Recorder"

    def __init__(self, price=2.0):
        self.price = price
        self.instances = []
        self.feedback = []
        self.reset_calls = 0

    def price_period(self, instance):
        self.instances.append(instance)
        return {g: self.price for g in instance.grid_indices_with_tasks()}

    def observe_feedback(self, feedback):
        self.feedback.extend(feedback)

    def reset(self):
        self.reset_calls += 1


class TestCalibration:
    def test_calibration_produces_bounded_base_price(self, tiny_engine, tiny_calibration):
        assert 1.0 <= tiny_calibration.base_price <= 5.0
        assert tiny_calibration.total_probes > 0
        assert len(tiny_calibration.grid_reserve_prices) > 0

    def test_calibration_covers_every_grid_with_demand(self, tiny_workload, tiny_engine, tiny_calibration):
        grids_with_tasks = {
            task.grid_index
            for tasks in tiny_workload.tasks_by_period
            for task in tasks
        }
        assert set(tiny_calibration.grid_reserve_prices) == grids_with_tasks


class TestSimulationRun:
    def test_feedback_and_accounting(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        strategy = RecordingStrategy(price=2.0)
        result = engine.run(strategy)

        assert strategy.reset_calls == 1
        # One feedback entry per task of the horizon.
        assert len(strategy.feedback) == tiny_workload.total_tasks
        assert result.metrics.total_tasks == tiny_workload.total_tasks
        assert result.metrics.accepted_tasks <= result.metrics.total_tasks
        assert result.metrics.served_tasks <= result.metrics.accepted_tasks
        assert result.metrics.total_revenue >= 0.0
        assert result.metrics.pricing_time_seconds >= 0.0

    def test_acceptance_consistent_with_valuations(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        strategy = RecordingStrategy(price=2.0)
        engine.run(strategy)
        valuation_by_key = {
            (task.period, task.grid_index, task.task_id): task.valuation
            for tasks in tiny_workload.tasks_by_period
            for task in tasks
        }
        # Every feedback acceptance decision must equal price <= valuation.
        tasks_flat = [
            task for tasks in tiny_workload.tasks_by_period for task in tasks
        ]
        assert len(strategy.feedback) == len(tasks_flat)
        accepted_count = sum(1 for f in strategy.feedback if f.accepted)
        expected_accepted = sum(1 for t in tasks_flat if t.valuation >= 2.0)
        assert accepted_count == expected_accepted

    def test_revenue_bounded_by_accepted_demand(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        strategy = RecordingStrategy(price=2.0)
        result = engine.run(strategy)
        upper_bound = sum(
            task.distance * 2.0
            for tasks in tiny_workload.tasks_by_period
            for task in tasks
            if task.valuation >= 2.0
        )
        assert result.metrics.total_revenue <= upper_bound + 1e-6

    def test_deterministic_given_seed(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        first = engine.run(BasePriceStrategy(base_price=2.0))
        second = engine.run(BasePriceStrategy(base_price=2.0))
        assert first.total_revenue == pytest.approx(second.total_revenue)
        assert first.metrics.served_tasks == second.metrics.served_tasks

    def test_keep_details_records_every_period(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1, keep_details=True)
        result = engine.run(BasePriceStrategy(base_price=2.0))
        # Task-less periods are recorded too (as empty outcomes), so the
        # outcome list always covers the whole horizon.
        assert len(result.outcomes) == tiny_workload.num_periods
        for outcome, tasks in zip(result.outcomes, tiny_workload.tasks_by_period):
            assert outcome.num_tasks == len(tasks)
            assert outcome.served_tasks <= outcome.accepted_tasks <= outcome.num_tasks
            assert outcome.revenue >= 0.0
            if not tasks:
                assert outcome.prices == {}
                assert outcome.revenue == 0.0

    def test_matched_workers_leave_the_pool(self, tiny_workload):
        """Total served tasks can never exceed the total number of workers."""
        engine = SimulationEngine(tiny_workload, seed=1)
        result = engine.run(BasePriceStrategy(base_price=1.0))
        assert result.metrics.served_tasks <= tiny_workload.total_workers

    def test_higher_prices_reduce_acceptance(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        cheap = engine.run(BasePriceStrategy(base_price=1.0))
        expensive = engine.run(BasePriceStrategy(base_price=5.0))
        assert expensive.metrics.accepted_tasks <= cheap.metrics.accepted_tasks

    def test_run_many_runs_all_strategies(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1)
        results = engine.run_many(
            [BasePriceStrategy(base_price=2.0), RecordingStrategy(price=2.0)]
        )
        assert set(results) == {"BaseP", "Recorder"}

    def test_maps_runs_and_beats_nothing_pathological(self, tiny_workload, tiny_engine, tiny_calibration):
        maps_result = tiny_engine.run(MAPSStrategy.from_calibration(tiny_calibration))
        assert maps_result.total_revenue > 0.0
        assert maps_result.metrics.served_tasks > 0

    def test_memory_tracking_optional(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=1, track_memory=True)
        result = engine.run(BasePriceStrategy(base_price=2.0))
        assert result.metrics.peak_memory_bytes > 0


class TestOneBatchLoop:
    """``SimulationEngine`` is the one-shard ``ShardedEngine``."""

    def test_is_the_one_shard_sharded_engine(self, tiny_workload):
        engine = SimulationEngine(tiny_workload, seed=4, keep_details=True)
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 1
        assert (engine.seed, engine.max_degree) == (4, None)
        assert engine.keep_details and not engine.track_memory

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cap_below_one_fails_at_construction(self, tiny_workload, cap):
        with pytest.raises(ValueError):
            SimulationEngine(tiny_workload, max_degree=cap)


def _pin_workload(name):
    """The pinned bundle of ``name`` (seed 7); ``city_scale`` thinned."""
    scale = TestBatchPins.SCALES[name]
    if name == "city_scale":
        return get_scenario(name).bundle(
            scale=scale, seed=7, tasks_per_period=300, workers_per_period=150
        )
    return get_scenario(name).bundle(scale=scale, seed=7)


def _pinned_run(workload, name, **engine_kwargs):
    engine = SimulationEngine(workload, seed=5, **engine_kwargs)
    p_min, p_max = workload.price_bounds
    calibration = SimulationEngine(workload, seed=5).calibrate_base_price()
    metrics = engine.run(
        create_strategy(
            name, **calibrated_kwargs(name, calibration, p_min=p_min, p_max=p_max)
        )
    ).metrics
    return repr(metrics.total_revenue), metrics.served_tasks, metrics.accepted_tasks


class TestBatchPins:
    """Batch totals recorded with the former object-pool period loop.

    ``(revenue repr, served, accepted)`` per registered scenario and
    paper strategy (bundle seed 7, engine seed 5, calibrated on the
    bundle), plus a degree-capped and two non-matroid runs, all recorded
    before ``SimulationEngine`` became the one-shard ``ShardedEngine``;
    the runs the free-neighbour-first pairing rule moved were re-recorded
    under it.
    """

    SCALES = {
        "beijing_night": 0.003,
        "beijing_rush": 0.002,
        "churn_city": 0.1,
        "city_scale": 0.005,
        "food_delivery": 0.05,
        "hotspot_burst": 0.05,
        "synthetic": 0.008,
    }
    PINS = {
        "beijing_night": {
            "MAPS": ("366.84287962909474", 41, 121),
            "BaseP": ("364.28198960342814", 41, 121),
            "SDR": ("217.90200985358396", 24, 24),
            "SDE": ("354.1719202834829", 35, 55),
            "CappedUCB": ("386.935774489967", 35, 64),
        },
        "beijing_rush": {
            "MAPS": ("354.16703109655157", 41, 145),
            "BaseP": ("333.3261440078362", 42, 149),
            "SDR": ("154.23592807417003", 20, 20),
            "SDE": ("364.66620066813124", 35, 75),
            "CappedUCB": ("412.2349281286426", 33, 59),
        },
        "churn_city": {
            "MAPS": ("4914.921320406759", 63, 135),
            "BaseP": ("4781.719507230743", 63, 138),
            "SDR": ("1722.570671356009", 21, 21),
            "SDE": ("3408.6564439044596", 32, 43),
            "CappedUCB": ("2993.314257306505", 27, 44),
        },
        "city_scale": {
            "MAPS": ("3166.426411474745", 281, 358),
            "BaseP": ("3151.763428362434", 280, 417),
            "SDR": ("1675.9353628479762", 179, 179),
            "SDE": ("2783.88030366179", 249, 274),
            "CappedUCB": ("1925.890013695243", 148, 148),
        },
        "food_delivery": {
            "MAPS": ("35.45270318429014", 10, 79),
            "BaseP": ("37.26511517722953", 10, 81),
            "SDR": ("35.51999670598218", 10, 10),
            "SDE": ("38.96013642644253", 10, 41),
            "CappedUCB": ("13.089925202577627", 3, 6),
        },
        "hotspot_burst": {
            "MAPS": ("4754.344733350181", 48, 266),
            "BaseP": ("4757.841695811437", 51, 279),
            "SDR": ("2249.3069568382425", 25, 25),
            "SDE": ("4139.935407719299", 36, 202),
            "CappedUCB": ("3184.3247346032695", 20, 98),
        },
        "synthetic": {
            "MAPS": ("2732.7004472689737", 32, 110),
            "BaseP": ("2455.5450828911767", 32, 126),
            "SDR": ("1781.964325834", 25, 28),
            "SDE": ("2186.1763965320774", 29, 68),
            "CappedUCB": ("1737.9169532362816", 14, 19),
        },
    }
    #: ``city_scale`` BaseP runs off the default uncapped graph.
    VARIANT_PINS = {
        "max_degree=2": ({"max_degree": 2}, ("2663.847638279497", 240, 417)),
    }

    @pytest.mark.parametrize("scenario", sorted(PINS))
    def test_every_strategy_is_pinned(self, scenario):
        assert sorted(self.PINS) == available_scenarios(), (
            "PINS out of sync with the scenario registry"
        )
        workload = _pin_workload(scenario)
        for name in PAPER_STRATEGIES:
            assert _pinned_run(workload, name) == self.PINS[scenario][name], name

    @pytest.mark.parametrize("variant", sorted(VARIANT_PINS))
    def test_capped_runs_are_pinned(self, variant):
        engine_kwargs, expected = self.VARIANT_PINS[variant]
        workload = _pin_workload("city_scale")
        assert _pinned_run(workload, "BaseP", **engine_kwargs) == expected


class TestOracle:
    def test_offer_counts_and_bounds(self, tiny_workload):
        oracle = SimulatedProbeOracle(tiny_workload.acceptance, seed=0)
        grid = next(
            task.grid_index
            for tasks in tiny_workload.tasks_by_period
            for task in tasks
        )
        acceptances = oracle.offer(grid, 2.0, 500)
        assert 0 <= acceptances <= 500
        assert oracle.total_probes == 500
        assert oracle.probes_for_grid(grid) == 500

    def test_offer_respects_acceptance_probability(self, tiny_workload):
        oracle = SimulatedProbeOracle(tiny_workload.acceptance, seed=1)
        grid = next(
            task.grid_index
            for tasks in tiny_workload.tasks_by_period
            for task in tasks
        )
        probability = tiny_workload.acceptance.acceptance_ratio(grid, 2.0)
        acceptances = oracle.offer(grid, 2.0, 20000)
        assert acceptances / 20000 == pytest.approx(probability, abs=0.02)

    def test_invalid_count(self, tiny_workload):
        oracle = SimulatedProbeOracle(tiny_workload.acceptance, seed=0)
        with pytest.raises(ValueError):
            oracle.offer(1, 2.0, 0)


class TestMetricsCollector:
    def test_timers_and_period_accounting(self):
        collector = MetricsCollector("test")
        collector.start()
        with collector.time_pricing():
            sum(range(1000))
        with collector.time_matching():
            sum(range(1000))
        collector.record_period(revenue=5.0, served_tasks=2, accepted_tasks=3, total_tasks=4)
        collector.record_period(revenue=1.0, served_tasks=1, accepted_tasks=1, total_tasks=2)
        metrics = collector.finish()
        assert metrics.total_revenue == pytest.approx(6.0)
        assert metrics.revenue_by_period == [5.0, 1.0]
        assert metrics.served_tasks == 3
        assert metrics.accepted_tasks == 4
        assert metrics.total_tasks == 6
        assert metrics.acceptance_rate == pytest.approx(4 / 6)
        assert metrics.service_rate == pytest.approx(0.5)
        assert metrics.pricing_time_seconds > 0.0
        assert metrics.matching_time_seconds > 0.0

    def test_negative_revenue_rejected(self):
        collector = MetricsCollector("test")
        with pytest.raises(ValueError):
            collector.record_period(revenue=-1.0, served_tasks=0, accepted_tasks=0, total_tasks=0)

    def test_as_dict_keys(self):
        collector = MetricsCollector("test")
        metrics = collector.finish()
        payload = metrics.as_dict()
        assert payload["strategy"] == "test"
        assert "total_revenue" in payload
        assert "peak_memory_mb" in payload
