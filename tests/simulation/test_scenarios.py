"""Tests for the unified scenario registry."""

from __future__ import annotations

import pytest

from repro.simulation.scenarios import (
    Scenario,
    _SCENARIOS,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.simulation.streaming import TaskArrival, WorkerArrival, stream_to_workload

EXPECTED_SCENARIOS = [
    "beijing_night",
    "beijing_rush",
    "churn_city",
    "city_scale",
    "food_delivery",
    "hotspot_burst",
    "synthetic",
]

#: Small-but-nonempty scales per scenario for fast generation.
FAST_SCALE = {
    "synthetic": 0.004,
    "beijing_rush": 0.002,
    "beijing_night": 0.003,
    "churn_city": 0.1,
    "city_scale": 0.005,
    "food_delivery": 0.05,
    "hotspot_burst": 0.05,
}


class TestRegistry:
    def test_available_scenarios(self):
        assert available_scenarios() == EXPECTED_SCENARIOS

    def test_unknown_scenario_lists_registered_names(self):
        with pytest.raises(ValueError, match="hotspot_burst"):
            get_scenario("metaverse")

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("SYNTHETIC").name == "synthetic"

    def test_register_and_overwrite(self):
        @register_scenario
        class ToyScenario(Scenario):
            name = "toy"
            description = "toy"
            paper_ref = "none"

        try:
            assert "toy" in available_scenarios()
            assert isinstance(get_scenario("toy"), ToyScenario)
        finally:
            _SCENARIOS.pop("toy", None)
        assert "toy" not in available_scenarios()

    def test_register_requires_name(self):
        class Nameless(Scenario):
            name = "  "

        with pytest.raises(ValueError):
            register_scenario(Nameless)

    @pytest.mark.parametrize("scale", [0, -1])
    @pytest.mark.parametrize("name", available_scenarios())
    def test_non_positive_scale_rejected(self, name, scale):
        with pytest.raises(ValueError):
            get_scenario(name).bundle(scale=scale, seed=0)

    def test_scenario_without_either_mode_fails_fast(self):
        """Implementing neither bundle() nor stream() raises a clear
        error instead of recursing bundle -> stream -> bundle."""

        class Hollow(Scenario):
            name = "hollow"

        with pytest.raises(NotImplementedError, match="bundle\\(\\) or stream\\(\\)"):
            Hollow().bundle()
        with pytest.raises(NotImplementedError, match="bundle\\(\\) or stream\\(\\)"):
            Hollow().stream()

    def test_metadata_is_filled_in(self):
        for name in available_scenarios():
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.description
            assert scenario.paper_ref
            assert scenario.default_scale > 0


class TestBothModes:
    @pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
    def test_bundle_and_stream_agree(self, name):
        scenario = get_scenario(name)
        scale = FAST_SCALE[name]
        bundle = scenario.bundle(scale=scale, seed=17)
        bundle.validate()
        assert bundle.total_tasks > 0
        assert bundle.total_workers > 0

        stream = scenario.stream(scale=scale, seed=17)
        events = list(stream.iter_events())
        times = [event.time for event in events]
        assert times == sorted(times)
        assert sum(isinstance(e, TaskArrival) for e in events) == bundle.total_tasks
        assert sum(isinstance(e, WorkerArrival) for e in events) == bundle.total_workers
        # Binning the stream at the period length recovers the bundle shape.
        rebinned = stream_to_workload(stream)
        assert rebinned.total_tasks == bundle.total_tasks
        assert rebinned.total_workers == bundle.total_workers

    @pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
    def test_deterministic_in_seed(self, name):
        scenario = get_scenario(name)
        scale = FAST_SCALE[name]
        first = scenario.bundle(scale=scale, seed=3)
        second = scenario.bundle(scale=scale, seed=3)
        assert first.total_tasks == second.total_tasks
        assert first.tasks_by_period == second.tasks_by_period
        assert first.workers_by_period == second.workers_by_period


class TestScenarioParameters:
    def test_food_delivery_num_periods(self):
        bundle = get_scenario("food_delivery").bundle(scale=0.05, seed=1, num_periods=12)
        assert bundle.num_periods == 12

    def test_unexpected_parameters_rejected(self):
        with pytest.raises(TypeError, match="burstiness"):
            get_scenario("hotspot_burst").stream(scale=0.05, burstiness=3)

    def test_invalid_parameter_values_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("food_delivery").bundle(scale=0.05, num_periods=0)
        with pytest.raises(ValueError):
            get_scenario("hotspot_burst").stream(scale=0.05, num_periods=-3)

    def test_hotspot_burst_has_a_burst(self):
        bundle = get_scenario("hotspot_burst").bundle(scale=0.2, seed=4)
        counts = [len(tasks) for tasks in bundle.tasks_by_period]
        burst = max(counts[24:36])
        quiet = max(counts[:20])
        assert burst > 2 * quiet

    def test_churn_city_tasks_carry_lifetimes(self):
        stream = get_scenario("churn_city").stream(
            scale=0.1, seed=6, num_periods=10, task_lifetime=4.0, worker_lifetime=3.0
        )
        tasks = [e.task for e in stream.iter_events() if isinstance(e, TaskArrival)]
        workers = [
            e.worker for e in stream.iter_events() if isinstance(e, WorkerArrival)
        ]
        assert tasks and workers
        # Every request carries an explicit multi-window lifetime with the
        # documented +/-50% jitter, every worker a bounded finite shift.
        assert all(task.duration is not None for task in tasks)
        assert all(2.0 <= task.duration <= 6.0 for task in tasks)
        assert all(worker.duration is not None for worker in workers)
        assert all(1 <= worker.duration <= 5 for worker in workers)

    def test_churn_city_rejects_bad_lifetimes(self):
        with pytest.raises(ValueError):
            get_scenario("churn_city").stream(scale=0.1, task_lifetime=0.0)

    def test_synthetic_forwards_config_overrides(self):
        bundle = get_scenario("synthetic").bundle(
            scale=0.004, seed=2, demand_distribution="exponential"
        )
        assert "exponential" in bundle.description
