"""Tests for the synthetic Beijing-style taxi workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.config import BeijingConfig
from repro.simulation.taxi import BeijingTaxiGenerator


def _config(variant="rush_hour", scale=0.01, duration=15, seed=11):
    base = (
        BeijingConfig.dataset_1(seed=seed)
        if variant == "rush_hour"
        else BeijingConfig.dataset_2(seed=seed)
    )
    config = base.scaled(scale)
    return BeijingConfig(
        variant=config.variant,
        num_workers=config.num_workers,
        num_tasks=config.num_tasks,
        num_periods=40,
        worker_duration=duration,
        seed=seed,
    )


class TestStructure:
    def test_counts_and_grid(self):
        workload = BeijingTaxiGenerator(_config()).generate()
        assert workload.total_tasks == _config().num_tasks
        assert workload.total_workers == _config().num_workers
        assert workload.grid.num_cells == 80
        assert workload.metric == "haversine"

    def test_locations_inside_bounding_box(self):
        config = _config()
        workload = BeijingTaxiGenerator(config).generate()
        min_lon, min_lat, max_lon, max_lat = config.bounding_box
        for tasks in workload.tasks_by_period:
            for task in tasks:
                assert min_lon <= task.origin.x <= max_lon
                assert min_lat <= task.origin.y <= max_lat
                assert task.distance > 0.0
                assert task.valuation is not None

    def test_worker_duration_propagated(self):
        workload = BeijingTaxiGenerator(_config(duration=25)).generate()
        for workers in workload.workers_by_period:
            for worker in workers:
                assert worker.duration == 25
                assert worker.radius == pytest.approx(3.0)

    def test_reproducibility(self):
        """Same seed, same workload field for field (valuations included);
        another seed, another workload."""

        def rows(workload):
            tasks = [
                (t.task_id, t.period, t.origin, t.destination, t.distance,
                 repr(t.valuation), t.grid_index)
                for tasks in workload.tasks_by_period
                for t in tasks
            ]
            workers = [
                (w.worker_id, w.period, w.location, w.radius, w.duration)
                for workers in workload.workers_by_period
                for w in workers
            ]
            return tasks, workers

        first = rows(BeijingTaxiGenerator(_config(seed=5)).generate())
        assert first == rows(BeijingTaxiGenerator(_config(seed=5)).generate())
        assert first[0] != rows(BeijingTaxiGenerator(_config(seed=6)).generate())[0]


class TestVariantCharacteristics:
    def test_rush_hour_has_higher_demand_supply_ratio(self):
        rush = BeijingTaxiGenerator(_config("rush_hour")).generate()
        night = BeijingTaxiGenerator(_config("late_night")).generate()
        rush_ratio = rush.total_tasks / rush.total_workers
        night_ratio = night.total_tasks / night.total_workers
        assert rush_ratio > night_ratio

    def test_rush_hour_demand_more_concentrated(self):
        """Rush-hour demand is concentrated in fewer grids than late night."""

        def top_share(workload, top=8):
            counts = np.zeros(workload.grid.num_cells + 1)
            for tasks in workload.tasks_by_period:
                for task in tasks:
                    counts[task.grid_index] += 1
            counts = np.sort(counts)[::-1]
            return counts[:top].sum() / max(1.0, counts.sum())

        rush = BeijingTaxiGenerator(_config("rush_hour")).generate()
        night = BeijingTaxiGenerator(_config("late_night")).generate()
        assert top_share(rush) > top_share(night)

    def test_valuations_higher_late_night(self):
        rush = BeijingTaxiGenerator(_config("rush_hour")).generate()
        night = BeijingTaxiGenerator(_config("late_night")).generate()

        def mean_valuation(workload):
            values = [t.valuation for tasks in workload.tasks_by_period for t in tasks]
            return float(np.mean(values))

        assert mean_valuation(night) > mean_valuation(rush)
