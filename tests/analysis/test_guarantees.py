"""Tests for the empirical verification of the paper's guarantees."""

from __future__ import annotations

import math

import pytest

from repro.analysis.guarantees import (
    approximation_ratio,
    diminishing_returns_violations,
    empirical_regret,
    is_submodular_on_chain,
)
from repro.core.gdp import GDPInstance, PeriodInstance
from repro.core.maps import MAPSPlanner
from repro.learning.estimator import GridAcceptanceEstimator
from repro.market.acceptance import PerGridAcceptance, TabularAcceptanceModel
from repro.market.curves import GridMarket
from repro.market.entities import Task, Worker
from repro.spatial.geometry import BoundingBox, Point
from repro.spatial.grid import Grid

TABLE_1 = {1.0: 0.9, 2.0: 0.8, 3.0: 0.5}


def _running_example_gdp():
    grid = Grid(BoundingBox.square(8.0), 4, 4)
    tasks = [
        Task(task_id=1, period=0, origin=Point(0.5, 5.0), destination=Point(0.5, 6.3), distance=1.3),
        Task(task_id=2, period=0, origin=Point(1.0, 4.5), destination=Point(1.0, 5.2), distance=0.7),
        Task(task_id=3, period=0, origin=Point(6.5, 1.0), destination=Point(6.5, 2.0), distance=1.0),
    ]
    workers = [
        Worker(worker_id=1, period=0, location=Point(1.0, 5.0), radius=1.5),
        Worker(worker_id=2, period=0, location=Point(6.5, 6.5), radius=1.0),
        Worker(worker_id=3, period=0, location=Point(6.5, 1.5), radius=1.5),
    ]
    instance = PeriodInstance.build(0, grid, tasks, workers)
    acceptance = PerGridAcceptance(default=TabularAcceptanceModel(TABLE_1))
    return GDPInstance(instance=instance, acceptance=acceptance)


class TestApproximationRatio:
    def test_maps_prices_near_optimal_on_running_example(self):
        gdp = _running_example_gdp()
        instance = gdp.instance
        estimators = {}
        for grid_index in instance.grid_indices_with_tasks():
            estimator = GridAcceptanceEstimator(grid_index, [1.0, 2.0, 3.0])
            for price, ratio in TABLE_1.items():
                estimator.record_batch(price, 100000, int(100000 * ratio))
            estimators[grid_index] = estimator
        plan = MAPSPlanner(base_price=2.0, p_min=1.0, p_max=3.0).plan(instance, estimators)
        ratio, achieved, optimum = approximation_ratio(
            gdp, plan.prices, candidate_prices=[1.0, 2.0, 3.0]
        )
        # The brute-force optimum allows per-task prices, so the per-grid
        # constrained MAPS solution cannot exceed it; Theorem 8 suggests at
        # least a (1 - 1/e) fraction, and on this instance MAPS is optimal
        # under the per-grid constraint.
        assert 0.0 < achieved <= optimum + 1e-9
        assert ratio >= 1.0 - 1.0 / math.e
        assert ratio >= 0.95

    def test_uniform_price_has_lower_ratio_than_per_grid_prices(self):
        gdp = _running_example_gdp()
        grids = gdp.instance.grid_indices_with_tasks()
        uniform_ratio, _, _ = approximation_ratio(
            gdp, {g: 2.0 for g in grids}, candidate_prices=[1.0, 2.0, 3.0]
        )
        # Per-grid prices of Example 5: 3 for the two-task grid, 2 for r3's.
        per_grid_prices = {
            g: 3.0 if len(gdp.instance.tasks_by_grid[g]) > 1 else 2.0 for g in grids
        }
        dynamic_ratio, _, _ = approximation_ratio(
            gdp, per_grid_prices, candidate_prices=[1.0, 2.0, 3.0]
        )
        assert 0.0 < uniform_ratio <= 1.0
        assert dynamic_ratio >= uniform_ratio


class TestSubmodularityChecks:
    def test_running_example_grid_is_submodular(self):
        market = GridMarket(
            grid_index=9,
            distances=[1.3, 0.7],
            acceptance_ratio=lambda p: TABLE_1[p],
        )
        assert is_submodular_on_chain(market, [1.0, 2.0, 3.0])
        assert diminishing_returns_violations(market, [1.0, 2.0, 3.0]) == 0

    def test_violation_counter_detects_crafted_breakage(self):
        """A pathological acceptance curve can break diminishing returns."""
        # Two candidate prices with a huge gap and equal task distances can
        # produce a flat-then-rising optimised value (see Lemma 9 notes).
        market = GridMarket(
            grid_index=1,
            distances=[1.0] * 6,
            acceptance_ratio=lambda p: {1.0: 1.0, 10.0: 0.05}.get(p, 0.0),
        )
        assert diminishing_returns_violations(market, [1.0, 10.0]) == 1
        assert not is_submodular_on_chain(market, [1.0, 10.0])

    def test_max_supply_limits_the_chain(self):
        market = GridMarket(
            grid_index=1, distances=[2.0, 1.0], acceptance_ratio=lambda p: 0.5
        )
        assert diminishing_returns_violations(market, [1.0, 2.0], max_supply=1) == 0


class TestEmpiricalRegret:
    def test_zero_for_always_optimal_choice(self):
        ratio = lambda p: TABLE_1[p]
        total, per_round = empirical_regret([2.0] * 50, ratio, [1.0, 2.0, 3.0])
        assert total == pytest.approx(0.0)
        assert per_round == pytest.approx(0.0)

    def test_positive_for_suboptimal_choices(self):
        ratio = lambda p: TABLE_1[p]
        total, per_round = empirical_regret([3.0] * 10, ratio, [1.0, 2.0, 3.0])
        assert total == pytest.approx(10 * (1.6 - 1.5))
        assert per_round == pytest.approx(0.1)

    def test_empty_sequence(self):
        assert empirical_regret([], lambda p: 0.5, [1.0]) == (0.0, 0.0)

    def test_exploration_then_convergence_has_sublinear_regret(self):
        """A UCB-like sequence that converges has shrinking per-round regret."""
        ratio = lambda p: TABLE_1[p]
        early = [1.0, 3.0] * 10 + [2.0] * 0
        late = [1.0, 3.0] * 10 + [2.0] * 180
        _, early_rate = empirical_regret(early, ratio, [1.0, 2.0, 3.0])
        _, late_rate = empirical_regret(late, ratio, [1.0, 2.0, 3.0])
        assert late_rate < early_rate
