"""Tests for the UCB price index of Section 4.2.2."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.estimator import AcceptanceEstimate, GridAcceptanceEstimator
from repro.learning.ucb import confidence_radius, first_best, ucb_index, ucb_score


class TestConfidenceRadius:
    def test_formula(self):
        radius = confidence_radius(2.0, total_offers=100, offers_at_price=25)
        assert radius == pytest.approx(2.0 * math.sqrt(2 * math.log(100) / 25))

    def test_zero_total_offers(self):
        assert confidence_radius(2.0, 0, 0) == 0.0

    def test_untested_price_gets_infinite_radius(self):
        assert math.isinf(confidence_radius(2.0, 50, 0))

    def test_radius_shrinks_with_more_offers_at_price(self):
        wide = confidence_radius(2.0, 1000, 10)
        narrow = confidence_radius(2.0, 1000, 500)
        assert narrow < wide

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_radius(-1.0, 10, 5)
        with pytest.raises(ValueError):
            confidence_radius(1.0, -1, 0)


class TestUcbScore:
    def test_supply_cap_binds(self):
        estimate = AcceptanceEstimate(price=2.0, sample_mean=0.9, offers=1000)
        # demand C=10, supply D=1 -> cap (1/10)*2 = 0.2 < 1.8
        score = ucb_score(estimate, total_offers=1000, demand_coefficient=10.0, supply_coefficient=1.0)
        assert score == pytest.approx(0.2, abs=1e-6)

    def test_demand_term_binds_with_large_supply(self):
        estimate = AcceptanceEstimate(price=2.0, sample_mean=0.5, offers=10000)
        score = ucb_score(estimate, total_offers=10000, demand_coefficient=10.0, supply_coefficient=10.0)
        radius = confidence_radius(2.0, 10000, 10000)
        assert score == pytest.approx(1.0 + radius)

    def test_zero_demand_returns_zero(self):
        estimate = AcceptanceEstimate(price=2.0, sample_mean=0.5, offers=10)
        assert ucb_score(estimate, 10, 0.0, 5.0) == 0.0

    def test_negative_coefficients_rejected(self):
        estimate = AcceptanceEstimate(price=2.0, sample_mean=0.5, offers=10)
        with pytest.raises(ValueError):
            ucb_score(estimate, 10, -1.0, 5.0)

    def test_optimism(self):
        """The UCB score never underestimates the truth-based index by much."""
        true_ratio = 0.6
        estimate = AcceptanceEstimate(price=2.0, sample_mean=true_ratio, offers=50)
        score = ucb_score(estimate, total_offers=200, demand_coefficient=5.0, supply_coefficient=5.0)
        truth = min(2.0 * true_ratio, 2.0)
        assert score >= truth - 1e-9


class TestUcbIndex:
    def test_untested_prices_explored_first(self):
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 4.0])
        estimator.record_batch(1.0, 50, 45)
        # Prices 2 and 4 have never been offered: their radius is infinite,
        # so one of them must be chosen (the larger one wins the tie).
        price, value = ucb_index(
            estimator.snapshots(), estimator.total_offers, demand_coefficient=3.0, supply_coefficient=3.0
        )
        assert price in (2.0, 4.0)
        assert value > 0

    def test_converges_to_true_best_price(self):
        """With many observations the index picks the true revenue maximiser."""
        true_ratio = {1.0: 0.9, 2.0: 0.8, 3.0: 0.5}
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 3.0])
        for price, ratio in true_ratio.items():
            estimator.record_batch(price, 20000, int(20000 * ratio))
        # Plenty of supply: the demand term decides; 2 * 0.8 = 1.6 wins.
        price, _ = ucb_index(
            estimator.snapshots(), estimator.total_offers, demand_coefficient=1.0, supply_coefficient=1.0
        )
        assert price == 2.0

    def test_limited_supply_pushes_price_up(self):
        """Case 3 of Fig. 4: with scarce supply the chosen price rises."""
        true_ratio = {1.0: 0.9, 2.0: 0.8, 3.0: 0.5}
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 3.0])
        for price, ratio in true_ratio.items():
            estimator.record_batch(price, 20000, int(20000 * ratio))
        # Two tasks with distances 1.3 and 0.7 but a single worker:
        # C = 2.0, D = 1.3; the price 3 maximises min(p S(p), 0.65 p).
        price, _ = ucb_index(
            estimator.snapshots(), estimator.total_offers, demand_coefficient=2.0, supply_coefficient=1.3
        )
        assert price == 3.0

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            ucb_index([], 10, 1.0, 1.0)

    def test_tie_breaking_direction(self):
        estimates = [
            AcceptanceEstimate(price=1.0, sample_mean=1.0, offers=100),
            AcceptanceEstimate(price=2.0, sample_mean=0.5, offers=100),
        ]
        # Zero supply: every index is 0 -> tie, won by the larger price.
        price, _ = ucb_index(estimates, 200, 1.0, 0.0)
        assert price == 2.0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_index_value_bounded_by_supply_cap(self, seed):
        rng = np.random.default_rng(seed)
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 3.0, 4.5])
        for price in estimator.candidate_prices:
            offers = int(rng.integers(1, 200))
            estimator.record_batch(price, offers, int(rng.integers(0, offers + 1)))
        demand = float(rng.uniform(1.0, 20.0))
        supply = float(rng.uniform(0.0, 20.0))
        price, value = ucb_index(estimator.snapshots(), estimator.total_offers, demand, supply)
        assert value <= (supply / demand) * max(estimator.candidate_prices) + 1e-9
        assert price in estimator.candidate_prices


class TestFirstBest:
    def test_first_strict_improvement_wins(self):
        # Descending prices; 3.0 ties 4.0 and 1.0 is within 1e-12 of 2.0.
        assert first_best([4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 5.0, 5.0 + 1e-13]) == (2.0, 5.0)

    def test_improvement_beyond_tolerance_wins(self):
        assert first_best([2.0, 1.0], [1.0, 1.0 + 1e-9]) == (1.0, 1.0 + 1e-9)

    def test_negative_values_are_not_clamped(self):
        assert first_best([2.0, 1.0], [-3.0, -2.0]) == (1.0, -2.0)

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError):
            first_best([], [])
