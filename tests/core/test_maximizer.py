"""Tests for Algorithm 3 (the per-grid UCB-scored price maximizer)."""

from __future__ import annotations

import pytest

from repro.core.maximizer import calculate_maximizer, exploitation_maximizer
from repro.learning.estimator import GridAcceptanceEstimator


def _converged_estimator(table, offers=50000):
    """An estimator fed so many samples that the UCB radius is negligible."""
    estimator = GridAcceptanceEstimator(1, list(table))
    for price, ratio in table.items():
        estimator.record_batch(price, offers, int(round(offers * ratio)))
    return estimator


TABLE_1 = {1.0: 0.9, 2.0: 0.8, 3.0: 0.5}


class TestRunningExample:
    """The Δ values of Example 5 (grids with distances {1.3, 0.7} and {1.0})."""

    def test_grid9_delta_for_first_worker(self):
        estimator = _converged_estimator(TABLE_1)
        result = calculate_maximizer(estimator, [1.3, 0.7], new_supply=1)
        assert result.price == pytest.approx(3.0)
        assert result.delta == pytest.approx(3.0, abs=0.2)
        assert result.approx_revenue == pytest.approx(3.0, abs=0.2)

    def test_grid11_delta_for_first_worker(self):
        estimator = _converged_estimator(TABLE_1)
        result = calculate_maximizer(estimator, [1.0], new_supply=1)
        assert result.price == pytest.approx(2.0)
        assert result.delta == pytest.approx(1.6, abs=0.1)

    def test_grid9_second_worker_delta(self):
        """Adding a second worker to the {1.3, 0.7} grid yields a small gain."""
        estimator = _converged_estimator(TABLE_1)
        first = calculate_maximizer(estimator, [1.3, 0.7], new_supply=1)
        second = calculate_maximizer(estimator, [1.3, 0.7], new_supply=2)
        assert second.delta <= first.delta
        # With full supply the best value is max_p 2 p S(p) = 3.2 (at p = 2),
        # so the increment over 3.0 is roughly 0.2.
        assert second.approx_revenue == pytest.approx(3.2, abs=0.2)
        assert second.delta == pytest.approx(0.2, abs=0.15)


class TestGeneralBehaviour:
    def test_zero_supply_zero_delta(self):
        estimator = _converged_estimator(TABLE_1)
        result = calculate_maximizer(estimator, [2.0, 1.0], new_supply=0)
        assert result.delta == 0.0
        assert result.approx_revenue == 0.0

    def test_empty_grid(self):
        estimator = _converged_estimator(TABLE_1)
        result = calculate_maximizer(estimator, [], new_supply=1)
        assert result.delta == 0.0
        assert result.approx_revenue == 0.0

    def test_explicit_previous_supply(self):
        estimator = _converged_estimator(TABLE_1)
        jump = calculate_maximizer(estimator, [2.0, 1.0, 1.0], new_supply=3, previous_supply=0)
        step_sum = sum(
            calculate_maximizer(estimator, [2.0, 1.0, 1.0], new_supply=n).delta
            for n in (1, 2, 3)
        )
        assert jump.delta == pytest.approx(step_sum, rel=1e-6)

    def test_validation(self):
        estimator = _converged_estimator(TABLE_1)
        with pytest.raises(ValueError):
            calculate_maximizer(estimator, [1.0], new_supply=-1)
        with pytest.raises(ValueError):
            calculate_maximizer(estimator, [1.0], new_supply=1, previous_supply=2)
        with pytest.raises(ValueError):
            calculate_maximizer(estimator, [1.0, 2.0], new_supply=1)  # unsorted

    def test_untested_prices_are_optimistic(self):
        """Untested ladder prices must be able to win (exploration)."""
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 3.0])
        estimator.record_batch(1.0, 1000, 900)
        result = calculate_maximizer(estimator, [1.0, 1.0, 1.0], new_supply=3)
        assert result.price in (2.0, 3.0)

    def test_delta_never_negative(self):
        estimator = _converged_estimator(TABLE_1)
        for supply in range(1, 6):
            result = calculate_maximizer(estimator, [1.5, 1.0, 0.5], new_supply=supply)
            assert result.delta >= 0.0


class TestExploitationAblation:
    def test_exploitation_ignores_untested_prices(self):
        estimator = GridAcceptanceEstimator(1, [1.0, 2.0, 3.0])
        estimator.record_batch(1.0, 1000, 900)
        result = exploitation_maximizer(estimator, [1.0, 1.0], new_supply=2)
        assert result.price == 1.0  # never explores the untested prices

    def test_exploitation_matches_ucb_when_converged(self):
        estimator = _converged_estimator(TABLE_1, offers=200000)
        ucb = calculate_maximizer(estimator, [1.3, 0.7], new_supply=1)
        greedy = exploitation_maximizer(estimator, [1.3, 0.7], new_supply=1)
        assert greedy.price == ucb.price
        assert greedy.approx_revenue == pytest.approx(ucb.approx_revenue, rel=0.03)

    def test_empty_grid(self):
        estimator = _converged_estimator(TABLE_1)
        result = exploitation_maximizer(estimator, [], new_supply=1)
        assert result.approx_revenue == 0.0


@pytest.mark.parametrize(
    "maximizer", [calculate_maximizer, exploitation_maximizer], ids=["ucb", "exploitation"]
)
class TestSharedValidation:
    """Both variants refuse the same inconsistent inputs."""

    def test_rejects_previous_supply_above_new_supply(self, maximizer):
        estimator = _converged_estimator(TABLE_1)
        with pytest.raises(ValueError, match="previous_supply"):
            maximizer(estimator, [1.0], new_supply=1, previous_supply=2)

    def test_rejects_increasing_distances(self, maximizer):
        estimator = _converged_estimator(TABLE_1)
        with pytest.raises(ValueError, match="non-increasing"):
            maximizer(estimator, [1.0, 2.0], new_supply=1)
