"""Tests for the binomial change detector (Section 4.2.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.change import BinomialChangeDetector, binomial_deviation_bounds


class TestDeviationBounds:
    def test_formula(self):
        lower, upper = binomial_deviation_bounds(0.5, 100, z=2.0)
        assert lower == pytest.approx(100 * 0.5 - 2 * np.sqrt(100 * 0.25))
        assert upper == pytest.approx(100 * 0.5 + 2 * np.sqrt(100 * 0.25))

    def test_bounds_clipped_to_valid_counts(self):
        lower, upper = binomial_deviation_bounds(0.99, 10)
        assert 0.0 <= lower <= upper <= 10.0
        lower, upper = binomial_deviation_bounds(0.01, 10)
        assert lower == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_deviation_bounds(1.5, 10)
        with pytest.raises(ValueError):
            binomial_deviation_bounds(0.5, 0)
        with pytest.raises(ValueError):
            binomial_deviation_bounds(0.5, 10, z=0.0)


class TestChangeDetector:
    def test_no_flag_while_learning_reference(self):
        detector = BinomialChangeDetector(window=20, min_observations=10)
        rng = np.random.default_rng(0)
        flags = [detector.observe(2.0, bool(rng.random() < 0.8)) for _ in range(15)]
        assert not any(flags)
        assert detector.reference_ratio(2.0) is not None

    def test_stationary_stream_rarely_flags(self):
        detector = BinomialChangeDetector(window=50, min_observations=25)
        rng = np.random.default_rng(1)
        flags = [detector.observe(2.0, bool(rng.random() < 0.7)) for _ in range(600)]
        # A two-sigma band gives ~5% false positives per full window; over a
        # 600-observation stationary stream an occasional flag is expected
        # but they must stay rare.
        assert sum(flags) <= 5

    def test_large_shift_detected(self):
        detector = BinomialChangeDetector(window=40, min_observations=20)
        rng = np.random.default_rng(2)
        for _ in range(60):
            detector.observe(2.0, bool(rng.random() < 0.9))
        flagged = False
        for _ in range(120):
            if detector.observe(2.0, bool(rng.random() < 0.2)):
                flagged = True
                break
        assert flagged

    def test_reset_after_flag(self):
        detector = BinomialChangeDetector(window=30, min_observations=15)
        rng = np.random.default_rng(3)
        for _ in range(40):
            detector.observe(3.0, bool(rng.random() < 0.95))
        for _ in range(200):
            if detector.observe(3.0, False):
                break
        # After the flag the reference is forgotten and re-learned.
        assert detector.reference_ratio(3.0) is None or detector.reference_ratio(3.0) < 0.9

    def test_prices_tracked_independently(self):
        detector = BinomialChangeDetector(window=30, min_observations=10)
        rng = np.random.default_rng(4)
        for _ in range(20):
            detector.observe(1.0, True)
            detector.observe(4.0, bool(rng.random() < 0.3))
        assert detector.reference_ratio(1.0) == pytest.approx(1.0)
        assert detector.reference_ratio(4.0) < 0.8

    def test_reset_methods(self):
        detector = BinomialChangeDetector(window=10, min_observations=5)
        for _ in range(8):
            detector.observe(2.0, True)
        detector.reset_price(2.0)
        assert detector.reference_ratio(2.0) is None
        for _ in range(8):
            detector.observe(2.0, True)
        detector.reset()
        assert detector.reference_ratio(2.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialChangeDetector(window=0)
        with pytest.raises(ValueError):
            BinomialChangeDetector(min_observations=0)


class TestRunningAcceptanceCount:
    """The per-price count kept on append and eviction equals a re-sum."""

    @given(
        window=st.integers(min_value=1, max_value=12),
        min_observations=st.integers(min_value=1, max_value=12),
        steps=st.lists(
            st.tuples(
                st.sampled_from([1.0, 2.0, 3.5]),
                st.booleans(),
                st.booleans(),  # reset the price before observing
            ),
            max_size=120,
        ),
    )
    @settings(deadline=None)
    def test_count_equals_sum_of_window(self, window, min_observations, steps):
        detector = BinomialChangeDetector(window=window, min_observations=min_observations)
        for price, accepted, reset in steps:
            if reset:
                detector.reset_price(price)
            detector.observe(price, accepted)
            for state in detector._windows.values():
                assert len(state.outcomes) <= window
                assert state.acceptances == sum(state.outcomes)

    def test_flags_match_a_full_window_recount(self):
        """Same flags as re-summing the deque on every observation."""
        rng = np.random.default_rng(5)
        window, min_observations = 20, 10
        detector = BinomialChangeDetector(window=window, min_observations=min_observations)
        history = {}
        reference = {}
        flags = 0
        for step in range(3000):
            price = float(rng.choice([1.0, 2.0]))
            accepted = bool(rng.random() < (0.9 if (step // 400) % 2 else 0.2))
            outcomes = history.setdefault(price, [])
            outcomes.append(accepted)
            del outcomes[:-window]
            expected = False
            if price not in reference:
                if len(outcomes) >= min_observations:
                    reference[price] = sum(outcomes) / len(outcomes)
            elif len(outcomes) >= window:
                lower, upper = binomial_deviation_bounds(reference[price], window)
                count = sum(outcomes)
                expected = count < lower - 1e-9 or count > upper + 1e-9
            if expected:
                del history[price], reference[price]
                flags += 1
            assert detector.observe(price, accepted) == expected, f"step {step}"
        assert flags  # the drifting stream does trip the detector
