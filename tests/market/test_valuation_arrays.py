"""Differential tests of the array-native valuation layer.

The oracles are the scalar paths the array methods replaced: the frozen
``scipy.stats.truncnorm`` object and its ``rvs``, the per-element scalar
``cdf``, and the per-price loops of ``myerson_reserve_price`` and
``is_mhr``.  Every comparison is bitwise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.base_pricing import BasePricingConfig, run_base_pricing
from repro.market.acceptance import (
    DistributionAcceptanceModel,
    PerGridAcceptance,
    TabularAcceptanceModel,
)
from repro.market.valuation import (
    EmpiricalValuationDistribution,
    ExponentialValuation,
    TruncatedNormalValuation,
    UniformValuation,
)
from repro.simulation.oracle import SimulatedProbeOracle

means = st.floats(min_value=0.5, max_value=4.5)
stds = st.floats(min_value=0.3, max_value=2.5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _frozen(dist: TruncatedNormalValuation):
    return stats.truncnorm(dist.a, dist.b, loc=dist.mean, scale=dist.std)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_bits(left, right) -> None:
    np.testing.assert_array_equal(_bits(left), _bits(right))


def _prices(dist) -> np.ndarray:
    """Prices inside, on the bounds of, and outside the support."""
    upper = dist.upper if math.isfinite(dist.upper) else dist.lower + 10.0
    inside = np.linspace(dist.lower, upper, 97)
    return np.concatenate([inside, [dist.lower - 1.0, dist.lower, upper, upper + 1.0]])


class TestTruncatedNormalAgainstFrozenScipy:
    @given(means, stds, seeds, st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_quantile_of_uniforms_is_rvs(self, mean, std, seed, size):
        dist = TruncatedNormalValuation(mean=mean, std=std)
        ours = dist.quantile(np.random.default_rng(seed).uniform(size=size))
        theirs = _frozen(dist).rvs(size=size, random_state=np.random.default_rng(seed))
        _assert_same_bits(ours, theirs)

    @given(means, stds, seeds)
    @settings(max_examples=20, deadline=None)
    def test_one_batch_equals_per_task_draws(self, mean, std, seed):
        """One ``uniform(size=n)`` draw replaces n ``rvs(size=1)`` calls."""
        dist = TruncatedNormalValuation(mean=mean, std=std)
        frozen, rng = _frozen(dist), np.random.default_rng(seed)
        per_task = [frozen.rvs(size=1, random_state=rng)[0] for _ in range(50)]
        _assert_same_bits(dist.sample(np.random.default_rng(seed), size=50), per_task)

    @given(means, stds)
    @settings(max_examples=40, deadline=None)
    def test_array_cdf_is_scalar_cdf(self, mean, std):
        dist = TruncatedNormalValuation(mean=mean, std=std)
        prices = _prices(dist)
        scalar = [dist.cdf(float(p)) for p in prices]
        _assert_same_bits(dist.cdf(prices), scalar)
        frozen = _frozen(dist)
        inside = (prices >= dist.lower) & (prices < dist.upper)
        _assert_same_bits(
            dist.cdf(prices)[inside], [float(frozen.cdf(p)) for p in prices[inside]]
        )

    def test_zero_uniform_maps_to_the_support_end(self):
        """The one intended difference from the ``rvs`` path.

        ``rvs`` computes ``_ppf(u) * std + mean``, which at ``u == 0.0``
        (probability 2**-53 per draw) can land 1-2 ulp below ``lower``;
        the public ``ppf`` behind :meth:`quantile` returns the support's
        lower end exactly.
        """
        dist = TruncatedNormalValuation(mean=2.2, std=1.0)
        with np.errstate(divide="ignore"):  # log(0) inside scipy's _ppf
            rvs_path = stats.truncnorm._ppf(np.zeros(1), dist.a, dist.b) * dist.std + dist.mean
        assert rvs_path[0] < dist.lower
        assert dist.quantile(np.zeros(1))[0] == dist.lower
        assert dist.quantile(np.zeros(1))[0] == dist.a * dist.std + dist.mean


class TestOtherFamilies:
    @given(st.floats(min_value=0.2, max_value=3.0), st.sampled_from([5.0, None]), seeds)
    @settings(max_examples=30, deadline=None)
    def test_exponential(self, rate, upper, seed):
        dist = ExponentialValuation(rate=rate, shift=1.0, upper=upper)
        prices = _prices(dist)
        _assert_same_bits(dist.cdf(prices), [dist.cdf(float(p)) for p in prices])
        # The former sampler: ``random(size)`` through the closed-form inverse.
        u = np.random.default_rng(seed).random(64)
        former = dist.shift - np.log(1.0 - u * dist.params[2]) / dist.rate
        _assert_same_bits(dist.sample(np.random.default_rng(seed), size=64), former)

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.1, max_value=4.0), seeds)
    @settings(max_examples=30, deadline=None)
    def test_uniform(self, lower, width, seed):
        dist = UniformValuation(lower, lower + width)
        prices = _prices(dist)
        _assert_same_bits(dist.cdf(prices), [dist.cdf(float(p)) for p in prices])
        former = np.random.default_rng(seed).uniform(dist.lower, dist.upper, size=64)
        _assert_same_bits(dist.sample(np.random.default_rng(seed), size=64), former)

    def test_empirical_array_cdf(self):
        dist = EmpiricalValuationDistribution([1.0, 2.0, 2.0, 3.5, 4.0])
        prices = np.array([0.0, 1.0, 1.5, 2.0, 3.9, 4.0, 9.0])
        _assert_same_bits(dist.cdf(prices), [dist.cdf(float(p)) for p in prices])


def _scalar_myerson(dist, low, high, resolution=4096):
    prices = np.linspace(low, high, resolution)
    revenues = np.array([dist.revenue_curve(float(p)) for p in prices])
    return revenues, float(prices[int(np.argmax(revenues))])


def _scalar_is_mhr(dist, price_range=None, resolution=512):
    if price_range is None:
        upper = dist.upper if math.isfinite(dist.upper) else dist.lower + 10.0
        price_range = (dist.lower, upper)
    low, high = price_range
    prices = np.linspace(low + 1e-6, high - 1e-6, resolution)
    step = (high - low) / (resolution * 8)
    hazards = []
    for p in prices:
        survival = 1.0 - dist.cdf(float(p))
        if survival <= 1e-9:
            break
        density = (dist.cdf(float(p + step)) - dist.cdf(float(p - step))) / (2 * step)
        hazards.append(density / survival)
    hazards = np.array(hazards)
    if len(hazards) < 3:
        return True
    return bool(np.all(np.diff(hazards) >= -(1e-6 + 1e-3 * np.abs(hazards[:-1]))))


DISTRIBUTIONS = [
    TruncatedNormalValuation(mean=1.0, std=0.5),
    TruncatedNormalValuation(mean=2.0, std=1.0),
    TruncatedNormalValuation(mean=3.0, std=2.5),
    TruncatedNormalValuation(mean=2.6, std=0.8, lower=1.0, upper=4.0),
    ExponentialValuation(rate=0.5),
    ExponentialValuation(rate=1.5, upper=None),
    UniformValuation(1.0, 5.0),
    EmpiricalValuationDistribution([1.0, 1.5, 2.5, 2.5, 4.0]),
]


class TestVectorisedSearches:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    def test_myerson_revenues_and_price_match_the_scalar_loop(self, dist):
        revenues, price = _scalar_myerson(dist, 1.0, 5.0)
        _assert_same_bits(dist.revenue_curve(np.linspace(1.0, 5.0, 4096)), revenues)
        assert dist.myerson_reserve_price(price_range=(1.0, 5.0)) == price

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    def test_default_range_myerson_matches_the_scalar_loop(self, dist):
        upper = dist.upper if math.isfinite(dist.upper) else max(10.0, dist.lower * 10 + 10.0)
        _, price = _scalar_myerson(dist, max(dist.lower, 1e-9), upper)
        assert dist.myerson_reserve_price() == price

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    def test_is_mhr_matches_the_scalar_loop(self, dist):
        assert dist.is_mhr() == _scalar_is_mhr(dist)
        assert dist.is_mhr(price_range=(1.0, 9.0)) == _scalar_is_mhr(dist, (1.0, 9.0))

    def test_negative_price_in_an_array_rejected(self):
        with pytest.raises(ValueError):
            UniformValuation(1.0, 5.0).revenue_curve(np.array([1.0, -0.5]))


def _mixed_acceptance() -> PerGridAcceptance:
    models = {}
    for grid in range(1, 13):
        if grid % 4 == 0:
            models[grid] = DistributionAcceptanceModel(ExponentialValuation(rate=0.4 + 0.1 * grid))
        else:
            models[grid] = DistributionAcceptanceModel(
                TruncatedNormalValuation(mean=1.0 + 0.25 * grid, std=0.5 + 0.1 * grid)
            )
    models[13] = TabularAcceptanceModel({1.0: 0.9, 2.0: 0.8, 3.0: 0.5})
    return PerGridAcceptance(
        models=models,
        default=DistributionAcceptanceModel(UniformValuation(1.0, 5.0)),
    )


class TestPerGridAcceptance:
    def test_valuation_quantiles_equal_per_task_sampling(self):
        acceptance = _mixed_acceptance()
        grids = np.random.default_rng(4).integers(1, 16, size=400)
        grids = grids[grids != 13]  # the tabular grid has no inverse CDF
        per_task_rng = np.random.default_rng(9)
        per_task = [acceptance.model_for(int(g)).sample_valuation(per_task_rng) for g in grids]
        batched = acceptance.valuation_quantiles(
            grids, np.random.default_rng(9).uniform(size=grids.size)
        )
        _assert_same_bits(batched, per_task)

    def test_valuation_quantiles_need_a_parametric_family(self):
        with pytest.raises(TypeError, match="13"):
            _mixed_acceptance().valuation_quantiles([1, 13], [0.5, 0.5])

    def test_acceptance_ratios_equal_scalar_ratios(self):
        acceptance = _mixed_acceptance()
        rng = np.random.default_rng(2)
        grids = rng.integers(1, 16, size=500)
        prices = np.round(rng.uniform(0.0, 6.0, size=500), 1)
        scalar = [acceptance.acceptance_ratio(int(g), float(p)) for g, p in zip(grids, prices)]
        _assert_same_bits(acceptance.acceptance_ratios(grids, prices), scalar)

    def test_empty_inputs(self):
        acceptance = _mixed_acceptance()
        assert acceptance.acceptance_ratios([], []).shape == (0,)
        assert acceptance.valuation_quantiles([], []).shape == (0,)


class _OfferOnly:
    """The simulated oracle without its bulk ``prepare``: scalar ratios."""

    def __init__(self, oracle: SimulatedProbeOracle) -> None:
        self.offer = oracle.offer


def test_prepared_calibration_equals_per_offer_calibration():
    acceptance = _mixed_acceptance()
    grids = list(range(1, 16))
    config = BasePricingConfig(p_min=1.0, p_max=5.0)
    prepared = SimulatedProbeOracle(acceptance, seed=5)
    scalar = SimulatedProbeOracle(acceptance, seed=5)
    first = run_base_pricing(grids, prepared, config)
    second = run_base_pricing(grids, _OfferOnly(scalar), config)
    assert prepared._ratios and not scalar._ratios
    assert repr(first.base_price) == repr(second.base_price)
    assert first.grid_reserve_prices == second.grid_reserve_prices
    assert first.total_probes == second.total_probes
    assert prepared._probes == scalar._probes
