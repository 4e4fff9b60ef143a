"""Materialised bundles through the sharded engine's one columnar loop.

``ShardedEngine`` has a single in-process run body, the columnar loop;
a :class:`~repro.simulation.config.WorkloadBundle` reaches it through
the bundle's ``iter_period_columns()`` conversion.  These tests hold
that conversion to the results bundles produced when they still ran
through a dedicated object loop:

* one shard reproduces the binned streaming engine — an independent
  object-pool period loop — bit-identically on every registered
  scenario's bundle, and four halo-reconciled shards keep totals pinned
  from the object loop;
* per strategy, a four-shard run keeps its pinned totals;
* per-period outcomes, a degree cap and mid-horizon worker churn keep
  their pinned values.

Every pin was recorded with the object loop, before it was deleted; the
ones the free-neighbour-first pairing rule moved were re-recorded under
it.
"""

from __future__ import annotations

import pytest

from repro.pricing.registry import PAPER_STRATEGIES, calibrated_kwargs, create_strategy
from repro.simulation.scenarios import available_scenarios, get_scenario
from repro.simulation.sharded import ShardedEngine
from repro.simulation.streaming import StreamingEngine, workload_to_stream


def _strategy(name, calibration, price_bounds):
    p_min, p_max = price_bounds
    return create_strategy(
        name, **calibrated_kwargs(name, calibration, p_min=p_min, p_max=p_max)
    )


def _totals(metrics):
    return (
        repr(metrics.total_revenue),
        metrics.served_tasks,
        metrics.accepted_tasks,
        metrics.total_tasks,
    )


def _assert_bitwise_identical(expected, actual):
    assert _totals(actual) == _totals(expected)
    assert list(map(repr, actual.revenue_by_period)) == list(
        map(repr, expected.revenue_by_period)
    )


class TestEveryScenarioBundle:
    #: scenario -> (bundle scale, four-shard halo-1 totals), seed 7.
    PINS = {
        "beijing_night": (0.003, ("332.91521619560064", 41, 135)),
        "beijing_rush": (0.002, ("317.8418964531082", 42, 152)),
        "churn_city": (0.1, ("4468.061411269392", 66, 153)),
        "city_scale": (0.005, ("26353.333006520785", 2370, 3793)),
        "food_delivery": (0.05, ("39.39094481852032", 10, 58)),
        "hotspot_burst": (0.05, ("5051.261918342903", 50, 270)),
        "synthetic": (0.008, ("2634.9183223679925", 31, 83)),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_bundle_conversion_is_exact(self, name):
        assert sorted(self.PINS) == available_scenarios(), (
            "PINS out of sync with the scenario registry"
        )
        scale, (revenue, served, accepted) = self.PINS[name]
        workload = get_scenario(name).bundle(scale=scale, seed=7)
        binned = StreamingEngine(workload_to_stream(workload), seed=5).run(
            create_strategy("BaseP", base_price=2.0)
        )
        one = ShardedEngine(workload, num_shards=1, seed=5).run(
            create_strategy("BaseP", base_price=2.0)
        )
        _assert_bitwise_identical(binned.metrics, one.metrics)
        four = ShardedEngine(workload, num_shards=4, halo=1, seed=5).run(
            create_strategy("BaseP", base_price=2.0)
        )
        assert _totals(four.metrics)[:3] == (revenue, served, accepted)


class TestPerStrategyBundle:
    #: ``tiny_workload`` on four shards, halo 1, seed 5.
    PINS = {
        "MAPS": ("13738.10246904503", 117, 209, 480),
        "BaseP": ("10328.90258668017", 118, 377, 480),
        "SDR": ("9607.001080384442", 116, 142, 480),
        "SDE": ("10800.82759929319", 117, 348, 480),
        "CappedUCB": ("9675.289076522931", 79, 85, 480),
    }

    @pytest.mark.parametrize("name", PAPER_STRATEGIES)
    def test_four_shard_run_is_pinned(self, name, tiny_workload, tiny_calibration):
        """The acceptance stream, hence the matching instance, differs
        per strategy, so each one drives different rows through the
        conversion and the halo pass."""
        result = ShardedEngine(tiny_workload, num_shards=4, halo=1, seed=5).run(
            _strategy(name, tiny_calibration, tiny_workload.price_bounds)
        )
        assert _totals(result.metrics) == self.PINS[name]

    def test_per_period_outcomes_are_pinned(self, tiny_workload, tiny_calibration):
        """Outcome for outcome, not just in aggregate."""
        result = ShardedEngine(
            tiny_workload, num_shards=4, halo=1, seed=5, keep_details=True
        ).run(_strategy("SDR", tiny_calibration, tiny_workload.price_bounds))
        # (period, tasks, workers, accepted, served, revenue repr)
        assert [
            (
                outcome.period,
                outcome.num_tasks,
                outcome.num_workers,
                outcome.accepted_tasks,
                outcome.served_tasks,
                repr(outcome.revenue),
            )
            for outcome in result.outcomes
        ] == [
            (0, 15, 2, 0, 0, "0.0"),
            (1, 37, 9, 3, 2, "113.58046469986874"),
            (2, 78, 33, 42, 28, "2357.5913595131315"),
            (3, 115, 33, 30, 28, "2362.577258170964"),
            (4, 119, 33, 18, 17, "1882.919626840826"),
            (5, 68, 35, 33, 27, "1903.238905754758"),
            (6, 33, 16, 12, 10, "713.9813380351598"),
            (7, 15, 8, 4, 4, "273.11212736973476"),
        ]
        assert [len(outcome.prices) for outcome in result.outcomes] == [
            8, 12, 15, 16, 14, 15, 12, 8,
        ]


class TestBundleEdgeCases:
    def test_degree_capped_run_is_pinned(self):
        """The capped rows of a converted bundle keep the object loop's
        K-nearest selection and tie-breaks."""
        workload = get_scenario("city_scale").bundle(scale=0.01, seed=3, num_periods=2)
        metrics = ShardedEngine(
            workload, num_shards=4, halo=1, seed=5, max_degree=4
        ).run(create_strategy("BaseP", base_price=2.0)).metrics
        assert _totals(metrics) == ("23344.662329559695", 2250, 3850, 4981)
        assert list(map(repr, metrics.revenue_by_period)) == [
            "11379.983774031416",
            "11964.67855552828",
        ]

    def test_worker_churn_run_is_pinned(self):
        """churn_city retires workers mid-horizon, so the per-period
        worker columns shrink as well as grow."""
        workload = get_scenario("churn_city").bundle(scale=0.05, seed=7)
        plain = ShardedEngine(workload, num_shards=2, halo=1, seed=5).run(
            create_strategy("BaseP", base_price=2.0)
        )
        assert _totals(plain.metrics) == ("2844.2688493919736", 38, 80, 101)


class TestOneRunPath:
    @pytest.mark.parametrize(
        "option", ["columnar", "warm_shards", "warm_start", "dynamic"]
    )
    def test_constructor_has_no_path_switch(self, option, tiny_workload):
        with pytest.raises(TypeError, match=option):
            ShardedEngine(tiny_workload, num_shards=2, **{option: True})
