"""Tests for the vectorised period pipeline.

Two properties anchor the refactor:

* the vectorised ``decide`` stage reproduces the seed engine's per-task
  acceptance decisions *bit-for-bit* for fixed seeds (including tasks
  without private valuations, whose decisions consume the RNG stream);
* the full pipeline engine produces identical revenue / served / accepted
  metrics to the preserved seed implementation across all shipped
  strategies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.gdp import PeriodInstance
from repro.pricing.base_price import BasePriceStrategy
from repro.pricing.registry import PAPER_STRATEGIES, create_strategy
from repro.pricing.strategy import PriceFeedbackBatch, PricingStrategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.legacy import (
    reference_decide,
    reference_set_served,
    reference_task_weighted_matching,
    run_reference,
)
from repro.simulation.pipeline import PeriodPipeline
from repro.utils.rng import derive_seed


def _pipeline_for(workload) -> PeriodPipeline:
    return PeriodPipeline(
        price_bounds=workload.price_bounds, acceptance=workload.acceptance
    )


def _instances(workload, strip_valuations_every=None):
    """Build the per-period instances, optionally dropping some valuations.

    Dropping a task's valuation routes its accept/reject decision through
    the external acceptance model and hence through the RNG stream, which
    is the interesting path for the bit-for-bit equivalence test.
    """
    for period, tasks in enumerate(workload.tasks_by_period):
        if not tasks:
            continue
        if strip_valuations_every:
            tasks = [
                replace(task, valuation=None)
                if index % strip_valuations_every == 0
                else task
                for index, task in enumerate(tasks)
            ]
        yield PeriodInstance.build(
            period=period,
            grid=workload.grid,
            tasks=tasks,
            workers=workload.workers_by_period[period],
            metric=workload.metric,
        )


class TestDecideStage:
    def test_bitwise_equal_to_seed_loop_with_valuations(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        p_min, p_max = tiny_workload.price_bounds
        rng_new = np.random.default_rng(11)
        rng_ref = np.random.default_rng(11)
        for instance in _instances(tiny_workload):
            grid_prices = {g: 2.0 for g in instance.grid_indices_with_tasks()}
            decision = pipeline.decide(instance, grid_prices, rng_new)
            prices_ref, accepted_ref, _ = reference_decide(
                instance, grid_prices, p_min, p_max, tiny_workload.acceptance, rng_ref
            )
            assert decision.prices.tolist() == prices_ref
            assert np.flatnonzero(decision.accepted).tolist() == accepted_ref

    def test_bitwise_equal_with_rng_driven_tasks(self, tiny_workload):
        """Valuation-less tasks consume the shared RNG stream identically.

        The same generator is threaded through every period on both paths;
        any draw-count or draw-order mismatch would desynchronise the
        streams and fail on a later period.
        """
        pipeline = _pipeline_for(tiny_workload)
        p_min, p_max = tiny_workload.price_bounds
        rng_new = np.random.default_rng(derive_seed(7, "acceptance", "test"))
        rng_ref = np.random.default_rng(derive_seed(7, "acceptance", "test"))
        saw_missing = False
        for instance in _instances(tiny_workload, strip_valuations_every=3):
            saw_missing = saw_missing or any(
                task.valuation is None for task in instance.tasks
            )
            grid_prices = {g: 1.75 for g in instance.grid_indices_with_tasks()}
            decision = pipeline.decide(instance, grid_prices, rng_new)
            prices_ref, accepted_ref, _ = reference_decide(
                instance, grid_prices, p_min, p_max, tiny_workload.acceptance, rng_ref
            )
            assert decision.prices.tolist() == prices_ref
            assert np.flatnonzero(decision.accepted).tolist() == accepted_ref
        assert saw_missing
        # Both generators must end in the same state.
        assert rng_new.random() == rng_ref.random()

    def test_nan_valuations_reject_without_consuming_rng(self, tiny_workload):
        """An explicit NaN valuation means "rejects every price" (as in
        the scalar engine) and must not be routed through the acceptance
        model's RNG draws like a missing valuation."""
        pipeline = _pipeline_for(tiny_workload)
        p_min, p_max = tiny_workload.price_bounds
        tasks = [
            replace(task, valuation=float("nan"))
            if index % 4 == 0
            else (replace(task, valuation=None) if index % 4 == 1 else task)
            for index, task in enumerate(tiny_workload.tasks_by_period[0])
        ]
        instance = PeriodInstance.build(
            period=0,
            grid=tiny_workload.grid,
            tasks=tasks,
            workers=tiny_workload.workers_by_period[0],
        )
        grid_prices = {g: 2.0 for g in instance.grid_indices_with_tasks()}
        rng_new = np.random.default_rng(9)
        rng_ref = np.random.default_rng(9)
        decision = pipeline.decide(instance, grid_prices, rng_new)
        prices_ref, accepted_ref, _ = reference_decide(
            instance, grid_prices, p_min, p_max, tiny_workload.acceptance, rng_ref
        )
        assert decision.prices.tolist() == prices_ref
        assert np.flatnonzero(decision.accepted).tolist() == accepted_ref
        # NaN-valuation tasks were rejected and drew nothing from the RNG.
        nan_positions = [i for i, t in enumerate(tasks) if t.valuation is not None
                         and np.isnan(t.valuation)]
        assert nan_positions and not decision.accepted[nan_positions].any()
        assert rng_new.random() == rng_ref.random()

    def test_unpriced_grids_default_to_p_min(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        p_min, _ = tiny_workload.price_bounds
        instance = next(_instances(tiny_workload))
        decision = pipeline.decide(instance, {}, np.random.default_rng(0))
        assert decision.prices.tolist() == [p_min] * instance.num_tasks

    def test_prices_clamped_to_bounds(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        p_min, p_max = tiny_workload.price_bounds
        instance = next(_instances(tiny_workload))
        grid_prices = {g: 999.0 for g in instance.grid_indices_with_tasks()}
        decision = pipeline.decide(instance, grid_prices, np.random.default_rng(0))
        assert decision.prices.tolist() == [p_max] * instance.num_tasks


class TestFeedbackStage:
    def test_batch_matches_reference_feedback(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        p_min, p_max = tiny_workload.price_bounds
        rng = np.random.default_rng(5)
        instance = next(_instances(tiny_workload))
        grid_prices = {g: 2.0 for g in instance.grid_indices_with_tasks()}
        decision = pipeline.decide(instance, grid_prices, rng)
        matching, _ = pipeline.match(instance, decision)
        batch = pipeline.feedback(instance, decision, matching)

        _, _, feedback_ref = reference_decide(
            instance,
            grid_prices,
            p_min,
            p_max,
            tiny_workload.acceptance,
            np.random.default_rng(5),
        )
        feedback_ref = reference_set_served(feedback_ref, matching)
        assert batch.to_feedback_list() == feedback_ref

    def test_batch_roundtrip(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        instance = next(_instances(tiny_workload))
        grid_prices = {g: 2.0 for g in instance.grid_indices_with_tasks()}
        decision = pipeline.decide(instance, grid_prices, np.random.default_rng(5))
        matching, _ = pipeline.match(instance, decision)
        batch = pipeline.feedback(instance, decision, matching)
        rebuilt = PriceFeedbackBatch.from_feedback(batch.to_feedback_list())
        assert rebuilt.to_feedback_list() == batch.to_feedback_list()

    def test_subclass_observe_feedback_override_still_honoured(self):
        """Subclassing a learning strategy and overriding the per-item
        hook (the pre-refactor extension point) must keep working when
        the engine delivers batches."""
        from repro.pricing.maps_strategy import MAPSStrategy
        from repro.pricing.strategy import PriceFeedback

        class FilteringMAPS(MAPSStrategy):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.seen = 0

            def observe_feedback(self, feedback):
                self.seen += len(feedback)
                super().observe_feedback(feedback)

        strategy = FilteringMAPS(base_price=2.0)
        batch = PriceFeedbackBatch.from_feedback(
            [
                PriceFeedback(
                    period=0, grid_index=1, price=2.0, accepted=True, distance=1.0
                )
            ]
        )
        strategy.observe_feedback_batch(batch)
        assert strategy.seen == 1
        assert strategy.estimator_for_grid(1).total_offers == 1

        # The smoothing wrapper honours the same extension point.
        from repro.pricing.smoothing import PriceCap, SmoothedStrategy

        class FilteringSmoothed(SmoothedStrategy):
            def __init__(self, inner, processors):
                super().__init__(inner, processors)
                self.seen = 0

            def observe_feedback(self, feedback):
                self.seen += len(feedback)
                super().observe_feedback(feedback)

        wrapped = FilteringSmoothed(MAPSStrategy(base_price=2.0), [PriceCap(5.0)])
        wrapped.observe_feedback_batch(batch)
        assert wrapped.seen == 1
        assert wrapped.inner.estimator_for_grid(1).total_offers == 1

    def test_default_batch_observer_skips_nonlearning_strategies(self):
        class Counting(PricingStrategy):
            name = "Counting"
            calls = 0

            def price_period(self, instance):
                return {}

            def observe_feedback(self, feedback):
                type(self).calls += 1

        batch = PriceFeedbackBatch.from_feedback([])
        # BaseP never overrides observe_feedback: no list is materialised.
        BasePriceStrategy(base_price=2.0).observe_feedback_batch(batch)
        # An overriding strategy still receives the per-item list.
        strategy = Counting()
        strategy.observe_feedback_batch(batch)
        assert Counting.calls == 1


class TestMatchStage:
    def test_match_equals_reference_matcher(self, tiny_workload):
        pipeline = _pipeline_for(tiny_workload)
        rng = np.random.default_rng(2)
        for instance in _instances(tiny_workload):
            grid_prices = {g: 2.0 for g in instance.grid_indices_with_tasks()}
            decision = pipeline.decide(instance, grid_prices, rng)
            matching, revenue = pipeline.match(instance, decision)
            weights = [
                task.distance * price
                for task, price in zip(instance.tasks, decision.prices.tolist())
            ]
            ref_matching, ref_revenue = reference_task_weighted_matching(
                instance.graph,
                weights,
                allowed_tasks=np.flatnonzero(decision.accepted).tolist(),
            )
            assert matching == ref_matching
            assert revenue == ref_revenue


class TestDeferredPeriodGraph:
    """The batch loop builds each period's graph once, through the builder
    the benchmark traces, and only over the rows it needs."""

    @staticmethod
    def _spy_builds(monkeypatch):
        from repro.matching import bipartite

        built = []
        original = bipartite.build_graph_from_arrays

        def spy(*args, **kwargs):
            graph = original(*args, **kwargs)
            built.append(graph.num_tasks)
            return graph

        monkeypatch.setattr(bipartite, "build_graph_from_arrays", spy)
        return built

    @staticmethod
    def _periods_with_tasks(workload):
        return sum(1 for tasks in workload.tasks_by_period if tasks)

    def test_maps_builds_one_full_graph_per_period(
        self, tiny_workload, tiny_calibration, monkeypatch
    ):
        """MAPS's planner reads the graph while quoting; the match stage
        reuses that graph instead of building the accepted rows again."""
        from repro.pricing.registry import calibrated_kwargs

        built = self._spy_builds(monkeypatch)
        low, high = tiny_workload.price_bounds
        strategy = create_strategy(
            "MAPS", **calibrated_kwargs("MAPS", tiny_calibration, p_min=low, p_max=high)
        )
        result = SimulationEngine(tiny_workload, seed=3).run(strategy)
        assert len(built) == self._periods_with_tasks(tiny_workload)
        assert sum(built) == result.metrics.total_tasks

    def test_basep_builds_only_the_accepted_rows(self, tiny_workload, monkeypatch):
        built = self._spy_builds(monkeypatch)
        result = SimulationEngine(tiny_workload, seed=3).run(
            create_strategy("BaseP", base_price=2.0)
        )
        assert len(built) == self._periods_with_tasks(tiny_workload)
        assert sum(built) == result.metrics.accepted_tasks < result.metrics.total_tasks


class TestEngineRegression:
    @pytest.mark.parametrize("strategy_name", PAPER_STRATEGIES)
    def test_pipeline_engine_identical_to_seed_engine(
        self, tiny_workload, tiny_calibration, strategy_name
    ):
        """Acceptance criterion: identical metrics across all strategies."""
        p_min, p_max = tiny_workload.price_bounds
        kwargs = dict(
            base_price=tiny_calibration.base_price,
            p_min=p_min,
            p_max=p_max,
            calibration=tiny_calibration if strategy_name == "MAPS" else None,
        )
        engine = SimulationEngine(tiny_workload, seed=3)
        result_new = engine.run(create_strategy(strategy_name, **kwargs))
        result_ref = run_reference(
            tiny_workload, create_strategy(strategy_name, **kwargs), seed=3
        )
        assert result_new.metrics.total_revenue == result_ref.metrics.total_revenue
        assert result_new.metrics.served_tasks == result_ref.metrics.served_tasks
        assert result_new.metrics.accepted_tasks == result_ref.metrics.accepted_tasks
        assert result_new.metrics.total_tasks == result_ref.metrics.total_tasks
        assert (
            result_new.metrics.revenue_by_period == result_ref.metrics.revenue_by_period
        )

    def test_empty_periods_recorded_and_workers_pruned(self, tiny_workload):
        """A task-less period still prunes expired workers and, with
        ``keep_details``, records an empty outcome."""
        from dataclasses import replace as dc_replace

        # Insert an artificial empty period in the middle of the horizon,
        # preceded by a worker whose availability expires during it.
        workload = dc_replace(
            tiny_workload,
            tasks_by_period=[list(tasks) for tasks in tiny_workload.tasks_by_period],
            workers_by_period=[
                list(workers) for workers in tiny_workload.workers_by_period
            ],
        )
        middle = len(workload.tasks_by_period) // 2
        moved = workload.tasks_by_period[middle]
        workload.tasks_by_period[middle] = []
        # Keep task period labels consistent by dropping the moved tasks.
        del moved

        engine = SimulationEngine(workload, seed=1, keep_details=True)
        result = engine.run(BasePriceStrategy(base_price=2.0))
        assert len(result.outcomes) == workload.num_periods
        empty = result.outcomes[middle]
        assert empty.num_tasks == 0
        assert empty.prices == {}
        assert empty.revenue == 0.0
        assert empty.accepted_tasks == 0 and empty.served_tasks == 0
