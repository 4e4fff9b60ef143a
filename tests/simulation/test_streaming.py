"""Tests for the event-driven streaming dispatch engine.

The headline guarantee: a stream binned at the batch period length
reproduces the batch engine's revenue / served / accepted metrics
*bit-identically* for fixed seeds, across all five pricing strategies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.market.entities import Task, Worker
from repro.pricing.registry import PAPER_STRATEGIES, create_strategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import (
    ArrivalStream,
    StreamingEngine,
    TaskArrival,
    WorkerArrival,
    stream_to_workload,
    workload_to_stream,
)
from repro.spatial.geometry import Point


def _strategy(name, calibration, price_bounds):
    return create_strategy(
        name,
        base_price=calibration.base_price,
        p_min=price_bounds[0],
        p_max=price_bounds[1],
        calibration=calibration if name == "MAPS" else None,
    )


def _assert_metrics_identical(batch_result, stream_result):
    batch, stream = batch_result.metrics, stream_result.metrics
    assert stream.total_revenue == batch.total_revenue
    assert stream.served_tasks == batch.served_tasks
    assert stream.accepted_tasks == batch.accepted_tasks
    assert stream.total_tasks == batch.total_tasks
    assert stream.revenue_by_period == batch.revenue_by_period


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", PAPER_STRATEGIES)
    def test_binned_stream_reproduces_batch_bit_identically(
        self, name, tiny_workload, tiny_engine, tiny_calibration
    ):
        stream_engine = StreamingEngine(
            workload_to_stream(tiny_workload), seed=3, window=1.0
        )
        batch = tiny_engine.run(
            _strategy(name, tiny_calibration, tiny_workload.price_bounds)
        )
        stream = stream_engine.run(
            _strategy(name, tiny_calibration, tiny_workload.price_bounds)
        )
        _assert_metrics_identical(batch, stream)

    def test_equivalence_with_expiring_workers(self):
        """Worker-duration expiry follows the batch engine exactly."""
        workload = get_scenario("beijing_night").bundle(scale=0.005, seed=9)
        engine = SimulationEngine(workload, seed=2)
        calibration = engine.calibrate_base_price()
        stream_engine = StreamingEngine(workload_to_stream(workload), seed=2)
        for name in ("MAPS", "BaseP"):
            batch = engine.run(_strategy(name, calibration, workload.price_bounds))
            stream = stream_engine.run(
                _strategy(name, calibration, workload.price_bounds)
            )
            _assert_metrics_identical(batch, stream)


class TestWindows:
    @pytest.mark.parametrize("window", [0.0, float("inf"), float("nan")])
    def test_window_must_be_positive(self, window, tiny_workload):
        """An infinite window puts every window start at ``0 * inf``
        (NaN) and drops every worker; a NaN one fails only mid-run."""
        with pytest.raises(ValueError, match="window"):
            StreamingEngine(workload_to_stream(tiny_workload), window=window)

    @pytest.mark.parametrize("window", [0.5, 2.0, 5.0])
    def test_non_unit_windows_dispatch_every_task(
        self, window, tiny_workload, tiny_calibration
    ):
        engine = StreamingEngine(
            workload_to_stream(tiny_workload), seed=3, window=window, keep_details=True
        )
        result = engine.run(
            _strategy("BaseP", tiny_calibration, tiny_workload.price_bounds)
        )
        assert result.metrics.total_tasks == tiny_workload.total_tasks
        assert result.metrics.total_revenue > 0
        assert 0 < result.metrics.served_tasks <= result.metrics.accepted_tasks
        # Window indices are strictly increasing and consistent with the
        # window length.
        indices = [outcome.period for outcome in result.outcomes]
        assert indices == sorted(set(indices))
        assert max(indices) <= tiny_workload.num_periods / window

    def test_coarser_windows_pool_more_arrivals(self, tiny_workload, tiny_calibration):
        def max_window_tasks(window):
            engine = StreamingEngine(
                workload_to_stream(tiny_workload),
                seed=3,
                window=window,
                keep_details=True,
            )
            result = engine.run(
                _strategy("BaseP", tiny_calibration, tiny_workload.price_bounds)
            )
            return max(outcome.num_tasks for outcome in result.outcomes)

        assert max_window_tasks(4.0) > max_window_tasks(1.0)

    def test_out_of_order_events_rejected(self, tiny_workload):
        events = [
            WorkerArrival(
                time=2.0,
                worker=Worker(worker_id=1, period=2, location=Point(1, 1), radius=5.0),
            ),
            TaskArrival(
                time=1.0,
                task=Task(
                    task_id=1,
                    period=1,
                    origin=Point(1, 1),
                    destination=Point(2, 2),
                    valuation=2.0,
                    grid_index=1,
                ),
            ),
        ]
        stream = ArrivalStream(
            grid=tiny_workload.grid, acceptance=tiny_workload.acceptance, events=events
        )
        engine = StreamingEngine(stream, seed=0)
        with pytest.raises(ValueError, match="not time-ordered"):
            engine.run(create_strategy("BaseP", base_price=2.0))

    def test_negative_times_rejected(self, tiny_workload):
        events = [
            TaskArrival(
                time=-0.5,
                task=Task(task_id=1, period=0, origin=Point(1, 1), destination=Point(2, 2), valuation=2.0, grid_index=1),
            )
        ]
        stream = ArrivalStream(
            grid=tiny_workload.grid, acceptance=tiny_workload.acceptance, events=events
        )
        with pytest.raises(ValueError, match="non-negative"):
            StreamingEngine(stream, seed=0).run(create_strategy("BaseP", base_price=2.0))

    def test_run_many_reuses_factory_backed_streams(
        self, tiny_workload, tiny_calibration
    ):
        engine = StreamingEngine(workload_to_stream(tiny_workload), seed=3)
        first = engine.run(
            _strategy("BaseP", tiny_calibration, tiny_workload.price_bounds)
        )
        second = engine.run(
            _strategy("BaseP", tiny_calibration, tiny_workload.price_bounds)
        )
        _assert_metrics_identical(first, second)


class TestConverters:
    def test_round_trip_preserves_period_lists(self, tiny_workload):
        rebuilt = stream_to_workload(workload_to_stream(tiny_workload))
        assert rebuilt.num_periods == tiny_workload.num_periods
        assert rebuilt.tasks_by_period == tiny_workload.tasks_by_period
        assert rebuilt.workers_by_period == tiny_workload.workers_by_period
        assert rebuilt.price_bounds == tiny_workload.price_bounds
        assert rebuilt.metric == tiny_workload.metric

    def test_stream_events_are_time_ordered_and_complete(self, tiny_workload):
        stream = workload_to_stream(tiny_workload)
        events = list(stream.iter_events())
        times = [event.time for event in events]
        assert times == sorted(times)
        assert sum(isinstance(e, TaskArrival) for e in events) == tiny_workload.total_tasks
        assert (
            sum(isinstance(e, WorkerArrival) for e in events)
            == tiny_workload.total_workers
        )
        # The factory-backed stream is re-iterable.
        assert len(list(stream.iter_events())) == len(events)

    def test_binning_relabels_periods(self, tiny_workload):
        task = Task(
            task_id=99,
            period=0,
            origin=Point(1, 1),
            destination=Point(2, 2),
            valuation=2.0,
            grid_index=1,
        )
        stream = ArrivalStream(
            grid=tiny_workload.grid,
            acceptance=tiny_workload.acceptance,
            events=[TaskArrival(time=3.5, task=task)],
            horizon=6.0,
        )
        bundle = stream_to_workload(stream)
        assert bundle.num_periods == 6  # horizon padding
        assert bundle.tasks_by_period[3][0].task_id == 99
        assert bundle.tasks_by_period[3][0].period == 3

    def test_empty_stream_without_horizon_rejected(self, tiny_workload):
        stream = ArrivalStream(
            grid=tiny_workload.grid, acceptance=tiny_workload.acceptance, events=[]
        )
        with pytest.raises(ValueError):
            stream_to_workload(stream)

    def test_binning_rescales_worker_duration(self, tiny_workload):
        """A worker's duration counts the bins whose start it is available
        at, the rule the window engine dispatches by."""
        worker = Worker(
            worker_id=7, period=5, location=Point(1, 1), radius=5.0, duration=4
        )
        stream = ArrivalStream(
            grid=tiny_workload.grid,
            acceptance=tiny_workload.acceptance,
            events=[WorkerArrival(time=5.5, worker=worker)],
            horizon=12.0,
        )
        binned = stream_to_workload(stream, period_length=2.0)
        rebinned = binned.workers_by_period[2][0]
        assert rebinned.period == 2
        # Available until 5 + 4 = 9: bins 2, 3 and 4 start at 4, 6 and 8.
        assert rebinned.duration == 3
        # Default unit period length keeps durations untouched.
        unit = stream_to_workload(stream, period_length=1.0)
        assert unit.workers_by_period[5][0].duration == 4

    def test_binning_drops_a_worker_gone_by_its_bin_start(self, tiny_workload):
        """A worker whose availability ends by the start of the window it
        arrives in is in no pool: the bundle drops it."""
        gone = Worker(
            worker_id=7, period=0, location=Point(1, 1), radius=5.0, duration=2
        )
        stays = Worker(
            worker_id=8, period=2, location=Point(1, 1), radius=5.0, duration=1
        )
        stream = ArrivalStream(
            grid=tiny_workload.grid,
            acceptance=tiny_workload.acceptance,
            events=[
                WorkerArrival(time=2.5, worker=gone),  # gone at 2.0
                WorkerArrival(time=2.6, worker=stays),
            ],
        )
        for length in (1.0, 2.0):
            binned = stream_to_workload(stream, period_length=length)
            assert [w.worker_id for w in binned.workers_by_period[-1]] == [8]
            assert binned.workers_by_period[-1][0].duration == 1


#: scenario -> (scenario parameters, seed) of the binning-fork streams.
FORK_STREAMS = {
    "churn_city": ({"scale": 0.3, "num_periods": 20}, 0),
    "beijing_night": ({"scale": 0.005}, 9),
}


@pytest.fixture(scope="module", params=sorted(FORK_STREAMS))
def fork_stream(request):
    params, seed = FORK_STREAMS[request.param]
    scenario = get_scenario(request.param)
    if request.param == "churn_city":
        stream = scenario.stream(seed=seed, **params)
    else:
        stream = workload_to_stream(scenario.bundle(seed=seed, **params))
    stream = replace(stream, events=list(stream.iter_events()))
    return stream, StreamingEngine(stream, seed=seed).calibrate_base_price()


class TestOneBinningRule:
    """The window engine is the batch engine over the binned stream.

    Worker expiry used to fork: the window engine checked availability at
    each window start, while binning rounded durations up to
    ``ceil(duration / length)`` bins.  At non-unit windows the two served
    different task counts.
    """

    @pytest.mark.parametrize("window", [0.3, 2.0, 3.7])
    @pytest.mark.parametrize("name", PAPER_STRATEGIES)
    def test_window_engine_equals_batch_engine_over_the_bins(
        self, fork_stream, name, window
    ):
        stream, calibration = fork_stream
        streamed = StreamingEngine(stream, seed=4, window=window).run(
            _strategy(name, calibration, stream.price_bounds)
        )
        batch = SimulationEngine(stream_to_workload(stream, window), seed=4).run(
            _strategy(name, calibration, stream.price_bounds)
        )
        _assert_metrics_identical(batch, streamed)
