"""Event-at-a-time dispatch: DispatchSession / EventStreamingEngine.

The tentpole guarantee of the service work: replaying a stream one event
at a time through :class:`DispatchSession` — the settle → quote → decide
→ insert core the socket service runs — produces the *identical* result
to the window-batched :class:`DynamicStreamingEngine` at ``window=1.0``:
``repr``-identical settled revenue and identical commit pairs.  Plus the
two streaming-engine bugfix satellites: the pinned window-mode worker
expiry (checked at window starts), and demand-cell calibration metadata.
"""

from __future__ import annotations

import pytest

from repro.market.entities import Task, Worker
from repro.matching.incremental import DynamicMatcher
from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.simulation.engine import SimulationEngine
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import (
    ArrivalStream,
    DispatchSession,
    DynamicStreamingEngine,
    EventStreamingEngine,
    StreamingEngine,
    TaskArrival,
    WorkerArrival,
    _LiveSessionMatcher,
    build_universe,
    resolve_demand_grids,
    workload_to_stream,
)
from repro.spatial.geometry import Point

SCENARIO = "churn_city"
SCALE = 0.05
SEED = 3
PARAMS = {"num_periods": 12}


def _stream():
    return get_scenario(SCENARIO).stream(scale=SCALE, seed=SEED, **PARAMS)


def _strategy(name, stream):
    calibration = StreamingEngine(stream, seed=SEED).calibrate_base_price()
    return create_strategy(name, **calibrated_kwargs(name, calibration))


class TestEventEngineEquivalence:
    def test_replays_are_bitwise_deterministic(self):
        """Two replays of the same stream are identical bit for bit —
        the property the service's offline differential gate stands on
        (``tests/service/test_server.py`` closes the loop over a real
        socket against this engine)."""
        stream = _stream()
        sessions = []
        for _ in range(2):
            engine = EventStreamingEngine(stream, seed=SEED)
            engine.run(_strategy("BaseP", stream))
            sessions.append(engine.last_session)
        first, second = sessions
        assert repr(first.revenue) == repr(second.revenue)
        assert first.commit_log == second.commit_log
        assert first.quoted == second.quoted
        assert first.accepted == second.accepted

    def test_agrees_with_windowed_engine_absent_mid_window_interference(self):
        """On a stream where no expiry or deadline interleaves a window's
        arrivals, event-at-a-time and delta-windowed dispatch settle the
        identical commits for identical revenue — the two paths implement
        the same settlement rule (global time order, ties deadline-first)."""
        stream = _stream()
        windowed = DynamicStreamingEngine(
            stream, seed=SEED, window=1.0, resolve="delta"
        ).run(_strategy("BaseP", stream))
        engine = EventStreamingEngine(stream, seed=SEED)
        evented = engine.run(_strategy("BaseP", stream))
        assert repr(evented.metrics.total_revenue) == repr(
            windowed.metrics.total_revenue
        )
        assert evented.metrics.served_tasks == windowed.metrics.served_tasks
        assert evented.metrics.accepted_tasks == windowed.metrics.accepted_tasks

    def test_event_time_semantics_diverge_from_window_batching(self, tiny_workload):
        """Mid-window worker expiry, seen from the engines, on a hand-built
        stream: a worker arrives at 0.6 and expires at 1.0, inside the
        window ``[0, 2)``; a task arrives at 0.1 and its deadline passes
        at 0.4.
        The window engine checks availability at the window start, where
        the worker is live, so the task is matched and commits at its
        deadline.  Quoting at event time settles that deadline before the
        worker arrives, so the task expires unserved — the window mode's
        start-of-window availability check is the documented
        approximation."""
        worker = Worker(
            worker_id=1, period=0, location=Point(1, 1), radius=50.0, duration=1
        )
        task = Task(
            task_id=7,
            period=0,
            origin=Point(1, 1),
            destination=Point(2, 2),
            valuation=100.0,
            grid_index=1,
        )
        stream = _manual_stream(
            tiny_workload,
            [
                TaskArrival(time=0.1, task=task),
                WorkerArrival(time=0.6, worker=worker),
            ],
        )

        def strategy():
            return create_strategy("BaseP", base_price=2.0)

        windowed = DynamicStreamingEngine(
            stream, seed=0, window=2.0, task_lifetime=0.3, resolve="delta"
        ).run(strategy())
        engine = EventStreamingEngine(stream, seed=0, task_lifetime=0.3)
        evented = engine.run(strategy())
        assert evented.metrics.total_tasks == windowed.metrics.total_tasks
        assert (
            evented.metrics.served_tasks != windowed.metrics.served_tasks
            or repr(evented.metrics.total_revenue)
            != repr(windowed.metrics.total_revenue)
        )
        assert (windowed.metrics.served_tasks, evented.metrics.served_tasks) == (1, 0)
        assert engine.last_session.expired == 1

    def test_session_counters_reconcile(self):
        stream = _stream()
        engine = EventStreamingEngine(stream, seed=SEED)
        result = engine.run(_strategy("BaseP", stream))
        session = engine.last_session
        assert session.quoted == result.metrics.total_tasks
        assert session.accepted == result.metrics.accepted_tasks
        assert session.committed + session.expired == session.accepted
        assert len(session.commit_log) == session.committed
        assert repr(session.revenue) == repr(result.metrics.total_revenue)

    def test_maps_cannot_quote_event_at_a_time(self):
        stream = _stream()
        calibration = StreamingEngine(stream, seed=SEED).calibrate_base_price()
        maps = create_strategy("MAPS", **calibrated_kwargs("MAPS", calibration))
        # The refusal sits where a single event is quoted: a session may
        # hold MAPS (its window entry point quotes batches), but
        # on_task refuses it before touching any state.
        session = DispatchSession(stream, maps, seed=SEED)
        with pytest.raises(ValueError, match="MAPS"):
            session.on_task(0)
        assert (session.clock, session.quoted, session.live_weights) == (0.0, 0, {})
        with pytest.raises(ValueError, match="MAPS"):
            EventStreamingEngine(stream, seed=SEED).run(maps)

    @pytest.mark.parametrize("lifetime", [0.0, float("nan"), float("inf")])
    def test_task_lifetime_must_be_positive(self, lifetime):
        stream = _stream()
        with pytest.raises(ValueError, match="task_lifetime"):
            DispatchSession(stream, _strategy("BaseP", stream), task_lifetime=lifetime)

    @pytest.mark.parametrize("lifetime", [float("nan"), float("inf")])
    def test_engine_task_lifetime_must_be_finite(self, lifetime):
        with pytest.raises(ValueError, match="task_lifetime"):
            EventStreamingEngine(_stream(), seed=SEED, task_lifetime=lifetime)

    def test_ratio_strategies_quote_the_window_zero_limit(self, tiny_workload):
        """Supply/demand-ratio pricing quotes each event as a singleton
        instance — no window batch to count demand or supply from, which
        is exactly the ``window -> 0`` limit of the batched semantics:
        a lone task with no same-instant worker arrivals prices at the
        scarcity clamp ``p_max``.  Documented in ``docs/service.md``."""
        tasks = [
            Task(
                task_id=i,
                period=0,
                origin=Point(1, 1),
                destination=Point(2, 2),
                valuation=100.0,  # always accepted
                grid_index=1,
            )
            for i in (1, 2)
        ]
        stream = _manual_stream(
            tiny_workload,
            [TaskArrival(time=0.1, task=tasks[0]), TaskArrival(time=0.2, task=tasks[1])],
        )
        strategy = create_strategy("SDR", base_price=2.0)
        session = DispatchSession(stream, strategy, seed=0)
        first, _ = session.on_task(0, 0.1)
        second, _ = session.on_task(1, 0.2)
        assert first.accepted and second.accepted
        assert first.price == second.price == strategy.p_max


def _manual_stream(tiny_workload, events):
    return ArrivalStream(
        grid=tiny_workload.grid,
        acceptance=tiny_workload.acceptance,
        events=events,
    )


class TestEventTimeValidation:
    """A non-finite or backwards event time is refused before it touches
    the session: ``x > nan`` is always False, so a NaN bound would settle
    every pending deadline and departure before anything else noticed."""

    @staticmethod
    def _half_replayed():
        """A session halfway through the stream, with live state."""
        from repro.simulation.streaming import _validated_events

        stream = _stream()
        session = DispatchSession(stream, _strategy("BaseP", stream), seed=SEED)
        events = list(_validated_events(stream))
        next_task = next_worker = 0
        for event in events[: len(events) // 2]:
            if isinstance(event, TaskArrival):
                session.on_task(next_task, float(event.time))
                next_task += 1
            else:
                session.on_worker(next_worker, float(event.time))
                next_worker += 1
        assert session.live_weights and session.live_workers
        return session, next_task, next_worker

    @staticmethod
    def _state(session):
        return (
            session.clock,
            dict(session.live_weights),
            set(session.live_workers),
            list(session._deadlines),
            list(session._departures),
            session.revenue,
            session.quoted,
            session.committed,
            session.expired,
            session.departed,
        )

    @pytest.mark.parametrize("kind", ["task", "worker", "depart"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "backwards"])
    def test_bad_time_is_refused_before_any_state_change(self, kind, bad):
        session, next_task, next_worker = self._half_replayed()
        time = {
            "nan": float("nan"),
            "inf": float("inf"),
            "backwards": session.clock - 0.5,
        }[bad]
        before = self._state(session)
        with pytest.raises(ValueError, match="time"):
            if kind == "task":
                session.on_task(next_task, time)
            elif kind == "worker":
                session.on_worker(next_worker, time)
            else:
                session.depart_worker(min(session.live_workers), time)
        assert self._state(session) == before


class TestRepeatedPositions:
    """A position already live, or repeated in one call, is refused.

    A second live copy of a worker used to leave the live plane two
    slots for one position: the phantom served a second task, and the
    next settlement died with ``KeyError`` after its plane removals had
    run.  The capped matcher raised, but only after the join had pushed
    a departure or the quote had drawn the decide RNG.  Every entry
    point now refuses before any state change, under both matchers.
    """

    @staticmethod
    def _half_replayed(max_degree):
        from repro.simulation.streaming import _validated_events

        stream = get_scenario("hotspot_burst").stream(scale=0.02, seed=0)
        calibration = StreamingEngine(stream, seed=0).calibrate_base_price()
        strategy = create_strategy("BaseP", **calibrated_kwargs("BaseP", calibration))
        session = DispatchSession(stream, strategy, max_degree=max_degree)
        events = list(_validated_events(stream))
        next_task = next_worker = 0
        for event in events[: len(events) // 2]:
            if isinstance(event, TaskArrival):
                session.on_task(next_task, float(event.time))
                next_task += 1
            else:
                session.on_worker(next_worker, float(event.time))
                next_worker += 1
        assert session.live_weights and session.live_workers
        return session, next_task, next_worker

    @staticmethod
    def _state(session):
        matcher = session.matcher
        workers = range(len(session.universe.workers))
        tasks = range(len(session.universe.tasks))
        if isinstance(matcher, _LiveSessionMatcher):
            population = (
                matcher.plane.num_live_workers,
                matcher.plane.num_live_tasks,
                matcher.lazy.num_workers,
                matcher.lazy.num_tasks,
            )
        else:
            population = (tuple(matcher.live_workers()), tuple(matcher.live_tasks()))
        return (
            TestEventTimeValidation._state(session),
            session.accepted,
            session.degraded,
            list(session.commit_log),
            session.rng.bit_generator.state,
            population,
            [matcher.task_of(pos) for pos in workers],
            [matcher.is_task_matched(pos) for pos in tasks],
            repr(matcher.total_weight()),
        )

    @pytest.mark.parametrize("max_degree", [None, 2])
    @pytest.mark.parametrize(
        "call",
        [
            "on_worker_live",
            "on_task_live",
            "window_task_live",
            "window_task_repeated",
            "window_worker_live",
            "window_worker_repeated",
        ],
    )
    def test_refused_before_any_state_change(self, call, max_degree):
        session, next_task, next_worker = self._half_replayed(max_degree)
        live_task = min(session.live_weights)
        live_worker = min(session.live_workers)
        at = session.clock
        period = int(at)
        before = self._state(session)
        with pytest.raises(ValueError, match="already live or repeated"):
            if call == "on_worker_live":
                session.on_worker(live_worker, at)
            elif call == "on_task_live":
                session.on_task(live_task, at)
            elif call == "window_task_live":
                session.on_window(period, at, [next_task, live_task], [])
            elif call == "window_task_repeated":
                session.on_window(period, at, [next_task, next_task], [])
            elif call == "window_worker_live":
                session.on_window(period, at, [], [next_worker, live_worker])
            else:
                session.on_window(period, at, [], [next_worker, next_worker])
        assert self._state(session) == before

    @pytest.mark.parametrize("max_degree", [None, 2])
    def test_a_refused_join_leaves_the_session_usable(self, max_degree):
        session, next_task, next_worker = self._half_replayed(max_degree)
        with pytest.raises(ValueError):
            session.on_worker(min(session.live_workers), session.clock)
        session.on_window(int(session.clock), session.clock, [next_task], [next_worker])
        session.drain()
        assert session.matcher.is_valid_matching()
        assert not session.live_weights and not session.live_workers


class TestWorkerExpirySemantics:
    """Satellite 1: the window-vs-event divergence, pinned from both sides.

    The window engine (``streaming._windows_available``) evaluates
    availability once per window at its *start*, so a worker expiring
    mid-window still serves a task arriving later in that window — the
    batch approximation, kept
    deliberately (it is what makes ``window == 1.0`` bit-identical to
    the batch engine).  The event path settles the expiry before the
    quote.  One stream, both answers, both asserted.
    """

    WINDOW = 2.0

    def _expiring_worker_stream(self, tiny_workload):
        worker = Worker(
            worker_id=1,
            period=0,
            location=Point(1, 1),
            radius=50.0,
            duration=1,  # gone at t = 1.0
        )
        task = Task(
            task_id=7,
            period=1,
            origin=Point(1, 1),
            destination=Point(2, 2),
            valuation=100.0,
            grid_index=1,
        )
        return _manual_stream(
            tiny_workload,
            [
                WorkerArrival(time=0.2, worker=worker),
                TaskArrival(time=1.5, task=task),  # after the expiry
            ],
        )

    def test_window_mode_commits_through_a_mid_window_expiry(self, tiny_workload):
        stream = self._expiring_worker_stream(tiny_workload)
        engine = StreamingEngine(stream, seed=0, window=self.WINDOW)
        result = engine.run(create_strategy("BaseP", base_price=2.0))
        # Window [0, 2) sees the worker as active (check at start) even
        # though it expired at 1.0, half a period before the task.
        assert result.metrics.served_tasks == 1

    def test_event_mode_settles_the_expiry_before_the_quote(self, tiny_workload):
        stream = self._expiring_worker_stream(tiny_workload)
        engine = EventStreamingEngine(stream, seed=0)
        result = engine.run(create_strategy("BaseP", base_price=2.0))
        session = engine.last_session
        # The worker joined at 0.2 but was settled out at its 1.0
        # departure when the 1.5 quote arrived: nothing to match.
        assert result.metrics.served_tasks == 0
        assert session.departed == 1
        assert session.quoted == 1

    def test_expired_on_arrival_worker_never_joins(self, tiny_workload):
        worker = Worker(
            worker_id=1, period=0, location=Point(1, 1), radius=50.0, duration=1
        )
        stream = _manual_stream(
            tiny_workload, [WorkerArrival(time=1.5, worker=worker)]
        )
        session = DispatchSession(stream, create_strategy("BaseP", base_price=2.0))
        joined, settlements = session.on_worker(0, 1.5)
        assert joined is False
        assert settlements == []
        assert session.drain() == []


class TestDemandCellCalibration:
    """Satellite 2: scenarios export their demand-cell set; streaming
    calibration probes those cells — identical to the batch engine's
    demand scan — falling back to every cell only when absent."""

    def test_resolver_handles_absent_metadata(self, tiny_workload):
        stream = _manual_stream(tiny_workload, [])
        assert stream.demand_grids is None
        assert resolve_demand_grids(stream) is None

    def test_resolver_sorts_dedups_and_calls_factories(self, tiny_workload):
        stream = _manual_stream(tiny_workload, [])
        stream.demand_grids = [5, 1, 5, 3]
        assert resolve_demand_grids(stream) == [1, 3, 5]
        stream.demand_grids = lambda: (9, 2, 9)
        assert resolve_demand_grids(stream) == [2, 9]
        stream.demand_grids = []
        assert resolve_demand_grids(stream) is None

    @pytest.mark.parametrize("scenario_name", ["hotspot_burst", "churn_city"])
    def test_stream_scenarios_export_a_proper_subset(self, scenario_name):
        stream = get_scenario(scenario_name).stream(scale=0.05, seed=7)
        grids = resolve_demand_grids(stream)
        all_cells = sorted(cell.index for cell in stream.grid.cells())
        assert grids is not None
        assert grids == sorted(set(grids))
        assert set(grids) < set(all_cells)  # strictly fewer than the grid

    def test_streaming_calibration_is_bitwise_batch_identical(self):
        """The satellite's acceptance test: with metadata, streaming
        calibration equals the batch engine's output exactly."""
        scenario = get_scenario("hotspot_burst")
        stream = scenario.stream(scale=0.05, seed=7)
        batch = SimulationEngine(scenario.bundle(scale=0.05, seed=7), seed=7)
        streamed = StreamingEngine(stream, seed=7).calibrate_base_price()
        batched = batch.calibrate_base_price()
        assert repr(streamed.base_price) == repr(batched.base_price)
        assert streamed.grid_reserve_prices == batched.grid_reserve_prices
        assert streamed.total_probes == batched.total_probes

    def test_workload_streams_carry_the_batch_demand_scan(self, tiny_workload):
        stream = workload_to_stream(tiny_workload)
        expected = sorted(
            {
                task.grid_index
                for tasks in tiny_workload.tasks_by_period
                for task in tasks
                if task.grid_index is not None
            }
        )
        assert resolve_demand_grids(stream) == expected

    def test_explicit_grids_still_override(self, tiny_workload):
        stream = workload_to_stream(tiny_workload)
        engine = StreamingEngine(stream, seed=7)
        subset = (resolve_demand_grids(stream) or [0])[:1]
        result = engine.calibrate_base_price(grids=subset)
        assert set(result.grid_reserve_prices) == set(subset)


class TestDegradedQuoting:
    def test_degrade_flag_takes_the_greedy_path_and_stays_valid(self):
        """A degraded quote must flag itself, still price the task, and
        leave a session that settles cleanly."""
        stream = _stream()
        strategy = _strategy("BaseP", stream)
        session = DispatchSession(stream, strategy, seed=SEED)
        from repro.simulation.streaming import _validated_events

        next_task = next_worker = 0
        degraded = 0
        for event in _validated_events(stream):
            if isinstance(event, TaskArrival):
                outcome, _ = session.on_task(
                    next_task, float(event.time), degrade=True
                )
                next_task += 1
                assert outcome.price > 0.0
                if outcome.accepted:
                    degraded += 1
                    assert outcome.degraded
            else:
                session.on_worker(next_worker, float(event.time))
                next_worker += 1
        session.drain()
        assert session.degraded == degraded > 0
        assert session.committed + session.expired == session.accepted
        assert session.revenue >= 0.0


#: ``hotspot_burst`` (scale 0.05, seed 0, calibrated BaseP) replayed event
#: at a time.  The uncapped run commits 58 tasks for 5958.95529773843; a
#: cap of two workers per task binds and cuts that to the values below.
_CAPPED_PIN = ("3945.5465582461234", 38)


class TestCappedSession:
    """A degree cap selects the universe matcher; its results are pinned."""

    @staticmethod
    def _run(max_degree):
        stream = get_scenario("hotspot_burst").stream(scale=0.05, seed=0)
        engine = EventStreamingEngine(stream, seed=0, max_degree=max_degree)
        calibration = StreamingEngine(stream, seed=0).calibrate_base_price()
        engine.run(create_strategy("BaseP", **calibrated_kwargs("BaseP", calibration)))
        return engine.last_session

    def test_capped_event_replay_is_pinned(self):
        session = self._run(2)
        assert (repr(session.revenue), session.committed) == _CAPPED_PIN
        assert len(session.commit_log) == session.committed
        assert session.committed + session.expired == session.accepted

    def test_the_cap_alone_picks_the_matcher(self):
        stream = get_scenario("hotspot_burst").stream(scale=0.05, seed=0)
        strategy = create_strategy("BaseP", base_price=2.0)
        universe = build_universe(stream)
        # A supplied universe does not pin the universe matcher.
        for kwargs in ({}, {"universe": universe}):
            session = DispatchSession(stream, strategy, **kwargs)
            assert isinstance(session.matcher, _LiveSessionMatcher)
        capped = DispatchSession(stream, strategy, max_degree=2)
        assert isinstance(capped.matcher, DynamicMatcher)
        with pytest.raises(TypeError, match="incremental"):
            DispatchSession(stream, strategy, incremental=False)
        with pytest.raises(TypeError, match="incremental"):
            EventStreamingEngine(stream, incremental=False)

    def test_the_cap_binds(self):
        uncapped = self._run(None)
        assert (repr(uncapped.revenue), uncapped.committed) == (
            "5958.95529773843",
            58,
        )
