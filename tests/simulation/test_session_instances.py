"""Dispatch-session instances sliced from the universe equal fresh builds.

:class:`~repro.simulation.streaming.DispatchSession` builds each window
instance (its tasks and free workers) and each single-task event
instance by taking positions of the universe's
:class:`~repro.core.gdp.PeriodArrays` (:meth:`PeriodArrays.take`)
instead of re-extracting the arrays from the objects
(:meth:`PeriodInstance.build`).  Both must give the same instance: the
same objects, byte-equal arrays, the same per-grid views and the same
graph (which the MAPS planner reads).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gdp import PeriodInstance
from repro.pricing.registry import create_strategy
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import (
    DispatchSession,
    DynamicStreamingEngine,
    EventStreamingEngine,
    build_universe,
)

SCENARIOS = ["churn_city", "hotspot_burst"]
SCALE = 0.1
ARRAY_FIELDS = ("task_grids", "distances", "valuations", "has_valuation", "worker_grids")


@lru_cache(maxsize=None)
def _stream(scenario: str, seed: int):
    return get_scenario(scenario).stream(scale=SCALE, seed=seed)


def _strategy():
    return create_strategy("BaseP", base_price=2.0)


def _reference(session, period, task_positions, worker_positions, max_degree):
    return PeriodInstance.build(
        period=period,
        grid=session.stream.grid,
        tasks=[session.universe.tasks[pos] for pos in task_positions],
        workers=[session.universe.workers[pos] for pos in worker_positions],
        metric=session.stream.metric,
        max_degree=max_degree,
        build_graph=False,
    )


def _assert_same_instance(got: PeriodInstance, want: PeriodInstance) -> None:
    assert got.period == want.period
    assert got.grid is want.grid
    assert got.tasks == want.tasks
    assert got.workers == want.workers
    for name in ARRAY_FIELDS:
        have, expect = getattr(got.arrays, name), getattr(want.arrays, name)
        assert have.dtype == expect.dtype, name
        assert have.shape == expect.shape, name
        assert have.tobytes() == expect.tobytes(), name
    assert got.tasks_by_grid == want.tasks_by_grid
    assert got.workers_by_grid == want.workers_by_grid
    assert got.graph.task_neighbors == want.graph.task_neighbors
    assert got.graph.worker_neighbors == want.graph.worker_neighbors


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    seed=st.integers(min_value=0, max_value=2),
    max_degree=st.sampled_from([None, 2]),
    data=st.data(),
)
def test_sliced_instances_equal_fresh_builds(scenario, seed, max_degree, data):
    stream = _stream(scenario, seed)
    universe, task_arrivals, worker_arrivals = build_universe(stream)
    num_tasks, num_workers = len(universe.tasks), len(universe.workers)
    positions = st.integers(min_value=0, max_value=num_tasks - 1)
    # Tasks governed by the acceptance model carry no valuation.
    stripped = data.draw(st.frozensets(positions, max_size=12), label="stripped")
    tasks = [
        dataclasses.replace(task, valuation=None) if pos in stripped else task
        for pos, task in enumerate(universe.tasks)
    ]
    universe = PeriodInstance.build(
        period=0,
        grid=stream.grid,
        tasks=tasks,
        workers=universe.workers,
        metric=stream.metric,
        max_degree=max_degree,
        build_graph=False,
    )
    session = DispatchSession(
        stream,
        _strategy(),
        max_degree=max_degree,
        universe=(universe, task_arrivals, worker_arrivals),
    )
    period = data.draw(st.integers(min_value=0, max_value=9), label="period")
    task_positions = data.draw(
        st.lists(positions, unique=True, max_size=30), label="tasks"
    )
    worker_positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=num_workers - 1),
            unique=True,
            max_size=30,
        ),
        label="workers",
    )
    _assert_same_instance(
        session._instance(period, task_positions, worker_positions),
        _reference(session, period, task_positions, worker_positions, max_degree),
    )
    # The event path: one task, no workers (quoted without a degree cap).
    task_pos = data.draw(positions, label="event task")
    _assert_same_instance(
        session._instance(period, (task_pos,), ()),
        _reference(session, period, [task_pos], [], None),
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("events", [False, True], ids=["windows", "events"])
def test_instances_of_a_run_equal_fresh_builds(monkeypatch, scenario, events):
    """Every instance a window or event run quotes on equals a fresh build."""
    calls = []
    instance = DispatchSession._instance

    def recorded(session, period, task_positions, worker_positions):
        built = instance(session, period, task_positions, worker_positions)
        calls.append((session, period, list(task_positions), list(worker_positions), built))
        return built

    monkeypatch.setattr(DispatchSession, "_instance", recorded)
    stream = _stream(scenario, 0)
    if events:
        EventStreamingEngine(stream, seed=0).run(_strategy())
    else:
        DynamicStreamingEngine(stream, seed=0, window=1.0, resolve="delta").run(
            _strategy()
        )
    assert calls
    for session, period, task_positions, worker_positions, built in calls:
        if events:
            assert len(task_positions) == 1 and not worker_positions
        _assert_same_instance(
            built,
            _reference(session, period, task_positions, worker_positions, None),
        )
