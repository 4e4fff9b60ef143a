"""Property test: the array-native MAPS planner equals the loop oracle.

:class:`~repro.core.maps.MAPSPlanner` re-derives Algorithm 2's state —
per-grid dicts, the addressable max-heap, one Algorithm 3 maximizer
invocation per proposal, kept as
:func:`~repro.simulation.legacy.reference_maps_plan` — as flat arrays over
per-grid demand tables.  The claim is not "close": for both table /
maximizer pairs (the UCB index and the no-exploration ablation) every
plan field (prices, supply levels, pre-matching, approximate revenue,
iteration count) must be **exactly** equal under fuzzed grids, markets
and estimator states, including the awkward corners (untested ladder
prices, grids with zero observations, zero-distance tasks, supply
saturation).

The queue's tie-break decides plans only when equal gains compete for
the same workers, so the fuzz also builds markets full of ties: up to
144 grids, task distances drawn from a pool of three values, tasks
duplicated in place, and estimators that are either all untested (every
gain is ``+inf`` or ``0.0``) or share one history with offers at a
single rung.  Then every untested rung has an infinite confidence
radius, Algorithm 3 quotes the top rung at the supply cap, and a unit's
gain is ``p_max * d_n`` — equal across grids and supply levels whenever
the distances are.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gdp import PeriodInstance
from repro.core.maps import MAPSPlanner
from repro.core.maximizer import (
    calculate_maximizer,
    exploitation_demand_table,
    exploitation_maximizer,
    ucb_demand_table,
)
from repro.learning.estimator import GridAcceptanceEstimator
from repro.market.entities import Task, Worker
from repro.spatial.geometry import BoundingBox, Point
from repro.simulation.legacy import reference_maps_plan
from repro.spatial.grid import Grid

#: (planner demand table, oracle maximizer) pairs that must plan alike.
PAIRS = pytest.mark.parametrize(
    "demand_table, maximizer",
    [
        (ucb_demand_table, calculate_maximizer),
        (exploitation_demand_table, exploitation_maximizer),
    ],
    ids=["ucb", "exploitation"],
)


@st.composite
def planner_instances(draw):
    """A fuzzed period instance plus estimators and planner parameters."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    side = 10.0
    grid_side = draw(st.integers(min_value=1, max_value=12))
    grid = Grid(BoundingBox.square(side), grid_side, grid_side)

    num_tasks = draw(st.integers(min_value=0, max_value=60))
    num_workers = draw(st.integers(min_value=0, max_value=30))
    zero_distance = draw(st.booleans())
    # Equal distances (within and across grids) make equal finite gains.
    pooled_distance = draw(st.booleans())
    duplicates = draw(st.integers(min_value=1, max_value=3))
    tasks = []
    while len(tasks) < num_tasks:
        origin = Point(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
        destination = Point(float(rng.uniform(0, side)), float(rng.uniform(0, side)))
        if zero_distance and len(tasks) % 5 == 0:
            destination = origin
        distance = (
            float(rng.choice([0.5, 1.0, 2.0]))
            if pooled_distance
            else origin.distance_to(destination)
        )
        for _ in range(min(duplicates, num_tasks - len(tasks))):
            tasks.append(
                Task(
                    task_id=len(tasks),
                    period=0,
                    origin=origin,
                    destination=destination,
                    distance=distance,
                )
            )
    workers = [
        Worker(
            worker_id=pos,
            period=0,
            location=Point(float(rng.uniform(0, side)), float(rng.uniform(0, side))),
            radius=float(rng.uniform(1.0, 6.0)),
        )
        for pos in range(num_workers)
    ]
    instance = PeriodInstance.build(0, grid, tasks, workers)

    ladder = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    maturity = draw(st.sampled_from(["mixed", "untested", "one_rung"]))
    shared_offers = int(rng.integers(1, 8))
    shared_acceptances = int(rng.integers(0, shared_offers + 1))
    estimators = {}
    for g in instance.grid_indices_with_tasks():
        estimator = GridAcceptanceEstimator(g, ladder)
        if maturity == "one_rung":
            # The same history in every grid, at the lowest rung only.
            estimator.record_batch(ladder[0], shared_offers, shared_acceptances)
        elif maturity == "mixed" and draw(st.booleans()):
            # Mixed estimator maturity: some grids stay completely untested
            # (total N = 0), some have untested ladder rungs (N(p) = 0, the
            # +inf confidence radius), some are well explored.
            for price in ladder:
                offers = int(rng.integers(0, 8))
                if offers:
                    estimator.record_batch(
                        price, offers, int(rng.integers(0, offers + 1))
                    )
        estimators[g] = estimator

    base_price = draw(
        st.floats(min_value=0.5, max_value=5.0, allow_nan=False, width=32)
    )
    return instance, estimators, float(base_price)


def _assert_same_plan(a, b):
    assert a.prices == b.prices
    assert a.supply == b.supply
    assert a.pre_matching == b.pre_matching
    assert a.approx_revenue == b.approx_revenue  # exact, not approx
    assert a.iterations == b.iterations


class TestPlannerMatchesOracle:
    @PAIRS
    @given(case=planner_instances())
    def test_plans_are_exactly_equal(self, demand_table, maximizer, case):
        instance, estimators, base_price = case
        planner = MAPSPlanner(base_price, 1.0, 4.0, demand_table=demand_table)
        reference = reference_maps_plan(
            base_price, 1.0, 4.0, instance, estimators, maximizer=maximizer
        )
        _assert_same_plan(planner.plan(instance, estimators), reference)

    @PAIRS
    @given(case=planner_instances())
    def test_planning_is_repeatable_on_live_estimators(
        self, demand_table, maximizer, case
    ):
        """Cached snapshot tables must not go stale across re-planning."""
        instance, estimators, base_price = case
        planner = MAPSPlanner(base_price, 1.0, 4.0, demand_table=demand_table)
        planner.plan(instance, estimators)
        # Mutate every estimator (as a feedback round would) and re-plan:
        # the cached tables must refresh via the version counters.
        for estimator in estimators.values():
            estimator.record(1.5, accepted=True)
        second = planner.plan(instance, estimators)
        reference = reference_maps_plan(
            base_price, 1.0, 4.0, instance, estimators, maximizer=maximizer
        )
        _assert_same_plan(second, reference)


@st.composite
def one_grid_markets(draw):
    """One grid whose workers all reach all of its tasks, so the plan's
    supply walks up one unit at a time; some estimators tie on the demand
    side (``p S_hat(p) = 1`` at every tested rung)."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    grid = Grid(BoundingBox.square(10.0), 1, 1)
    tasks = []
    for pos in range(draw(st.integers(min_value=0, max_value=12))):
        origin = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        destination = Point(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        tasks.append(Task(task_id=pos, period=0, origin=origin, destination=destination))
    workers = [
        Worker(worker_id=pos, period=0, location=Point(5.0, 5.0), radius=20.0)
        for pos in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    instance = PeriodInstance.build(0, grid, tasks, workers)
    ladder = [1.0, 2.0, 4.0]
    estimator = GridAcceptanceEstimator(1, ladder)
    if draw(st.booleans()):
        for price in ladder[: draw(st.integers(min_value=0, max_value=3))]:
            estimator.record_batch(price, 4, int(4 / price))
    else:
        for price in ladder:
            offers = int(rng.integers(0, 8))
            if offers:
                estimator.record_batch(price, offers, int(rng.integers(0, offers + 1)))
    return instance, estimator


class TestInlineScanMatchesSharedScan:
    """The planner inlines Algorithm 3's scan over its demand tables;
    :func:`~repro.core.maximizer.calculate_maximizer` runs the shared
    :func:`~repro.learning.ucb.first_best`.  On one grid the plan is the
    walk of maximizer calls up the supply levels."""

    @PAIRS
    @given(case=one_grid_markets())
    def test_one_grid_plan_is_the_maximizer_walk(self, demand_table, maximizer, case):
        instance, estimator = case
        planner = MAPSPlanner(2.0, 1.0, 3.0, demand_table=demand_table)
        plan = planner.plan(instance, {1: estimator} if instance.tasks else {})
        distances = instance.distances_in_grid(1) if instance.tasks else []
        price, supply, approx = planner.base_price, 0, 0.0
        for level in range(1, min(len(distances), len(instance.workers)) + 1):
            result = maximizer(estimator, distances, level, level - 1)
            price = min(result.price, planner.p_max)
            if result.delta <= 1e-12:
                break
            supply, approx = level, approx + result.delta
        assert plan.prices[1] == price
        assert plan.supply[1] == supply
        assert plan.approx_revenue == approx
