"""The seed (pre-vectorisation) simulation loop, preserved as a reference.

The engine in :mod:`repro.simulation.engine` was refactored around a
struct-of-arrays period pipeline (vectorised acceptance decisions, CSR
matching, batched feedback).  This module keeps the original
scalar implementation — per-task Python loops, recursive augmenting-path
matching over list-of-list adjacency, and the double feedback pass that
re-built every :class:`~repro.pricing.strategy.PriceFeedback` just to set
``served`` — exactly as the seed shipped it.

It exists for three purposes only:

* the regression tests assert that the vectorised pipeline reproduces the
  seed engine's revenue / served / accepted metrics bit-for-bit for fixed
  seeds across all shipped strategies;
* ``benchmarks/test_bench_pipeline.py`` measures the pipeline's speedup
  against this implementation on the fig8-scale workload;
* :func:`reference_maps_plan`, MAPS's per-grid loop planner, is the
  oracle the array planner of :class:`~repro.core.maps.MAPSPlanner` is
  tested against.

It is not part of the public API and should not grow features.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.gdp import PeriodInstance
from repro.core.maps import MAPSPlan
from repro.core.maximizer import MaximizerResult, calculate_maximizer
from repro.learning.estimator import GridAcceptanceEstimator
from repro.market.acceptance import PerGridAcceptance
from repro.market.entities import Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.incremental import IncrementalMatcher
from repro.matching.maximum_matching import UNMATCHED
from repro.pricing.strategy import PriceFeedback, PricingStrategy
from repro.simulation.config import WorkloadBundle
from repro.simulation.metrics import MetricsCollector
from repro.simulation.results import SimulationResult
from repro.utils.heap import AddressableMaxHeap
from repro.utils.rng import derive_seed


def reference_task_weighted_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, int], float]:
    """The seed's recursive matroid-greedy matching.

    The pre-CSR implementation: Python ``sorted`` ordering, per-task
    ``set`` of visited workers and recursive augmentation over the
    list-of-list adjacency.  It takes the one pairing rule of every
    augmenting search (:func:`repro.kernels.augmenting.augmenting_path`):
    a task takes the first free unvisited worker of its row before it
    re-routes a matched one.
    """
    if len(task_weights) != graph.num_tasks:
        raise ValueError("task_weights length must match number of tasks")
    eligible = (
        list(range(graph.num_tasks)) if allowed_tasks is None else sorted(set(allowed_tasks))
    )
    order = sorted(eligible, key=lambda pos: (-float(task_weights[pos]), pos))

    match_task: List[int] = [UNMATCHED] * graph.num_tasks
    match_worker: List[int] = [UNMATCHED] * graph.num_workers

    def try_augment(task_pos: int, visited_workers: set) -> bool:
        neighbors = graph.task_neighbors[task_pos]
        for worker_pos in neighbors:  # free neighbour first
            if match_worker[worker_pos] == UNMATCHED and worker_pos not in visited_workers:
                visited_workers.add(worker_pos)
                match_task[task_pos] = worker_pos
                match_worker[worker_pos] = task_pos
                return True
        for worker_pos in neighbors:
            if worker_pos in visited_workers:
                continue
            visited_workers.add(worker_pos)
            current = match_worker[worker_pos]
            if current == UNMATCHED or try_augment(current, visited_workers):
                match_task[task_pos] = worker_pos
                match_worker[worker_pos] = task_pos
                return True
        return False

    total = 0.0
    for task_pos in order:
        weight = float(task_weights[task_pos])
        if weight <= 0.0:
            continue
        if try_augment(task_pos, set()):
            total += weight

    task_to_worker = {
        pos: worker for pos, worker in enumerate(match_task) if worker != UNMATCHED
    }
    return task_to_worker, total


def reference_decide(
    instance: PeriodInstance,
    grid_prices: Dict[int, float],
    p_min: float,
    p_max: float,
    acceptance: PerGridAcceptance,
    rng: np.random.Generator,
) -> Tuple[List[float], List[int], List[PriceFeedback]]:
    """The seed's scalar accept/reject loop (one Python iteration per task).

    Returns:
        ``(offered_prices, accepted_positions, feedback)`` exactly as the
        seed engine computed them (``served`` still unset on the feedback).
    """
    offered_prices: List[float] = []
    accepted_positions: List[int] = []
    feedback: List[PriceFeedback] = []
    for pos, task in enumerate(instance.tasks):
        price = float(grid_prices.get(task.grid_index, p_min))
        price = min(p_max, max(p_min, price))
        offered_prices.append(price)
        if task.valuation is not None:
            accepted = price <= task.valuation
        else:
            probability = acceptance.acceptance_ratio(task.grid_index, price)
            accepted = bool(rng.random() < probability)
        if accepted:
            accepted_positions.append(pos)
        feedback.append(
            PriceFeedback(
                period=instance.period,
                grid_index=task.grid_index,
                price=price,
                accepted=accepted,
                distance=task.distance,
            )
        )
    return offered_prices, accepted_positions, feedback


def reference_set_served(
    feedback: List[PriceFeedback], matching: Dict[int, int]
) -> List[PriceFeedback]:
    """The seed's second pass rebuilding the feedback list to set ``served``."""
    served_positions = set(matching.keys())
    return [
        PriceFeedback(
            period=item.period,
            grid_index=item.grid_index,
            price=item.price,
            accepted=item.accepted,
            distance=item.distance,
            served=(pos in served_positions),
        )
        for pos, item in enumerate(feedback)
    ]


def reference_maps_plan(
    base_price: float,
    p_min: float,
    p_max: float,
    instance: PeriodInstance,
    estimators: Mapping[int, GridAcceptanceEstimator],
    maximizer: Callable[..., MaximizerResult] = calculate_maximizer,
) -> MAPSPlan:
    """Algorithm 2 as a loop over per-grid dicts and an addressable heap.

    The oracle of :meth:`repro.core.maps.MAPSPlanner.plan`, with one
    ``maximizer`` call per proposal: ``calculate_maximizer`` plans as the
    planner over ``ucb_demand_table`` does, and ``exploitation_maximizer``
    as it does over ``exploitation_demand_table``.
    """
    base_price = float(min(p_max, max(p_min, base_price)))  # as the planner clamps
    grid = instance.grid
    # Sharing the instance's grid buckets (and, inside the matcher,
    # the graph's cached CSR view) keeps the pre-matching from
    # re-deriving per-period structure the pipeline already built.
    matcher = IncrementalMatcher(instance.graph, grid_tasks=instance.tasks_by_grid)

    # Every grid starts at the base price; grids with demand may be
    # re-priced below.
    prices: Dict[int, float] = {cell.index: base_price for cell in grid.cells()}
    supply: Dict[int, int] = {cell.index: 0 for cell in grid.cells()}
    approx_revenue: Dict[int, float] = {cell.index: 0.0 for cell in grid.cells()}

    # Per-grid demand profiles: instances built by the engine serve
    # these from the cached, pre-sorted PeriodArrays view, so the
    # descending distance sort happens once per period rather than
    # once per planning query.
    distances: Dict[int, List[float]] = {
        g: instance.distances_in_grid(g) for g in instance.grid_indices_with_tasks()
    }

    heap = AddressableMaxHeap()
    # Initialisation (lines 3-4): one entry per grid with demand.  Grids
    # without tasks keep the base price and never enter the competition,
    # which is what lines 16-17 reduce to for them.
    for g in distances:
        estimator = estimators.get(g)
        if estimator is None:
            raise KeyError(f"no acceptance estimator for grid {g}")
        heap.push(g, math.inf, payload=(0, base_price))

    iterations = 0
    while heap:
        iterations += 1
        entry = heap.pop()
        g = entry.key
        delta = entry.priority
        candidate_supply, candidate_price = entry.payload

        if not math.isinf(delta):
            if delta <= 1e-12:
                # Lines 11-14: no further gain; finalise the grid's price.
                prices[g] = min(candidate_price, p_max)
                continue
            # Lines 8-10: admit the supply increase if it is still
            # feasible (other grids may have consumed the needed worker
            # since the gain was computed).
            matched_task = matcher.augment_grid(g)
            if matched_task is None:
                # The gain is stale; re-evaluate the grid at its current
                # supply and finalise it on the next extraction.
                result = maximizer(estimators[g], distances[g], supply[g], supply[g])
                price = result.price if supply[g] > 0 else base_price
                heap.push(g, 0.0, payload=(supply[g], price))
                continue
            supply[g] = candidate_supply
            prices[g] = min(candidate_price, p_max)
            approx_revenue[g] += delta

        # Lines 15-21: propose the next supply increase for the grid.
        if not distances[g] or not matcher.can_augment_grid(g):
            # No demand left to serve or no feasible worker: freeze at
            # the current price (zero further gain).
            current_price = prices[g] if supply[g] > 0 else base_price
            heap.push(g, 0.0, payload=(supply[g], current_price))
            continue
        if supply[g] >= len(distances[g]):
            # Supply already covers every task; more workers cannot help.
            heap.push(g, 0.0, payload=(supply[g], prices[g]))
            continue
        new_supply = supply[g] + 1
        result = maximizer(estimators[g], distances[g], new_supply, supply[g])
        heap.push(g, result.delta, payload=(new_supply, result.price))

    total_approx = sum(approx_revenue.values())
    return MAPSPlan(
        prices=prices,
        supply=supply,
        approx_revenue=total_approx,
        iterations=iterations,
        matcher=matcher,
    )


def run_reference(
    workload: WorkloadBundle,
    strategy: PricingStrategy,
    seed: int = 0,
) -> SimulationResult:
    """Run one strategy through the verbatim seed simulation loop.

    The matching is the seed's recursive matroid greedy, the oracle of
    :func:`repro.matching.weighted.max_weight_matching`.
    """
    workload.validate()
    strategy.reset()
    collector = MetricsCollector(strategy.name)
    collector.start()
    rng = np.random.default_rng(derive_seed(int(seed), "acceptance", strategy.name))

    p_min, p_max = workload.price_bounds
    available_workers: List[Worker] = []

    for period in range(workload.num_periods):
        available_workers.extend(workload.workers_by_period[period])
        available_workers = [
            worker for worker in available_workers if worker.available_in(period)
        ]
        tasks = workload.tasks_by_period[period]
        if not tasks:
            continue

        instance = PeriodInstance.build(
            period=period,
            grid=workload.grid,
            tasks=tasks,
            workers=available_workers,
            metric=workload.metric,
        )

        with collector.time_pricing():
            grid_prices = strategy.price_period(instance)

        offered_prices, accepted_positions, feedback = reference_decide(
            instance, grid_prices, p_min, p_max, workload.acceptance, rng
        )

        weights = [
            task.distance * price
            for task, price in zip(instance.tasks, offered_prices)
        ]
        with collector.time_matching():
            matching, revenue = reference_task_weighted_matching(
                instance.graph, weights, allowed_tasks=accepted_positions
            )

        feedback = reference_set_served(feedback, matching)
        with collector.time_pricing():
            strategy.observe_feedback(feedback)

        matched_worker_positions = set(matching.values())
        available_workers = [
            worker
            for worker_pos, worker in enumerate(instance.workers)
            if worker_pos not in matched_worker_positions
        ]

        collector.record_period(
            revenue=revenue,
            served_tasks=len(matching),
            accepted_tasks=len(accepted_positions),
            total_tasks=len(tasks),
        )

    metrics = collector.finish()
    return SimulationResult(metrics=metrics, description=workload.description)


__all__ = [
    "reference_task_weighted_matching",
    "reference_decide",
    "reference_set_served",
    "reference_maps_plan",
    "run_reference",
]
