"""Possible-world semantics for the expected total revenue (Definition 6).

Each task independently accepts its offered price with probability
``S^g(p_r)``.  A *possible world* is one accept/reject outcome for every
task; its probability is the product of the per-task probabilities and its
revenue is the weight of a maximum-weight matching between the accepting
tasks and the workers (Definition 5).  The expected total revenue is the
probability-weighted sum over all ``2^{|R|}`` possible worlds — exactly the
quantity tabulated in Fig. 2 for the running example.

Enumeration is exponential, so :func:`exact_expected_revenue` is intended
for small instances (tests, the running example, the ablation study);
:func:`monte_carlo_expected_revenue` provides an unbiased estimator for
larger instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.matching.bipartite import BipartiteGraph
from repro.matching.weighted import max_weight_matching
from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class PossibleWorld:
    """One accept/reject outcome for every task.

    Attributes:
        accepted: Tuple of booleans, one per task position.
        probability: Sampling probability of this world.
        revenue: Maximum-weight matching revenue of this world.
        matching: The maximising assignment ``{task_position: worker_position}``.
    """

    accepted: Tuple[bool, ...]
    probability: float
    revenue: float
    matching: Tuple[Tuple[int, int], ...]


def _task_weights(tasks, prices: Sequence[float]) -> List[float]:
    if len(prices) != len(tasks):
        raise ValueError("one price per task is required")
    return [task.distance * float(price) for task, price in zip(tasks, prices)]


def enumerate_possible_worlds(
    graph: BipartiteGraph,
    prices: Sequence[float],
    acceptance_probabilities: Sequence[float],
) -> List[PossibleWorld]:
    """Enumerate all ``2^{|R|}`` possible worlds of the priced graph.

    Args:
        graph: The structural task–worker graph.
        prices: Offered unit price per task position.
        acceptance_probabilities: ``S^g(p_r)`` per task position.

    Returns:
        All possible worlds with their probabilities, revenues and optimal
        matchings.  The probabilities sum to 1 (up to float rounding).

    Raises:
        ValueError: if the instance has more than 20 tasks (the
            enumeration would exceed a million worlds) or the inputs are
            inconsistent.
    """
    num_tasks = graph.num_tasks
    if num_tasks > 20:
        raise ValueError(
            "exact enumeration is limited to 20 tasks; "
            "use monte_carlo_expected_revenue for larger instances"
        )
    if len(prices) != num_tasks or len(acceptance_probabilities) != num_tasks:
        raise ValueError("prices and acceptance_probabilities must match the task count")
    for probability in acceptance_probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("acceptance probabilities must lie in [0, 1]")

    weights = _task_weights(graph.tasks, prices)
    worlds: List[PossibleWorld] = []
    for outcome in product((True, False), repeat=num_tasks):
        probability = 1.0
        for accepted, s in zip(outcome, acceptance_probabilities):
            probability *= s if accepted else (1.0 - s)
        accepted_positions = [pos for pos, accepted in enumerate(outcome) if accepted]
        matching, revenue = max_weight_matching(graph, weights, accepted_positions)
        worlds.append(
            PossibleWorld(
                accepted=outcome,
                probability=probability,
                revenue=revenue,
                matching=tuple(sorted(matching.items())),
            )
        )
    return worlds


def exact_expected_revenue(
    graph: BipartiteGraph,
    prices: Sequence[float],
    acceptance_probabilities: Sequence[float],
) -> float:
    """Exact expected total revenue ``E[U(B^t) | P^t]`` by enumeration."""
    worlds = enumerate_possible_worlds(graph, prices, acceptance_probabilities)
    return float(sum(world.probability * world.revenue for world in worlds))


def monte_carlo_expected_revenue(
    graph: BipartiteGraph,
    prices: Sequence[float],
    acceptance_probabilities: Sequence[float],
    num_samples: int = 1000,
    rng: Optional[RandomState] = None,
) -> Tuple[float, float]:
    """Monte-Carlo estimate of the expected total revenue.

    Args:
        graph: The structural task–worker graph.
        prices: Offered unit price per task position.
        acceptance_probabilities: ``S^g(p_r)`` per task position.
        num_samples: Number of sampled possible worlds.
        rng: Random generator (seeded by default for reproducibility).

    Returns:
        ``(estimate, standard_error)``.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    num_tasks = graph.num_tasks
    if len(prices) != num_tasks or len(acceptance_probabilities) != num_tasks:
        raise ValueError("prices and acceptance_probabilities must match the task count")
    generator = as_generator(rng if rng is not None else 0)
    weights = _task_weights(graph.tasks, prices)
    probabilities = np.asarray(acceptance_probabilities, dtype=float)
    samples = np.empty(num_samples, dtype=float)
    for i in range(num_samples):
        accepted = generator.random(num_tasks) < probabilities
        accepted_positions = np.flatnonzero(accepted).tolist()
        _, revenue = max_weight_matching(graph, weights, accepted_positions)
        samples[i] = revenue
    estimate = float(samples.mean())
    standard_error = float(samples.std(ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else 0.0
    return estimate, standard_error


def optimal_prices_by_enumeration(
    graph: BipartiteGraph,
    candidate_prices: Sequence[float],
    acceptance_ratio_of: Callable[[int, float], float],
) -> Tuple[List[float], float]:
    """Brute-force the GDP optimum over a finite candidate price set.

    Every task may take any price in ``candidate_prices``; all
    ``|P|^{|R|}`` combinations are evaluated with exact possible-world
    enumeration.  Only usable for very small instances (the running
    example has 3 tasks and 3 candidate prices = 27 combinations), but it
    gives tests a ground-truth optimum to compare MAPS against.

    Args:
        graph: Structural graph.
        candidate_prices: Finite set of allowed unit prices.
        acceptance_ratio_of: Callable ``(task_position, price) -> S(p)``.

    Returns:
        ``(best_prices, best_expected_revenue)``.
    """
    num_tasks = graph.num_tasks
    if num_tasks == 0:
        return [], 0.0
    if len(candidate_prices) ** num_tasks > 200_000:
        raise ValueError("price enumeration too large; reduce tasks or candidates")
    best_prices: Optional[List[float]] = None
    best_value = -np.inf
    for combo in product(candidate_prices, repeat=num_tasks):
        probabilities = [
            acceptance_ratio_of(pos, price) for pos, price in enumerate(combo)
        ]
        value = exact_expected_revenue(graph, list(combo), probabilities)
        if value > best_value + 1e-12:
            best_value = value
            best_prices = list(combo)
    assert best_prices is not None
    return best_prices, float(best_value)


__all__ = [
    "PossibleWorld",
    "enumerate_possible_worlds",
    "exact_expected_revenue",
    "monte_carlo_expected_revenue",
    "optimal_prices_by_enumeration",
]
