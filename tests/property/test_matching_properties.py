"""Property-based tests of the matching invariants.

Random bipartite graphs — including empty sides, single nodes, isolated
vertices and disconnected components — must satisfy, for the matroid
greedy and its dense scipy oracle:

* **validity** — no task or worker is used twice, every matched pair is
  an actual edge, and only eligible tasks (allowed, positive weight) are
  matched;
* **exactness agreement** — the matroid greedy and the scipy oracle
  report the same total weight;
* **incremental equivalence** — inserting eligible tasks in
  :func:`~repro.matching.weighted.eligible_order` through
  :class:`~repro.matching.incremental.IncrementalMatcher` reproduces the
  matroid greedy's matching exactly (the claim the streaming
  engine's cross-window matcher rests on, now also exercising the
  matcher's saturation pruning).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.incremental import IncrementalMatcher
from repro.matching.weighted import (
    eligible_order,
    max_weight_matching,
    scipy_max_weight_matching,
)
from repro.spatial.geometry import Point

EXACT_BACKENDS = {"matroid": max_weight_matching, "scipy": scipy_max_weight_matching}


def build_graph(num_tasks: int, num_workers: int, edges: Sequence[Tuple[int, int]]) -> BipartiteGraph:
    """A structural bipartite graph over dummy entities."""
    tasks = [
        Task(
            task_id=pos,
            period=0,
            origin=Point(0.0, 0.0),
            destination=Point(1.0, 1.0),
            grid_index=1,
        )
        for pos in range(num_tasks)
    ]
    workers = [
        Worker(worker_id=pos, period=0, location=Point(0.0, 0.0), radius=5.0)
        for pos in range(num_workers)
    ]
    graph = BipartiteGraph(tasks=tasks, workers=workers)
    for task_pos, worker_pos in edges:
        graph.add_edge(task_pos, worker_pos)
    for adjacency in graph.task_neighbors:
        adjacency.sort()
    for adjacency in graph.worker_neighbors:
        adjacency.sort()
    return graph


@st.composite
def bipartite_instances(draw) -> Tuple[BipartiteGraph, List[float], Optional[List[int]]]:
    """Random ``(graph, weights, allowed_tasks)`` instances.

    Sizes include zero on either side; edge sets range from empty to
    complete, so disconnected and isolated structures occur naturally.
    Weights include zero (ineligible by definition) and duplicated values
    (tie-breaking coverage).
    """
    num_tasks = draw(st.integers(min_value=0, max_value=7))
    num_workers = draw(st.integers(min_value=0, max_value=7))
    possible_edges = [
        (task_pos, worker_pos)
        for task_pos in range(num_tasks)
        for worker_pos in range(num_workers)
    ]
    edges = draw(st.lists(st.sampled_from(possible_edges), unique=True)) if possible_edges else []
    weights = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                st.sampled_from([1.0, 2.0, 2.0, 5.0]),
            ),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    if draw(st.booleans()) and num_tasks:
        allowed = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_tasks - 1), unique=True
            )
        )
    else:
        allowed = None
    return build_graph(num_tasks, num_workers, edges), weights, allowed


def assert_valid_matching(graph, weights, allowed, matching, total) -> None:
    eligible = set(
        pos
        for pos in (range(graph.num_tasks) if allowed is None else allowed)
        if weights[pos] > 0.0
    )
    used_workers = set()
    recomputed = 0.0
    for task_pos, worker_pos in matching.items():
        assert task_pos in eligible, "matched a task that was not eligible"
        assert worker_pos in graph.task_neighbors[task_pos], "matched a non-edge"
        assert worker_pos not in used_workers, "worker matched twice"
        used_workers.add(worker_pos)
        recomputed += weights[task_pos]
    assert np.isclose(recomputed, total, rtol=1e-9, atol=1e-9)


class TestBackendInvariants:
    @given(bipartite_instances())
    def test_every_backend_returns_a_valid_matching(self, instance):
        graph, weights, allowed = instance
        for solve in EXACT_BACKENDS.values():
            matching, total = solve(graph, weights, allowed_tasks=allowed)
            assert_valid_matching(graph, weights, allowed, matching, total)

    @given(bipartite_instances())
    def test_exact_backends_agree_on_total_weight(self, instance):
        graph, weights, allowed = instance
        totals = {
            backend: solve(graph, weights, allowed_tasks=allowed)[1]
            for backend, solve in EXACT_BACKENDS.items()
        }
        reference = totals["matroid"]
        for backend, total in totals.items():
            assert np.isclose(total, reference, rtol=1e-9, atol=1e-9), (
                f"{backend} disagrees with matroid: {total} vs {reference}"
            )


class TestIncrementalEquivalence:
    @given(bipartite_instances())
    def test_weight_ordered_insertion_reproduces_the_matroid_backend(self, instance):
        """The streaming window matcher's core claim, fuzzed.

        Also exercises the iterative search and the saturation pruning:
        infeasible insertions mark workers dead, and the final matching
        must still be bit-identical to the batch matroid greedy's.
        """
        graph, weights, allowed = instance
        expected_matching, expected_total = max_weight_matching(
            graph, weights, allowed_tasks=allowed
        )
        weight_arr, order = eligible_order(graph.num_tasks, weights, allowed)
        matcher = IncrementalMatcher(graph)
        total = 0.0
        for task_pos in order:
            if matcher.augment_task(task_pos):
                total += float(weight_arr[task_pos])
        assert matcher.matching() == expected_matching
        assert np.isclose(total, expected_total, rtol=1e-9, atol=1e-9)
        assert matcher.is_valid_matching()
