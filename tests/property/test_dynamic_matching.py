"""Stateful differential oracle for the fully dynamic matcher.

:class:`repro.matching.incremental.DynamicMatcher` claims one invariant:
after *any* interleaving of task/worker insertions, departures, expiries
and window advances, its matched task set is exactly the
lexicographically-maximal basis a fresh batch re-solve would compute on
the live population — same set, bitwise the same total weight.  The
:class:`~hypothesis.stateful.RuleBasedStateMachine` here fuzzes that
claim directly: every rule mutates the live population through the
matcher, and the invariant re-solves the population from scratch after
every single step —

* :func:`~repro.matching.weighted.max_weight_matching` (the reference):
  matched *set* and bitwise total;
* :func:`~repro.matching.weighted.scipy_max_weight_matching` (the dense
  oracle): optimal total agreement (to float tolerance — different
  accumulation order).

The machine also draws a ``--max-degree``-style cap on the universe
adjacency, so the differential gate covers bounded-degree graphs.  Matched pairs are deliberately *not* part of
the per-step oracle: distinct maximum-weight matchings of the same task
set exist, and which one the matcher holds depends on the operation
path; the set and the total are the canonical quantities.

Metamorphic companions (same interpreter, no state machine): scaling all
weights by a power of two scales the total exactly and preserves the
matched set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph
from repro.matching.incremental import DynamicMatcher
from repro.matching.weighted import max_weight_matching, scipy_max_weight_matching
from repro.spatial.geometry import Point

#: Mixed-sign weights with deliberate ties: non-positive insertions must
#: stay unmatchable, and ties exercise the position tiebreak.
WEIGHT_VALUES = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.25, 2.0, 3.75, 5.5])

def build_universe(
    num_tasks: int,
    num_workers: int,
    seed: int,
    density: float,
    max_degree: Optional[int],
) -> Tuple[BipartiteGraph, np.ndarray]:
    """A random universe graph, optionally degree-capped like ``--max-degree``."""
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_tasks, num_workers)) < density
    if max_degree is not None:
        for task_pos in range(num_tasks):
            neighbours = np.flatnonzero(adjacency[task_pos])
            adjacency[task_pos, neighbours[max_degree:]] = False
    tasks = [
        Task(
            task_id=pos,
            period=0,
            origin=Point(0.0, 0.0),
            destination=Point(1.0, 0.0),
            distance=1.0,
            grid_index=1,
        )
        for pos in range(num_tasks)
    ]
    workers = [
        Worker(worker_id=pos, period=0, location=Point(0.0, 0.0), radius=10.0)
        for pos in range(num_workers)
    ]
    graph = BipartiteGraph(tasks=tasks, workers=workers)
    for task_pos in range(num_tasks):
        for worker_pos in range(num_workers):
            if adjacency[task_pos, worker_pos]:
                graph.add_edge(task_pos, worker_pos)
    return graph, adjacency


def live_subgraph(
    graph: BipartiteGraph, adjacency: np.ndarray, live_workers: Set[int]
) -> BipartiteGraph:
    """The population a batch solver would see: only live workers' edges."""
    restricted = BipartiteGraph(tasks=graph.tasks, workers=graph.workers)
    for task_pos in range(adjacency.shape[0]):
        for worker_pos in range(adjacency.shape[1]):
            if adjacency[task_pos, worker_pos] and worker_pos in live_workers:
                restricted.add_edge(task_pos, worker_pos)
    return restricted


class DynamicMatchingMachine(RuleBasedStateMachine):
    """Fuzzed churn on one matcher, batch-oracled after every step."""

    @initialize(
        num_tasks=st.integers(min_value=1, max_value=10),
        num_workers=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        density=st.floats(min_value=0.1, max_value=0.9),
        max_degree=st.sampled_from([None, 1, 2, 4]),
    )
    def setup(self, num_tasks, num_workers, seed, density, max_degree):
        self.num_tasks = num_tasks
        self.num_workers = num_workers
        self.graph, self.adjacency = build_universe(
            num_tasks, num_workers, seed, density, max_degree
        )
        self.matcher = DynamicMatcher(self.graph, [0.0] * num_tasks)
        #: pos -> (arrival order, weight) for live tasks.
        self.live_tasks: Dict[int, Tuple[int, float]] = {}
        self.live_workers: Set[int] = set()
        self.clock = 0

    # ------------------------------------------------------------------
    # rules: the five churn operations of the ISSUE
    # ------------------------------------------------------------------
    @precondition(lambda self: len(self.live_tasks) < self.num_tasks)
    @rule(
        idx=st.integers(min_value=0, max_value=2**16),
        weight=WEIGHT_VALUES,
    )
    def insert_task(self, idx, weight):
        absent = [p for p in range(self.num_tasks) if p not in self.live_tasks]
        pos = absent[idx % len(absent)]
        self.matcher.insert_task(pos, weight)
        self.live_tasks[pos] = (self.clock, weight)
        self.clock += 1

    @precondition(lambda self: len(self.live_workers) < self.num_workers)
    @rule(idx=st.integers(min_value=0, max_value=2**16))
    def insert_worker(self, idx):
        absent = [p for p in range(self.num_workers) if p not in self.live_workers]
        pos = absent[idx % len(absent)]
        self.matcher.insert_worker(pos)
        self.live_workers.add(pos)

    @precondition(lambda self: self.live_tasks)
    @rule(idx=st.integers(min_value=0, max_value=2**16))
    def delete_task(self, idx):
        alive = sorted(self.live_tasks)
        pos = alive[idx % len(alive)]
        self.matcher.remove_task(pos)
        del self.live_tasks[pos]

    @precondition(lambda self: self.live_workers)
    @rule(idx=st.integers(min_value=0, max_value=2**16))
    def delete_worker(self, idx):
        alive = sorted(self.live_workers)
        pos = alive[idx % len(alive)]
        self.matcher.remove_worker(pos)
        self.live_workers.remove(pos)

    @precondition(lambda self: self.live_tasks)
    @rule()
    def expire_oldest_task(self):
        """Expiry is a departure selected by age instead of by the fuzzer."""
        pos = min(self.live_tasks, key=lambda p: self.live_tasks[p][0])
        self.matcher.remove_task(pos)
        del self.live_tasks[pos]

    @rule()
    def advance_window(self):
        """A dispatch boundary: every matched assignment is served.

        Committing a pair removes task and worker together — the claim
        is that no repair is needed, which the invariant then re-checks
        against the batch oracle on the shrunken population.
        """
        for pos in sorted(self.live_tasks):
            if self.matcher.is_task_matched(pos):
                worker_pos = self.matcher.commit_task(pos)
                del self.live_tasks[pos]
                self.live_workers.remove(worker_pos)
        self.clock += 1

    # ------------------------------------------------------------------
    # the differential oracle
    # ------------------------------------------------------------------
    @invariant()
    def matches_batch_resolve(self):
        if not hasattr(self, "matcher"):
            return
        assert self.matcher.is_valid_matching()
        for pos, worker_pos in self.matcher.matching().items():
            assert pos in self.live_tasks
            assert worker_pos in self.live_workers

        weights = [0.0] * self.num_tasks
        for pos, (_, weight) in self.live_tasks.items():
            weights[pos] = weight
        allowed = sorted(self.live_tasks)
        population = live_subgraph(self.graph, self.adjacency, self.live_workers)

        oracle_matching, oracle_total = max_weight_matching(
            population, weights, allowed_tasks=allowed
        )
        got_matched = {
            pos for pos in range(self.num_tasks) if self.matcher.is_task_matched(pos)
        }
        assert got_matched == set(oracle_matching)
        assert repr(self.matcher.total_weight()) == repr(oracle_total)

        _, exact_total = scipy_max_weight_matching(
            population, weights, allowed_tasks=allowed
        )
        assert exact_total == pytest.approx(oracle_total, abs=1e-9)


TestDynamicMatching = DynamicMatchingMachine.TestCase


# ---------------------------------------------------------------------------
# metamorphic companions
# ---------------------------------------------------------------------------
#: Abstract churn ops (no commits: removals keep the population evolution
#: independent of which worker represents a matched task, so two runs of
#: one script over transformed inputs see identical populations).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert_task", "insert_worker", "remove_task", "remove_worker"]),
        st.integers(min_value=0, max_value=2**16),
        WEIGHT_VALUES,
    ),
    min_size=1,
    max_size=40,
)

META = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def churn_scripts(draw):
    num_tasks = draw(st.integers(min_value=1, max_value=10))
    num_workers = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    ops = draw(OPS)
    return num_tasks, num_workers, seed, density, ops


def apply_script(
    graph: BipartiteGraph,
    num_tasks: int,
    num_workers: int,
    ops,
    scale: float = 1.0,
) -> DynamicMatcher:
    matcher = DynamicMatcher(graph, [0.0] * num_tasks)
    live_tasks: List[int] = []
    live_workers: List[int] = []
    for kind, idx, weight in ops:
        if kind == "insert_task":
            absent = [p for p in range(num_tasks) if p not in live_tasks]
            if not absent:
                continue
            pos = absent[idx % len(absent)]
            matcher.insert_task(pos, weight * scale)
            live_tasks.append(pos)
        elif kind == "insert_worker":
            absent = [p for p in range(num_workers) if p not in live_workers]
            if not absent:
                continue
            pos = absent[idx % len(absent)]
            matcher.insert_worker(pos)
            live_workers.append(pos)
        elif kind == "remove_task":
            if not live_tasks:
                continue
            pos = sorted(live_tasks)[idx % len(live_tasks)]
            matcher.remove_task(pos)
            live_tasks.remove(pos)
        else:
            if not live_workers:
                continue
            pos = sorted(live_workers)[idx % len(live_workers)]
            matcher.remove_worker(pos)
            live_workers.remove(pos)
    return matcher


@META
@given(script=churn_scripts(), exponent=st.integers(min_value=-2, max_value=3))
def test_power_of_two_weight_scaling_is_exact(script, exponent):
    """Scaling weights by 2**k preserves the set and scales the total exactly."""
    num_tasks, num_workers, seed, density, ops = script
    graph, _ = build_universe(num_tasks, num_workers, seed, density, None)
    scale = 2.0**exponent
    base = apply_script(graph, num_tasks, num_workers, ops)
    scaled = apply_script(graph, num_tasks, num_workers, ops, scale=scale)
    assert scaled.matching().keys() == base.matching().keys()
    assert repr(scaled.total_weight()) == repr(scale * base.total_weight())

