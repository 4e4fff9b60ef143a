"""Element-for-element parity of the matroid kernel with its oracle.

:func:`repro.kernels.augmenting.matroid_augment` promises more than a
maximum-weight matching: with the free-neighbour-first visiting order
it returns one *specific* pairing, and that pairing is observable
downstream (halo reconciliation on the sharded engine reuses the
workers it leaves free).  The oracle below is the earlier two-array
implementation of the kernel (a ``visited`` stamp list plus a ``dead``
bytearray, index pointers into ``indptr``), kept verbatim as a
test-only reference but for its name and the lookahead that takes a
task's first free worker on entry.  Hypothesis draws CSR graphs with
heavily overlapping rows, saturated instances (more tasks than workers)
and equal weights, and the returned ``match_task`` lists must be equal —
the pairing, not only the weight.  A second fuzz checks the matcher end
to end: the matroid total equals the dense exact solver's on random
instances with mixed-sign weights.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import augmenting
from repro.kernels.augmenting import matroid_augment
from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.maximum_matching import UNMATCHED
from repro.matching.weighted import (
    eligible_order,
    max_weight_matching,
    scipy_max_weight_matching,
)
from repro.spatial.geometry import Point


def _oracle_matroid(csr, order: Sequence[int]) -> List[int]:
    indptr = csr.indptr_list
    indices = csr.indices_list
    match_task: List[int] = [UNMATCHED] * csr.num_tasks
    match_worker: List[int] = [UNMATCHED] * csr.num_workers
    visited: List[int] = [0] * csr.num_workers
    # Saturation pruning: when an augmentation fails, every worker its DFS
    # visited lies in a frozen alternating component — all of them are
    # matched and their owners' neighbourhoods stay inside the component,
    # so no later augmenting path can succeed (or even usefully pass)
    # through them.  Marking them dead turns the classic O(|R| * |E|)
    # worst case into near-O(|E|) amortised on saturated instances while
    # provably returning the exact same matching.
    dead = bytearray(csr.num_workers)
    stamp = 0

    def augment(start: int) -> bool:
        # Iterative DFS: a free neighbour first, else the classic
        # recursive augmenting-path order.
        tasks_stack = [start]
        ptrs = [indptr[start]]
        chosen = [UNMATCHED]
        touched: List[int] = []
        while tasks_stack:
            depth = len(tasks_stack) - 1
            task_pos = tasks_stack[depth]
            ptr = ptrs[depth]
            end = indptr[task_pos + 1]
            if ptr == indptr[task_pos]:
                # Entering the task: free neighbour first.
                for look in range(ptr, end):
                    worker_pos = indices[look]
                    if (
                        match_worker[worker_pos] == UNMATCHED
                        and not dead[worker_pos]
                        and visited[worker_pos] != stamp
                    ):
                        chosen[depth] = worker_pos
                        for i in range(depth + 1):
                            match_task[tasks_stack[i]] = chosen[i]
                            match_worker[chosen[i]] = tasks_stack[i]
                        return True
            descended = False
            while ptr < end:
                worker_pos = indices[ptr]
                ptr += 1
                if dead[worker_pos] or visited[worker_pos] == stamp:
                    continue
                visited[worker_pos] = stamp
                touched.append(worker_pos)
                ptrs[depth] = ptr
                chosen[depth] = worker_pos
                owner = match_worker[worker_pos]
                if owner == UNMATCHED:
                    for i in range(depth + 1):
                        match_task[tasks_stack[i]] = chosen[i]
                        match_worker[chosen[i]] = tasks_stack[i]
                    return True
                tasks_stack.append(owner)
                ptrs.append(indptr[owner])
                chosen.append(UNMATCHED)
                descended = True
                break
            if not descended:
                tasks_stack.pop()
                ptrs.pop()
                chosen.pop()
        for worker_pos in touched:
            dead[worker_pos] = 1
        return False

    for task_pos in order:
        stamp += 1
        augment(task_pos)

    return match_task


@st.composite
def instances(draw):
    """A CSR graph and a canonical task order.

    Rows are drawn from a small pool of shared worker sets (perturbed per
    task), so many rows overlap heavily and DFS searches revisit the same
    workers; the task count may exceed the worker count, so later
    searches fail and saturation pruning kicks in.  Weights come from a
    handful of values, so ties are common; a few tasks are ineligible.
    """
    num_workers = draw(st.integers(min_value=1, max_value=12))
    num_tasks = draw(st.integers(min_value=1, max_value=24))
    workers = st.integers(min_value=0, max_value=num_workers - 1)
    pool = draw(st.lists(st.sets(workers, max_size=num_workers), min_size=1, max_size=4))
    rows = []
    for _ in range(num_tasks):
        base = set(pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))])
        base |= draw(st.sets(workers, max_size=2))
        base -= draw(st.sets(workers, max_size=2))
        rows.append(sorted(base))
    csr = CSRGraph.from_adjacency(rows, num_workers)
    weights = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 2.5, 4.0]),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    allowed = [pos for pos in range(num_tasks) if draw(st.booleans()) or pos % 3]
    _, order = eligible_order(num_tasks, weights, allowed)
    return csr, list(order)


class TestMatroidKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_match_task_equals_oracle(self, instance):
        csr, order = instance
        assert matroid_augment(csr, order) == _oracle_matroid(csr, order)

    def test_saturated_overlapping_instance(self, monkeypatch):
        """Forty tasks on eight workers, every row a shifted window.

        Once the eighth search succeeds every worker is matched, so the
        saturation stop runs no further search.
        """
        successes: List[int] = []
        searches_after_saturation: List[int] = []
        search = augmenting.augmenting_path

        def counting(rows, match_worker, mark, stamp, start, touched):
            if len(successes) == 8:
                searches_after_saturation.append(start)
            found = search(rows, match_worker, mark, stamp, start, touched)
            if found is not None:
                successes.append(start)
            return found

        monkeypatch.setattr(augmenting, "augmenting_path", counting)
        rows = [sorted({(t + k) % 8 for k in range(5)}) for t in range(40)]
        csr = CSRGraph.from_adjacency(rows, 8)
        order = list(range(40))
        result = matroid_augment(csr, order)
        assert result == _oracle_matroid(csr, order)
        assert sum(w != UNMATCHED for w in result) == 8
        assert len(successes) == 8
        assert searches_after_saturation == []

    @settings(max_examples=300, deadline=None)
    @given(instances(), st.integers(min_value=0, max_value=5), st.data())
    def test_saturation_stop_with_isolated_workers(self, instance, isolated, data):
        """Workers without an edge never count towards saturation.

        The instance gains ``isolated`` edgeless workers, at drawn
        positions among the others (an order-preserving renumbering), and
        is matched over a drawn subset of its eligible tasks; the stop must
        leave the oracle's ``match_task`` unchanged.
        """
        csr, order = instance
        num_workers = csr.num_workers + isolated
        gaps = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=num_workers - 1),
                min_size=isolated,
                max_size=isolated,
            ),
            label="isolated workers",
        )
        renumber = np.array([pos for pos in range(num_workers) if pos not in gaps])
        widened = CSRGraph(
            indptr=csr.indptr,
            indices=renumber[csr.indices].astype(np.int64),
            num_tasks=csr.num_tasks,
            num_workers=num_workers,
        )
        subset = [
            pos for pos in order if data.draw(st.booleans(), label=f"allow {pos}")
        ]
        assert matroid_augment(widened, subset) == _oracle_matroid(widened, subset)

    def test_pairing_takes_the_free_neighbour_first(self):
        """Task 1 takes the free worker 1 and leaves task 0 on worker 0.

        The recursive DFS without the lookahead would take worker 0 and
        push task 0 on to worker 1 (``[1, 0]``): same size, same weight,
        different pairing.
        """
        csr = CSRGraph.from_adjacency([[0, 1], [0, 1]], 2)
        assert matroid_augment(csr, [0, 1]) == [0, 1]


def _make_graph(num_tasks: int, num_workers: int, adjacency) -> BipartiteGraph:
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
    return graph


@st.composite
def matching_instances(draw):
    """A random bipartite instance plus weights and an eligible subset."""
    num_tasks = draw(st.integers(min_value=1, max_value=10))
    num_workers = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    rng = np.random.default_rng(seed)
    adjacency = rng.random((num_tasks, num_workers)) < density
    graph = _make_graph(num_tasks, num_workers, adjacency)
    # Mixed-sign weights with deliberate ties exercise the non-positive
    # filter and the weight-order tiebreak.
    weights = rng.choice([-1.0, 0.0, 0.5, 1.25, 2.0, 3.75], size=num_tasks).tolist()
    if draw(st.booleans()):
        allowed = sorted(
            draw(
                st.sets(
                    st.integers(min_value=0, max_value=num_tasks - 1), max_size=num_tasks
                )
            )
        )
    else:
        allowed = None
    return graph, weights, allowed


@settings(max_examples=60, deadline=None)
@given(instance=matching_instances())
def test_matroid_total_matches_dense_exact(instance):
    """The kernelised matroid greedy stays exact vs the dense solver."""
    graph, weights, allowed = instance
    _matching, total = max_weight_matching(graph, weights, allowed_tasks=allowed)
    _dense, dense_total = scipy_max_weight_matching(
        graph, weights, allowed_tasks=allowed
    )
    assert total == pytest.approx(dense_total, abs=1e-9)
