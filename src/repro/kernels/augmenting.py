"""The one augmenting-path search, shared by every matcher over task rows.

:func:`augmenting_path` is the augmenting-path DFS of three callers:
:func:`matroid_augment`, the inner loop of the exact matroid-greedy
matcher (:func:`repro.matching.weighted.max_weight_matching`), runs it
once per task in weight order;
:class:`~repro.matching.incremental.IncrementalMatcher`, MAPS's
pre-matching, runs it for its probe-then-commit grid queries; and
:class:`~repro.matching.incremental.LazyDynamicMatcher`, the live
plane's dynamic matcher, runs it for every insert and repair.  The
callers keep everything float-bearing — weight validation, ordering and
the total accumulation — and decide what a failed search means.

One ``mark`` list holds every kind of skip: a worker visited by the
current search carries its stamp, a worker no search may enter
:data:`DEAD`, a sentinel above every stamp, so the per-entry test is
``mark[w] >= stamp``.  The dynamic matcher marks its departed workers
dead, and reads a failed search's visited workers as the circuit it
evicts from.  The insert-only callers instead mark those workers dead
(saturation pruning): they lie in a frozen alternating component — all
matched, their owners' neighbourhoods inside the component — so while
the matching only grows no later path can succeed (or usefully pass)
through them, which turns the classic ``O(|R| * |E|)`` worst case into
near-``O(|E|)`` amortised on saturated instances without changing any
result.  :func:`matroid_augment` also stops at saturation: a matched
worker never becomes free again, so once every worker that has an edge
is matched every remaining search must fail and the marks it would leave
are never read.  It counts those workers once (the distinct
``csr.indices``), counts one down per success and returns at zero; on
``city_batch`` that skips about a quarter of the searches.

Every search follows one pairing rule, *free neighbour first*: on
entering a task it scans the task's row, in row order, for a free worker
that is not marked, and ends the path there; only when there is none
does it descend into the row's matched workers, one iterator per DFS
level.  The weights depend only on the task (Definition 5), so the
matched task set — and every failed search, which finds no free worker
and therefore visits the same workers in the same order — is that of the
plain recursive DFS; the rule picks *which* worker serves a task so as
to reassign as few drivers as possible, which also keeps the successful
paths short (MC21's lookahead).  ``tests/property/test_free_neighbour_rule.py``
holds it to a copy of the plain DFS, and
``tests/matching/test_matroid_kernel.py``,
``tests/matching/test_prematching_search.py`` and
``tests/matching/test_lazy_search.py`` pin the callers to oracle copies
of their earlier searches with the rule added.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.matching.maximum_matching import UNMATCHED

#: ``mark`` value of a saturated worker; exceeds every search stamp.
DEAD = sys.maxsize


def csr_rows(csr) -> List[List[int]]:
    """Per-task neighbour lists of a CSR view (ascending worker order)."""
    indptr = csr.indptr_list
    indices = csr.indices_list
    return [indices[lo:hi] for lo, hi in zip(indptr, islice(indptr, 1, None))]


def augmenting_path(
    rows: Sequence[Sequence[int]],
    match_worker: List[int],
    mark: List[int],
    stamp: int,
    start: int,
    touched: List[int],
) -> Optional[Tuple[List[int], int]]:
    """Search an augmenting path from the unmatched task ``start``.

    Iterative DFS, free neighbour first: each task it enters first takes
    the first free unmarked worker of its row, and only otherwise does
    the search descend into the row's matched workers, one row iterator
    per level.  Does not change the matching.

    Args:
        rows: Per-task neighbour lists (:func:`csr_rows`).
        match_worker: Task matched to each worker, or :data:`UNMATCHED`.
        mark: Per-worker stamp of the last search that visited it, or
            :data:`DEAD`; visited workers get ``stamp``.
        stamp: This search's stamp, larger than every earlier one.
        start: Task position to augment from.
        touched: Caller-owned list; every worker the search visits is
            appended to it, in visit order.

    Returns:
        ``(tasks, worker)`` — the path's tasks from ``start`` down and the
        free worker it ends at — or ``None`` when no path exists.  The
        worker chosen at level ``i`` is the one matched to ``tasks[i + 1]``,
        so :func:`flip_path` reads the rest of the path back from
        ``match_task``.

    Task 1's row holds worker 0, which serves task 0, before the free
    worker 1; the path ends at worker 1 without re-routing task 0:

    >>> rows, match_worker = [[0, 1], [0, 1]], [0, UNMATCHED]
    >>> augmenting_path(rows, match_worker, [0, 0], 1, 1, [])
    ([1], 1)
    """
    row = rows[start]
    for worker_pos in row:
        if match_worker[worker_pos] == UNMATCHED and mark[worker_pos] < stamp:
            mark[worker_pos] = stamp
            touched.append(worker_pos)
            return [start], worker_pos
    tasks = [start]
    iters = [iter(row)]
    while iters:
        for worker_pos in iters[-1]:
            if mark[worker_pos] >= stamp:
                continue
            mark[worker_pos] = stamp
            touched.append(worker_pos)
            # Matched: the lookahead found no free unmarked worker in
            # this row, and marks only grow.
            owner = match_worker[worker_pos]
            tasks.append(owner)
            row = rows[owner]
            for free_pos in row:
                if match_worker[free_pos] == UNMATCHED and mark[free_pos] < stamp:
                    mark[free_pos] = stamp
                    touched.append(free_pos)
                    return tasks, free_pos
            iters.append(iter(row))
            break
        else:
            tasks.pop()
            iters.pop()
    return None


def flip_path(
    match_task: List[int],
    match_worker: List[int],
    tasks: Sequence[int],
    worker_pos: int,
) -> None:
    """Apply a path found by :func:`augmenting_path`, deepest pair first.

    The matching must not have changed since the search.
    """
    for task_pos in reversed(tasks):
        previous = match_task[task_pos]
        match_task[task_pos] = worker_pos
        match_worker[worker_pos] = task_pos
        worker_pos = previous


def matroid_augment(
    csr,
    order: Sequence[int],
) -> List[int]:
    """Run the matroid greedy over ``order``; returns the match array.

    Args:
        csr: A :class:`~repro.matching.bipartite.CSRGraph` view.
        order: Eligible task positions in non-increasing weight order
            (from :func:`repro.matching.weighted.eligible_order`).

    Returns:
        ``match_task`` as a plain list: ``match_task[t]`` is the matched
        worker position or :data:`UNMATCHED`.  The loop returns as soon
        as every worker with an edge is matched (the saturation stop),
        with the result the full loop would give.
    """
    match_task: List[int] = [UNMATCHED] * csr.num_tasks
    match_worker: List[int] = [UNMATCHED] * csr.num_workers
    # Saturation stop: workers that have an edge and are still free.
    free = int(np.count_nonzero(np.bincount(csr.indices, minlength=csr.num_workers)))
    if not free:
        return match_task
    rows = csr_rows(csr)
    mark: List[int] = [0] * csr.num_workers
    stamp = 0
    for start in order:
        stamp += 1
        touched: List[int] = []
        found = augmenting_path(rows, match_worker, mark, stamp, start, touched)
        if found is None:
            for worker_pos in touched:
                mark[worker_pos] = DEAD
        else:
            # flip_path, inlined: most searches here succeed, and a call
            # per augmentation is a measurable share of the batch match.
            tasks, worker_pos = found
            for task_pos in reversed(tasks):
                previous = match_task[task_pos]
                match_task[task_pos] = worker_pos
                match_worker[worker_pos] = task_pos
                worker_pos = previous
            free -= 1
            if not free:
                break
    return match_task


__all__ = ["DEAD", "augmenting_path", "csr_rows", "flip_path", "matroid_augment"]
