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
result.

Each DFS level keeps an iterator over its task's row, which resumes
exactly where that level left off, so the search visits workers in the
order of the classic recursive DFS
(``tests/matching/test_matroid_kernel.py``,
``tests/matching/test_prematching_search.py`` and
``tests/matching/test_lazy_search.py`` pin the callers to oracle copies
of their earlier searches).
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import List, Optional, Sequence, Tuple

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

    Iterative DFS replicating the classic recursive search: one row
    iterator per level, so workers are visited in the same order and the
    same path is found.  Does not change the matching.

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
    """
    tasks = [start]
    iters = [iter(rows[start])]
    while iters:
        for worker_pos in iters[-1]:
            if mark[worker_pos] >= stamp:
                continue
            mark[worker_pos] = stamp
            touched.append(worker_pos)
            owner = match_worker[worker_pos]
            if owner == UNMATCHED:
                return tasks, worker_pos
            tasks.append(owner)
            iters.append(iter(rows[owner]))
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
        worker position or :data:`UNMATCHED`.
    """
    match_task: List[int] = [UNMATCHED] * csr.num_tasks
    match_worker: List[int] = [UNMATCHED] * csr.num_workers
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
    return match_task


__all__ = ["DEAD", "augmenting_path", "csr_rows", "flip_path", "matroid_augment"]
