"""Augmenting-path search shared by the batch matcher and the pre-matching.

:func:`augmenting_path` is the one augmenting-path DFS of the insert-only
matchers: :func:`matroid_augment`, the inner loop of the exact
matroid-greedy matcher
(:func:`repro.matching.weighted.max_weight_matching`), runs it once per
task in weight order, and
:class:`~repro.matching.incremental.IncrementalMatcher`, MAPS's
pre-matching, runs it for its probe-then-commit grid queries.  The
callers keep everything float-bearing — weight validation, ordering and
the total accumulation.

The search is the stamp-visited augmenting-path DFS with saturation
pruning.  One ``mark`` list holds both kinds of skip: a worker visited
by the current search carries its stamp, a saturated ("dead") worker
:data:`DEAD`, a sentinel above every stamp, so the per-entry test is
``mark[w] >= stamp``.  Each DFS level keeps an iterator over its task's
row, which resumes exactly where that level left off.  Rows are scanned
in ascending worker order, the same workers are skipped and the
saturation rule is unchanged, so the search visits workers in the order
of the classic recursive DFS and ``match_task`` is identical element for
element (``tests/matching/test_matroid_kernel.py`` and
``tests/matching/test_prematching_search.py`` pin both callers to oracle
copies of their earlier searches).
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
) -> Optional[Tuple[List[int], int]]:
    """Search an augmenting path from the unmatched task ``start``.

    Iterative DFS replicating the classic recursive search: one row
    iterator per level, so workers are visited in the same order and the
    same path is found.  Does not change the matching.

    Saturation pruning: when a search fails, every worker it visited lies
    in a frozen alternating component — all of them are matched and their
    owners' neighbourhoods stay inside the component — so no later
    augmenting path can succeed (or even usefully pass) through them as
    long as the matching only grows.  They are marked :data:`DEAD`, which
    turns the classic ``O(|R| * |E|)`` worst case into near-``O(|E|)``
    amortised on saturated instances without changing any result.

    Args:
        rows: Per-task neighbour lists (:func:`csr_rows`).
        match_worker: Task matched to each worker, or :data:`UNMATCHED`.
        mark: Per-worker stamp of the last search that visited it, or
            :data:`DEAD`; updated in place.
        stamp: This search's stamp, larger than every earlier one.
        start: Task position to augment from.

    Returns:
        ``(tasks, worker)`` — the path's tasks from ``start`` down and the
        free worker it ends at — or ``None`` when no path exists.  The
        worker chosen at level ``i`` is the one matched to ``tasks[i + 1]``,
        so :func:`flip_path` reads the rest of the path back from
        ``match_task``.
    """
    tasks = [start]
    iters = [iter(rows[start])]
    touched: List[int] = []
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
    for worker_pos in touched:
        mark[worker_pos] = DEAD
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
        found = augmenting_path(rows, match_worker, mark, stamp, start)
        if found is not None:
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
