"""Matroid-greedy augmenting-path kernel.

:func:`matroid_augment` is the inner loop of the exact matroid-greedy
matcher (:func:`repro.matching.weighted.max_weight_matching`):
given the CSR view and the canonical weight-ordered task sequence, it
produces the per-task match array.  The
caller keeps everything float-bearing — weight validation, ordering and
the total accumulation.

The implementation is the stamp-visited augmenting-path DFS with
saturation pruning.  One ``mark`` list holds
both kinds of skip: a worker visited by the current search carries its
stamp, a saturated ("dead") worker a sentinel above every stamp, so the
per-entry test is ``mark[w] >= stamp``.  Each DFS level keeps an
iterator over its task's row (rows are sliced once per call), which
resumes exactly where that level left off.  Rows are scanned in the same
order, the same workers are skipped and the saturation rule is unchanged,
so the search visits workers in the order of the classic recursive DFS
and ``match_task`` is identical element for element
(``tests/matching/test_matroid_kernel.py`` pins it to an oracle copy of
that search).
"""

from __future__ import annotations

from itertools import islice
from typing import List, Sequence

from repro.matching.maximum_matching import UNMATCHED


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
    indptr = csr.indptr_list
    indices = csr.indices_list
    match_task: List[int] = [UNMATCHED] * csr.num_tasks
    match_worker: List[int] = [UNMATCHED] * csr.num_workers
    rows = [indices[lo:hi] for lo, hi in zip(indptr, islice(indptr, 1, None))]
    # mark[w] is the stamp of the last search that visited w, or ``dead``.
    # Saturation pruning: when an augmentation fails, every worker its DFS
    # visited lies in a frozen alternating component — all of them are
    # matched and their owners' neighbourhoods stay inside the component,
    # so no later augmenting path can succeed (or even usefully pass)
    # through them.  Marking them dead turns the classic O(|R| * |E|)
    # worst case into near-O(|E|) amortised on saturated instances while
    # provably returning the exact same matching.  ``dead`` exceeds every
    # stamp, so "visited by this search or dead" is one comparison.
    mark: List[int] = [0] * csr.num_workers
    dead = len(order) + 1
    stamp = 0

    def augment(start: int) -> bool:
        # Iterative DFS replicating the classic recursive augmenting-path
        # search: one row iterator per level resumes exactly where that
        # level left off, so workers are visited in the same order and
        # the matching is the same.  The worker level i chose is the one
        # matched to the task at level i + 1, so the path is read back
        # from match_task when it is flipped.
        tasks_stack = [start]
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
                    for task_pos in reversed(tasks_stack):
                        previous = match_task[task_pos]
                        match_task[task_pos] = worker_pos
                        match_worker[worker_pos] = task_pos
                        worker_pos = previous
                    return True
                tasks_stack.append(owner)
                iters.append(iter(rows[owner]))
                break
            else:
                tasks_stack.pop()
                iters.pop()
        for worker_pos in touched:
            mark[worker_pos] = dead
        return False

    for task_pos in order:
        stamp += 1
        augment(task_pos)

    return match_task


__all__ = ["matroid_augment"]
