"""Delete/repair kernels for the fully dynamic matcher.

:class:`repro.matching.incremental.DynamicMatcher` maintains the
lexicographically-maximal matched task set under arbitrary insertions and
deletions.  Its two inner loops live here:

``dynamic_augment``
    The augmenting-path DFS of the insert-only matcher — free neighbour
    first, the one pairing rule of every augmenting search (see
    :mod:`repro.kernels.augmenting`): a task takes the first free live
    unvisited worker of its row before re-routing a matched one, to
    reassign as few drivers as possible — with the two
    changes deletions force.  Saturation pruning (the ``dead`` marks)
    is unsound once the matching can shrink, so workers are filtered by a
    ``worker_live`` mask instead; and a *failed* search must report every
    worker it visited — their matched owners, plus the start task, are
    exactly the circuit of the transversal matroid from which the repair
    logic evicts the lowest-priority task.

``dynamic_reach``
    The reverse alternating BFS over the worker→task transpose CSR.  When
    a deletion (or worker arrival) frees exactly one worker, the only
    tasks whose basis membership can flip are the unmatched eligible
    tasks with an alternating path to that worker; this kernel enumerates
    them so the repair can absorb the highest-priority one.

Both kernels are pure index selection — every float comparison and
accumulation stays in the matcher's wrapper code.  Unlike the insert-only
matcher, the dynamic matcher keeps ndarray state: its deletion
bookkeeping (live masks, transpose CSR) is array-shaped anyway.
"""

from __future__ import annotations

import numpy as np

UNMATCHED = -1


def dynamic_augment(
    indptr: np.ndarray,
    indices: np.ndarray,
    match_worker: np.ndarray,
    worker_live: np.ndarray,
    visited: np.ndarray,
    stamp: int,
    start: int,
    path_tasks: np.ndarray,
    path_workers: np.ndarray,
    visited_out: np.ndarray,
) -> int:
    """Augmenting DFS from ``start`` over live workers, free neighbour first.

    Returns the path length (written deepest-first into ``path_tasks`` /
    ``path_workers``) on success, or ``-(n_visited + 1)`` on failure with
    the visited workers, in visit order, in ``visited_out[:n_visited]``.
    """
    tasks_stack = [int(start)]
    iters = [int(indptr[start])]
    chosen = [UNMATCHED]
    n_visited = 0
    entered = True
    while tasks_stack:
        depth = len(tasks_stack) - 1
        task_pos = tasks_stack[depth]
        end = indptr[task_pos + 1]
        if entered:
            # Free neighbour first: end the path at the row's first free
            # unvisited worker before re-routing any matched one.
            entered = False
            for pointer in range(iters[depth], end):
                worker_pos = int(indices[pointer])
                if (
                    match_worker[worker_pos] == UNMATCHED
                    and worker_live[worker_pos] != 0
                    and visited[worker_pos] != stamp
                ):
                    visited[worker_pos] = stamp
                    chosen[depth] = worker_pos
                    length = depth + 1
                    for level in range(length):
                        path_tasks[level] = tasks_stack[depth - level]
                        path_workers[level] = chosen[depth - level]
                    return length
        pointer = iters[depth]
        descended = False
        while pointer < end:
            worker_pos = int(indices[pointer])
            pointer += 1
            if worker_live[worker_pos] == 0 or visited[worker_pos] == stamp:
                continue
            # Matched: the lookahead found no free live unvisited worker
            # in this row, and the visited marks only grow.
            visited[worker_pos] = stamp
            visited_out[n_visited] = worker_pos
            n_visited += 1
            iters[depth] = pointer
            chosen[depth] = worker_pos
            owner = int(match_worker[worker_pos])
            tasks_stack.append(owner)
            iters.append(int(indptr[owner]))
            chosen.append(UNMATCHED)
            descended = entered = True
            break
        if not descended:
            tasks_stack.pop()
            iters.pop()
            chosen.pop()
    return -(n_visited + 1)


def dynamic_reach(
    windptr: np.ndarray,
    windices: np.ndarray,
    match_task: np.ndarray,
    task_eligible: np.ndarray,
    task_visited: np.ndarray,
    worker_visited: np.ndarray,
    stamp: int,
    start_worker: int,
    queue: np.ndarray,
    out_tasks: np.ndarray,
) -> int:
    """Unmatched eligible tasks alternating-reachable from ``start_worker``.

    Returns the candidate count; positions land in ``out_tasks[:count]``
    in BFS visit order.  ``task_eligible`` must be 1 exactly for live
    tasks with positive weight (matched tasks are always eligible — only
    eligible tasks get matched).
    """
    head = 0
    tail = 0
    queue[tail] = start_worker
    tail += 1
    worker_visited[start_worker] = stamp
    count = 0
    while head < tail:
        worker_pos = int(queue[head])
        head += 1
        for pointer in range(int(windptr[worker_pos]), int(windptr[worker_pos + 1])):
            task_pos = int(windices[pointer])
            if task_eligible[task_pos] == 0 or task_visited[task_pos] == stamp:
                continue
            task_visited[task_pos] = stamp
            matched = int(match_task[task_pos])
            if matched == UNMATCHED:
                out_tasks[count] = task_pos
                count += 1
            elif worker_visited[matched] != stamp:
                worker_visited[matched] = stamp
                queue[tail] = matched
                tail += 1
    return count


__all__ = ["dynamic_augment", "dynamic_reach"]
