"""Round-based greedy matching kernel.

:func:`vgreedy_rounds` is the proposal/commit loop of the approximate
``vgreedy`` backend (:func:`repro.matching.weighted.vectorized_greedy_matching`):
given the eligible candidate edges it runs the rounds and returns the
per-task match array.  Candidate preparation and the weight total stay in
the caller.
"""

from __future__ import annotations

import numpy as np

from repro.matching.maximum_matching import UNMATCHED


def vgreedy_rounds(
    cand_t: np.ndarray,
    cand_w: np.ndarray,
    rank: np.ndarray,
    num_tasks: int,
    num_workers: int,
) -> np.ndarray:
    """Run the proposal rounds; returns the ``int64`` match array.

    Args:
        cand_t: Candidate edge task positions, ascending by
            ``(task, worker)`` (eligible tasks only).
        cand_w: Candidate edge worker positions (same length/order).
        rank: Per-task position in the canonical weight order (lower
            wins conflicts; non-eligible tasks carry the int64 max).
        num_tasks: Total task positions (match array length).
        num_workers: Total worker positions.

    Returns:
        ``task_match``: matched worker position per task, or
        :data:`UNMATCHED`.
    """
    task_match = np.full(num_tasks, UNMATCHED, dtype=np.int64)
    worker_owner = np.full(num_workers, UNMATCHED, dtype=np.int64)
    sentinel = np.iinfo(np.int64).max
    while cand_t.size:
        live = (task_match[cand_t] == UNMATCHED) & (worker_owner[cand_w] == UNMATCHED)
        cand_t, cand_w = cand_t[live], cand_w[live]
        if not cand_t.size:
            break
        # First surviving candidate per task: candidates stay sorted by
        # (task, worker), so it is the first row of each task run.
        first = np.ones(cand_t.size, dtype=bool)
        first[1:] = cand_t[1:] != cand_t[:-1]
        proposer = cand_t[first]
        proposed = cand_w[first]
        # Conflict resolution: the best (lowest) rank per worker wins.
        best = np.full(num_workers, sentinel, dtype=np.int64)
        np.minimum.at(best, proposed, rank[proposer])
        winner = best[proposed] == rank[proposer]
        matched_tasks = proposer[winner]
        matched_workers = proposed[winner]
        task_match[matched_tasks] = matched_workers
        worker_owner[matched_workers] = matched_tasks
    return task_match


__all__ = ["vgreedy_rounds"]
