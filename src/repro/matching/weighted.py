"""Maximum-weight bipartite matching.

The total revenue of a period (Definition 5) is the weight of a maximum
weighted matching of the instantiated bipartite graph where the weight of
edge ``(r, w)`` is ``d_r * p_r``.  Because the weight depends only on the
task, the problem is equivalent to selecting a maximum-weight set of
accepted tasks that can be simultaneously matched — an independent set in
the transversal matroid of the graph — and the classic matroid greedy
algorithm (process tasks by non-increasing weight, keep a task if an
augmenting path exists) is *exact* for this special structure.  That
greedy-with-augmentation algorithm is :func:`max_weight_matching`, the
one matcher every engine runs: it takes ``O(|R| * |E|)`` and scales to
the paper's 500k-node scalability experiment.

It consumes the CSR (``indptr``/``indices``) view of the graph
(:meth:`repro.matching.bipartite.BipartiteGraph.csr`), built once per
period: eligible tasks are ordered with one ``numpy`` lexsort and the
augmenting-path search walks the flat CSR arrays iteratively with a
stamp-based visited array instead of recursing over list-of-list adjacency
with per-task ``set`` allocations.  The greedy stops once every worker
with an edge is matched (the *saturation stop*): a matched worker never
becomes free again, so every later search would fail and change nothing.  The greedy fixes *which* tasks are
served; the pairing — which worker serves each — follows one named rule,
*free neighbour first*: a search takes the first free worker of a task's
row before it re-routes a matched one, to reassign as few drivers as
possible.  The recursive oracle
(:func:`repro.simulation.legacy.reference_task_weighted_matching`) takes
the same rule, so the produced matching — not just its weight — equals
it.  The scalar augmenting-path search lives in
:mod:`repro.kernels.augmenting`.

:func:`scipy_max_weight_matching` solves the same problem densely with
``scipy.optimize.linear_sum_assignment``.  It is the exact oracle the
tests and the ablation benchmark hold the matroid greedy to, not a
production path.

Matching under churn (inserts and deletes between solves) maintains one
matching with the matchers of :mod:`repro.matching.incremental` instead.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.kernels.augmenting import matroid_augment
from repro.matching.bipartite import BipartiteGraph
from repro.matching.maximum_matching import UNMATCHED

MatchingResult = Tuple[Dict[int, int], float]


def _check_backend(backend: str) -> None:
    """Refuse any matching backend name other than ``matroid``.

    The matroid greedy is the only matcher; the name survives as a
    keyword of :func:`max_weight_matching` and
    :class:`~repro.simulation.sharded.ShardedEngine` for callers that
    still spell it out, and selects nothing.
    """
    if backend != "matroid":
        raise ValueError(
            f"unknown matching backend {backend!r}; the only backend is 'matroid'"
        )


def eligible_order(
    num_tasks: int,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]],
) -> Tuple[np.ndarray, List[int]]:
    """Validated weights and eligible task positions in processing order.

    Processing order is non-increasing weight with ties broken by task
    position (the order the matroid greedy requires); tasks with
    non-positive weight are dropped up front, which is equivalent to the
    greedy skipping them.  Exported because the dynamic streaming
    engines and :class:`~repro.simulation.streaming.DispatchSession`
    must insert tasks in exactly this order to reproduce
    :func:`max_weight_matching` bit-for-bit.
    """
    weights = np.asarray(task_weights, dtype=float)
    if weights.ndim != 1 or weights.shape[0] != num_tasks:
        raise ValueError("task_weights length must match number of tasks")
    if allowed_tasks is None:
        eligible = np.flatnonzero(weights > 0.0)
    else:
        allowed = np.unique(np.asarray(list(allowed_tasks), dtype=np.int64))
        if allowed.size and (allowed[0] < 0 or allowed[-1] >= num_tasks):
            raise IndexError("allowed task position out of range")
        eligible = allowed[weights[allowed] > 0.0]
    order = eligible[np.lexsort((eligible, -weights[eligible]))]
    return weights, order.tolist()


# ---------------------------------------------------------------------------
# exact matroid-greedy matching for task-side weights
# ---------------------------------------------------------------------------
def max_weight_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
    *,
    backend: str = "matroid",
) -> MatchingResult:
    """Maximum-weight matching when the weight depends only on the task.

    Args:
        graph: Structural bipartite graph.
        task_weights: Weight (``d_r * p_r``) of each task position.
        allowed_tasks: Optional subset of task positions eligible for
            matching (e.g. only the accepted tasks).
        backend: Must be ``"matroid"``, the one matcher; any other name
            raises :class:`ValueError` (see :func:`_check_backend`).

    Returns:
        ``(task_to_worker, total_weight)``.

    The algorithm processes eligible tasks in non-increasing weight order
    and tries to augment the current matching for each; matroid theory
    guarantees the result is a maximum-weight matching because feasible
    task sets form a transversal matroid.
    """
    _check_backend(backend)
    csr = graph.csr()
    weights, order = eligible_order(csr.num_tasks, task_weights, allowed_tasks)

    # The augmenting-path loop itself is the kernel; everything
    # float-bearing (ordering, the total) stays here.
    match_task = matroid_augment(csr, order)

    weight_list = weights.tolist()
    total = 0.0
    # Accumulate in canonical processing order — the exact float addition
    # sequence of the historical inline loop (a matched task is matched
    # at its own turn and the matching only grows).
    for task_pos in order:
        if match_task[task_pos] != UNMATCHED:
            total += weight_list[task_pos]

    task_to_worker = {
        pos: worker for pos, worker in enumerate(match_task) if worker != UNMATCHED
    }
    return task_to_worker, total


# ---------------------------------------------------------------------------
# the dense exact oracle
# ---------------------------------------------------------------------------
def scipy_weight_matching(weight_matrix: np.ndarray) -> MatchingResult:
    """Maximum-weight matching via ``scipy.optimize.linear_sum_assignment``.

    Missing edges must be encoded as ``-inf``.  Because all real edge
    weights are non-negative (``d_r * p``), missing edges can be encoded as
    zero-profit cells for the solver: the complete assignment it returns
    then corresponds to a maximum-weight matching once zero-profit pairs
    are dropped, and no huge sentinel values enter the computation (which
    would destroy floating-point precision).
    """
    matrix = np.asarray(weight_matrix, dtype=float)
    if matrix.size == 0:
        return {}, 0.0
    profit = np.where(np.isfinite(matrix) & (matrix > 0), matrix, 0.0)
    rows, cols = linear_sum_assignment(profit, maximize=True)
    row_to_col: Dict[int, int] = {}
    total = 0.0
    for row, col in zip(rows, cols):
        value = matrix[row, col]
        if np.isfinite(value) and value > 0:
            row_to_col[int(row)] = int(col)
            total += float(value)
    return row_to_col, total


def _task_weight_matrix(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
) -> np.ndarray:
    """Dense weight matrix with ``-inf`` marking missing edges."""
    csr = graph.csr()
    matrix = np.full((csr.num_tasks, csr.num_workers), -math.inf)
    if csr.num_edges:
        rows = np.repeat(np.arange(csr.num_tasks), csr.degrees())
        matrix[rows, csr.indices] = np.asarray(task_weights, dtype=float)[rows]
    return matrix


def _masked_weights(
    num_tasks: int,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]],
) -> np.ndarray:
    """Weights with disallowed task positions zeroed out."""
    weights = np.asarray(task_weights, dtype=float).copy()
    if weights.ndim != 1 or weights.shape[0] != num_tasks:
        raise ValueError("task_weights length must match number of tasks")
    if allowed_tasks is not None:
        allowed = np.asarray(list(allowed_tasks), dtype=np.int64)
        if allowed.size and (allowed.min() < 0 or allowed.max() >= num_tasks):
            raise IndexError("allowed task position out of range")
        mask = np.zeros(num_tasks, dtype=bool)
        mask[allowed] = True
        weights[~mask] = 0.0
    return weights


def scipy_max_weight_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    """The same problem as :func:`max_weight_matching`, solved densely.

    A test oracle: it builds the ``|R| x |W|`` weight matrix and hands it
    to :func:`scipy_weight_matching`, so the total agrees with the
    matroid greedy's to float rounding while the pairing may differ.
    """
    weights = _masked_weights(graph.num_tasks, task_weights, allowed_tasks)
    return scipy_weight_matching(_task_weight_matrix(graph, weights))


__all__ = [
    "eligible_order",
    "max_weight_matching",
    "scipy_max_weight_matching",
    "scipy_weight_matching",
]
