"""Maximum-weight bipartite matching.

The total revenue of a period (Definition 5) is the weight of a maximum
weighted matching of the instantiated bipartite graph where the weight of
edge ``(r, w)`` is ``d_r * p_r``.  Because the weight depends only on the
task, the problem is equivalent to selecting a maximum-weight set of
accepted tasks that can be simultaneously matched — an independent set in
the transversal matroid of the graph — and the classic matroid greedy
algorithm (process tasks by non-increasing weight, keep a task if an
augmenting path exists) is *exact* for this special structure.  That
greedy-with-augmentation algorithm is :func:`task_weighted_matching` and is
what the simulation engine uses, since it runs in ``O(|R| * |E|)`` and
scales to the paper's 500k-node scalability experiment.

All backends consume the CSR (``indptr``/``indices``) view of the graph
(:meth:`repro.matching.bipartite.BipartiteGraph.csr`), built once per
period: eligible tasks are ordered with one ``numpy`` lexsort and the
augmenting-path search walks the flat CSR arrays iteratively with a
stamp-based visited array instead of recursing over list-of-list adjacency
with per-task ``set`` allocations.  The DFS visits workers in exactly the
order of the original recursive implementation, so the produced matching —
not just its weight — is unchanged.  The scalar inner loops (the matroid
augmenting-path search and the ``vgreedy`` round loop) live in
:mod:`repro.kernels`.

Backends are registered in :mod:`repro.matching.registry` (mirroring
:mod:`repro.pricing.registry`) and selected by name through
:func:`max_weight_matching`:

* ``matroid`` — :func:`task_weighted_matching`, exact, the default;
* ``hungarian`` — a self-contained Kuhn–Munkres implementation on a dense
  matrix (edge weights may differ per worker), ``O(n^3)``;
* ``scipy`` — a thin wrapper over ``scipy.optimize.linear_sum_assignment``;
* ``greedy`` — a fast heuristic that never augments (lower-bound baseline
  in the ablation);
* ``vgreedy`` — a numpy-vectorised round-based greedy (proposals resolved
  by weight-order priority), the fast approximate backend for huge dense
  periods where even the flat-list greedy loop is the bottleneck.

Matching under churn (inserts and deletes between solves) is not a
backend: the dynamic engines maintain one matching with the matchers of
:mod:`repro.matching.incremental`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.kernels.augmenting import matroid_augment
from repro.kernels.vgreedy import vgreedy_rounds
from repro.matching.bipartite import BipartiteGraph, CSRGraph
from repro.matching.maximum_matching import UNMATCHED
from repro.matching.registry import (
    available_backends,
    get_backend,
    register_backend,
)

EdgeWeightFn = Callable[[int, int], float]
MatchingResult = Tuple[Dict[int, int], float]


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
    must insert tasks in exactly this order to reproduce the matroid
    backend's matching bit-for-bit.
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
def task_weighted_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    """Maximum-weight matching when the weight depends only on the task.

    Args:
        graph: Structural bipartite graph.
        task_weights: Weight (``d_r * p_r``) of each task position.
        allowed_tasks: Optional subset of task positions eligible for
            matching (e.g. only the accepted tasks).

    Returns:
        ``(task_to_worker, total_weight)``.

    The algorithm processes eligible tasks in non-increasing weight order
    and tries to augment the current matching for each; matroid theory
    guarantees the result is a maximum-weight matching because feasible
    task sets form a transversal matroid.
    """
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
# Kuhn–Munkres (Hungarian algorithm) on a dense matrix
# ---------------------------------------------------------------------------
def hungarian_matching(
    weight_matrix: np.ndarray,
) -> MatchingResult:
    """Maximum-weight bipartite matching of a dense weight matrix.

    ``weight_matrix[i, j]`` is the weight of assigning row ``i`` (task) to
    column ``j`` (worker); ``-inf`` marks forbidden pairs.  Rows and
    columns may be left unassigned (weights are treated as profits, and
    only pairs with positive finite weight contribute).

    Returns:
        ``(row_to_col, total_weight)``.

    The implementation pads the matrix to a square profit matrix with a
    zero-profit "dummy" option for every row/column and runs the
    Jonker-style O(n^3) shortest-augmenting-path Hungarian algorithm on the
    equivalent minimisation problem.
    """
    matrix = np.asarray(weight_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("weight_matrix must be 2-D")
    num_rows, num_cols = matrix.shape
    size = num_rows + num_cols  # room for every row and column to go unmatched
    # Profit matrix: dummy cells have profit zero; forbidden cells stay -inf
    # only in the real block, dummies make the problem always feasible.
    profit = np.zeros((size, size), dtype=float)
    profit[:num_rows, :num_cols] = np.where(np.isfinite(matrix), matrix, -1e18)
    best = profit.max() if size else 0.0
    cost = best - profit  # minimisation problem with non-negative costs

    assignment = _hungarian_min_cost(cost)

    row_to_col: Dict[int, int] = {}
    total = 0.0
    for row, col in assignment.items():
        if row < num_rows and col < num_cols and np.isfinite(matrix[row, col]) and matrix[row, col] > 0:
            row_to_col[row] = col
            total += float(matrix[row, col])
    return row_to_col, total


def _hungarian_min_cost(cost: np.ndarray) -> Dict[int, int]:
    """Square-matrix assignment minimisation (shortest augmenting paths).

    Classic O(n^3) implementation using potentials (a.k.a. the Jonker–
    Volgenant variant of the Hungarian algorithm).
    """
    n = cost.shape[0]
    if n == 0:
        return {}
    INF = math.inf
    # 1-based arrays as in the standard formulation.
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row assigned to column j (0 = none)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(0, n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = {}
    for j in range(1, n + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    return assignment


# ---------------------------------------------------------------------------
# SciPy backend
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


# ---------------------------------------------------------------------------
# greedy heuristic (no augmentation)
# ---------------------------------------------------------------------------
def greedy_weight_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    """Greedy matching without augmenting paths (heuristic lower bound).

    Tasks are processed by non-increasing weight and grabbed by the first
    free neighbouring worker.  Used in the ablation benchmark to quantify
    how much the exact augmentation-based matching gains.
    """
    csr = graph.csr()
    weights, order = eligible_order(csr.num_tasks, task_weights, allowed_tasks)
    weight_list = weights.tolist()
    indptr = csr.indptr_list
    indices = csr.indices_list
    worker_used = bytearray(csr.num_workers)
    task_to_worker: Dict[int, int] = {}
    total = 0.0
    for task_pos in order:
        for ptr in range(indptr[task_pos], indptr[task_pos + 1]):
            worker_pos = indices[ptr]
            if not worker_used[worker_pos]:
                worker_used[worker_pos] = 1
                task_to_worker[task_pos] = worker_pos
                total += weight_list[task_pos]
                break
    return task_to_worker, total


# ---------------------------------------------------------------------------
# numpy-vectorised greedy (round-based proposals)
# ---------------------------------------------------------------------------
def vectorized_greedy_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    """Round-based greedy matching over the flat CSR arrays (approximate).

    Each round, every still-unmatched eligible task *proposes* to its
    first still-free neighbouring worker (lowest worker position); when
    several tasks propose to the same worker, the task ranked earliest in
    the canonical weight order wins, and losers re-propose next round.
    Every round is a handful of numpy passes over the surviving candidate
    edges with **no Python per-edge work**, and at least one proposal
    (the globally best-ranked active task's) succeeds per round, so the
    loop terminates in at most ``min(|R|, |W|)`` rounds — in practice a
    few, since the candidate set collapses geometrically.

    The result is a *maximal* matching of the eligible tasks: every
    unmatched eligible task has all its neighbours taken, which bounds
    the cardinality at no less than half the exact backend's.  The total
    weight is generally close to, but not the same as, the sequential
    ``greedy`` heuristic — conflict losers may settle for workers a
    sequential pass would have given to someone else — which is why this
    is registered as the separate ``vgreedy`` backend.
    """
    csr = graph.csr()
    weights, order = eligible_order(csr.num_tasks, task_weights, allowed_tasks)
    if not order or not csr.num_edges:
        return {}, 0.0
    order_arr = np.asarray(order, dtype=np.int64)
    # rank[t]: position in the canonical processing order (lower wins).
    rank = np.full(csr.num_tasks, np.iinfo(np.int64).max, dtype=np.int64)
    rank[order_arr] = np.arange(order_arr.size, dtype=np.int64)

    eligible = np.zeros(csr.num_tasks, dtype=bool)
    eligible[order_arr] = True
    edge_tasks = np.repeat(np.arange(csr.num_tasks, dtype=np.int64), csr.degrees())
    keep = eligible[edge_tasks]
    cand_t = edge_tasks[keep]
    cand_w = csr.indices[keep]

    # The round loop is the kernel; candidate preparation (above) and the
    # weight total (below) stay here.
    task_match = vgreedy_rounds(cand_t, cand_w, rank, csr.num_tasks, csr.num_workers)

    matched = np.flatnonzero(task_match != UNMATCHED)
    task_to_worker = dict(
        zip(matched.tolist(), task_match[matched].tolist())
    )
    return task_to_worker, float(weights[matched].sum())


# ---------------------------------------------------------------------------
# dense-matrix helpers shared by the hungarian / scipy backends
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# backend registrations + dispatcher
# ---------------------------------------------------------------------------
@register_backend("matroid")
def _matroid_backend(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    return task_weighted_matching(graph, task_weights, allowed_tasks)


@register_backend("greedy")
def _greedy_backend(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    return greedy_weight_matching(graph, task_weights, allowed_tasks)


@register_backend("vgreedy")
def _vgreedy_backend(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    return vectorized_greedy_matching(graph, task_weights, allowed_tasks)


@register_backend("hungarian")
def _hungarian_backend(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    weights = _masked_weights(graph.num_tasks, task_weights, allowed_tasks)
    return hungarian_matching(_task_weight_matrix(graph, weights))


@register_backend("scipy")
def _scipy_backend(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
) -> MatchingResult:
    weights = _masked_weights(graph.num_tasks, task_weights, allowed_tasks)
    return scipy_weight_matching(_task_weight_matrix(graph, weights))


def max_weight_matching(
    graph: BipartiteGraph,
    task_weights: Sequence[float],
    allowed_tasks: Optional[Sequence[int]] = None,
    backend: str = "matroid",
) -> MatchingResult:
    """Maximum-weight matching with a selectable backend.

    Args:
        graph: Structural bipartite graph.
        task_weights: Per-task weights (``d_r * p_r``).
        allowed_tasks: Optional subset of task positions (accepted tasks).
        backend: A backend name registered in
            :mod:`repro.matching.registry` — ``matroid`` (exact, default),
            ``hungarian`` (exact, dense ``O(n^3)``), ``scipy`` (exact,
            dense), ``greedy`` (heuristic) or ``vgreedy`` (vectorised
            heuristic).

    Returns:
        ``(task_to_worker, total_weight)``.

    Raises:
        ValueError: for unknown backends; the error lists the registered
            backend names (see :func:`repro.matching.registry.get_backend`).
    """
    return get_backend(backend)(graph, task_weights, allowed_tasks)


__all__ = [
    "eligible_order",
    "task_weighted_matching",
    "hungarian_matching",
    "scipy_weight_matching",
    "greedy_weight_matching",
    "vectorized_greedy_matching",
    "max_weight_matching",
    "available_backends",
]
