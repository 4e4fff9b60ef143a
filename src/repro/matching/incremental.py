"""Incremental augmenting-path matcher (the MAPS pre-matching).

Algorithm 2 maintains a *pre-matching* ``M'``: every time the planner wants
to raise the supply ``n^{tg}`` of a grid by one, it must check that an
additional, not-yet-assigned task of that grid can actually be matched to a
free worker (possibly after re-routing existing assignments along an
augmenting path).  If no augmenting path exists the grid's marginal gain is
forced to zero and the grid drops out of the supply competition.

:class:`IncrementalMatcher` wraps that logic: it owns the matching state,
answers "can grid g absorb one more worker?" queries by searching an
augmenting path from any unmatched task of the grid, and commits the path
when the planner admits the supply increase.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.kernels.augmenting import DEAD, augmenting_path, csr_rows, flip_path
from repro.kernels.dynamic import dynamic_augment, dynamic_reach
from repro.matching.bipartite import BipartiteGraph
from repro.matching.maximum_matching import UNMATCHED


class IncrementalMatcher:
    """Maintains a matching of the task–worker graph under augmentation.

    The matcher never removes matched pairs; it only grows the matching
    one augmenting path at a time, which mirrors lines 10 and 16 of
    Algorithm 2.

    The augmenting search is the batch matcher's
    (:func:`repro.kernels.augmenting.augmenting_path`) and walks the
    graph's cached CSR view (:meth:`BipartiteGraph.csr`) — the same
    arrays the batch matcher consumes — so one period's CSR is built
    once and shared by the match stage, the halo reconciliation and this
    matcher, instead of re-walking (or re-materialising) list-of-list
    adjacency per consumer.
    The CSR is snapshotted at construction: the graph must not gain edges
    while the matcher is alive.

    Args:
        graph: Structural bipartite graph of the current period.
        grid_tasks: Optional pre-computed ``{grid_index: task positions}``
            buckets (e.g. :attr:`PeriodInstance.tasks_by_grid`); passing
            them avoids re-walking every task's grid annotation here.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        grid_tasks: Optional[Mapping[int, Sequence[int]]] = None,
    ) -> None:
        self._graph = graph
        # Plain lists: the interpreted DFS indexes them measurably faster
        # than ndarrays.
        self._rows = csr_rows(graph.csr())
        self._match_task = [UNMATCHED] * graph.num_tasks
        self._match_worker = [UNMATCHED] * graph.num_workers
        # Task positions grouped by grid; taken from the caller when
        # available, otherwise computed lazily on first use.
        self._grid_tasks: Optional[Dict[int, List[int]]] = (
            {g: list(positions) for g, positions in grid_tasks.items()}
            if grid_tasks is not None
            else None
        )
        # Search stamps and saturation marks of the shared augmenting-path
        # search (:func:`repro.kernels.augmenting.augmenting_path`); the
        # matching only ever grows, which keeps the dead marks sound.
        self._mark = [0] * graph.num_workers
        self._stamp = 0
        # Check-then-commit cache: the MAPS planner probes
        # ``can_augment_grid(g)`` when proposing a supply increase and
        # commits with ``augment_grid(g)`` only when the proposal wins the
        # heap.  The matching only changes through ``_flip``, so a path
        # found at version ``v`` is still augmenting at version ``v`` —
        # committing it verbatim skips the second search.
        self._version = 0
        self._cached_grid: Optional[int] = None
        self._cached_version = -1
        self._cached_result: Optional[Tuple[List[int], int]] = None

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        return self._graph

    @property
    def size(self) -> int:
        """Number of matched pairs."""
        return sum(1 for worker in self._match_task if worker != UNMATCHED)

    def matching(self) -> Dict[int, int]:
        """Current matching as ``{task_position: worker_position}``."""
        return {
            task_pos: int(worker_pos)
            for task_pos, worker_pos in enumerate(self._match_task)
            if worker_pos != UNMATCHED
        }

    def worker_of(self, task_pos: int) -> Optional[int]:
        worker = self._match_task[task_pos]
        return None if worker == UNMATCHED else int(worker)

    def task_of(self, worker_pos: int) -> Optional[int]:
        task = self._match_worker[worker_pos]
        return None if task == UNMATCHED else int(task)

    def is_task_matched(self, task_pos: int) -> bool:
        return self._match_task[task_pos] != UNMATCHED

    def matched_tasks_in_grid(self, grid_index: int) -> List[int]:
        return [
            pos for pos in self._tasks_of_grid(grid_index) if self.is_task_matched(pos)
        ]

    def unmatched_tasks_in_grid(self, grid_index: int) -> List[int]:
        return [
            pos
            for pos in self._tasks_of_grid(grid_index)
            if not self.is_task_matched(pos)
        ]

    # ------------------------------------------------------------------
    # augmentation
    # ------------------------------------------------------------------
    def can_augment_grid(self, grid_index: int) -> bool:
        """Whether some unmatched task of the grid admits an augmenting path.

        Does not modify the matching.  The found path (or its absence) is
        cached and reused by :meth:`augment_grid` when the matching has
        not changed in between — the planner's common probe-then-commit
        sequence then costs one search instead of two.
        """
        result = self._grid_augmenting_path_cached(grid_index)
        return result is not None

    def augment_grid(self, grid_index: int) -> Optional[int]:
        """Admit one more supply unit for the grid, if feasible.

        Searches an augmenting path starting from any unmatched task of the
        grid and, if found, applies it.

        Returns:
            The task position that became matched, or ``None`` if no
            augmenting path exists (the grid is saturated).
        """
        result = self._grid_augmenting_path_cached(grid_index)
        if result is None:
            return None
        self._flip(result)
        return result[0][0]

    def _grid_augmenting_path_cached(
        self, grid_index: int
    ) -> Optional[Tuple[List[int], int]]:
        if self._cached_grid == grid_index and self._cached_version == self._version:
            return self._cached_result
        result = self._find_grid_augmenting_path(grid_index)
        self._cached_grid = grid_index
        self._cached_version = self._version
        self._cached_result = result
        return result

    def augment_task(self, task_pos: int) -> bool:
        """Try to match a specific task (no-op if already matched).

        Returns:
            Whether the task is matched after the call.
        """
        if self.is_task_matched(task_pos):
            return True
        found = self._search(task_pos)
        if found is None:
            return False
        self._flip(found)
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _tasks_of_grid(self, grid_index: int) -> List[int]:
        if self._grid_tasks is None:
            self._grid_tasks = {}
            for pos, task in enumerate(self._graph.tasks):
                if task.grid_index is None:
                    raise ValueError(
                        f"task {task.task_id} has no grid index; annotate tasks first"
                    )
                self._grid_tasks.setdefault(task.grid_index, []).append(pos)
        return self._grid_tasks.get(grid_index, [])

    def _find_grid_augmenting_path(
        self, grid_index: int
    ) -> Optional[Tuple[List[int], int]]:
        match_task = self._match_task
        for task_pos in self._tasks_of_grid(grid_index):
            if match_task[task_pos] != UNMATCHED:
                continue
            found = self._search(task_pos)
            if found is not None:
                return found
        return None

    def _search(self, start_task: int) -> Optional[Tuple[List[int], int]]:
        """One augmenting-path search from ``start_task`` under a new stamp."""
        self._stamp += 1
        touched: List[int] = []
        found = augmenting_path(
            self._rows, self._match_worker, self._mark, self._stamp, start_task, touched
        )
        if found is None:
            for worker_pos in touched:  # saturation pruning
                self._mark[worker_pos] = DEAD
        return found

    def _flip(self, found: Tuple[List[int], int]) -> None:
        flip_path(self._match_task, self._match_worker, *found)
        self._version += 1

    # ------------------------------------------------------------------
    # validation helpers (used by tests)
    # ------------------------------------------------------------------
    def is_valid_matching(self) -> bool:
        """Check mutual consistency and edge feasibility of the matching."""
        for task_pos, worker_pos in enumerate(self._match_task):
            if worker_pos == UNMATCHED:
                continue
            if self._match_worker[worker_pos] != task_pos:
                return False
            if worker_pos not in self._graph.task_neighbors[task_pos]:
                return False
        seen_workers: Set[int] = set()
        for worker_pos in self._match_task:
            if worker_pos == UNMATCHED:
                continue
            if worker_pos in seen_workers:
                return False
            seen_workers.add(worker_pos)
        return True


class DynamicMatcher(IncrementalMatcher):
    """Maximum-weight matching maintained under insertions *and* deletions.

    The graph passed at construction is the *universe*: every task and
    worker that may ever exist, with the full CSR adjacency.  All of them
    start absent; :meth:`insert_task` / :meth:`insert_worker` bring them
    live, :meth:`remove_task` / :meth:`remove_worker` take them out, and
    :meth:`commit_task` retires a matched pair (both sides leave, no
    repair needed).  After every operation the matcher restores one
    invariant:

        **the matched task set is the lexicographically-maximal
        independent set** of the transversal matroid induced by the live
        workers on the live, positive-weight tasks, under the priority
        order *weight descending, position ascending* — exactly the set
        the batch matroid greedy (:func:`max_weight_matching`) computes
        from scratch on the same population.

    Because that set is intrinsic to the population (not to the path of
    operations that produced it), "dynamic == batch re-solve" holds after
    *any* interleaving of inserts and deletes — the property the stateful
    differential suite (``tests/property/test_dynamic_matching.py``)
    fuzzes.  The matched *pairs* are not canonical under churn (distinct
    maximum matchings of the same set exist); only the set and the total
    weight are.

    Repairs touch only the alternating structure around the delta:

    * inserting task ``t`` runs one augmenting DFS; on failure, the
      visited workers' owners plus ``t`` form the fundamental circuit,
      and the lowest-priority element of that circuit is evicted (if it
      is ``t`` itself, nothing changes);
    * freeing a worker (task removal or worker arrival) can pull at most
      **one** task into the basis: the highest-priority unmatched task
      with an alternating path to the freed worker
      (:func:`repro.kernels.dynamic.dynamic_reach`);
    * removing a matched worker re-runs insert-repair for the orphaned
      task against the remaining workers.

    With ``--max-degree K`` the DFS/BFS frontiers are bounded-degree, so
    each repair costs :math:`O(K)` per alternating step instead of
    re-solving the window (see ``docs/dynamic_matching.md``).

    Unlike the insert-only base class the state is ndarray-shaped, and
    the insert-only saturation pruning is disabled: a failed search must
    report its full visited set (the circuit), and deletions would
    invalidate the dead marks anyway.

    Args:
        graph: Universe bipartite graph (CSR snapshotted, as for
            :class:`IncrementalMatcher`).
        task_weights: Weight per universe task position.  A task whose
            weight is ``<= 0`` can be inserted but never matches,
            mirroring the batch matcher's eligibility filter.
    """

    def __init__(
        self, graph: BipartiteGraph, task_weights: Sequence[float]
    ) -> None:  # noqa: D107 — documented on the class
        if len(task_weights) != graph.num_tasks:
            raise ValueError(
                f"expected {graph.num_tasks} task weights, got {len(task_weights)}"
            )
        self._graph = graph
        csr = graph.csr()
        num_tasks, num_workers = graph.num_tasks, graph.num_workers
        self._indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        self._indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
        # Worker→task transpose of the CSR, for the reverse alternating
        # BFS.  The stable argsort keeps each worker's task row in
        # ascending task order, so the BFS visit order is deterministic.
        edge_tasks = np.repeat(
            np.arange(num_tasks, dtype=np.int64), np.diff(self._indptr)
        )
        order = np.argsort(self._indices, kind="stable")
        self._windices = np.ascontiguousarray(edge_tasks[order])
        counts = np.bincount(self._indices, minlength=num_workers)
        self._windptr = np.zeros(num_workers + 1, dtype=np.int64)
        np.cumsum(counts, out=self._windptr[1:])

        self._weights = np.zeros(num_tasks, dtype=np.float64)
        self._initial_weights = np.asarray(task_weights, dtype=np.float64)
        self._match_task = np.full(num_tasks, UNMATCHED, dtype=np.int64)
        self._match_worker = np.full(num_workers, UNMATCHED, dtype=np.int64)
        self._task_live = np.zeros(num_tasks, dtype=np.uint8)
        self._task_eligible = np.zeros(num_tasks, dtype=np.uint8)
        self._worker_live = np.zeros(num_workers, dtype=np.uint8)
        # Stamped scratch + output buffers shared by both kernels.
        self._visited = np.zeros(num_workers, dtype=np.int64)
        self._task_visited = np.zeros(num_tasks, dtype=np.int64)
        self._stamp = 0
        self._path_tasks = np.empty(num_tasks + 1, dtype=np.int64)
        self._path_workers = np.empty(num_tasks + 1, dtype=np.int64)
        self._visited_out = np.empty(max(num_workers, 1), dtype=np.int64)
        self._queue = np.empty(max(num_workers, 1), dtype=np.int64)
        self._out_tasks = np.empty(max(num_tasks, 1), dtype=np.int64)
        self._grid_tasks: Optional[Dict[int, List[int]]] = None
        self._version = 0

    # ------------------------------------------------------------------
    # population views
    # ------------------------------------------------------------------
    def is_task_live(self, task_pos: int) -> bool:
        return bool(self._task_live[task_pos])

    def is_worker_live(self, worker_pos: int) -> bool:
        return bool(self._worker_live[worker_pos])

    def live_tasks(self) -> List[int]:
        return np.flatnonzero(self._task_live).tolist()

    def live_workers(self) -> List[int]:
        return np.flatnonzero(self._worker_live).tolist()

    def weight_of(self, task_pos: int) -> float:
        return float(self._weights[task_pos])

    def total_weight(self) -> float:
        """Sum of matched task weights, bit-identical to the batch solve.

        The floats are accumulated in priority order (weight descending,
        position ascending) — the same sequence the matroid greedy adds
        as it grows the matching over ``eligible_order`` — so the result
        is bitwise equal to a fresh re-solve's total, not merely close.
        """
        matched = np.flatnonzero(self._match_task != UNMATCHED)
        order = matched[np.lexsort((matched, -self._weights[matched]))]
        total = 0.0
        for task_pos in order:
            total += float(self._weights[task_pos])
        return total

    # ------------------------------------------------------------------
    # dynamic operations
    # ------------------------------------------------------------------
    def insert_task(
        self,
        task_pos: int,
        weight: Optional[float] = None,
    ) -> bool:
        """Bring a universe task live, repairing the matching.

        Args:
            task_pos: Universe position; must not currently be live.
            weight: Weight for this lifetime of the task; defaults to the
                construction-time weight.  Non-positive weights insert
                the task as permanently unmatchable (live but
                ineligible), mirroring the batch eligibility filter.

        Returns:
            Whether the task is matched after the call.
        """
        if self._task_live[task_pos]:
            raise ValueError(f"task position {task_pos} is already live")
        self._task_live[task_pos] = 1
        value = float(self._initial_weights[task_pos] if weight is None else weight)
        self._weights[task_pos] = value
        if value <= 0.0:
            self._task_eligible[task_pos] = 0
            return False
        self._task_eligible[task_pos] = 1
        return self._match_or_evict(task_pos)

    def insert_task_greedy(self, task_pos: int, weight: float) -> bool:
        """Degraded insert: first free adjacent worker, no repair search.

        The latency-bounded fallback of the service's SLO path: scan the
        task's CSR row once and pair it with the first live, free,
        adjacent worker — ``O(degree)`` with no augmenting DFS and no
        circuit eviction, so the cost is bounded however tangled the
        alternating structure is.  The matching stays *valid* (the
        structural reachability proofs behind later repairs do not depend
        on optimality) but the lex-max-basis invariant is deliberately
        abandoned from this call on: a greedy-inserted task may occupy a
        worker a higher-priority later task needed, and with no
        augmenting search to move it, that revenue is lost to the batch
        re-solve.  Callers must not mix this with gates that assert the
        batch re-solve equivalence.

        Args:
            task_pos: Universe position; must not currently be live.
            weight: Weight for this lifetime of the task; non-positive
                inserts it live-but-ineligible like :meth:`insert_task`.

        Returns:
            Whether the task is matched after the call.
        """
        if self._task_live[task_pos]:
            raise ValueError(f"task position {task_pos} is already live")
        self._task_live[task_pos] = 1
        value = float(weight)
        self._weights[task_pos] = value
        if value <= 0.0:
            self._task_eligible[task_pos] = 0
            return False
        self._task_eligible[task_pos] = 1
        lo, hi = int(self._indptr[task_pos]), int(self._indptr[task_pos + 1])
        for worker_pos in self._indices[lo:hi]:
            candidate = int(worker_pos)
            if (
                self._worker_live[candidate]
                and self._match_worker[candidate] == UNMATCHED
            ):
                self._match_task[task_pos] = candidate
                self._match_worker[candidate] = task_pos
                self._version += 1
                return True
        return False

    def insert_worker(self, worker_pos: int) -> Optional[int]:
        """Bring a universe worker live; at most one task joins the basis.

        Returns:
            The task position absorbed into the matching, or ``None``.
        """
        if self._worker_live[worker_pos]:
            raise ValueError(f"worker position {worker_pos} is already live")
        self._worker_live[worker_pos] = 1
        return self._absorb_free_worker(worker_pos)

    def insert_workers(self, worker_positions: Sequence[int]) -> None:
        """Batch :meth:`insert_worker`, in order (the session's batch shape)."""
        for worker_pos in worker_positions:
            self.insert_worker(worker_pos)

    def insert_tasks(
        self,
        task_positions: Sequence[int],
        weights: Sequence[float],
        greedy: bool = False,
    ) -> List[bool]:
        """Batch :meth:`insert_task` (or :meth:`insert_task_greedy`), in order.

        Returns whether each task was matched right after its own insert.
        """
        insert = self.insert_task_greedy if greedy else self.insert_task
        return [
            insert(task_pos, weight)
            for task_pos, weight in zip(task_positions, weights)
        ]

    def remove_task(self, task_pos: int) -> Optional[int]:
        """Remove a live task (departure or expiry), repairing the matching.

        Returns:
            The task position absorbed into the matching by the freed
            worker, or ``None`` (always ``None`` for unmatched tasks).
        """
        if not self._task_live[task_pos]:
            raise ValueError(f"task position {task_pos} is not live")
        self._task_live[task_pos] = 0
        self._task_eligible[task_pos] = 0
        worker_pos = int(self._match_task[task_pos])
        if worker_pos == UNMATCHED:
            # A non-basis element: the basis of the others is untouched.
            return None
        self._match_task[task_pos] = UNMATCHED
        self._match_worker[worker_pos] = UNMATCHED
        self._version += 1
        return self._absorb_free_worker(worker_pos)

    def remove_worker(self, worker_pos: int) -> bool:
        """Remove a live worker (departure), repairing the matching.

        Returns:
            Whether the worker's orphaned task (if any) was re-matched —
            ``True`` also when the worker was free (nothing to repair:
            the current basis was lex-maximal over a superset of the
            remaining workers and is still achievable without a free
            worker, hence still lex-maximal).
        """
        if not self._worker_live[worker_pos]:
            raise ValueError(f"worker position {worker_pos} is not live")
        self._worker_live[worker_pos] = 0
        task_pos = int(self._match_worker[worker_pos])
        if task_pos == UNMATCHED:
            return True
        self._match_worker[worker_pos] = UNMATCHED
        self._match_task[task_pos] = UNMATCHED
        self._version += 1
        # Re-run insert-repair for the orphan against the remaining
        # workers: either it re-augments (basis unchanged), or the
        # lowest-priority element of its circuit leaves the basis.
        return self._match_or_evict(task_pos)

    def commit_task(self, task_pos: int) -> int:
        """Retire a matched pair together (e.g. a served assignment).

        Removing a matched task *and* its worker in one step keeps the
        lex-max basis of the remaining population intact with no repair:
        the worker's capacity leaves with the task that consumed it.

        Returns:
            The worker position that served the task.
        """
        worker_pos = int(self._match_task[task_pos])
        if not self._task_live[task_pos] or worker_pos == UNMATCHED:
            raise ValueError(f"task position {task_pos} is not live and matched")
        self._task_live[task_pos] = 0
        self._task_eligible[task_pos] = 0
        self._worker_live[worker_pos] = 0
        self._match_task[task_pos] = UNMATCHED
        self._match_worker[worker_pos] = UNMATCHED
        self._version += 1
        return worker_pos

    # ------------------------------------------------------------------
    # repair internals
    # ------------------------------------------------------------------
    def _priority_key(self, task_pos: int) -> Tuple[float, int]:
        """Sort key under the basis priority order: smaller = higher."""
        return (-float(self._weights[task_pos]), int(task_pos))

    def _run_augment(self, start_task: int) -> int:
        self._stamp += 1
        return dynamic_augment(
            self._indptr,
            self._indices,
            self._match_worker,
            self._worker_live,
            self._visited,
            self._stamp,
            start_task,
            self._path_tasks,
            self._path_workers,
            self._visited_out,
        )

    def _apply_kernel_path(self, length: int) -> None:
        for level in range(length):
            task_pos = int(self._path_tasks[level])
            worker_pos = int(self._path_workers[level])
            self._match_task[task_pos] = worker_pos
            self._match_worker[worker_pos] = task_pos
        self._version += 1

    def _match_or_evict(self, task_pos: int) -> bool:
        """Insert-repair: augment ``task_pos`` or evict its circuit minimum."""
        length = self._run_augment(task_pos)
        if length >= 0:
            self._apply_kernel_path(length)
            return True
        # Failed search: the visited workers are all matched, and their
        # owners together with ``task_pos`` are the fundamental circuit.
        n_visited = -length - 1
        evict = task_pos
        evict_key = self._priority_key(task_pos)
        for worker_pos in self._visited_out[:n_visited]:
            owner = int(self._match_worker[worker_pos])
            key = self._priority_key(owner)
            if key > evict_key:
                evict = owner
                evict_key = key
        if evict == task_pos:
            return False
        freed = int(self._match_task[evict])
        self._match_task[evict] = UNMATCHED
        self._match_worker[freed] = UNMATCHED
        # The evicted task's worker was visited by the failed search, so
        # an alternating path from ``task_pos`` to it exists and the
        # re-run must succeed.
        length = self._run_augment(task_pos)
        if length < 0:
            raise RuntimeError(
                "dynamic matcher invariant violated: re-augmentation after "
                f"evicting task {evict} failed for task {task_pos}"
            )
        self._apply_kernel_path(length)
        return True

    def _absorb_free_worker(self, worker_pos: int) -> Optional[int]:
        """Delete-repair: pull the best newly-augmentable task, if any.

        Exactly the unmatched eligible tasks with an alternating path to
        the freed worker become augmentable (any path to a *different*
        free worker would already have existed, contradicting the old
        basis's maximality), so the basis gains at most one element: the
        highest-priority of those candidates.
        """
        self._stamp += 1
        count = dynamic_reach(
            self._windptr,
            self._windices,
            self._match_task,
            self._task_eligible,
            self._task_visited,
            self._visited,
            self._stamp,
            worker_pos,
            self._queue,
            self._out_tasks,
        )
        if count == 0:
            return None
        best = int(self._out_tasks[0])
        best_key = self._priority_key(best)
        for task_pos in self._out_tasks[1:count]:
            key = self._priority_key(int(task_pos))
            if key < best_key:
                best = int(task_pos)
                best_key = key
        length = self._run_augment(best)
        if length < 0:
            raise RuntimeError(
                "dynamic matcher invariant violated: task "
                f"{best} reachable from freed worker {worker_pos} failed to augment"
            )
        self._apply_kernel_path(length)
        return best

    # ------------------------------------------------------------------
    # insert-only API is not meaningful here
    # ------------------------------------------------------------------
    def augment_task(self, task_pos: int) -> bool:
        raise NotImplementedError(
            "DynamicMatcher tracks population explicitly; use insert_task"
        )

    def can_augment_grid(self, grid_index: int) -> bool:
        raise NotImplementedError("grid probes are an IncrementalMatcher API")

    def augment_grid(self, grid_index: int) -> Optional[int]:
        raise NotImplementedError("grid probes are an IncrementalMatcher API")


class LazyDynamicMatcher:
    """A :class:`DynamicMatcher` whose universe grows one arrival at a time.

    :class:`DynamicMatcher` needs the full universe graph up front — an
    epoch-wide adjacency pre-scan over every task and worker that will
    ever exist.  This matcher instead allocates positions lazily, in
    arrival order, and takes each task's candidate row (and optionally
    each worker's) from the caller at insertion time — typically straight
    from :class:`repro.spatial.index.IncrementalAdjacencyIndex`, so the
    cost of an arrival is its spatial neighbourhood, never the epoch.

    **Equivalence to the universe matcher.**  Ids are allocated in
    arrival order and never reused, so a task's row —
    the live adjacent workers at insertion, ascending, plus later
    arrivals tail-appended — is exactly the universe CSR row restricted
    to the workers live at some point of the task's life, in the same
    order.  The universe DFS skips non-live workers with no side effects,
    hence both matchers run identical traversals and evolve bit-identical
    matched state under the same operation sequence (fuzzed by
    ``tests/matching/test_lazy_dynamic.py``).  The restriction does not
    hold under a per-task degree cap (capping against the realised
    population is not capping against the universe), so capped callers
    must gate against a re-solve on the *realised* rows instead.

    Worker arrivals absorb the best reachable unmatched task and matched
    task removals repair through the freed worker, so task rows must be
    appended for arriving workers (pass ``task_row`` to
    :meth:`new_worker`).  A free worker searches only while some
    eligible task waits unmatched (a count of the eligible tasks against
    :attr:`num_matched` says so), and its search stops at the best
    waiting task, the top of a heap of the waiting tasks: it is the best
    of every waiting task, hence of the reachable ones.  The heap is
    validated lazily: a task is pushed each time it starts waiting, and
    an entry whose task is matched or no longer eligible is popped when
    it reaches the top.

    The augmenting search is the batch matcher's
    (:func:`repro.kernels.augmenting.augmenting_path`); a failed
    search's visited workers are the circuit :meth:`new_task` evicts
    from.  Departed workers and ineligible tasks carry the
    :data:`~repro.kernels.augmenting.DEAD` sentinel in their visit-stamp
    slots, so both searches skip them with the same ``>= stamp`` test
    that skips an entry visited by the current search.  The sentinel is
    the one record of a worker's liveness and of a task's eligibility
    (live with a positive weight).

    State lives in plain Python lists (markedly faster to index than
    ndarray scalars in the interpreted searches): one worker row per task
    and one task row per worker.
    """

    def __init__(self) -> None:  # noqa: D107 — documented on the class
        self._stamp = 0
        self._num_matched = 0
        # Live tasks of positive weight; the difference to _num_matched
        # is the number of waiting tasks.
        self._num_eligible = 0
        # (-weight, task id) per start of a wait, popped once stale.
        self._waiting: List[Tuple[float, int]] = []
        self._weights: List[float] = []
        self._rows: List[List[int]] = []
        self._task_live = bytearray()
        self._match_task: List[int] = []
        self._match_worker: List[int] = []
        self._visited: List[int] = []
        self._task_visited: List[int] = []
        self._wrows: List[List[int]] = []

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        """Task ids allocated so far (not the live count)."""
        return len(self._match_task)

    @property
    def num_workers(self) -> int:
        """Worker ids allocated so far (not the live count)."""
        return len(self._match_worker)

    @property
    def num_matched(self) -> int:
        return self._num_matched

    def is_task_live(self, task_id: int) -> bool:
        return bool(self._task_live[task_id])

    def is_worker_live(self, worker_id: int) -> bool:
        return self._visited[worker_id] != DEAD

    def weight_of(self, task_id: int) -> float:
        return float(self._weights[task_id])

    def worker_of(self, task_id: int) -> Optional[int]:
        worker_id = int(self._match_task[task_id])
        return None if worker_id == UNMATCHED else worker_id

    def task_of(self, worker_id: int) -> Optional[int]:
        task_id = int(self._match_worker[worker_id])
        return None if task_id == UNMATCHED else task_id

    def matching(self) -> Dict[int, int]:
        """``{task_id: worker_id}`` in ascending task id order."""
        result: Dict[int, int] = {}
        for task_id, worker_id in enumerate(self._match_task):
            if worker_id != UNMATCHED:
                result[task_id] = int(worker_id)
        return result

    def total_weight(self) -> float:
        """Matched weight, accumulated in priority order (bit-stable).

        The same float sequence as :meth:`DynamicMatcher.total_weight`
        and the batch matroid solve: weight descending, id ascending.
        """
        weights = self._weights
        matched = [
            task_id
            for task_id, worker_id in enumerate(self._match_task)
            if worker_id != UNMATCHED
        ]
        matched.sort(key=lambda task_id: (-float(weights[task_id]), task_id))
        total = 0.0
        for task_id in matched:
            total += float(weights[task_id])
        return total

    def is_valid_matching(self) -> bool:
        """Check mutual consistency, liveness, edges and sentinels.

        Every matched task must be eligible (hence live), its worker
        live, matched back to it and on the task's row; no worker may
        claim a task that does not claim it back.  Exactly the tasks no
        longer live or of non-positive weight carry the search sentinel;
        the eligible count is theirs, and every waiting (eligible,
        unmatched) task has its entry in the waiting heap.
        """
        eligible = 0
        for live, weight, mark in zip(self._task_live, self._weights, self._task_visited):
            if (mark == DEAD) == bool(live and weight > 0.0):
                return False
            eligible += mark != DEAD
        if eligible != self._num_eligible:
            return False
        entries = set(self._waiting)
        for task_id, (worker_id, mark) in enumerate(zip(self._match_task, self._task_visited)):
            if worker_id == UNMATCHED and mark != DEAD:
                if (-self._weights[task_id], task_id) not in entries:
                    return False
        pairs = self.matching()
        owners = sum(1 for task_id in self._match_worker if task_id != UNMATCHED)
        if not len(pairs) == owners == self._num_matched:
            return False
        for task_id, worker_id in pairs.items():
            if self._task_visited[task_id] == DEAD or not self.is_worker_live(worker_id):
                return False
            if self.task_of(worker_id) != task_id:
                return False
            if worker_id not in self._rows[task_id]:
                return False
        return True

    # ------------------------------------------------------------------
    # search internals
    # ------------------------------------------------------------------
    def _try_augment(self, start: int) -> Optional[List[int]]:
        """Augment from ``start``; ``None`` on success (path applied), else
        the visited workers in visit order."""
        self._stamp += 1
        touched: List[int] = []
        found = augmenting_path(
            self._rows, self._match_worker, self._visited, self._stamp, start, touched
        )
        if found is None:
            return touched
        flip_path(self._match_task, self._match_worker, *found)
        return None

    def _reach(self, worker_id: int, target: int) -> List[int]:
        """Unmatched eligible tasks alternating-reachable from ``worker_id``.

        ``worker_id`` is free, so no task leads back to it: only the
        matched workers the search enters are stamped.  Meeting
        ``target``, the best waiting task, ends the search with
        ``[target]``: no other reachable task can beat it.
        """
        self._stamp += 1
        stamp = self._stamp
        wrows = self._wrows
        match_task = self._match_task
        task_visited = self._task_visited
        worker_visited = self._visited
        queue = [worker_id]
        out: List[int] = []
        for current in queue:
            for task_id in wrows[current]:
                if task_visited[task_id] >= stamp:
                    continue
                task_visited[task_id] = stamp
                matched = match_task[task_id]
                if matched == UNMATCHED:
                    if task_id == target:
                        return [target]
                    out.append(task_id)
                elif worker_visited[matched] != stamp:
                    worker_visited[matched] = stamp
                    queue.append(matched)
        return out

    def _wait(self, task_id: int) -> None:
        """Record that eligible ``task_id`` starts waiting unmatched."""
        heapq.heappush(self._waiting, (-self._weights[task_id], task_id))

    def _best_waiting(self) -> int:
        """The best waiting task; pops the stale entries above it.

        Call only while some task waits.
        """
        waiting = self._waiting
        match_task = self._match_task
        task_visited = self._task_visited
        while True:
            task_id = waiting[0][1]
            if match_task[task_id] == UNMATCHED and task_visited[task_id] != DEAD:
                return task_id
            heapq.heappop(waiting)

    # ------------------------------------------------------------------
    # repair internals
    # ------------------------------------------------------------------
    # Priority is weight descending, then id ascending; both repairs
    # compare it inline.  A task starts waiting only where
    # _match_or_evict gives up on it or evicts it, or where a greedy
    # insert finds no free worker.

    def _match_or_evict(self, task_id: int) -> bool:
        circuit = self._try_augment(task_id)
        if circuit is None:
            self._num_matched += 1
            return True
        match_task = self._match_task
        match_worker = self._match_worker
        weights = self._weights
        evict = task_id
        evict_weight = weights[task_id]
        for worker_id in circuit:
            owner = match_worker[worker_id]
            weight = weights[owner]
            if weight < evict_weight or (weight == evict_weight and owner > evict):
                evict = owner
                evict_weight = weight
        if evict == task_id:
            self._wait(task_id)
            return False
        freed = match_task[evict]
        match_task[evict] = UNMATCHED
        match_worker[freed] = UNMATCHED
        self._wait(evict)
        if self._try_augment(task_id) is not None:
            raise RuntimeError(
                "lazy dynamic matcher invariant violated: re-augmentation "
                f"after evicting task {evict} failed for task {task_id}"
            )
        return True

    def _absorb_free_worker(self, worker_id: int) -> Optional[int]:
        if self._num_eligible == self._num_matched:
            return None  # nothing waits, so nothing is reachable
        candidates = self._reach(worker_id, self._best_waiting())
        if not candidates:
            return None
        weights = self._weights
        best = candidates[0]
        best_weight = weights[best]
        for task_id in candidates:
            weight = weights[task_id]
            if weight > best_weight or (weight == best_weight and task_id < best):
                best = task_id
                best_weight = weight
        if self._try_augment(best) is not None:
            raise RuntimeError(
                "lazy dynamic matcher invariant violated: task "
                f"{best} reachable from freed worker {worker_id} failed to augment"
            )
        self._num_matched += 1
        return best

    # ------------------------------------------------------------------
    # dynamic operations
    # ------------------------------------------------------------------
    def new_worker(
        self, task_row: Optional[Sequence[int]] = None
    ) -> Tuple[int, Optional[int]]:
        """Allocate a worker id, bring it live, absorb at most one task.

        Args:
            task_row: The live task ids within the worker's range,
                ascending (e.g. one row of
                :meth:`~repro.spatial.index.IncrementalAdjacencyIndex.worker_rows`).
                Required whenever any live task exists; the edges are
                appended to those tasks' rows (keeping them
                arrival-ordered) and to the worker's transpose row.

        Returns:
            ``(worker_id, absorbed_task_id_or_None)``.

        A join searches only while some task waits, and absorbs the best
        task it reaches:

        >>> matcher = LazyDynamicMatcher()
        >>> matcher.new_worker()
        (0, None)
        >>> matcher.new_task([0], 2.0)  # worker 0 takes task 0
        (0, True)
        >>> matcher.new_worker([0])  # nothing waits: no search
        (1, None)
        >>> matcher.new_task([], 1.0)  # no worker in range: task 1 waits
        (1, False)
        >>> matcher.new_worker([1])  # worker 2 joins next to task 1
        (2, 1)
        >>> matcher.matching()
        {0: 0, 1: 2}
        """
        worker_id = len(self._match_worker)
        self._match_worker.append(UNMATCHED)
        self._visited.append(0)
        self._wrows.append([])
        if not task_row:
            return worker_id, None
        rows = self._rows
        for task_id in task_row:
            rows[task_id].append(worker_id)
        self._wrows[worker_id].extend(task_row)
        return worker_id, self._absorb_free_worker(worker_id)

    def new_task(
        self,
        row: Sequence[int],
        weight: float,
        greedy: bool = False,
    ) -> Tuple[int, bool]:
        """Allocate a task id, bring it live with ``row``, repair.

        Args:
            row: The live worker ids within range of the task, ascending
                (e.g. one row of
                :meth:`~repro.spatial.index.IncrementalAdjacencyIndex.task_rows`).
            weight: Weight for this task's lifetime; non-positive inserts
                it live but permanently ineligible, like
                :meth:`DynamicMatcher.insert_task`.
            greedy: Degraded ``O(degree)`` insert — first free adjacent
                worker, no repair search, lex-max invariant abandoned
                (see :meth:`DynamicMatcher.insert_task_greedy`).

        Returns:
            ``(task_id, matched)``.
        """
        value = float(weight)
        task_id = len(self._match_task)
        self._weights.append(value)
        self._rows.append(list(row))
        self._task_live.append(1)
        self._match_task.append(UNMATCHED)
        if value <= 0.0:
            self._task_visited.append(DEAD)
            return task_id, False
        self._task_visited.append(0)
        self._num_eligible += 1
        wrows = self._wrows
        for worker_id in row:
            wrows[worker_id].append(task_id)
        if greedy:
            match_task = self._match_task
            match_worker = self._match_worker
            visited = self._visited
            for worker_id in row:
                candidate = int(worker_id)
                if visited[candidate] != DEAD and int(match_worker[candidate]) == UNMATCHED:
                    match_task[task_id] = candidate
                    match_worker[candidate] = task_id
                    self._num_matched += 1
                    return task_id, True
            self._wait(task_id)
            return task_id, False
        return task_id, self._match_or_evict(task_id)

    def remove_task(self, task_id: int) -> Optional[int]:
        """Remove a live task; repairs through the freed worker if matched.

        Returns:
            The task id absorbed by the freed worker, or ``None``.
        """
        if not self._task_live[task_id]:
            raise ValueError(f"task id {task_id} is not live")
        self._task_live[task_id] = 0
        if self._task_visited[task_id] != DEAD:
            self._num_eligible -= 1
        self._task_visited[task_id] = DEAD
        worker_id = int(self._match_task[task_id])
        if worker_id == UNMATCHED:
            return None
        self._match_task[task_id] = UNMATCHED
        self._match_worker[worker_id] = UNMATCHED
        self._num_matched -= 1
        return self._absorb_free_worker(worker_id)

    def remove_worker(self, worker_id: int) -> bool:
        """Remove a live worker; re-repairs its orphaned task if matched.

        Returns:
            Whether the orphan (if any) was re-matched; ``True`` for free
            workers.
        """
        if self._visited[worker_id] == DEAD:
            raise ValueError(f"worker id {worker_id} is not live")
        self._visited[worker_id] = DEAD
        task_id = int(self._match_worker[worker_id])
        if task_id == UNMATCHED:
            return True
        self._match_worker[worker_id] = UNMATCHED
        self._match_task[task_id] = UNMATCHED
        self._num_matched -= 1
        return self._match_or_evict(task_id)

    def commit_task(self, task_id: int) -> int:
        """Retire a matched pair together (no repair needed).

        Returns:
            The worker id that served the task.
        """
        worker_id = int(self._match_task[task_id])
        if not self._task_live[task_id] or worker_id == UNMATCHED:
            raise ValueError(f"task id {task_id} is not live and matched")
        self._task_live[task_id] = 0
        self._task_visited[task_id] = DEAD
        self._visited[worker_id] = DEAD
        self._match_task[task_id] = UNMATCHED
        self._match_worker[worker_id] = UNMATCHED
        self._num_matched -= 1
        self._num_eligible -= 1
        return worker_id


__all__ = ["IncrementalMatcher", "DynamicMatcher", "LazyDynamicMatcher"]
