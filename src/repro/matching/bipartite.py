"""Task–worker bipartite graph under the range constraint.

The probabilistic bipartite graph of Definition 5 has tasks on the left,
workers on the right, and an edge ``(r, w)`` whenever task ``r``'s origin
lies within worker ``w``'s service radius.  The instantiation of the graph
(which tasks accepted their price) happens later; this module only deals
with the structural graph, which is what MAPS needs for its pre-matching
and what the simulator needs to compute realized revenue.

Edges are built two ways, producing the identical edge set (for the
``haversine`` metric, identical up to platform transcendental rounding at
the exact radius boundary — see
:func:`repro.spatial.geometry.haversine_distances_batch`):

* **array-native** (whenever a grid and a named metric are given; every
  engine runs it) — tasks are bucketed per grid cell once
  (:class:`repro.spatial.index.GridBuckets`), every worker's candidate
  tasks are enumerated with one ragged numpy expansion of contiguous
  runs, one per cell row of its rectangle, and a single batched
  distance filter keeps the true edges.  The builder emits the
  CSR arrays **directly** — the Python list-of-list adjacency is only
  materialised lazily if some consumer asks for it — and reuses grow-only
  scratch buffers across periods;
* **all-pairs scan** (no grid, or a caller-supplied metric callable) —
  every worker against every task.  It is the oracle the tests compare
  the array-native builder against, and fine for tiny instances.

An optional **degree cap** keeps only the ``max_degree`` nearest workers
per task (ties broken by ascending worker position): dense city-scale
periods produce average task degrees in the dozens, and the augmenting
search cost scales with edge count.  The cap is *off by default* — the
matching stays bit-identical to the uncapped graph's — and both paths
apply the identical capping rule, which the regression tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.market.entities import Task, Worker
from repro.spatial.geometry import (
    DistanceMetric,
    resolve_batch_metric,
    resolve_metric,
)
from repro.spatial.grid import Grid
from repro.spatial.index import (
    GridBuckets,
    canonical_edge_order,
    cap_edges_per_center,
    checked_degree_cap,
)


# eq=False: ndarray fields would make a generated __eq__ raise; the view
# is an identity-compared cache.
@dataclass(frozen=True, eq=False)
class CSRGraph:
    """Compressed-sparse-row view of the task-side adjacency.

    The neighbours of task position ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]`` in ascending worker order.  The
    maximum-weight matcher and its dense oracle consume this representation (see
    :mod:`repro.matching.weighted`): it is built once per period and avoids
    re-walking Python list-of-list adjacency in the hot loop.

    Attributes:
        indptr: ``int64`` array of length ``num_tasks + 1``.
        indices: ``int64`` array of length ``num_edges`` (worker positions).
        num_tasks: Number of rows (task positions).
        num_workers: Number of columns (worker positions).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_tasks: int
    num_workers: int

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, task_pos: int) -> np.ndarray:
        """Worker positions adjacent to ``task_pos`` (ascending)."""
        return self.indices[self.indptr[task_pos] : self.indptr[task_pos + 1]]

    def degrees(self) -> np.ndarray:
        """Per-task neighbour counts."""
        return np.diff(self.indptr)

    # The augmenting-path inner loops iterate edges element-by-element in
    # Python; plain ``int`` lists are markedly faster to index than numpy
    # scalars there, so both views are cached alongside the arrays.
    @cached_property
    def indptr_list(self) -> List[int]:
        return self.indptr.tolist()

    @cached_property
    def indices_list(self) -> List[int]:
        return self.indices.tolist()

    def to_dense_mask(self) -> np.ndarray:
        """Boolean ``(num_tasks, num_workers)`` adjacency matrix."""
        mask = np.zeros((self.num_tasks, self.num_workers), dtype=bool)
        if self.num_edges:
            rows = np.repeat(np.arange(self.num_tasks), self.degrees())
            mask[rows, self.indices] = True
        return mask

    @classmethod
    def from_adjacency(
        cls, task_neighbors: Sequence[Sequence[int]], num_workers: int
    ) -> "CSRGraph":
        """Build a CSR view from (sorted) list-of-list adjacency."""
        counts = [len(adjacency) for adjacency in task_neighbors]
        indptr = np.zeros(len(task_neighbors) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if indptr[-1]:
            indices = np.concatenate(
                [np.asarray(adjacency, dtype=np.int64) for adjacency in task_neighbors if adjacency]
            )
        else:
            indices = np.zeros(0, dtype=np.int64)
        return cls(
            indptr=indptr,
            indices=indices,
            num_tasks=len(task_neighbors),
            num_workers=int(num_workers),
        )

    @classmethod
    def from_edge_arrays(
        cls,
        task_idx: np.ndarray,
        worker_idx: np.ndarray,
        num_tasks: int,
        num_workers: int,
    ) -> "CSRGraph":
        """Build a CSR view from flat edge arrays sorted by (task, worker)."""
        indptr = np.zeros(num_tasks + 1, dtype=np.int64)
        if task_idx.size:
            np.cumsum(np.bincount(task_idx, minlength=num_tasks), out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=np.ascontiguousarray(worker_idx, dtype=np.int64),
            num_tasks=int(num_tasks),
            num_workers=int(num_workers),
        )


class BipartiteGraph:
    """Adjacency structure between tasks (left) and workers (right).

    The graph can be backed either by Python list-of-list adjacency (the
    historical representation, still what :meth:`add_edge` mutates) or
    directly by a :class:`CSRGraph` produced by the vectorised builder.
    In the latter case ``task_neighbors`` / ``worker_neighbors`` are
    materialised **lazily** on first access, so the hot path — which only
    ever touches the CSR arrays — never pays for building millions of
    Python list entries.

    Attributes:
        tasks: The tasks, indexed by their position in this list.
        workers: The workers, indexed by their position in this list.
        task_neighbors: ``task_neighbors[i]`` is the sorted list of worker
            positions adjacent to task ``i``.
        worker_neighbors: ``worker_neighbors[j]`` is the sorted list of
            task positions adjacent to worker ``j``.
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
        task_neighbors: Optional[List[List[int]]] = None,
        worker_neighbors: Optional[List[List[int]]] = None,
    ) -> None:
        self.tasks: List[Task] = tasks if isinstance(tasks, list) else list(tasks)
        self.workers: List[Worker] = (
            workers if isinstance(workers, list) else list(workers)
        )
        # An empty list means "not provided" (matching the historical
        # dataclass default-factory behaviour).
        if not task_neighbors:
            task_neighbors = [[] for _ in self.tasks]
        if not worker_neighbors:
            worker_neighbors = [[] for _ in self.workers]
        if len(task_neighbors) != len(self.tasks):
            raise ValueError("task_neighbors length must match tasks")
        if len(worker_neighbors) != len(self.workers):
            raise ValueError("worker_neighbors length must match workers")
        self._task_neighbors: Optional[List[List[int]]] = task_neighbors
        self._worker_neighbors: Optional[List[List[int]]] = worker_neighbors
        self._csr: Optional[CSRGraph] = None

    @classmethod
    def from_csr(
        cls, tasks: Sequence[Task], workers: Sequence[Worker], csr: CSRGraph
    ) -> "BipartiteGraph":
        """Wrap a pre-built CSR view without materialising Python lists."""
        if csr.num_tasks != len(tasks) or csr.num_workers != len(workers):
            raise ValueError("CSR dimensions must match tasks and workers")
        graph = cls.__new__(cls)
        # Any random-access sequence works (the graph only ever indexes
        # and measures it); keeping e.g. a lazy columnar view as-is means
        # records materialise only if some consumer actually reads them.
        graph.tasks = tasks if isinstance(tasks, Sequence) else list(tasks)
        graph.workers = workers if isinstance(workers, Sequence) else list(workers)
        graph._task_neighbors = None
        graph._worker_neighbors = None
        graph._csr = csr
        return graph

    # ------------------------------------------------------------------
    # lazily materialised adjacency views
    # ------------------------------------------------------------------
    @property
    def task_neighbors(self) -> List[List[int]]:
        if self._task_neighbors is None:
            csr = self._csr
            assert csr is not None
            if not self.tasks:
                # np.split(arr, []) would yield one (empty) segment, not
                # zero, breaking the length == num_tasks invariant.
                self._task_neighbors = []
            else:
                self._task_neighbors = [
                    segment.tolist()
                    for segment in np.split(csr.indices, csr.indptr[1:-1])
                ]
        return self._task_neighbors

    @property
    def worker_neighbors(self) -> List[List[int]]:
        if self._worker_neighbors is None:
            csr = self._csr
            assert csr is not None
            adjacency: List[List[int]] = [[] for _ in self.workers]
            if csr.num_edges:
                rows = np.repeat(np.arange(csr.num_tasks), csr.degrees())
                # Stable sort by worker keeps tasks ascending within each
                # worker (rows are already ascending).
                order = np.argsort(csr.indices, kind="stable")
                sorted_workers = csr.indices[order]
                sorted_tasks = rows[order]
                boundaries = np.flatnonzero(np.diff(sorted_workers)) + 1
                groups = np.split(sorted_tasks, boundaries)
                for worker_pos, group in zip(
                    sorted_workers[np.concatenate(([0], boundaries))].tolist(), groups
                ):
                    adjacency[worker_pos] = group.tolist()
            self._worker_neighbors = adjacency
        return self._worker_neighbors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.tasks == other.tasks
            and self.workers == other.workers
            and self.task_neighbors == other.task_neighbors
            and self.worker_neighbors == other.worker_neighbors
        )

    __hash__ = None  # type: ignore[assignment]  # mutable container semantics

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(num_tasks={self.num_tasks}, "
            f"num_workers={self.num_workers}, num_edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def num_edges(self) -> int:
        if self._csr is not None:
            return self._csr.num_edges
        return sum(len(adj) for adj in self.task_neighbors)

    def has_edge(self, task_pos: int, worker_pos: int) -> bool:
        if self._task_neighbors is None and self._csr is not None:
            neighbors = self._csr.neighbors(task_pos)
            at = int(np.searchsorted(neighbors, worker_pos))
            return at < neighbors.shape[0] and int(neighbors[at]) == worker_pos
        return worker_pos in self.task_neighbors[task_pos]

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Yield edges as ``(task_position, worker_position)`` pairs."""
        for task_pos, adjacency in enumerate(self.task_neighbors):
            for worker_pos in adjacency:
                yield (task_pos, worker_pos)

    def degree_of_task(self, task_pos: int) -> int:
        if self._task_neighbors is None and self._csr is not None:
            return int(
                self._csr.indptr[task_pos + 1] - self._csr.indptr[task_pos]
            )
        return len(self.task_neighbors[task_pos])

    def degree_of_worker(self, worker_pos: int) -> int:
        return len(self.worker_neighbors[worker_pos])

    def csr(self) -> CSRGraph:
        """The cached task-side CSR view consumed by the matchers.

        Either attached directly by the vectorised builder, or built
        lazily from ``task_neighbors`` and invalidated by
        :meth:`add_edge`, so a period's match stage, halo reconciliation
        and incremental matcher all share one compact representation.
        """
        if self._csr is None:
            self._csr = CSRGraph.from_adjacency(self.task_neighbors, self.num_workers)
        return self._csr

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, task_pos: int, worker_pos: int) -> None:
        """Add an edge; duplicates are ignored."""
        if not 0 <= task_pos < self.num_tasks:
            raise IndexError(f"task position {task_pos} out of range")
        if not 0 <= worker_pos < self.num_workers:
            raise IndexError(f"worker position {worker_pos} out of range")
        # Materialise both adjacency views before mutating a CSR-backed
        # graph, then drop the now-stale CSR cache.
        task_neighbors = self.task_neighbors
        worker_neighbors = self.worker_neighbors
        if worker_pos not in task_neighbors[task_pos]:
            task_neighbors[task_pos].append(worker_pos)
            worker_neighbors[worker_pos].append(task_pos)
            self._csr = None

    # ------------------------------------------------------------------
    # grid-level views
    # ------------------------------------------------------------------
    def tasks_in_grid(self, grid_index: int) -> List[int]:
        """Positions of tasks whose (cached) grid index equals ``grid_index``."""
        return [
            pos for pos, task in enumerate(self.tasks) if task.grid_index == grid_index
        ]

    def tasks_by_grid(self) -> Dict[int, List[int]]:
        """Mapping grid index -> positions of tasks in that grid."""
        buckets: Dict[int, List[int]] = {}
        for pos, task in enumerate(self.tasks):
            if task.grid_index is None:
                raise ValueError(
                    f"task {task.task_id} has no grid index; "
                    "annotate tasks before building grid views"
                )
            buckets.setdefault(task.grid_index, []).append(pos)
        return buckets

    def subgraph_for_tasks(self, task_positions: Sequence[int]) -> "BipartiteGraph":
        """Induced subgraph keeping only the given tasks (all workers kept).

        The returned graph re-indexes tasks to ``0..len(task_positions)-1``
        while worker positions are preserved, which is what the realized
        revenue computation needs (only accepted tasks remain).
        """
        keep = list(task_positions)
        new_tasks = [self.tasks[pos] for pos in keep]
        new_task_neighbors = [sorted(self.task_neighbors[pos]) for pos in keep]
        new_worker_neighbors: List[List[int]] = [[] for _ in self.workers]
        for new_pos, adjacency in enumerate(new_task_neighbors):
            for worker_pos in adjacency:
                new_worker_neighbors[worker_pos].append(new_pos)
        return BipartiteGraph(
            tasks=new_tasks,
            workers=list(self.workers),
            task_neighbors=new_task_neighbors,
            worker_neighbors=new_worker_neighbors,
        )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
def _cap_adjacency(
    graph: BipartiteGraph,
    metric_fn: DistanceMetric,
    max_degree: int,
) -> None:
    """All-pairs-path degree cap, identical in semantics to the array one."""
    new_task_neighbors: List[List[int]] = []
    for task_pos, adjacency in enumerate(graph.task_neighbors):
        if len(adjacency) <= max_degree:
            new_task_neighbors.append(adjacency)
            continue
        origin = graph.tasks[task_pos].origin
        ranked = sorted(
            adjacency,
            key=lambda worker_pos: (
                metric_fn(graph.workers[worker_pos].location, origin),
                worker_pos,
            ),
        )
        new_task_neighbors.append(sorted(ranked[:max_degree]))
    new_worker_neighbors: List[List[int]] = [[] for _ in graph.workers]
    for task_pos, adjacency in enumerate(new_task_neighbors):
        for worker_pos in adjacency:
            new_worker_neighbors[worker_pos].append(task_pos)
    graph._task_neighbors = new_task_neighbors
    graph._worker_neighbors = new_worker_neighbors
    graph._csr = None


def build_graph_from_arrays(
    tasks: Sequence[Task],
    workers: Sequence[Worker],
    task_x: np.ndarray,
    task_y: np.ndarray,
    worker_x: np.ndarray,
    worker_y: np.ndarray,
    radii: np.ndarray,
    metric: Union[str, DistanceMetric],
    grid: Grid,
    max_degree: Optional[int] = None,
) -> BipartiteGraph:
    """Array-native graph construction from pre-extracted coordinates.

    The columnar engine path calls this directly with its struct-of-array
    buffers (``tasks`` / ``workers`` may be lazy record views — the graph
    only stores them); :func:`build_bipartite_graph` extracts the same
    arrays from objects first.  Empty sides short-circuit to an edgeless
    graph.  ``metric`` must be a named metric (see
    :func:`~repro.spatial.geometry.resolve_batch_metric`).
    """
    max_degree = checked_degree_cap(max_degree)
    num_tasks = len(tasks)
    num_workers = len(workers)
    if not num_tasks or not num_workers:
        csr = CSRGraph.from_edge_arrays(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), num_tasks, num_workers
        )
        return BipartiteGraph.from_csr(tasks, workers, csr)
    buckets = GridBuckets(grid, task_x, task_y)
    worker_idx, task_idx, distances = buckets.query_circles(
        worker_x, worker_y, radii, metric=metric
    )

    if max_degree is not None and task_idx.size:
        # The cap's ranking sort orders edges fully on its own, so the
        # canonical sort only runs over the surviving <= K-per-task set.
        task_idx, worker_idx = cap_edges_per_center(
            task_idx, worker_idx, distances, num_tasks, max_degree
        )
    else:
        # Canonical CSR order: ascending (task, worker).
        order = canonical_edge_order(task_idx, worker_idx)
        task_idx = task_idx[order]
        worker_idx = worker_idx[order]
    csr = CSRGraph.from_edge_arrays(task_idx, worker_idx, num_tasks, num_workers)
    return BipartiteGraph.from_csr(tasks, workers, csr)


def build_bipartite_graph(
    tasks: Sequence[Task],
    workers: Sequence[Worker],
    metric: Union[str, DistanceMetric] = "euclidean",
    grid: Optional[Grid] = None,
    max_degree: Optional[int] = None,
) -> BipartiteGraph:
    """Build the range-constrained bipartite graph.

    With a grid and a named metric the graph comes from the array-native
    builder (:func:`build_graph_from_arrays`); without a grid, or with a
    caller-supplied metric callable, from the all-pairs scan, which is
    also the oracle the builder is tested against.  Both give the same
    graph:

    >>> from repro.spatial.geometry import Point
    >>> tasks = [
    ...     Task(task_id=i, period=0, origin=Point(x, y), destination=Point(x, y))
    ...     for i, (x, y) in enumerate([(1.0, 1.0), (4.0, 4.0), (9.0, 2.0)])
    ... ]
    >>> workers = [
    ...     Worker(worker_id=j, period=0, location=Point(x, y), radius=r)
    ...     for j, (x, y, r) in enumerate([(2.0, 2.0, 4.0), (8.0, 3.0, 1.5)])
    ... ]
    >>> indexed = build_bipartite_graph(tasks, workers, grid=Grid.square(10.0, 3))
    >>> scanned = build_bipartite_graph(tasks, workers, grid=None)
    >>> indexed.csr().indptr.tolist() == scanned.csr().indptr.tolist()
    True
    >>> indexed.csr().indices.tolist() == scanned.csr().indices.tolist()
    True
    >>> indexed.task_neighbors
    [[0], [0], [1]]

    Args:
        tasks: Tasks of the period (left side).
        workers: Available workers of the period (right side).
        metric: Distance metric for the range constraint: a name, or a
            callable (which takes the all-pairs scan).
        grid: Grid that buckets the tasks for the array-native builder;
            ``None`` selects the all-pairs scan.
        max_degree: Optional cap on the number of workers kept per task —
            only the ``max_degree`` *nearest* workers survive (ties broken
            by ascending worker position).  ``None`` (the default) keeps
            every edge, so the exact matching is unaffected.

    Returns:
        The :class:`BipartiteGraph` with an edge for every
        ``(task, worker)`` pair satisfying the range constraint (capped
        per task when ``max_degree`` is given).  Both paths produce the
        identical graph, which the property tests fuzz.
    """
    max_degree = checked_degree_cap(max_degree)
    task_list = list(tasks)
    worker_list = list(workers)
    if grid is not None and resolve_batch_metric(metric) is not None:
        return build_graph_from_arrays(
            task_list,
            worker_list,
            np.fromiter((t.origin.x for t in task_list), np.float64, len(task_list)),
            np.fromiter((t.origin.y for t in task_list), np.float64, len(task_list)),
            np.fromiter((w.location.x for w in worker_list), np.float64, len(worker_list)),
            np.fromiter((w.location.y for w in worker_list), np.float64, len(worker_list)),
            np.fromiter((w.radius for w in worker_list), np.float64, len(worker_list)),
            metric,
            grid,
            max_degree,
        )

    graph = BipartiteGraph(tasks=task_list, workers=worker_list)
    if not task_list or not worker_list:
        return graph
    metric_fn = resolve_metric(metric)
    for worker_pos, worker in enumerate(graph.workers):
        for task_pos, task in enumerate(graph.tasks):
            if metric_fn(worker.location, task.origin) <= worker.radius:
                graph.add_edge(task_pos, worker_pos)

    # Keep adjacency deterministic regardless of construction order.
    for adjacency in graph.task_neighbors:
        adjacency.sort()
    for adjacency in graph.worker_neighbors:
        adjacency.sort()
    if max_degree is not None:
        _cap_adjacency(graph, metric_fn, max_degree)
    return graph


__all__ = [
    "BipartiteGraph",
    "CSRGraph",
    "build_bipartite_graph",
    "build_graph_from_arrays",
]
