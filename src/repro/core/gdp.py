"""The Global Dynamic Pricing (GDP) problem instance.

Definition 7: given the tasks ``R^t`` and workers ``W^t`` of a time period
(with unknown acceptance ratios), find one unit price per task such that
the expected total revenue — defined through possible-world semantics over
the probabilistic bipartite graph and maximum-weight matchings — is
maximised.  The platform actually quotes one price per *grid*, so a price
vector is represented as ``{grid_index: unit_price}``.

:class:`PeriodInstance` bundles everything a pricing strategy may inspect
for one period; :class:`GDPInstance` additionally carries the ground-truth
acceptance models so the objective can be evaluated exactly (for small
instances) or by Monte-Carlo sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.market.acceptance import AcceptanceModel, PerGridAcceptance
from repro.market.curves import GridMarket
from repro.market.entities import Task, Worker
from repro.matching.bipartite import BipartiteGraph, build_bipartite_graph
from repro.matching.possible_worlds import (
    exact_expected_revenue,
    monte_carlo_expected_revenue,
)
from repro.spatial.geometry import DistanceMetric
from repro.spatial.grid import Grid
from repro.utils.rng import RandomState


# eq=False: ndarray fields make a generated __eq__ raise on multi-element
# arrays; identity comparison (and identity hash) is the useful semantic
# for a cached per-period view.
@dataclass(frozen=True, eq=False)
class PeriodArrays:
    """Struct-of-arrays view of one period, built once alongside the objects.

    The simulation hot path (vectorised acceptance decisions, per-task
    weight computation, batched feedback) and the MAPS planner's per-grid
    distance profiles all read from these arrays instead of re-walking the
    per-task Python objects every stage.

    Attributes:
        task_grids: ``int64`` 1-based grid index per task position.
        distances: ``float64`` travel distance ``d_r`` per task position.
        valuations: ``float64`` private valuation per task position
            (``NaN`` for tasks governed by an external acceptance model).
        has_valuation: Boolean mask; ``False`` exactly where the task
            carries no private valuation (``valuation is None``).  A task
            with an explicit ``NaN`` valuation keeps ``True`` here and
            rejects every price, as in the scalar engine.
        worker_grids: ``int64`` 1-based grid index per worker position.
    """

    task_grids: np.ndarray
    distances: np.ndarray
    valuations: np.ndarray
    has_valuation: np.ndarray
    worker_grids: np.ndarray

    @classmethod
    def build(
        cls,
        tasks: Sequence["Task"],
        workers: Sequence["Worker"],
        grid: Grid,
    ) -> "PeriodArrays":
        """Extract the arrays from annotated tasks and workers.

        Tasks must already carry their ``grid_index`` (as guaranteed by
        :meth:`PeriodInstance.build`); worker grid cells are located with
        the vectorised :meth:`repro.spatial.grid.Grid.locate_many`.
        """
        num_tasks = len(tasks)
        for task in tasks:
            if task.grid_index is None:
                raise ValueError(
                    f"task {task.task_id} has no grid index; "
                    "annotate tasks before building period arrays"
                )
        task_grids = np.fromiter(
            (task.grid_index for task in tasks), dtype=np.int64, count=num_tasks
        )
        distances = np.fromiter(
            (task.distance for task in tasks), dtype=np.float64, count=num_tasks
        )
        valuations = np.fromiter(
            (
                np.nan if task.valuation is None else task.valuation
                for task in tasks
            ),
            dtype=np.float64,
            count=num_tasks,
        )
        # The mask comes from `is None`, not isnan: an explicit NaN
        # valuation means "rejects every price" (price <= NaN is False),
        # exactly as the scalar engine treated it, and must not be routed
        # through the acceptance model's RNG draws.
        has_valuation = np.fromiter(
            (task.valuation is not None for task in tasks),
            dtype=bool,
            count=num_tasks,
        )
        if workers:
            worker_grids = grid.locate_many(
                [worker.location.x for worker in workers],
                [worker.location.y for worker in workers],
            )
        else:
            worker_grids = np.zeros(0, dtype=np.int64)
        return cls(
            task_grids=task_grids,
            distances=distances,
            valuations=valuations,
            has_valuation=has_valuation,
            worker_grids=worker_grids,
        )

    def take(
        self, task_positions: Sequence[int], worker_positions: Sequence[int]
    ) -> "PeriodArrays":
        """The arrays of some task and worker positions, in the given order.

        Byte-equal to :meth:`build` over the same tasks and workers
        (every column is per position), without re-walking the objects
        or re-locating the workers.
        """
        tasks = np.asarray(task_positions, dtype=np.intp)
        workers = np.asarray(worker_positions, dtype=np.intp)
        return PeriodArrays(
            task_grids=self.task_grids[tasks],
            distances=self.distances[tasks],
            valuations=self.valuations[tasks],
            has_valuation=self.has_valuation[tasks],
            worker_grids=self.worker_grids[workers],
        )

    @property
    def num_tasks(self) -> int:
        return int(self.task_grids.shape[0])

    @property
    def num_workers(self) -> int:
        return int(self.worker_grids.shape[0])

    @cached_property
    def tasks_by_grid(self) -> Dict[int, List[int]]:
        """Grid index -> task positions (ascending), from the arrays."""
        buckets: Dict[int, List[int]] = {}
        for pos, grid_index in enumerate(self.task_grids.tolist()):
            buckets.setdefault(grid_index, []).append(pos)
        return buckets

    @cached_property
    def workers_by_grid(self) -> Dict[int, int]:
        """Grid index -> number of co-located workers, from the arrays."""
        if not self.num_workers:
            return {}
        cells, counts = np.unique(self.worker_grids, return_counts=True)
        return dict(zip(cells.tolist(), counts.tolist()))

    @cached_property
    def _sorted_distances_by_grid(self) -> Dict[int, np.ndarray]:
        return {
            grid_index: -np.sort(-self.distances[positions])
            for grid_index, positions in self.tasks_by_grid.items()
        }

    def distances_in_grid(self, grid_index: int) -> List[float]:
        """Travel distances of the grid's tasks (non-increasing order)."""
        profile = self._sorted_distances_by_grid.get(grid_index)
        if profile is None:
            return []
        return profile.tolist()

    def prices_per_task(
        self,
        grid_prices: Mapping[int, float],
        p_min: float,
        p_max: float,
    ) -> np.ndarray:
        """Clamped per-task price vector for a per-grid price mapping.

        Grids absent from ``grid_prices`` default to ``p_min``, matching
        the engine's defensive behaviour for unpriced grids.
        """
        prices = np.full(self.num_tasks, p_min, dtype=np.float64)
        for grid_index, positions in self.tasks_by_grid.items():
            quoted = grid_prices.get(grid_index)
            if quoted is not None:
                prices[positions] = min(p_max, max(p_min, float(quoted)))
        return prices


class _LazyBipartiteGraph:
    """A period graph built on first need, over every task or some rows.

    The batch engine's instances carry one (:meth:`PeriodInstance.from_columns`
    with ``build_graph=False``): the match stage only needs the rows of
    the accepted tasks and asks for those through :meth:`rows`, while a
    strategy that reads the graph while quoting (MAPS's planner) builds
    the full graph on its first attribute access, which the match stage
    then reuses as is.  The streaming universe
    (:meth:`PeriodInstance.build` with ``build_graph=False``) and the
    dispatch session's instances (:meth:`PeriodInstance.from_arrays`)
    defer their full graph the same way and offer no row builder.
    """

    __slots__ = ("_factory", "_row_factory", "_graph")

    def __init__(self, factory, row_factory=None) -> None:
        self._factory = factory
        self._row_factory = row_factory
        self._graph = None

    @property
    def materialised(self) -> bool:
        return self._graph is not None

    def rows(self, positions: np.ndarray) -> Optional[BipartiteGraph]:
        """The graph over task rows ``positions`` only, or ``None``.

        Row ``i`` of the result is task position ``positions[i]``; the
        worker side is unchanged.  ``None`` when the full graph is
        already built (use it) or there is no row builder.
        """
        if self._graph is not None or self._row_factory is None:
            return None
        return self._row_factory(positions)

    def __getattr__(self, name):
        graph = self._graph
        if graph is None:
            graph = self._factory()
            self._graph = graph
            self._factory = None
            self._row_factory = None
        return getattr(graph, name)


class _DerivedFromArrays:
    """A :class:`PeriodInstance` field computed from ``arrays`` on first read.

    A descriptor-typed dataclass field: its class-level value ``None`` is
    the field's default, and an instance holding ``None`` derives the
    value from its :class:`PeriodArrays` (``{}`` without arrays) when the
    field is first read, then keeps it.  Batch instances whose only use
    is the graph (accepted rows, the halo pass) never pay for it.
    """

    def __init__(self, derive) -> None:
        self._derive = derive

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            return None
        value = instance.__dict__.get(self._slot)
        if value is None:
            arrays = instance.arrays
            value = {} if arrays is None else self._derive(arrays)
            instance.__dict__[self._slot] = value
        return value

    def __set__(self, instance, value) -> None:
        instance.__dict__[self._slot] = value


@dataclass
class PeriodInstance:
    """The observable state of one time period.

    Attributes:
        period: Time period index ``t``.
        grid: The pricing grid.
        tasks: Tasks issued in the period, annotated with ``grid_index``.
        workers: Workers available in the period.
        graph: Range-constrained bipartite graph between them.  It may
            be deferred (a proxy built on first attribute access): the
            batch engine's instances defer it so the match stage can
            build only the accepted tasks' rows (:meth:`rows_graph`).
        tasks_by_grid: Mapping grid index -> task positions (in ``tasks``).
        workers_by_grid: Mapping grid index -> number of workers located in
            the grid (used by the SDR/SDE/CappedUCB baselines, which reason
            per grid rather than through the bipartite graph).
            Both default to a copy derived from ``arrays`` on first read.
        arrays: Struct-of-arrays view (:class:`PeriodArrays`) consumed by
            the vectorised simulation pipeline and the MAPS planner; built
            once by :meth:`build` (or lazily via :meth:`ensure_arrays`).
    """

    period: int
    grid: Grid
    tasks: List[Task]
    workers: List[Worker]
    graph: BipartiteGraph
    # Instance-owned copies: the public dicts stay mutable without
    # writing through to the arrays' internal caches.
    tasks_by_grid: Dict[int, List[int]] = _DerivedFromArrays(
        lambda arrays: {g: list(positions) for g, positions in arrays.tasks_by_grid.items()}
    )
    workers_by_grid: Dict[int, int] = _DerivedFromArrays(
        lambda arrays: dict(arrays.workers_by_grid)
    )
    # compare=False keeps PeriodInstance equality defined by the object
    # fields, as before the cached view existed.
    arrays: Optional[PeriodArrays] = field(default=None, compare=False)

    @classmethod
    def build(
        cls,
        period: int,
        grid: Grid,
        tasks: Sequence[Task],
        workers: Sequence[Worker],
        metric: Union[str, DistanceMetric] = "euclidean",
        max_degree: Optional[int] = None,
        build_graph: bool = True,
    ) -> "PeriodInstance":
        """Annotate tasks with their grid cell and build the bipartite graph.

        ``max_degree`` optionally caps each task's adjacency at its
        ``max_degree`` nearest workers (see
        :func:`repro.matching.bipartite.build_bipartite_graph`); ``None``
        keeps the exact range-constrained graph.  ``build_graph=False``
        defers the graph behind a :class:`_LazyBipartiteGraph` proxy —
        for callers that match off the incremental adjacency plane and
        only need the pricing-side views (arrays, grid buckets).
        """
        annotated: List[Task] = []
        for task in tasks:
            if task.grid_index is None:
                task = task.with_grid(grid.locate(task.origin))
            annotated.append(task)
        worker_list = list(workers)
        arrays = PeriodArrays.build(annotated, workers, grid)
        if not build_graph:
            return cls.from_arrays(
                period, grid, annotated, worker_list, arrays, metric, max_degree
            )
        return cls(
            period=period,
            grid=grid,
            tasks=annotated,
            workers=worker_list,
            graph=build_bipartite_graph(
                annotated,
                worker_list,
                metric=metric,
                grid=grid,
                max_degree=max_degree,
            ),
            arrays=arrays,
        )

    @classmethod
    def from_arrays(
        cls,
        period: int,
        grid: Grid,
        tasks: List[Task],
        workers: List[Worker],
        arrays: PeriodArrays,
        metric: Union[str, DistanceMetric] = "euclidean",
        max_degree: Optional[int] = None,
    ) -> "PeriodInstance":
        """An instance over annotated tasks and workers whose arrays exist.

        What :meth:`build` returns with ``build_graph=False``, for a
        caller that already holds the :class:`PeriodArrays` of these
        tasks and workers (e.g. :meth:`PeriodArrays.take` of a larger
        instance's): the graph stays deferred behind a
        :class:`_LazyBipartiteGraph` proxy.
        """
        return cls(
            period=period,
            grid=grid,
            tasks=tasks,
            workers=workers,
            graph=_LazyBipartiteGraph(
                lambda: build_bipartite_graph(
                    tasks,
                    workers,
                    metric=metric,
                    grid=grid,
                    max_degree=max_degree,
                )
            ),
            arrays=arrays,
        )

    @classmethod
    def from_columns(
        cls,
        period: int,
        grid: Grid,
        task_columns,
        workers: Sequence[Worker],
        metric: Union[str, DistanceMetric] = "euclidean",
        max_degree: Optional[int] = None,
        worker_grids: Optional[np.ndarray] = None,
        worker_x: Optional[np.ndarray] = None,
        worker_y: Optional[np.ndarray] = None,
        worker_radii: Optional[np.ndarray] = None,
        build_graph: bool = True,
    ) -> "PeriodInstance":
        """Build an instance straight from columnar task buffers.

        The zero-copy counterpart of :meth:`build`: the
        :class:`~repro.simulation.arena.TaskColumns` arrays become the
        :class:`PeriodArrays` view and feed the vectorised graph builder
        directly, and ``tasks`` is a lazy view materialising a
        :class:`~repro.market.entities.Task` only when indexed — results
        are value-identical to :meth:`build` on the materialised objects.

        Args:
            period: The period index.
            grid: The pricing grid.
            task_columns: The period's tasks as columns (cells must be
                annotated, as the generators guarantee).
            workers: Worker records (list or lazy view).
            metric: Distance metric name for the range constraint.
            max_degree: Optional per-task adjacency cap.
            worker_grids: Optional pre-located 1-based worker cells
                (computed via :meth:`~repro.spatial.grid.Grid.locate_many`
                when omitted).
            worker_x / worker_y / worker_radii: Optional pre-extracted
                worker coordinate arrays (extracted from ``workers`` when
                omitted); callers that partition one pool across shards
                pass slices so extraction happens once per period.
            build_graph: As in :meth:`build`; ``False`` defers the graph
                behind a proxy that can also build just some task rows
                (:meth:`rows_graph`).  Both deferred builds run through
                this method again, with the same arguments.
        """
        from repro.matching.bipartite import build_graph_from_arrays
        from repro.simulation.arena import LazyTasks

        num_workers = len(workers)
        if worker_x is None or worker_y is None or worker_radii is None:
            worker_x = np.fromiter(
                (w.location.x for w in workers), dtype=np.float64, count=num_workers
            )
            worker_y = np.fromiter(
                (w.location.y for w in workers), dtype=np.float64, count=num_workers
            )
            worker_radii = np.fromiter(
                (w.radius for w in workers), dtype=np.float64, count=num_workers
            )
        if worker_grids is None:
            if num_workers:
                worker_grids = grid.locate_many(worker_x, worker_y)
            else:
                worker_grids = np.zeros(0, dtype=np.int64)
        arrays = PeriodArrays(
            task_grids=task_columns.cells,
            distances=task_columns.distances,
            valuations=task_columns.valuations,
            has_valuation=task_columns.has_valuation,
            worker_grids=worker_grids,
        )
        tasks = LazyTasks(task_columns)
        if build_graph:
            graph = build_graph_from_arrays(
                tasks,
                workers,
                task_columns.xs,
                task_columns.ys,
                worker_x,
                worker_y,
                worker_radii,
                metric,
                grid,
                max_degree,
            )
        else:

            def graph_of(positions=None):
                return cls.from_columns(
                    period,
                    grid,
                    task_columns if positions is None else task_columns.take(positions),
                    workers,
                    metric=metric,
                    max_degree=max_degree,
                    worker_grids=worker_grids,
                    worker_x=worker_x,
                    worker_y=worker_y,
                    worker_radii=worker_radii,
                ).graph

            graph = _LazyBipartiteGraph(graph_of, graph_of)
        return cls(
            period=period,
            grid=grid,
            tasks=tasks,
            workers=workers,
            graph=graph,
            arrays=arrays,
        )

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def grid_indices_with_tasks(self) -> List[int]:
        return sorted(self.tasks_by_grid.keys())

    def rows_graph(self, positions: np.ndarray) -> Optional[BipartiteGraph]:
        """The graph over task rows ``positions`` (ascending), if deferred.

        Row ``i`` of the result is task position ``positions[i]``; the
        worker side is the instance's.  Returns ``None`` when
        :attr:`graph` is already built, by the constructor or by an
        earlier reader, or cannot be built per row: match on
        :attr:`graph` with ``allowed_tasks`` then.  Each task's row
        (degree cap included) depends on that task alone, so the rows
        equal the full graph's rows at ``positions``.
        """
        graph = self.graph
        if isinstance(graph, _LazyBipartiteGraph):
            return graph.rows(positions)
        return None

    def ensure_arrays(self) -> PeriodArrays:
        """The :class:`PeriodArrays` view, built lazily if missing.

        Instances created through :meth:`build` carry the arrays already;
        hand-constructed instances (tests, notebooks) get them on demand.
        """
        if self.arrays is None:
            self.arrays = PeriodArrays.build(self.tasks, self.workers, self.grid)
        return self.arrays

    def distances_in_grid(self, grid_index: int) -> List[float]:
        """Travel distances of the grid's tasks (non-increasing order).

        Instances built through :meth:`build` serve this from the cached,
        pre-sorted per-grid profiles of :class:`PeriodArrays` (the MAPS
        planner queries every grid with demand each period).
        Hand-constructed instances without arrays fall back to the
        caller-supplied ``tasks_by_grid``, so unannotated tasks keep
        working as before the arrays existed.
        """
        if self.arrays is not None:
            return self.arrays.distances_in_grid(grid_index)
        positions = self.tasks_by_grid.get(grid_index, [])
        return sorted((self.tasks[pos].distance for pos in positions), reverse=True)

    def grid_market(self, grid_index: int, acceptance_ratio=None) -> GridMarket:
        """Build a :class:`GridMarket` view of one grid."""
        market = GridMarket(
            grid_index=grid_index, distances=self.distances_in_grid(grid_index)
        )
        if acceptance_ratio is not None:
            market.acceptance_ratio = acceptance_ratio
        return market

    def price_per_task(self, grid_prices: Mapping[int, float], default: float = 0.0) -> List[float]:
        """Expand per-grid prices into a per-task price vector."""
        prices = []
        for task in self.tasks:
            prices.append(float(grid_prices.get(task.grid_index, default)))
        return prices


@dataclass
class GDPInstance:
    """A GDP problem instance with ground-truth demand for evaluation.

    Attributes:
        instance: The observable :class:`PeriodInstance`.
        acceptance: Ground-truth per-grid acceptance models (hidden from
            pricing strategies; used only to evaluate the objective and to
            drive the simulator's accept/reject decisions).
    """

    instance: PeriodInstance
    acceptance: PerGridAcceptance

    def acceptance_probabilities(self, grid_prices: Mapping[int, float]) -> List[float]:
        """True ``S^g(p_r)`` per task for a per-grid price vector."""
        probabilities = []
        for task in self.instance.tasks:
            price = float(grid_prices.get(task.grid_index, 0.0))
            probabilities.append(
                self.acceptance.acceptance_ratio(task.grid_index, price)
            )
        return probabilities

    def expected_total_revenue(
        self,
        grid_prices: Mapping[int, float],
        method: str = "auto",
        num_samples: int = 2000,
        rng: Optional[RandomState] = None,
    ) -> float:
        """Evaluate ``E[U(B^t) | P^t]`` for a per-grid price vector.

        Args:
            grid_prices: Unit price per grid index.
            method: ``exact`` (possible-world enumeration, tasks <= 20),
                ``monte-carlo``, or ``auto`` (exact when feasible).
            num_samples: Sample count for the Monte-Carlo estimator.
            rng: Generator for the Monte-Carlo estimator.
        """
        prices = self.instance.price_per_task(grid_prices)
        probabilities = self.acceptance_probabilities(grid_prices)
        if method not in ("auto", "exact", "monte-carlo"):
            raise ValueError(f"unknown method {method!r}")
        use_exact = method == "exact" or (
            method == "auto" and self.instance.num_tasks <= 12
        )
        if use_exact:
            return exact_expected_revenue(self.instance.graph, prices, probabilities)
        estimate, _ = monte_carlo_expected_revenue(
            self.instance.graph, prices, probabilities, num_samples=num_samples, rng=rng
        )
        return estimate


__all__ = ["PeriodArrays", "PeriodInstance", "GDPInstance"]
