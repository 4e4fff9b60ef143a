"""The incremental adjacency plane vs the batch builder, fuzzed.

``IncrementalAdjacencyIndex`` promises that after *any* interleaving of
inserts and removals, its candidate edges over the live population are
exactly what the batch :class:`GridBuckets` sweep (the graph builder's
query) produces on that same population — same edge set, same canonical
order, bitwise-identical distances, same degree-cap tie-breaking.  The
scalar single-center fast path must in turn be bitwise identical to the
batched expansion it shortcuts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spatial.grid import Grid
from repro.spatial.index import (
    DynamicGridBuckets,
    GridBuckets,
    IncrementalAdjacencyIndex,
    cap_edges_per_center,
)

METRICS = ["euclidean", "manhattan"]


def _batch_reference(grid, metric, max_degree, task_x, task_y, live):
    """The batch builder's edges over the live workers, slot-identified.

    Buckets the *tasks* and sweeps each live worker's service circle —
    exactly :func:`repro.matching.bipartite.build_graph_from_arrays` —
    then maps dense worker positions back to plane slots and applies the
    same cap.
    """
    task_x = np.asarray(task_x, dtype=np.float64)
    task_y = np.asarray(task_y, dtype=np.float64)
    if not live or not task_x.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    slots = np.array(sorted(live), dtype=np.int64)
    wx = np.array([live[s][0] for s in slots], dtype=np.float64)
    wy = np.array([live[s][1] for s in slots], dtype=np.float64)
    wr = np.array([live[s][2] for s in slots], dtype=np.float64)
    buckets = GridBuckets(grid, task_x, task_y)
    worker_pos, task_idx, distances = buckets.query_circles(wx, wy, wr, metric=metric)
    ids = slots[worker_pos]
    if max_degree is not None and task_idx.size:
        return cap_edges_per_center(
            task_idx, ids, distances, task_x.shape[0], max_degree
        )
    order = np.lexsort((ids, task_idx))
    return task_idx[order], ids[order]


class TestEdgeIdentityFuzz:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("max_degree", [None, 2])
    def test_candidate_edges_match_batch_builder_under_churn(
        self, metric, max_degree
    ):
        """Random insert/remove interleavings; every step gates the edges."""
        rng = np.random.default_rng(hash((metric, max_degree)) % (2**32))
        grid = Grid.square(100.0, 8)
        index = IncrementalAdjacencyIndex(
            grid, metric=metric, max_degree=max_degree
        )
        live = {}
        for step in range(80):
            if live and rng.random() < 0.35:
                slot = int(rng.choice(sorted(live)))
                index.remove_worker(slot)
                del live[slot]
            else:
                n = int(rng.integers(1, 5))
                xs = rng.uniform(0.0, 100.0, n)
                ys = rng.uniform(0.0, 100.0, n)
                rs = rng.uniform(0.0, 30.0, n)
                slots = index.insert_workers(xs, ys, rs)
                for slot, x, y, r in zip(slots.tolist(), xs, ys, rs):
                    live[slot] = (float(x), float(y), float(r))
            num_queries = int(rng.integers(1, 5))
            tx = rng.uniform(0.0, 100.0, num_queries)
            ty = rng.uniform(0.0, 100.0, num_queries)
            got_tasks, got_ids = index.candidate_edges(tx, ty)
            want_tasks, want_ids = _batch_reference(
                grid, metric, max_degree, tx, ty, live
            )
            assert got_tasks.tolist() == want_tasks.tolist(), f"step {step}"
            assert got_ids.tolist() == want_ids.tolist(), f"step {step}"
        assert index.num_live_workers == len(live)

    @pytest.mark.parametrize("metric", METRICS)
    def test_worker_rows_match_brute_force(self, metric):
        """A worker's live-task row == brute-force inclusive-radius scan."""
        from repro.spatial.geometry import resolve_batch_metric

        batch_metric = resolve_batch_metric(metric)
        rng = np.random.default_rng(7)
        grid = Grid.square(50.0, 5)
        index = IncrementalAdjacencyIndex(grid, metric=metric)
        live_tasks = {}
        worker_slots = []
        workers = {}
        for step in range(40):
            roll = rng.random()
            if live_tasks and roll < 0.25:
                slot = int(rng.choice(sorted(live_tasks)))
                index.remove_task(slot)
                del live_tasks[slot]
            elif roll < 0.6:
                n = int(rng.integers(1, 4))
                xs = rng.uniform(0.0, 50.0, n)
                ys = rng.uniform(0.0, 50.0, n)
                for slot, x, y in zip(
                    index.insert_tasks(xs, ys).tolist(), xs, ys
                ):
                    live_tasks[slot] = (float(x), float(y))
            else:
                x, y, r = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0), float(
                    rng.uniform(0.0, 20.0)
                )
                (slot,) = index.insert_workers([x], [y], [r]).tolist()
                worker_slots.append(slot)
                workers[slot] = (x, y, r)
            if not worker_slots:
                continue
            probe = [int(s) for s in rng.choice(worker_slots, size=2)]
            rows = index.worker_rows(probe)
            for slot, row in zip(probe, rows):
                wx, wy, wr = workers[slot]
                expected = []
                for task_slot in sorted(live_tasks):
                    tx, ty = live_tasks[task_slot]
                    d = float(
                        batch_metric(
                            np.array([wx]), np.array([wy]),
                            np.array([tx]), np.array([ty]),
                        )[0]
                    )
                    if d <= wr:
                        expected.append(task_slot)
                assert row == expected, f"step {step}, worker slot {slot}"

    def test_task_rows_and_candidate_edges_agree(self):
        rng = np.random.default_rng(3)
        grid = Grid.square(60.0, 6)
        index = IncrementalAdjacencyIndex(grid)
        index.insert_workers(
            rng.uniform(0, 60, 30), rng.uniform(0, 60, 30), rng.uniform(0, 25, 30)
        )
        tx = rng.uniform(0, 60, 7)
        ty = rng.uniform(0, 60, 7)
        task_idx, ids = index.candidate_edges(tx, ty)
        rows = index.task_rows(tx, ty)
        rebuilt = [
            (t, w) for t, row in enumerate(rows) for w in row
        ]
        assert rebuilt == list(zip(task_idx.tolist(), ids.tolist()))


class TestScalarFastPath:
    """The single-center query must be bitwise identical to the batched
    expansion (same candidate order, same float64 distances)."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("own_radius", [False, True])
    def test_single_query_bitwise_equals_batched(self, metric, own_radius):
        rng = np.random.default_rng(hash((metric, own_radius)) % (2**32))
        grid = Grid.square(80.0, 8)
        plane = DynamicGridBuckets(grid, track_radii=True)
        plane.insert(
            rng.uniform(0, 80, 50), rng.uniform(0, 80, 50), rng.uniform(0, 30, 50)
        )
        for slot in rng.choice(50, size=12, replace=False):
            plane.remove(int(slot))
        for trial in range(40):
            x = float(rng.uniform(-5, 85))
            y = float(rng.uniform(-5, 85))
            r = float(rng.uniform(0, 40))
            # A second, far-away center forces the batched expansion; its
            # rows are filtered out, leaving the batched answer for (x, y).
            far_x, far_y = -1000.0, -1000.0
            if own_radius:
                single = plane.query_own_radius([x], [y], metric)
                batched = plane.query_own_radius([x, far_x], [y, far_y], metric)
            else:
                single = plane.query_circles([x], [y], [r], metric)
                batched = plane.query_circles(
                    [x, far_x], [y, far_y], [r, r], metric
                )
            keep = batched[0] == 0
            assert single[0].tolist() == batched[0][keep].tolist()
            assert single[1].tolist() == batched[1][keep].tolist()
            assert single[2].tobytes() == batched[2][keep].tobytes(), (
                f"trial {trial}: scalar fast-path distances diverge from "
                "the batched expansion"
            )


class TestSlotSemantics:
    def test_slots_are_arrival_ordered_and_never_recycled(self):
        grid = Grid.square(10.0, 2)
        plane = DynamicGridBuckets(grid)
        first = plane.insert([1.0, 2.0], [1.0, 2.0])
        assert first.tolist() == [0, 1]
        plane.remove(0)
        second = plane.insert([3.0], [3.0])
        assert second.tolist() == [2]
        assert len(plane) == 2

    def test_remove_dead_slot_raises(self):
        grid = Grid.square(10.0, 2)
        plane = DynamicGridBuckets(grid)
        plane.insert([1.0], [1.0])
        plane.remove(0)
        with pytest.raises(ValueError, match="not live"):
            plane.remove(0)

    def test_worker_rows_reject_dead_slots(self):
        grid = Grid.square(10.0, 2)
        index = IncrementalAdjacencyIndex(grid)
        (slot,) = index.insert_workers([5.0], [5.0], [3.0]).tolist()
        index.remove_worker(slot)
        with pytest.raises(ValueError, match="not live"):
            index.worker_rows([slot])

    def test_task_plane_is_always_on(self):
        grid = Grid.square(10.0, 2)
        index = IncrementalAdjacencyIndex(grid)
        assert index.insert_tasks([1.0, 9.0], [1.0, 9.0]).tolist() == [0, 1]
        (slot,) = index.insert_workers([2.0], [2.0], [3.0]).tolist()
        assert index.worker_rows([slot]) == [[0]]
        index.remove_task(0)
        assert index.worker_rows([slot]) == [[]]

    @pytest.mark.parametrize("max_degree", [0, -3])
    def test_non_positive_degree_cap_rejected(self, max_degree):
        with pytest.raises(ValueError, match="max_degree"):
            IncrementalAdjacencyIndex(Grid.square(10.0, 2), max_degree=max_degree)
