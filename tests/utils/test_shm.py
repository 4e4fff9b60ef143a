"""Shared-memory arena lifecycle: values, ownership, and leak freedom.

The acceptance bar of the zero-copy runtime's storage layer: every
segment a test session creates must be gone from ``/dev/shm`` afterwards
— after normal unlink, after owner exceptions, after an owner that
*forgets* to unlink (the ``atexit`` backstop), and after an attached
worker process is killed mid-use (workers only map, never own).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.simulation.arena import TaskColumns, WorkerColumns, WorkloadArena
from repro.utils.shm import ShmArena

SHM_DIR = "/dev/shm"


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join(SHM_DIR, name))


pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="needs a POSIX /dev/shm"
)


class TestShmArenaBasics:
    def test_round_trip_values_and_dtypes(self):
        arrays = {
            "xs": np.linspace(0.0, 1.0, 7),
            "ids": np.arange(5, dtype=np.int64),
            "flags": np.array([True, False, True]),
            "empty": np.zeros(0, dtype=np.float64),
        }
        arena = ShmArena.create(arrays)
        try:
            view = ShmArena.attach(arena.handle)
            try:
                for name, expected in arrays.items():
                    got = view[name]
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected)
            finally:
                view.close()
        finally:
            arena.unlink()
        assert not _segment_exists(arena.handle.segment)

    def test_attached_views_are_read_only(self):
        arena = ShmArena.create({"xs": np.arange(3, dtype=np.float64)})
        try:
            view = ShmArena.attach(arena.handle)
            with pytest.raises(ValueError):
                view["xs"][0] = 9.0
            view.close()
        finally:
            arena.unlink()

    def test_unlink_is_owner_only_and_idempotent(self):
        arena = ShmArena.create({"xs": np.arange(2, dtype=np.float64)})
        view = ShmArena.attach(arena.handle)
        with pytest.raises(ValueError, match="creating process"):
            view.unlink()
        view.close()
        arena.unlink()
        arena.unlink()  # second call is a no-op
        assert not _segment_exists(arena.handle.segment)

    def test_context_manager_unlinks_on_exception(self):
        name = None
        with pytest.raises(RuntimeError):
            with ShmArena.create({"xs": np.arange(4, dtype=np.float64)}) as arena:
                name = arena.handle.segment
                assert _segment_exists(name)
                raise RuntimeError("boom")
        assert name is not None and not _segment_exists(name)

    def test_lookup_does_not_scan_the_specs(self):
        """Name lookups cost O(1) spec visits, however many arrays exist.

        Counted, not timed: the handle's spec tuple records every element
        handed out by iteration, so a per-lookup linear scan shows up as
        ``len(specs)`` visits for the last array.
        """

        class CountingSpecs(tuple):
            visits = 0

            def __iter__(self):
                for spec in tuple.__iter__(self):
                    CountingSpecs.visits += 1
                    yield spec

        arrays = {f"a{index}": np.arange(2, dtype=np.int64) for index in range(64)}
        arena = ShmArena.create(arrays)
        try:
            handle = dataclasses.replace(
                arena.handle, specs=CountingSpecs(arena.handle.specs)
            )
            view = ShmArena.attach(handle)
            try:
                names = list(arrays)
                for name in (names[-1], names[0], names[-1], "missing"):
                    CountingSpecs.visits = 0
                    if name in arrays:
                        assert name in view
                        assert np.array_equal(view[name], arrays[name])
                    else:
                        assert name not in view
                        with pytest.raises(KeyError):
                            view[name]
                    assert CountingSpecs.visits <= 1, name
            finally:
                view.close()
        finally:
            arena.unlink()


class TestWorkloadArena:
    @staticmethod
    def _columns(period: int, tasks: int, workers: int):
        rng = np.random.default_rng(period + 1)
        task_cols = TaskColumns(
            period=period,
            task_ids=np.arange(tasks, dtype=np.int64),
            xs=rng.uniform(0, 10, tasks),
            ys=rng.uniform(0, 10, tasks),
            dest_xs=rng.uniform(0, 10, tasks),
            dest_ys=rng.uniform(0, 10, tasks),
            distances=rng.uniform(0.1, 5.0, tasks),
            valuations=rng.uniform(1, 5, tasks),
            has_valuation=np.ones(tasks, dtype=bool),
            cells=rng.integers(1, 17, tasks).astype(np.int64),
        )
        worker_cols = WorkerColumns(
            worker_ids=np.arange(workers, dtype=np.int64),
            periods=np.full(workers, period, dtype=np.int64),
            xs=rng.uniform(0, 10, workers),
            ys=rng.uniform(0, 10, workers),
            radii=np.full(workers, 3.0),
            durations=np.full(workers, 5, dtype=np.int64),
        )
        return task_cols, worker_cols

    def test_shard_chunks_round_trip(self):
        chunks = {
            0: [self._columns(0, 5, 3), self._columns(1, 4, 2)],
            1: [self._columns(0, 2, 6), self._columns(1, 0, 0)],
        }
        arena = WorkloadArena.create(chunks)
        try:
            view = WorkloadArena.attach(arena.handle)
            try:
                for shard, periods in chunks.items():
                    for period, (task_cols, worker_cols) in enumerate(periods):
                        got_tasks, got_workers = view.chunk(shard, period)
                        assert got_tasks.to_tasks() == task_cols.to_tasks()
                        assert got_workers.to_workers() == worker_cols.to_workers()
            finally:
                view.close()
        finally:
            arena.unlink()
        assert not _segment_exists(arena.handle.arena.segment)

    def test_mismatched_horizons_are_rejected(self):
        with pytest.raises(ValueError, match="same horizon"):
            WorkloadArena.create(
                {0: [self._columns(0, 1, 1)], 1: []}
            )


class TestLeakFreedom:
    def test_atexit_backstop_unlinks_forgotten_segments(self):
        """An owner that never calls unlink must still not leak."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.utils.shm import ShmArena
            arena = ShmArena.create({"xs": np.arange(8, dtype=np.float64)})
            print(arena.handle.segment, flush=True)
            # exits without unlink: the atexit hook must clean up
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        segment = result.stdout.strip().splitlines()[-1]
        assert segment.startswith("repro_arena_")
        assert not _segment_exists(segment)

    def test_worker_crash_does_not_leak(self):
        """A SIGKILLed attacher leaves cleanup to the owner."""
        arena = ShmArena.create({"xs": np.arange(16, dtype=np.float64)})
        segment = arena.handle.segment
        script = textwrap.dedent(
            f"""
            import os, pickle, sys, time
            from repro.utils.shm import ArenaHandle, ArraySpec, ShmArena
            handle = pickle.loads(bytes.fromhex(sys.argv[1]))
            view = ShmArena.attach(handle)
            assert float(view["xs"][3]) == 3.0
            print("attached", flush=True)
            time.sleep(30)  # killed long before this returns
            """
        )
        import pickle

        child = subprocess.Popen(
            [sys.executable, "-c", script, pickle.dumps(arena.handle).hex()],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            assert child.stdout is not None
            line = child.stdout.readline().strip()
            assert line == "attached"
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - defensive
                child.kill()
                child.wait(timeout=30)
        # The crash must not have touched the segment; the owner unlinks.
        assert _segment_exists(segment)
        arena.unlink()
        assert not _segment_exists(segment)

    @pytest.mark.parametrize(
        "signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"]
    )
    def test_killed_owner_does_not_leak(self, signum):
        """A signal-terminated owner still reclaims its segments.

        ``atexit`` never fires when a signal's default action kills the
        process; the shm module chains its cleanup in front of the
        termination signals instead (restore-and-reraise), so the child
        must both clean up *and* still die with the signal's exit status
        — supervisors rely on the ``-SIGTERM`` return code.
        """
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro.utils.shm import ShmArena
            arena = ShmArena.create({"xs": np.arange(8, dtype=np.float64)})
            print(arena.handle.segment, flush=True)
            time.sleep(30)  # killed long before this returns
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            assert child.stdout is not None
            segment = child.stdout.readline().strip()
            assert segment.startswith("repro_arena_")
            assert _segment_exists(segment)
            child.send_signal(signum)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - defensive
                child.kill()
                child.wait(timeout=30)
        # SIGTERM dies by default action (restore-and-reraise preserves
        # the -N status); SIGINT surfaces as an uncaught KeyboardInterrupt,
        # which CPython reports as death-by-SIGINT too.
        assert child.returncode == -int(signum)
        for _ in range(100):
            if not _segment_exists(segment):
                break
            time.sleep(0.05)
        assert not _segment_exists(segment)

    def test_sigterm_chains_a_preinstalled_handler(self):
        """A handler the owner installed first still runs after cleanup."""
        script = textwrap.dedent(
            """
            import signal, sys, time
            import numpy as np

            def handler(signum, frame):
                print("chained", flush=True)
                sys.exit(42)

            signal.signal(signal.SIGTERM, handler)
            from repro.utils.shm import ShmArena
            arena = ShmArena.create({"xs": np.arange(4, dtype=np.float64)})
            print(arena.handle.segment, flush=True)
            time.sleep(30)
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            assert child.stdout is not None
            segment = child.stdout.readline().strip()
            child.send_signal(signal.SIGTERM)
            out, _ = child.communicate(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - defensive
                child.kill()
                child.wait(timeout=30)
        assert "chained" in out
        assert child.returncode == 42
        assert not _segment_exists(segment)

    def test_no_arena_segments_left_behind(self):
        """Backstop for the whole module: nothing of ours is in /dev/shm."""
        time.sleep(0.05)
        leftovers = [
            name for name in os.listdir(SHM_DIR) if name.startswith("repro_arena_")
        ]
        assert leftovers == []
