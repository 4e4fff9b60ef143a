"""Search-for-search parity of the lazy dynamic matcher with its earlier searches.

:class:`~repro.matching.incremental.LazyDynamicMatcher` augments through
the batch matcher's :func:`~repro.kernels.augmenting.augmenting_path`
and skips departed workers and ineligible tasks through the
:data:`~repro.kernels.augmenting.DEAD` sentinel in their visit-stamp
slots.  ``_EarlierSearches`` below is the matcher as it was before: its
own index-pointer DFS (``_try_augment``), which tests liveness and the
visit stamp separately, its index-loop BFS (``_reach``), which tests
eligibility and the stamp separately, and the eviction and absorb scans
that compared ``_priority_key`` tuples, all kept verbatim but for the
augmenting DFS's free-neighbour-first lookahead.  The matcher
no longer stores liveness flags beside the sentinel, so the earlier
searches derive them from it on entry.

A hypothesis state machine drives one matcher of each kind through the
same random ``new_task`` / ``new_worker`` / ``remove_task`` /
``remove_worker`` / ``commit_task`` sequence over a zone adjacency
(a task neighbours the workers covering its zone).  Weights include
non-positive ones (live but ineligible tasks) and ties; inserts may be
greedy; removals may pick a matched worker.  After every operation:

* every search and absorb both matchers ran, in order, is equal: the
  start and the visited workers of each failed augmenting search (the
  eviction circuit), and the worker and absorbed task (or ``None``) of
  each free-worker absorb;
* the return values, ``matching()`` and ``num_matched`` are equal;
* ``is_valid_matching()`` holds, which includes the sentinel check, the
  eligible count and the waiting heap.

The reach lists themselves are not compared: the matcher skips the
reach while no task waits and stops it at the best waiting task, so
its lists are shorter by design; the absorbed task is what they decide.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kernels.augmenting import DEAD
from repro.matching.incremental import LazyDynamicMatcher
from repro.matching.maximum_matching import UNMATCHED

NUM_ZONES = 4

#: Non-positive weights insert ineligible tasks; repeats make ties.
WEIGHTS = st.sampled_from([-1.0, 0.0, 0.5, 1.25, 1.25, 2.0, 3.75])


class _EarlierSearches(LazyDynamicMatcher):
    """The lazy matcher with its earlier searches and repair scans."""

    def _try_augment(self, start: int) -> Optional[List[int]]:
        self._stamp += 1
        stamp = self._stamp
        rows = self._rows
        match_task = self._match_task
        match_worker = self._match_worker
        visited = self._visited
        # Liveness is the sentinel now; derive the earlier flag array.
        worker_live = [mark != DEAD for mark in visited]
        tasks_stack = [start]
        iters = [0]
        chosen = [UNMATCHED]
        visited_seq: List[int] = []
        while tasks_stack:
            depth = len(tasks_stack) - 1
            row = rows[tasks_stack[depth]]
            pointer = iters[depth]
            end = len(row)
            if pointer == 0:
                # Entering the task: free neighbour first.
                for worker_id in row:
                    if (
                        match_worker[worker_id] == UNMATCHED
                        and worker_live[worker_id]
                        and visited[worker_id] != stamp
                    ):
                        visited[worker_id] = stamp
                        chosen[depth] = worker_id
                        for level in range(depth + 1):
                            task_id = tasks_stack[level]
                            match_task[task_id] = chosen[level]
                            match_worker[chosen[level]] = task_id
                        return None
            descended = False
            while pointer < end:
                worker_id = row[pointer]
                pointer += 1
                if not worker_live[worker_id] or visited[worker_id] == stamp:
                    continue
                visited[worker_id] = stamp
                visited_seq.append(worker_id)
                iters[depth] = pointer
                chosen[depth] = worker_id
                owner = match_worker[worker_id]
                if owner == UNMATCHED:
                    for level in range(depth + 1):
                        task_id = tasks_stack[level]
                        match_task[task_id] = chosen[level]
                        match_worker[chosen[level]] = task_id
                    return None
                tasks_stack.append(owner)
                iters.append(0)
                chosen.append(UNMATCHED)
                descended = True
                break
            if not descended:
                tasks_stack.pop()
                iters.pop()
                chosen.pop()
        return visited_seq

    def _reach(self, worker_id: int) -> List[int]:
        self._stamp += 1
        stamp = self._stamp
        wrows = self._wrows
        match_task = self._match_task
        task_visited = self._task_visited
        task_eligible = [mark != DEAD for mark in task_visited]
        worker_visited = self._visited
        queue = [worker_id]
        worker_visited[worker_id] = stamp
        head = 0
        out: List[int] = []
        while head < len(queue):
            current = queue[head]
            head += 1
            for task_id in wrows[current]:
                if not task_eligible[task_id] or task_visited[task_id] == stamp:
                    continue
                task_visited[task_id] = stamp
                matched = match_task[task_id]
                if matched == UNMATCHED:
                    out.append(task_id)
                elif worker_visited[matched] != stamp:
                    worker_visited[matched] = stamp
                    queue.append(matched)
        return out

    def _priority_key(self, task_id: int) -> Tuple[float, int]:
        return (-float(self._weights[task_id]), task_id)

    def _match_or_evict(self, task_id: int) -> bool:
        visited_seq = self._try_augment(task_id)
        if visited_seq is None:
            self._num_matched += 1
            return True
        match_task = self._match_task
        match_worker = self._match_worker
        evict = task_id
        evict_key = self._priority_key(task_id)
        for worker_id in visited_seq:
            owner = int(match_worker[worker_id])
            key = self._priority_key(owner)
            if key > evict_key:
                evict = owner
                evict_key = key
        if evict == task_id:
            return False
        freed = int(match_task[evict])
        match_task[evict] = UNMATCHED
        match_worker[freed] = UNMATCHED
        if self._try_augment(task_id) is not None:
            raise RuntimeError("re-augmentation failed")
        return True

    def _absorb_free_worker(self, worker_id: int) -> Optional[int]:
        candidates = self._reach(worker_id)
        if not candidates:
            return None
        best = candidates[0]
        best_key = self._priority_key(best)
        for task_id in candidates[1:]:
            key = self._priority_key(task_id)
            if key < best_key:
                best = task_id
                best_key = key
        if self._try_augment(best) is not None:
            raise RuntimeError("absorb failed")
        self._num_matched += 1
        return best


def _logged(matcher: LazyDynamicMatcher, log: list) -> LazyDynamicMatcher:
    """Record every search and absorb ``matcher`` runs into ``log``, in order."""
    try_augment, absorb = matcher._try_augment, matcher._absorb_free_worker

    def logged_augment(start):
        visited = try_augment(start)
        log.append(("augment", start, None if visited is None else list(visited)))
        return visited

    def logged_absorb(worker_id):
        task_id = absorb(worker_id)
        log.append(("absorb", worker_id, task_id))
        return task_id

    matcher._try_augment = logged_augment
    matcher._absorb_free_worker = logged_absorb
    return matcher


class LazySearchMachine(RuleBasedStateMachine):
    """The matcher and its earlier searches, in lockstep."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []
        self.oracle_log: list = []
        self.matcher = _logged(LazyDynamicMatcher(), self.log)
        self.oracle = _logged(_EarlierSearches(), self.oracle_log)
        self.task_zone: List[int] = []
        self.worker_zones: List[Set[int]] = []
        self.live_tasks: Set[int] = set()
        self.live_workers: Set[int] = set()
        self.seen: list = []

    def _both(self, method: str, *args, **kwargs):
        got = getattr(self.matcher, method)(*args, **kwargs)
        want = getattr(self.oracle, method)(*args, **kwargs)
        assert got == want, method
        assert self.log == self.oracle_log, method
        self.seen.extend(self.log)
        self.log.clear()
        self.oracle_log.clear()
        return got

    def _matched_workers(self) -> List[int]:
        return sorted(self.matcher.matching().values())

    @rule(
        zone=st.integers(min_value=0, max_value=NUM_ZONES - 1),
        weight=WEIGHTS,
        greedy=st.sampled_from([False, False, False, True]),
    )
    def new_task(self, zone, weight, greedy):
        row = [w for w in sorted(self.live_workers) if zone in self.worker_zones[w]]
        task_id, _ = self._both("new_task", row, weight, greedy=greedy)
        assert task_id == len(self.task_zone)
        self.task_zone.append(zone)
        self.live_tasks.add(task_id)

    @rule(
        zones=st.sets(
            st.integers(min_value=0, max_value=NUM_ZONES - 1), min_size=1, max_size=2
        )
    )
    def new_worker(self, zones):
        row = [t for t in sorted(self.live_tasks) if self.task_zone[t] in zones]
        worker_id, _ = self._both("new_worker", row)
        assert worker_id == len(self.worker_zones)
        self.worker_zones.append(zones)
        self.live_workers.add(worker_id)

    @precondition(lambda self: self.live_tasks)
    @rule(data=st.data())
    def remove_task(self, data):
        task_id = data.draw(st.sampled_from(sorted(self.live_tasks)))
        self._both("remove_task", task_id)
        self.live_tasks.discard(task_id)

    @precondition(lambda self: self.live_workers)
    @rule(data=st.data())
    def remove_worker(self, data):
        worker_id = data.draw(st.sampled_from(sorted(self.live_workers)))
        self._both("remove_worker", worker_id)
        self.live_workers.discard(worker_id)

    @precondition(lambda self: self.matcher.num_matched)
    @rule(data=st.data())
    def remove_matched_worker(self, data):
        worker_id = data.draw(st.sampled_from(self._matched_workers()))
        self._both("remove_worker", worker_id)
        self.live_workers.discard(worker_id)

    @precondition(lambda self: self.matcher.num_matched)
    @rule(data=st.data())
    def commit_task(self, data):
        task_id = data.draw(st.sampled_from(sorted(self.matcher.matching())))
        worker_id = self._both("commit_task", task_id)
        self.live_tasks.discard(task_id)
        self.live_workers.discard(worker_id)

    @invariant()
    def same_matched_state(self):
        assert self.matcher.matching() == self.oracle.matching()
        assert self.matcher.num_matched == self.oracle.num_matched
        assert self.matcher.is_valid_matching()
        for task_id in range(self.matcher.num_tasks):
            assert self.matcher.is_task_live(task_id) == (task_id in self.live_tasks)
        for worker_id in range(self.matcher.num_workers):
            assert self.matcher.is_worker_live(worker_id) == (
                worker_id in self.live_workers
            )


TestLazySearch = LazySearchMachine.TestCase
TestLazySearch.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)


class _Draw:
    """Stands in for hypothesis's ``data`` with a fixed draw."""

    def __init__(self, value):
        self.value = value

    def draw(self, _strategy):
        return self.value


def test_machine_runs_failed_searches_and_reaches():
    """A fixed run exercises every search and absorb kind the machine compares."""
    machine = LazySearchMachine()
    for zone, weight in [(0, 2.0), (0, 1.25), (0, 0.0), (1, 3.75)]:
        machine.new_task(zone, weight, False)
    # Task 3 waits out of reach: the full reach picks task 0.
    machine.new_worker({0})
    # Task 3 is the best waiting task and in the row: the reach stops there.
    machine.new_worker({0, 1})
    # Task 4's search fails over workers 0 and 1; it evicts task 0.
    machine.new_task(0, 5.0, False)
    assert machine.oracle.matching() == {3: 1, 4: 0}
    machine.commit_task(_Draw(4))
    machine.new_worker({0})  # absorbs task 0, the best reachable one
    assert machine.oracle.matching() == {0: 2, 3: 1}
    machine.remove_task(_Draw(1))  # the last waiting task leaves
    machine.new_worker({1})  # nothing waits: absorbs nothing
    assert machine.matcher.matching() == machine.oracle.matching()
    assert machine.matcher.is_valid_matching()
    assert ("absorb", 0, 0) in machine.seen
    assert ("absorb", 1, 3) in machine.seen
    assert ("absorb", 3, None) in machine.seen
    assert ("augment", 4, [0, 1]) in machine.seen
    assert ("augment", 3, None) in machine.seen
    machine.same_matched_state()
    machine.teardown()

