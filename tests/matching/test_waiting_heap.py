"""The lazy dynamic matcher's join path: absorb only what waits.

A free worker (a join, or the worker of a removed matched task) searches
only while some eligible task waits unmatched, and its alternating reach
stops at the best waiting task, the top of a lazily validated heap.
These pinned cases check that a join with nothing waiting runs no reach,
that a reach meeting the best waiting task in the joining worker's own
row stamps only that row, and that duplicate heap entries left by a task
evicted twice do not disturb the absorbs.
"""

from __future__ import annotations

from typing import List

from repro.matching.incremental import LazyDynamicMatcher


def _counting_reach(matcher: LazyDynamicMatcher, calls: List[tuple]) -> None:
    reach = matcher._reach

    def counted(*args):
        calls.append(args)
        return reach(*args)

    matcher._reach = counted


def test_join_while_every_eligible_task_is_matched_runs_no_reach():
    matcher = LazyDynamicMatcher()
    calls: List[tuple] = []
    _counting_reach(matcher, calls)
    assert matcher.new_worker() == (0, None)
    assert matcher.new_task([0], 2.0) == (0, True)
    assert matcher.new_task([0], -1.0) == (1, False)  # live but ineligible
    assert matcher.new_worker([0, 1]) == (1, None)
    assert matcher.new_worker([0, 1]) == (2, None)
    # The freed worker of a removed matched task has nothing to absorb.
    assert matcher.remove_task(0) is None
    assert calls == []
    assert matcher.is_valid_matching()
    # Once a task waits, the next join searches again.
    assert matcher.new_task([], 1.0) == (2, False)
    assert matcher.new_worker([2]) == (3, 2)
    assert len(calls) == 1
    assert matcher.is_valid_matching()


def test_reach_stops_in_the_joining_workers_row():
    """The best waiting task is in the row, inside a matched chain.

    Task ``i`` neighbours workers ``i`` and ``i + 1``, so every worker
    is matched and one alternating component spans the chain.  Task
    ``size`` (the lightest) neighbours worker 0 and waits.  A worker
    joining next to tasks 0, 1 and ``size`` meets the waiting task in
    its own row: the reach stamps those three tasks and enters no
    matched worker, where the full reach would stamp the whole chain.
    """
    size = 40
    matcher = LazyDynamicMatcher()
    for _ in range(size):
        matcher.new_worker()
    for task_id in range(size):
        row = [task_id, task_id + 1] if task_id + 1 < size else [task_id]
        assert matcher.new_task(row, 5.0) == (task_id, True)
    assert matcher.new_task([0], 1.0) == (size, False)
    assert matcher.is_valid_matching()

    stamped: List[int] = []
    reach = matcher._reach

    def observed(worker_id, target):
        out = reach(worker_id, target)
        stamp = matcher._stamp
        stamped.extend(
            task_id
            for task_id, mark in enumerate(matcher._task_visited)
            if mark == stamp
        )
        return out

    matcher._reach = observed
    assert matcher.new_worker([0, 1, size]) == (size, size)
    assert stamped == [0, 1, size]
    assert matcher.worker_of(size) == size
    assert matcher.matching() == {task_id: task_id for task_id in range(size + 1)}
    assert matcher.is_valid_matching()


def test_twice_evicted_task_absorbs_past_its_duplicate_entries():
    matcher = LazyDynamicMatcher()
    matcher.new_worker()
    assert matcher.new_task([0], 1.0) == (0, True)
    # Task 1 evicts task 0, which starts waiting: its first entry.
    assert matcher.new_task([0], 2.0) == (1, True)
    assert matcher.remove_task(1) == 0  # worker 0 re-absorbs task 0
    # Task 2 evicts task 0 again: a second entry for the same task.
    assert matcher.new_task([0], 3.0) == (2, True)
    assert matcher._waiting.count((-1.0, 0)) == 2
    assert matcher.new_task([], 0.5) == (3, False)  # waits out of reach
    assert matcher.is_valid_matching()
    # Task 0 is the best waiting task; both of its entries are valid now.
    assert matcher.remove_task(2) == 0
    assert matcher.worker_of(0) == 0
    assert matcher.is_valid_matching()
    # Reading the top now pops task 0's two stale entries to reach task 3.
    assert matcher.new_worker([3]) == (1, 3)
    assert matcher.matching() == {0: 0, 3: 1}
    assert (-1.0, 0) not in matcher._waiting
    assert matcher.is_valid_matching()
    # Evicted a third time, task 0 waits again with a fresh entry.
    assert matcher.new_task([0], 4.0) == (4, True)
    assert matcher.worker_of(0) is None
    assert matcher.is_valid_matching()
    assert matcher.remove_task(4) == 0
    assert matcher.matching() == {0: 0, 3: 1}
    assert matcher.is_valid_matching()
