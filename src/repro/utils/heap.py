"""Addressable binary max-heap.

The reference MAPS planner
(:func:`repro.simulation.legacy.reference_maps_plan`, the oracle of
Algorithm 2's array planner) repeatedly extracts the grid with the largest
marginal revenue increase ``delta`` and later re-inserts an updated entry
for the same grid; it is the only user of this heap (the production
planner runs a plain :mod:`heapq` with the same total order).  The
module implements a small, dependency-free binary max-heap with:

* ``push`` / ``pop`` in ``O(log n)``;
* ``update`` (change the priority of an existing key) in ``O(log n)``;
* ``__contains__`` / ``priority_of`` in ``O(1)``.

Keys may be any hashable object (MAPS uses the grid index).  Payloads are
arbitrary and carried alongside the priority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple


@dataclass
class HeapEntry:
    """A single entry of the heap.

    Attributes:
        key: Hashable identity of the entry (e.g. a grid index).
        priority: The value the heap orders by (larger first). ``math.inf``
            is allowed, matching the initialisation of Algorithm 2 where
            every grid starts with an infinite key.
        payload: Arbitrary data carried with the entry (e.g. the candidate
            supply level and price for the grid).
    """

    key: Hashable
    priority: float
    payload: Any = None


class AddressableMaxHeap:
    """Binary max-heap with by-key addressing.

    Ties are broken by insertion order (earlier insertions win), which
    keeps the planner deterministic for a fixed seed.

    Example:
        >>> heap = AddressableMaxHeap()
        >>> heap.push("g1", 3.0, payload=(1, 2.5))
        >>> heap.push("g2", 5.0, payload=(1, 3.0))
        >>> heap.peek().key
        'g2'
        >>> heap.update("g1", 9.0)
        >>> heap.pop().key
        'g1'
    """

    def __init__(self) -> None:
        self._entries: List[HeapEntry] = []
        self._positions: Dict[Hashable, int] = {}
        self._insertion_order: Dict[Hashable, int] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._positions

    def __iter__(self) -> Iterator[HeapEntry]:
        """Iterate over entries in arbitrary (heap) order."""
        return iter(list(self._entries))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def peek(self) -> HeapEntry:
        """Return the entry with the largest priority without removing it."""
        if not self._entries:
            raise IndexError("peek from an empty heap")
        return self._entries[0]

    def priority_of(self, key: Hashable) -> float:
        """Return the current priority of ``key``.

        Raises:
            KeyError: if ``key`` is not in the heap.
        """
        return self._entries[self._positions[key]].priority

    def payload_of(self, key: Hashable) -> Any:
        """Return the payload currently stored for ``key``."""
        return self._entries[self._positions[key]].payload

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def push(self, key: Hashable, priority: float, payload: Any = None) -> None:
        """Insert a new entry.

        Raises:
            KeyError: if ``key`` is already present (use :meth:`update`).
            ValueError: if ``priority`` is NaN.
        """
        if key in self._positions:
            raise KeyError(f"key {key!r} already in heap; use update()")
        if isinstance(priority, float) and math.isnan(priority):
            raise ValueError("priority must not be NaN")
        entry = HeapEntry(key=key, priority=float(priority), payload=payload)
        self._entries.append(entry)
        index = len(self._entries) - 1
        self._positions[key] = index
        self._insertion_order[key] = self._counter
        self._counter += 1
        self._sift_up(index)

    def pop(self) -> HeapEntry:
        """Remove and return the entry with the largest priority."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._entries[0]
        last = self._entries.pop()
        del self._positions[top.key]
        self._insertion_order.pop(top.key, None)
        if self._entries:
            self._entries[0] = last
            self._positions[last.key] = 0
            self._sift_down(0)
        return top

    def update(
        self,
        key: Hashable,
        priority: float,
        payload: Any = None,
        *,
        keep_payload: bool = False,
    ) -> None:
        """Change the priority (and optionally the payload) of ``key``.

        Args:
            key: Existing key.
            priority: New priority.
            payload: New payload (ignored when ``keep_payload`` is True).
            keep_payload: If True, the existing payload is preserved.

        Raises:
            KeyError: if ``key`` is not present.
        """
        if key not in self._positions:
            raise KeyError(f"key {key!r} not in heap")
        if isinstance(priority, float) and math.isnan(priority):
            raise ValueError("priority must not be NaN")
        index = self._positions[key]
        entry = self._entries[index]
        old_priority = entry.priority
        entry.priority = float(priority)
        if not keep_payload:
            entry.payload = payload
        if entry.priority > old_priority:
            self._sift_up(index)
        elif entry.priority < old_priority:
            self._sift_down(index)

    def push_or_update(self, key: Hashable, priority: float, payload: Any = None) -> None:
        """Insert ``key`` or, if already present, update it."""
        if key in self._positions:
            self.update(key, priority, payload)
        else:
            self.push(key, priority, payload)

    def remove(self, key: Hashable) -> HeapEntry:
        """Remove an arbitrary key from the heap and return its entry."""
        if key not in self._positions:
            raise KeyError(f"key {key!r} not in heap")
        index = self._positions[key]
        entry = self._entries[index]
        last = self._entries.pop()
        del self._positions[key]
        self._insertion_order.pop(key, None)
        if index < len(self._entries):
            self._entries[index] = last
            self._positions[last.key] = index
            self._sift_down(index)
            self._sift_up(self._positions[last.key])
        return entry

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._positions.clear()
        self._insertion_order.clear()

    # ------------------------------------------------------------------
    # ordering helpers
    # ------------------------------------------------------------------
    def _less(self, i: int, j: int) -> bool:
        """Return True if entry ``i`` should be *below* entry ``j``."""
        a, b = self._entries[i], self._entries[j]
        if a.priority != b.priority:
            return a.priority < b.priority
        # Tie-break: earlier insertion wins (stays on top).
        return self._insertion_order.get(a.key, 0) > self._insertion_order.get(b.key, 0)

    def _swap(self, i: int, j: int) -> None:
        self._entries[i], self._entries[j] = self._entries[j], self._entries[i]
        self._positions[self._entries[i].key] = i
        self._positions[self._entries[j].key] = j

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            if self._less(parent, index):
                self._swap(parent, index)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._entries)
        while True:
            left = 2 * index + 1
            right = 2 * index + 2
            largest = index
            if left < size and self._less(largest, left):
                largest = left
            if right < size and self._less(largest, right):
                largest = right
            if largest == index:
                break
            self._swap(index, largest)
            index = largest

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def as_sorted_list(self) -> List[Tuple[Hashable, float]]:
        """Return ``(key, priority)`` pairs sorted by descending priority.

        Intended for tests and debugging; does not mutate the heap.
        """
        return sorted(
            ((entry.key, entry.priority) for entry in self._entries),
            key=lambda pair: -pair[1],
        )

    def is_valid(self) -> bool:
        """Check the heap invariant (used by property-based tests)."""
        size = len(self._entries)
        for index in range(size):
            left = 2 * index + 1
            right = 2 * index + 2
            if left < size and self._entries[index].priority < self._entries[left].priority:
                return False
            if right < size and self._entries[index].priority < self._entries[right].priority:
                return False
        for key, position in self._positions.items():
            if self._entries[position].key != key:
                return False
        return True


__all__ = ["AddressableMaxHeap", "HeapEntry"]
