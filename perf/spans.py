"""In-memory span tracer for the benchmark's traced runs.

A traced run wraps the calls into each layer — the public entry points
and the names callers bind at import time — so every call becomes a
span: ``name``, ``start``, ``end``, ``parent`` (the enclosing span), the
workload and, for service quotes, the ``task_id``.  Spans stay in a list
until the run ends; nothing is written out.

Wrappers patch the name where the *caller* looks it up.  A function a
module imported by name (``from repro.matching.weighted import
max_weight_matching``) is patched in that module's namespace, a method
on its class.  Both dynamic matchers map onto the same ``dyn.*`` names,
so the layer numbers keep their meaning when one matcher replaces the
other.  A target that no longer exists is skipped and reported, never
fatal: a refactor may remove a hook without breaking the benchmark.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Spans are opened and closed on one thread in stack order,
so children nest inside their parent and never overlap one another; the
self times of all spans (the root's included) then add up to the root's
wall time.  ``wait`` spans (a service quote in flight, measured by the
client while other quotes are in flight too) overlap by nature: they
are kept for their durations and ``task_id`` but excluded from the
self-time arithmetic.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One traced call."""

    name: str
    start: float
    end: float
    parent: int
    workload: str
    task_id: Optional[int] = None
    wait: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its non-wait children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0 and not span.wait:
            own[span.parent] -= span.duration
    return own


class Tracer:
    """Records spans and counters; installs and removes call wrappers.

    Args:
        workload: Workload name stamped on every span.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans and counters
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wait_span(self, name: str, start: float, end: float, task_id: int) -> None:
        """Record an overlapping span measured elsewhere (a quote in flight)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, start, end, parent, self.workload, task_id=task_id, wait=True)
        )

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: Optional[str],
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable:
        """``fn`` run inside a span ``name`` (no span when ``name`` is None)."""

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: Optional[str],
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod).

        For a class only its own ``__dict__`` is consulted, so patching a
        base class never touches a subclass's override.  A missing target
        is recorded in :attr:`missing` and skipped.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name, on_result))
        else:
            replacement = self.wrap(raw, name, on_result)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def traced_factory(self, factory: Callable[[], Iterator], name: str) -> Callable[[], Iterator]:
        """A zero-argument iterator factory whose every ``next`` is a span."""

        def produce() -> Iterator:
            iterator = iter(factory())
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return produce

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        """Self time summed per span name (wait spans excluded)."""
        totals: Dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            if not span.wait:
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + 1
        return totals


__all__ = ["Span", "Tracer", "self_times"]
