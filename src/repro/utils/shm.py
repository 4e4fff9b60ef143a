"""Named shared-memory segments holding structure-of-arrays payloads.

The zero-copy runtime needs to hand columnar buffers to other processes
(a figure pool's workers) without pickling the data through the job
queue:
the owner process packs the arrays into one
:class:`multiprocessing.shared_memory.SharedMemory` segment, ships the
tiny picklable :class:`ArenaHandle` (segment name + array schema), and
every worker maps the same physical pages read-only by name.

Ownership protocol (what keeps ``/dev/shm`` clean):

* exactly one process — the creator — *owns* a segment and is
  responsible for :meth:`ShmArena.unlink`;
* workers :meth:`ShmArena.attach` by handle and only ever
  :meth:`ShmArena.close` their mapping; a worker crash therefore cannot
  leak the segment, because the owner's ``finally``/``atexit`` cleanup
  still runs;
* every owned segment is registered in a module-level set and unlinked
  by an ``atexit`` hook as a backstop, so even an owner that forgets to
  call :meth:`unlink` does not survive the interpreter
  (``tests/utils/test_shm.py`` asserts both lifecycles);
* ``atexit`` never fires for a default-action signal death, so the first
  :meth:`ShmArena.create` additionally chains the same cleanup in front
  of SIGTERM/SIGINT/SIGHUP (restore-and-reraise, preserving the
  death-by-signal exit status — see ``_install_signal_backstop``).

Attaching unregisters the mapping from :mod:`multiprocessing`'s resource
tracker: the tracker assumes whoever opens a segment owns it, which
would make worker exits unlink buffers the owner is still serving.
"""

from __future__ import annotations

import atexit
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

#: Alignment of every array inside a segment (bytes).  64 keeps rows
#: cache-line aligned whatever dtype mix the schema carries.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ArraySpec:
    """Location of one named array inside a segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ArenaHandle:
    """A picklable reference to a shared-memory arena.

    Attributes:
        segment: OS-level name of the shared-memory segment.
        specs: Schema of the packed arrays (name, dtype, shape, offset).
    """

    segment: str
    specs: Tuple[ArraySpec, ...]

    @property
    def nbytes(self) -> int:
        """Total payload size (excluding alignment padding at the tail)."""
        if not self.specs:
            return 0
        last = max(self.specs, key=lambda spec: spec.offset)
        return last.offset + last.nbytes


# ---------------------------------------------------------------------------
# owner-side leak backstop
# ---------------------------------------------------------------------------
_OWNED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_OWNED_LOCK = threading.Lock()


def _cleanup_owned_segments() -> None:  # pragma: no cover - exercised via subprocess test
    with _OWNED_LOCK:
        segments = list(_OWNED_SEGMENTS.values())
        _OWNED_SEGMENTS.clear()
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


atexit.register(_cleanup_owned_segments)


# ``atexit`` does not run when a signal's default action kills the
# process, and SIGTERM/SIGINT are exactly how long-running owners — the
# dispatch service, a benchmark under a CI timeout — usually die.  The
# first ``ShmArena.create`` therefore chains a cleanup handler in front
# of whatever disposition each termination signal currently has:
#
# * a previously-installed Python handler is kept and invoked after the
#   cleanup (chaining, not replacement — SIGINT's default
#   ``KeyboardInterrupt`` still raises);
# * ``SIG_DFL`` is restored and the signal re-raised at the process, so
#   the exit status still reports death-by-signal (``-SIGTERM``), which
#   supervisors and ``tests/utils/test_shm.py`` rely on;
# * ``SIG_IGN`` is left alone — a process that chose to ignore a signal
#   keeps ignoring it.
#
# Installation is lazy (import must not touch global handler state) and
# skipped off the main thread, where ``signal.signal`` raises; the
# ``atexit`` hook above still covers those processes' clean exits.
_CHAINED_HANDLERS: Dict[int, object] = {}
_SIGNALS_INSTALLED = False


def _handle_termination(signum, frame):  # pragma: no cover - subprocess test
    import os
    import signal as signal_module

    _cleanup_owned_segments()
    previous = _CHAINED_HANDLERS.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    try:
        signal_module.signal(signum, signal_module.SIG_DFL)
    except (ValueError, OSError):
        return
    os.kill(os.getpid(), signum)


def _install_signal_backstop() -> None:
    """Idempotently chain the owner cleanup into termination signals."""
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    import signal as signal_module

    _SIGNALS_INSTALLED = True
    chained = [signal_module.SIGTERM, signal_module.SIGINT]
    if hasattr(signal_module, "SIGHUP"):
        chained.append(signal_module.SIGHUP)
    for signum in chained:
        try:
            current = signal_module.getsignal(signum)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            continue
        if current is signal_module.SIG_IGN or current is _handle_termination:
            continue
        if callable(current):
            _CHAINED_HANDLERS[int(signum)] = current
        try:
            signal_module.signal(signum, _handle_termination)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            _CHAINED_HANDLERS.pop(int(signum), None)


_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    Python < 3.13 has no ``track=False``: a plain attach registers the
    segment with the attaching process's resource tracker, which then
    either unlinks it when the attacher exits (spawn children — yanking
    the buffers out from under the owner) or double-unregisters against
    the owner's later unlink (fork children sharing the owner's
    tracker).  Suppressing registration for the duration of the attach
    sidesteps both; only the creating process ever tracks the segment.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


class ShmArena:
    """A set of named numpy arrays packed into one shared-memory segment.

    Create with :meth:`create` (owner) or :meth:`attach` (worker); use as
    a context manager, or call :meth:`close` / :meth:`unlink` directly.

    Example:
        >>> import numpy as np
        >>> arena = ShmArena.create({"xs": np.arange(3, dtype=np.float64)})
        >>> view = ShmArena.attach(arena.handle)
        >>> float(view["xs"][2])
        2.0
        >>> view.close()
        >>> arena.unlink()
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: ArenaHandle,
        owner: bool,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._handle = handle
        self._owner = bool(owner)
        # Indexed once per create/attach: a workload arena holds
        # periods x fields arrays, so a scan per lookup would make every
        # period pay for all the specs packed before its own.
        self._specs: Dict[str, ArraySpec] = {spec.name: spec for spec in handle.specs}
        self._views: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, arrays: Mapping[str, np.ndarray], name: Optional[str] = None
    ) -> "ShmArena":
        """Pack ``arrays`` into a fresh owned segment (copies once).

        Args:
            arrays: Name -> array mapping; arrays may be any shape/dtype
                with a contiguous representation.
            name: Optional OS-level segment name; a collision-resistant
                one is generated when omitted.
        """
        specs = []
        offset = 0
        prepared: Dict[str, np.ndarray] = {}
        for key, value in arrays.items():
            array = np.ascontiguousarray(value)
            offset = _aligned(offset)
            specs.append(
                ArraySpec(
                    name=str(key),
                    dtype=array.dtype.str,
                    shape=tuple(int(dim) for dim in array.shape),
                    offset=offset,
                )
            )
            prepared[str(key)] = array
            offset += array.nbytes
        segment_name = name or f"repro_arena_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, offset), name=segment_name
        )
        handle = ArenaHandle(segment=shm.name, specs=tuple(specs))
        arena = cls(shm, handle, owner=True)
        for spec in specs:
            arena._view(spec)[...] = prepared[spec.name]
        with _OWNED_LOCK:
            _OWNED_SEGMENTS[shm.name] = shm
        _install_signal_backstop()
        return arena

    @classmethod
    def attach(cls, handle: ArenaHandle) -> "ShmArena":
        """Map an existing segment by handle (read-only views)."""
        return cls(_attach_untracked(handle.segment), handle, owner=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def handle(self) -> ArenaHandle:
        return self._handle

    @property
    def is_owner(self) -> bool:
        return self._owner

    def _view(self, spec: ArraySpec) -> np.ndarray:
        if self._shm is None:
            raise ValueError("arena is closed")
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=self._shm.buf,
            offset=spec.offset,
        )
        if not self._owner:
            view.setflags(write=False)
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            spec = self._specs.get(name)
            if spec is None:
                raise KeyError(f"arena has no array named {name!r}")
            view = self._views[name] = self._view(spec)
        return view

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def keys(self) -> Iterator[str]:
        return (spec.name for spec in self._handle.specs)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Views of every packed array (zero-copy)."""
        return {spec.name: self[spec.name] for spec in self._handle.specs}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        # Views alias the mapped buffer; drop them before unmapping or
        # SharedMemory.close raises "cannot close exported pointers".
        self._views.clear()
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - stray external views
                pass
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if not self._owner:
            raise ValueError("only the creating process may unlink an arena")
        shm = self._shm
        self.close()
        with _OWNED_LOCK:
            tracked = _OWNED_SEGMENTS.pop(self._handle.segment, None)
        target = tracked or shm
        if target is not None:
            try:
                target.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


__all__ = ["ArenaHandle", "ArraySpec", "ShmArena"]
