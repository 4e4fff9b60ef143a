"""Matching backend registry used by :func:`max_weight_matching`.

Mirrors :mod:`repro.pricing.registry`: the simulation engine and the
ablation benchmarks select the realized-matching algorithm by name
("matroid", "hungarian", ...), and every backend registers itself here so
the dispatcher, the CLI help strings and the cross-backend tests share a
single source of truth.  A backend is a callable

    backend(graph, task_weights, allowed_tasks) -> (task_to_worker, total)

where ``graph`` is a :class:`~repro.matching.bipartite.BipartiteGraph`
(backends consume its CSR view via :meth:`BipartiteGraph.csr`),
``task_weights`` is a per-task-position weight sequence and
``allowed_tasks`` optionally restricts the eligible task positions.

Registering a custom backend is one decorator (re-registering a name
overwrites it, so tests can swap in instrumented variants)::

    @register_backend("mine")
    def my_backend(graph, task_weights, allowed_tasks=None):
        ...
        return task_to_worker, total_weight

Runnable doctest (also exercised by the CI docs job; importing
:mod:`repro.matching.weighted` is what registers the shipped backends):

>>> import repro.matching.weighted
>>> from repro.matching.registry import available_backends, get_backend
>>> available_backends()
['greedy', 'hungarian', 'matroid', 'scipy', 'vgreedy']
>>> get_backend("MATROID") is get_backend("matroid")  # case-insensitive
True
>>> get_backend("simplex")
Traceback (most recent call last):
    ...
ValueError: unknown matching backend 'simplex'; registered backends: \
greedy, hungarian, matroid, scipy, vgreedy
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

MatchingResult = Tuple[Dict[int, int], float]
#: Signature every registered backend implements.
MatchingBackend = Callable[..., MatchingResult]

_BACKENDS: Dict[str, MatchingBackend] = {}


def register_backend(name: str) -> Callable[[MatchingBackend], MatchingBackend]:
    """Class/function decorator registering a matching backend under ``name``.

    Re-registering a name overwrites the previous backend, which lets tests
    and experiments swap in instrumented variants.
    """

    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")

    def decorator(backend: MatchingBackend) -> MatchingBackend:
        _BACKENDS[key] = backend
        return backend

    return decorator


def get_backend(name: str) -> MatchingBackend:
    """Resolve a backend by (case-insensitive) name.

    Raises:
        ValueError: for unknown names; the message lists the registered
            backends so callers can self-correct.
    """
    key = str(name).strip().lower()
    if key not in _BACKENDS:
        raise ValueError(
            f"unknown matching backend {name!r}; "
            f"registered backends: {', '.join(available_backends())}"
        )
    return _BACKENDS[key]


def available_backends() -> List[str]:
    """Names of all registered backends, sorted alphabetically."""
    return sorted(_BACKENDS)


__all__ = [
    "MatchingBackend",
    "MatchingResult",
    "register_backend",
    "get_backend",
    "available_backends",
]
