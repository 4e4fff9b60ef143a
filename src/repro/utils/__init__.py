"""Shared utilities: addressable heaps, seeded randomness and statistics.

These helpers back the algorithmic components of the library:

* :class:`repro.utils.heap.AddressableMaxHeap` implements the max-heap of
  per-grid marginal gains of the reference MAPS planner (Algorithm 2's
  test oracle in :mod:`repro.simulation.legacy`), with support for
  re-inserting a key for the same grid.
* :mod:`repro.utils.rng` centralises seeded random number generation so
  that every experiment in the benchmark harness is reproducible.
* :mod:`repro.utils.statistics` provides running means/variances and
  confidence intervals used when aggregating experiment repetitions.
"""

from repro.utils.heap import AddressableMaxHeap, HeapEntry
from repro.utils.rng import RandomState, derive_seed, spawn_generators
from repro.utils.statistics import (
    OnlineMeanVariance,
    confidence_interval,
    summarize,
)

__all__ = [
    "AddressableMaxHeap",
    "HeapEntry",
    "RandomState",
    "derive_seed",
    "spawn_generators",
    "OnlineMeanVariance",
    "confidence_interval",
    "summarize",
]
