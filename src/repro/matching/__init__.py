"""Bipartite matching substrate.

The GDP objective (Definitions 5–6) is defined through the maximum-weight
bipartite matching of the *instantiated* task–worker graph, and MAPS
(Algorithm 2) maintains a growing *pre-matching* via augmenting paths to
check that an extra unit of supply for a grid is actually feasible.

Modules:

* :mod:`repro.matching.bipartite` — the task–worker bipartite graph built
  under the range constraint, with adjacency in both directions;
* :mod:`repro.matching.maximum_matching` — Hopcroft–Karp maximum
  cardinality matching (used as a reference for the incremental matcher);
* :mod:`repro.matching.weighted` — maximum-weight bipartite matching:
  the exact matroid greedy on the CSR view, plus SciPy's
  ``linear_sum_assignment`` as the dense test oracle;
* :mod:`repro.matching.incremental` — the incremental augmenting-path
  matcher MAPS uses to admit one more worker into a grid's supply;
* :mod:`repro.matching.possible_worlds` — exact expected-revenue
  computation by enumerating possible worlds (for small instances such as
  the paper's running example, Fig. 2).
"""

from repro.matching.bipartite import BipartiteGraph, CSRGraph, build_bipartite_graph
from repro.matching.maximum_matching import hopcroft_karp_matching
from repro.matching.weighted import (
    max_weight_matching,
    scipy_max_weight_matching,
    scipy_weight_matching,
)
from repro.matching.incremental import IncrementalMatcher
from repro.matching.possible_worlds import (
    enumerate_possible_worlds,
    exact_expected_revenue,
    monte_carlo_expected_revenue,
)

__all__ = [
    "BipartiteGraph",
    "CSRGraph",
    "build_bipartite_graph",
    "hopcroft_karp_matching",
    "max_weight_matching",
    "scipy_max_weight_matching",
    "scipy_weight_matching",
    "IncrementalMatcher",
    "enumerate_possible_worlds",
    "exact_expected_revenue",
    "monte_carlo_expected_revenue",
]
