"""The scalar hot loops of the matching layer, in plain Python and numpy.

Once the data plane is columnar (see ``docs/performance.md``) a handful
of inner loops dominate the single-core profile, and each lives here as
one function with one implementation:

* :func:`repro.kernels.augmenting.augmenting_path` — the augmenting-path
  search over task rows, run by the matroid greedy
  (:func:`repro.kernels.augmenting.matroid_augment`, the batch matcher
  :func:`repro.matching.weighted.max_weight_matching`), by MAPS's
  pre-matching (:class:`repro.matching.incremental.IncrementalMatcher`)
  and by the live plane's dynamic matcher
  (:class:`repro.matching.incremental.LazyDynamicMatcher`).  Its one
  pairing rule is *free neighbour first*: a task takes the first free
  worker of its row before re-routing a matched one, to reassign as few
  drivers as possible;
* :func:`repro.kernels.halo.halo_task_candidates` /
  :func:`repro.kernels.halo.halo_residual_workers` — the sharded
  engine's halo-reconciliation scans;
* :func:`repro.kernels.dynamic.dynamic_augment` /
  :func:`repro.kernels.dynamic.dynamic_reach` — the delete/repair loops
  of :class:`repro.matching.incremental.DynamicMatcher`, the universe
  matcher a degree-capped dynamic engine or session runs, under the same
  pairing rule.

Every one is pure index selection: weight validation, ordering and the
float accumulation stay in the callers.
"""
