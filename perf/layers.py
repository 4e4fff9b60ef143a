"""Which calls a traced run wraps, and the per-layer metrics they yield.

Each layer is named after the repro modules it covers.  Spans give busy
time (self time: nested layers are subtracted) and call counts; counters
placed at the same boundaries give the work done, so ratios such as the
MAPS probe hit rate or the halo yield are measured where the work
happens.  A layer idle on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core import gdp, maps
from repro.matching import incremental
from repro.matching.bipartite import BipartiteGraph
from repro.simulation import pipeline, sharded, streaming
from spans import Tracer

#: span name -> (self-time metric, call-count metric or None)
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "gen": ("gen.s", None),
    "graph.build": ("graph.build_s", "graph.calls"),
    "pipeline.quote": ("pipeline.quote_s", None),
    "pipeline.decide": ("pipeline.decide_s", None),
    "pipeline.feedback": ("pipeline.feedback_s", None),
    "pricing.learn": ("pricing.learn_s", None),
    "maps.plan": ("maps.plan_s", "maps.plan_calls"),
    "match": ("match.s", "match.calls"),
    "halo": ("halo.s", None),
    "dyn.universe": ("dyn.universe_s", None),
    "dyn.insert_task": ("dyn.insert_task_s", "dyn.insert_task_calls"),
    "dyn.insert_worker": ("dyn.insert_worker_s", "dyn.insert_worker_calls"),
    "dyn.remove": ("dyn.remove_s", "dyn.remove_calls"),
    "dyn.commit": ("dyn.commit_s", "dyn.commit_calls"),
}

#: Work counters recorded by the wrappers' result hooks.
COUNTERS = (
    "graph.edges",
    "maps.probes",
    "maps.probe_hits",
    "match.matched",
    "halo.candidates",
    "halo.served",
)

#: Name of the span enclosing a whole traced measurement.
ROOT = "trace"


def _count_edges(tracer: Tracer, instance) -> None:
    # A deferred graph (the warm-shard proxy) is counted only if built.
    if isinstance(instance.graph, BipartiteGraph):
        tracer.count("graph.edges", instance.graph.num_edges)


def _count_matched(tracer: Tracer, result) -> None:
    matched = len(result[0])
    tracer.count("match.matched", matched)
    if tracer.current == "halo":
        tracer.count("halo.served", matched)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark observes."""
    tracer.patch(gdp.PeriodInstance, "build", "graph.build", _count_edges)
    tracer.patch(gdp.PeriodInstance, "from_columns", "graph.build", _count_edges)
    for stage in ("quote", "decide", "feedback"):
        tracer.patch(pipeline.PeriodPipeline, stage, f"pipeline.{stage}")
    tracer.patch(maps.MAPSPlanner, "plan", "maps.plan")
    # MAPS probes a grid with can_augment_grid and commits the found
    # path with augment_grid; hits / probes is the probe yield.
    tracer.patch(
        incremental.IncrementalMatcher,
        "can_augment_grid",
        None,
        lambda t, _found: t.count("maps.probes"),
    )
    tracer.patch(
        incremental.IncrementalMatcher,
        "augment_grid",
        None,
        lambda t, task: t.count("maps.probe_hits", task is not None),
    )
    for caller in (pipeline, sharded):
        tracer.patch(caller, "max_weight_matching", "match", _count_matched)
    tracer.patch(sharded.ShardedEngine, "_reconcile_halo", "halo")
    tracer.patch(
        sharded,
        "halo_task_candidates",
        None,
        lambda t, candidates: t.count("halo.candidates", len(candidates)),
    )
    tracer.patch(streaming, "build_universe", "dyn.universe")
    for cls, insert_task, insert_worker in (
        (incremental.DynamicMatcher, "insert_task", "insert_worker"),
        (incremental.LazyDynamicMatcher, "new_task", "new_worker"),
    ):
        tracer.patch(cls, insert_task, "dyn.insert_task")
        tracer.patch(cls, insert_worker, "dyn.insert_worker")
        tracer.patch(cls, "remove_task", "dyn.remove")
        tracer.patch(cls, "remove_worker", "dyn.remove")
        tracer.patch(cls, "commit_task", "dyn.commit")


def traced_strategy(tracer: Tracer, strategy):
    """The strategy with its learning step wrapped as ``pricing.learn``."""
    strategy.observe_feedback_batch = tracer.wrap(
        strategy.observe_feedback_batch, "pricing.learn"
    )
    return strategy


def layer_metrics(tracer: Tracer, declared: Iterable[str]) -> Dict[str, float]:
    """Per-layer self times, calls and counters of one traced run.

    ``trace.other_s`` is the root's self time (work outside every
    wrapped layer); ``trace.spans_missing`` counts declared spans that
    never fired.
    """
    seconds = tracer.layer_seconds()
    calls = tracer.calls()
    metrics: Dict[str, float] = {}
    for span, (seconds_name, calls_name) in SPAN_METRICS.items():
        metrics[seconds_name] = seconds.get(span, 0.0)
        if calls_name is not None:
            metrics[calls_name] = calls.get(span, 0)
    for counter in COUNTERS:
        metrics[counter] = tracer.counts.get(counter, 0)
    candidates = metrics["halo.candidates"]
    metrics["halo.yield"] = metrics["halo.served"] / candidates if candidates else 0.0
    metrics["trace.wall_s"] = sum(
        span.duration for span in tracer.spans if span.name == ROOT
    )
    metrics["trace.other_s"] = seconds.get(ROOT, 0.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.spans_missing"] = sum(1 for name in declared if name not in calls)
    return metrics


def self_time_share(tracer: Tracer) -> float:
    """Sum of all self times over the root wall time (1.0 when nested)."""
    wall = sum(span.duration for span in tracer.spans if span.name == ROOT)
    return sum(tracer.layer_seconds().values()) / wall if wall else 0.0


__all__ = [
    "COUNTERS",
    "ROOT",
    "SPAN_METRICS",
    "install",
    "layer_metrics",
    "self_time_share",
    "traced_strategy",
]
