"""Simulation substrate: workload generation and the discrete-time engine.

The paper's evaluation is simulation-based: tasks and workers are generated
from configurable spatiotemporal distributions (Table 3), pricing
strategies quote per-grid prices every period, requesters accept or reject
according to their private valuations, and accepted tasks are served via a
maximum-weight matching (Definition 5).  This subpackage implements that
pipeline:

* :mod:`repro.simulation.config` — dataclasses mirroring Table 3 (synthetic)
  and Table 4 (Beijing-style) parameters, with the paper's defaults;
* :mod:`repro.simulation.generator` — the synthetic workload generator;
* :mod:`repro.simulation.taxi` — the synthetic Beijing taxi-trace generator
  substituting the proprietary DiDi data (see ``docs/scenarios.md``);
* :mod:`repro.simulation.oracle` — the probe oracle backing Algorithm 1's
  calibration against the ground-truth acceptance models;
* :mod:`repro.simulation.pipeline` — the vectorised per-period stages
  (quote → decide → match → feedback) over the struct-of-arrays view;
* :mod:`repro.simulation.engine` — the batch engine,
  :class:`~repro.simulation.engine.SimulationEngine`: the sharded
  period loop with one shard;
* :mod:`repro.simulation.results` — the result types every engine
  returns;
* :mod:`repro.simulation.streaming` — the event-driven streaming engine:
  timestamped arrival streams and configurable dispatch windows whose
  committed matching only grows, reproducing the batch engine
  bit-identically when binned at the period length;
* :mod:`repro.simulation.sharded` — the one batch period loop: the grid
  tiled into rectangular regions matched independently per period, with a
  halo-exchange reconciliation pass at shard boundaries (one shard is the
  global batch solve) and support for lazily chunked city-scale
  workloads;
* :mod:`repro.simulation.scenarios` — the scenario registry putting every
  workload family (synthetic, Beijing taxi, food delivery, hotspot burst,
  city scale) behind one name, each producing both a batch bundle and a
  stream;
* :mod:`repro.simulation.legacy` — the seed scalar loop, kept as the
  regression/benchmark reference (a test oracle, not a production path);
* :mod:`repro.simulation.metrics` — revenue / runtime / memory bookkeeping.
"""

from repro.simulation.config import (
    BeijingConfig,
    ChunkedWorkload,
    SyntheticConfig,
    WorkloadBundle,
)
from repro.simulation.generator import SyntheticWorkloadGenerator
from repro.simulation.taxi import BeijingTaxiGenerator
from repro.simulation.oracle import SimulatedProbeOracle
from repro.simulation.engine import SimulationEngine, SimulationResult, PeriodOutcome
from repro.simulation.sharded import ShardedEngine
from repro.simulation.pipeline import DecideResult, PeriodPipeline
from repro.simulation.metrics import MetricsCollector, StrategyMetrics
from repro.simulation.streaming import (
    ArrivalStream,
    StreamingEngine,
    TaskArrival,
    WorkerArrival,
    stream_to_workload,
    workload_to_stream,
)
from repro.simulation.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)

__all__ = [
    "SyntheticConfig",
    "BeijingConfig",
    "WorkloadBundle",
    "ChunkedWorkload",
    "SyntheticWorkloadGenerator",
    "BeijingTaxiGenerator",
    "SimulatedProbeOracle",
    "SimulationEngine",
    "SimulationResult",
    "ShardedEngine",
    "PeriodOutcome",
    "PeriodPipeline",
    "DecideResult",
    "MetricsCollector",
    "StrategyMetrics",
    "ArrivalStream",
    "StreamingEngine",
    "TaskArrival",
    "WorkerArrival",
    "stream_to_workload",
    "workload_to_stream",
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
]
