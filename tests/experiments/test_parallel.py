"""Tests for the parallel multi-run executor."""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import dataclass

import pytest

from repro.experiments.parallel import ParallelRunner, StrategySpec, StreamSpec
from repro.pricing.base_price import BasePriceStrategy
from repro.pricing.registry import create_strategy
from repro.simulation.config import SyntheticConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.generator import SyntheticWorkloadGenerator
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import StreamingEngine


@pytest.fixture(scope="module")
def small_workload():
    config = SyntheticConfig(
        num_workers=60,
        num_tasks=240,
        num_periods=5,
        grid_side=4,
        worker_radius=15.0,
        seed=5,
    )
    return SyntheticWorkloadGenerator(config).generate()


SHARED = dict(base_price=2.0, p_min=1.0, p_max=5.0)


def _arena_segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro_arena_")}


class _DiesInPoolWorker(BasePriceStrategy):
    """BaseP that kills any process but ``parent_pid`` at period 2."""

    def __init__(self, parent_pid: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self._parent_pid = parent_pid

    def price_period(self, instance):
        if instance.period >= 2 and os.getpid() != self._parent_pid:
            os._exit(1)
        return super().price_period(instance)


@dataclass(frozen=True)
class _DiesInPoolWorkerSpec(StrategySpec):
    """A spec whose strategy dies mid-run inside a pool worker only."""

    parent_pid: int = 0

    def build(self):
        return _DiesInPoolWorker(self.parent_pid, **dict(self.kwargs))


class TestParallelRunner:
    def test_parallel_equals_sequential(self, small_workload):
        runner = ParallelRunner(
            small_workload,
            ["BaseP", "SDR", "SDE"],
            seeds=[0, 11],
            shared_kwargs=SHARED,
            max_workers=3,
        )
        parallel = runner.run()
        sequential = runner.run_sequential()
        assert list(parallel.keys()) == list(sequential.keys())
        for key in parallel:
            assert (
                parallel[key].metrics.total_revenue
                == sequential[key].metrics.total_revenue
            )
            assert (
                parallel[key].metrics.revenue_by_period
                == sequential[key].metrics.revenue_by_period
            )
            assert parallel[key].metrics.served_tasks == sequential[key].metrics.served_tasks

    def test_arena_shipping_equals_pickle_shipping(self, small_workload):
        """The zero-copy workload ship path must change nothing.

        ``workload_via_arena`` auto-enables on spawn platforms
        (macOS/Windows defaults); forcing it on exercises the
        shared-memory handle + worker-side rebuild everywhere,
        including fork CI hosts where it would otherwise stay dormant.
        """
        kwargs = dict(
            specs=["BaseP", "SDR"],
            seeds=[0, 7],
            shared_kwargs=SHARED,
        )
        arena = ParallelRunner(
            small_workload, max_workers=2, workload_via_arena=True, **kwargs
        ).run()
        plain = ParallelRunner(small_workload, max_workers=1, **kwargs).run()
        assert list(arena.keys()) == list(plain.keys())
        for key in plain:
            assert arena[key].metrics.total_revenue == plain[key].metrics.total_revenue
            assert (
                arena[key].metrics.revenue_by_period
                == plain[key].metrics.revenue_by_period
            )
            assert arena[key].metrics.served_tasks == plain[key].metrics.served_tasks
        assert _arena_segments() == set()

    def test_arena_initializer_rebuilds_the_bundle(self, small_workload, monkeypatch):
        """A pool worker's arena-fed workload equals the owner's bundle."""
        from repro.experiments import parallel
        from repro.simulation.arena import WorkloadArena

        monkeypatch.setattr(parallel, "_WORKER_WORKLOAD", None)
        meta = parallel._ArenaWorkloadMeta(
            grid=small_workload.grid,
            acceptance=small_workload.acceptance,
            metric=small_workload.metric,
            price_bounds=small_workload.price_bounds,
            description=small_workload.description,
        )
        with WorkloadArena.create(list(small_workload.iter_period_columns())) as arena:
            parallel._init_worker_from_arena(arena.handle, meta)
        rebuilt = parallel._WORKER_WORKLOAD
        assert rebuilt is not None and rebuilt is not small_workload
        assert rebuilt.num_periods == small_workload.num_periods
        assert rebuilt.tasks_by_period == small_workload.tasks_by_period
        assert rebuilt.workers_by_period == small_workload.workers_by_period
        assert rebuilt.grid is small_workload.grid
        assert rebuilt.price_bounds == small_workload.price_bounds
        assert _arena_segments() == set()

    def test_default_max_workers_is_the_effective_cpu_count(self, small_workload):
        """Sharded cells get the whole pool: a shard runs in its cell's process."""
        from repro.experiments.parallel import ShardSpec
        from repro.utils.affinity import effective_cpu_count

        plain = ParallelRunner(small_workload, ["BaseP"], shared_kwargs=SHARED)
        sharded = ParallelRunner(
            small_workload,
            ["BaseP"],
            shared_kwargs=SHARED,
            shards=ShardSpec(num_shards=4, halo=1),
        )
        assert plain.max_workers == sharded.max_workers == effective_cpu_count()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the dying spec class reaches pool workers by fork inheritance",
    )
    def test_dead_pool_worker_falls_back_to_sequential(self, small_workload):
        """A worker killed mid-run degrades to the in-process path.

        Every cell's worker exits at period 2 without cleanup, so the
        pool breaks; the run must warn, finish within a bounded time,
        return exactly the sequential results and unlink its arena.
        """
        specs = [_DiesInPoolWorkerSpec("BaseP", dict(SHARED), parent_pid=os.getpid())]
        runner = ParallelRunner(
            small_workload, specs, seeds=[0, 3], max_workers=2, workload_via_arena=True
        )
        before = _arena_segments()

        def hung(signum, frame):
            raise TimeoutError("ParallelRunner.run hung after a worker died")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                results = runner.run()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        expected = runner.run_sequential()
        assert list(results) == list(expected) == [("BaseP", 0), ("BaseP", 3)]
        for key in expected:
            assert results[key].metrics.total_revenue == expected[key].metrics.total_revenue
            assert (
                results[key].metrics.revenue_by_period
                == expected[key].metrics.revenue_by_period
            )
            assert results[key].metrics.served_tasks == expected[key].metrics.served_tasks
        assert _arena_segments() - before == set()

    def test_parallel_equals_run_many(self, small_workload):
        """Acceptance criterion: same results as sequential ``run_many``."""
        names = ["BaseP", "SDR"]
        seeds = [0, 3]
        runner = ParallelRunner(
            small_workload, names, seeds=seeds, shared_kwargs=SHARED, max_workers=2
        )
        results = runner.run()
        for seed in seeds:
            engine = SimulationEngine(small_workload, seed=seed)
            many = engine.run_many([create_strategy(name, **SHARED) for name in names])
            for name in names:
                assert (
                    results[(name, seed)].metrics.total_revenue
                    == many[name].metrics.total_revenue
                )
                assert (
                    results[(name, seed)].metrics.accepted_tasks
                    == many[name].metrics.accepted_tasks
                )

    def test_result_order_is_declaration_order(self, small_workload):
        runner = ParallelRunner(
            small_workload,
            ["SDR", "BaseP"],
            seeds=[4, 1],
            shared_kwargs=SHARED,
            max_workers=2,
        )
        assert list(runner.run().keys()) == [
            ("SDR", 4),
            ("BaseP", 4),
            ("SDR", 1),
            ("BaseP", 1),
        ]

    def test_single_worker_runs_in_process(self, small_workload):
        runner = ParallelRunner(
            small_workload, ["BaseP"], seeds=[0], shared_kwargs=SHARED, max_workers=1
        )
        results = runner.run()
        assert set(results) == {("BaseP", 0)}
        assert results[("BaseP", 0)].metrics.total_revenue > 0.0

    def test_explicit_specs(self, small_workload):
        specs = [
            StrategySpec("BaseP", dict(SHARED)),
            StrategySpec("SDR", dict(SHARED, coefficient=0.8)),
        ]
        runner = ParallelRunner(small_workload, specs, seeds=[0], max_workers=1)
        results = runner.run()
        assert set(results) == {("BaseP", 0), ("SDR", 0)}

    def test_labels_disambiguate_same_strategy(self, small_workload):
        """Two hyperparameter settings of one strategy both survive when
        given distinct labels."""
        specs = [
            StrategySpec("SDR", dict(SHARED, coefficient=0.5), label="SDR-0.5"),
            StrategySpec("SDR", dict(SHARED, coefficient=0.9), label="SDR-0.9"),
        ]
        runner = ParallelRunner(small_workload, specs, seeds=[0], max_workers=2)
        results = runner.run()
        assert set(results) == {("SDR-0.5", 0), ("SDR-0.9", 0)}
        assert (
            results[("SDR-0.5", 0)].metrics.total_revenue
            != results[("SDR-0.9", 0)].metrics.total_revenue
        )

    def test_duplicate_result_keys_rejected(self, small_workload):
        specs = [
            StrategySpec("SDR", dict(SHARED, coefficient=0.5)),
            StrategySpec("SDR", dict(SHARED, coefficient=0.9)),
        ]
        with pytest.raises(ValueError, match="duplicate strategy result keys"):
            ParallelRunner(small_workload, specs, seeds=[0])

    def test_unpicklable_workload_still_returns_full_results(self, small_workload):
        """A workload carrying a locally defined callable must not crash
        run(): forked workers inherit it without pickling, and non-fork
        platforms detect it up front and degrade to the in-process path.
        Either way the results are complete and identical to sequential."""
        import copy

        workload = copy.copy(small_workload)
        workload._unpicklable_marker = lambda: None  # breaks pickle.dumps
        runner = ParallelRunner(
            workload, ["SDR", "BaseP"], seeds=[0], shared_kwargs=SHARED, max_workers=2
        )
        results = runner.run()
        assert set(results) == {("SDR", 0), ("BaseP", 0)}
        expected = ParallelRunner(
            small_workload, ["SDR", "BaseP"], seeds=[0], shared_kwargs=SHARED, max_workers=1
        ).run()
        for key in results:
            assert results[key].metrics.total_revenue == expected[key].metrics.total_revenue

    def test_run_by_strategy_grouping(self, small_workload):
        runner = ParallelRunner(
            small_workload,
            ["BaseP"],
            seeds=[0, 1, 2],
            shared_kwargs=SHARED,
            max_workers=1,
        )
        grouped = runner.run_by_strategy()
        assert set(grouped) == {"BaseP"}
        assert sorted(grouped["BaseP"]) == [0, 1, 2]

    def test_validation(self, small_workload):
        with pytest.raises(ValueError):
            ParallelRunner(small_workload, [], seeds=[0])
        with pytest.raises(ValueError):
            ParallelRunner(small_workload, ["BaseP"], seeds=[])

    def test_exactly_one_of_workload_and_stream(self, small_workload):
        spec = StreamSpec("synthetic", scale=0.004, seed=1)
        with pytest.raises(ValueError, match="exactly one"):
            ParallelRunner(None, ["BaseP"], shared_kwargs=SHARED)
        with pytest.raises(ValueError, match="exactly one"):
            ParallelRunner(
                small_workload, ["BaseP"], shared_kwargs=SHARED, stream=spec
            )


class TestStreamingRunner:
    STREAM = StreamSpec("synthetic", scale=0.004, seed=5, window=1.0)

    def test_parallel_streaming_equals_sequential(self):
        runner = ParallelRunner(
            None,
            ["BaseP", "SDR"],
            seeds=[0, 7],
            shared_kwargs=SHARED,
            max_workers=2,
            stream=self.STREAM,
        )
        parallel = runner.run()
        sequential = runner.run_sequential()
        assert list(parallel.keys()) == list(sequential.keys())
        for key in parallel:
            assert (
                parallel[key].metrics.total_revenue
                == sequential[key].metrics.total_revenue
            )
            assert parallel[key].metrics.served_tasks == sequential[key].metrics.served_tasks

    def test_streaming_runner_matches_direct_engine(self):
        runner = ParallelRunner(
            None,
            ["BaseP"],
            seeds=[3],
            shared_kwargs=SHARED,
            max_workers=1,
            stream=self.STREAM,
        )
        results = runner.run()
        stream = get_scenario("synthetic").stream(scale=0.004, seed=5)
        direct = StreamingEngine(stream, seed=3, window=1.0).run(
            create_strategy("BaseP", **SHARED)
        )
        assert (
            results[("BaseP", 3)].metrics.total_revenue
            == direct.metrics.total_revenue
        )
        assert (
            results[("BaseP", 3)].metrics.revenue_by_period
            == direct.metrics.revenue_by_period
        )


class TestParallelSweep:
    def test_jobs_sweep_equals_sequential_sweep(self, small_workload):
        from repro.experiments.sweeps import ParameterSweep, run_sweep

        def make_sweep(strategies):
            return ParameterSweep(
                experiment_id="test",
                parameter_name="setting",
                parameter_values=["only"],
                workload_factory=lambda _value: small_workload,
                strategies=strategies,
                seed=0,
            )

        sequential = run_sweep(make_sweep(["BaseP", "SDR"]), jobs=1)
        parallel = run_sweep(make_sweep(["BaseP", "SDR"]), jobs=2)
        for strategy in ("BaseP", "SDR"):
            assert (
                parallel.cell("only", strategy).revenue
                == sequential.cell("only", strategy).revenue
            )

    def test_alias_strategy_names_keep_both_runs(self, small_workload):
        """"BaseP" and "basep" resolve to the same strategy but are
        distinct sweep names; results are keyed by the sweep's own
        strings, so neither run is dropped or misattributed."""
        from repro.experiments.sweeps import ParameterSweep, run_sweep

        sweep = ParameterSweep(
            experiment_id="test",
            parameter_name="setting",
            parameter_values=["only"],
            workload_factory=lambda _value: small_workload,
            strategies=["BaseP", "basep"],
            seed=0,
        )
        result = run_sweep(sweep, jobs=2)
        assert len(result.cells) == 2
        assert result.cell("only", "BaseP").revenue == result.cell("only", "basep").revenue
