"""Bit pins of workload generation and calibration.

Every registered scenario is generated at two seeds and a small scale,
and everything a run consumes is folded into one sha256: each task's
``(id, period, origin, destination, distance, repr(valuation), grid,
duration)`` and each worker's ``(id, period, location, radius,
duration)``, in generation order.  Natively streaming scenarios are
pinned through both the binned bundle and the event stream (with the
arrival times).  Calibration pins ``repr`` of the base price, the probe
count and every per-grid reserve price.

The digests were recorded with the per-task scipy sampler the batched
inverse-CDF path replaced, so any change to the order in which the RNG
streams are consumed, or to the value a uniform maps to, fails here.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import pytest

from repro.simulation.engine import SimulationEngine, calibrate_base_price_for_context
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import TaskArrival

#: (scenario, scale, extra params) per pinned case.
CASES = {
    "synthetic": ("synthetic", 0.004, {}),
    "synthetic_exponential": (
        "synthetic",
        0.004,
        {"demand_distribution": "exponential"},
    ),
    "beijing_rush": ("beijing_rush", 0.002, {}),
    "beijing_night": ("beijing_night", 0.003, {}),
    "food_delivery": ("food_delivery", 0.05, {}),
    "hotspot_burst": ("hotspot_burst", 0.05, {}),
    "churn_city": ("churn_city", 0.1, {}),
    "city_scale": ("city_scale", 0.005, {"tasks_per_period": 400, "workers_per_period": 200}),
}
SEEDS = (3, 8)


def _task_row(task) -> Tuple:
    return (
        task.task_id,
        task.period,
        repr(task.origin.x),
        repr(task.origin.y),
        repr(task.destination.x),
        repr(task.destination.y),
        repr(task.distance),
        repr(task.valuation),
        task.grid_index,
        repr(task.duration),
    )


def _worker_row(worker) -> Tuple:
    return (
        worker.worker_id,
        worker.period,
        repr(worker.location.x),
        repr(worker.location.y),
        repr(worker.radius),
        worker.duration,
    )


def _digest(rows: Iterable[Tuple]) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def bundle_digest(bundle) -> str:
    def _rows():
        for tasks in bundle.tasks_by_period:
            for task in tasks:
                yield ("task",) + _task_row(task)
        for workers in bundle.workers_by_period:
            for worker in workers:
                yield ("worker",) + _worker_row(worker)

    return _digest(_rows())


def stream_digest(stream) -> str:
    def _rows():
        for event in stream.iter_events():
            if isinstance(event, TaskArrival):
                yield ("task", repr(event.time)) + _task_row(event.task)
            else:
                yield ("worker", repr(event.time)) + _worker_row(event.worker)

    return _digest(_rows())


def calibration_pin(result) -> Tuple:
    return (
        repr(result.base_price),
        result.total_probes,
        tuple(sorted((grid, repr(price)) for grid, price in result.grid_reserve_prices.items())),
    )


def generation_digests(case: str, seed: int) -> Tuple[str, ...]:
    """``(bundle digest[, stream digest])`` for one pinned case."""
    name, scale, params = CASES[case]
    scenario = get_scenario(name)
    digests = [bundle_digest(scenario.bundle(scale=scale, seed=seed, **params))]
    if scenario.native_stream:
        digests.append(stream_digest(scenario.stream(scale=scale, seed=seed, **params)))
    return tuple(digests)


def calibration_digest(case: str, seed: int) -> str:
    name, scale, params = CASES[case]
    bundle = get_scenario(name).bundle(scale=scale, seed=seed, **params)
    return _digest([calibration_pin(SimulationEngine(bundle, seed=seed).calibrate_base_price())])


def every_cell_calibration_digest(seed: int) -> str:
    """Calibration of every city_scale cell (what the sharded engine runs)."""
    name, scale, params = CASES["city_scale"]
    chunked = get_scenario(name).chunked(scale=scale, seed=seed, **params)
    result = calibrate_base_price_for_context(
        chunked.acceptance,
        chunked.price_bounds,
        seed,
        sorted(cell.index for cell in chunked.grid.cells()),
    )
    return _digest([calibration_pin(result)])


GENERATION_PINS = {
    ('beijing_night', 3): ('cc94835f1ce2399adbea4359c889d7114bb6a281c9008877f5c3a7cf368e12cc',),
    ('beijing_night', 8): ('42561ed2c6bc57762df650a7285db1afa5ed63239561b7eb7e699fecc7f77196',),
    ('beijing_rush', 3): ('7d8b82b1ce28dfbf3943506a7daecc2b51855717f2578181f1623955ef09284a',),
    ('beijing_rush', 8): ('07eb3eaf3452a04b90294e77403581580452048e8b1ddd470f88df0800ccb749',),
    ('churn_city', 3): ('17d74235b04ad78c997c56be7b36809e6f330fd645b6bf43355ae0a9afdc646e', 'ea2f0129c592a0928b17dd9168047d17a200285a455d013d3a383a36e0d786cc'),
    ('churn_city', 8): ('4ad5b7a84c82cb65e3e14ad5bbdf8821684fe5735735c89f22c1511507cb0fca', 'd245f8250c73f12c10a5d2c9d565f57ed51ae8d97c19d216aab6882e7a8aef5f'),
    ('city_scale', 3): ('609e4d79d3dc3077bec3bce64d020f072f06401cf56952d2c9c6d27c759240ce',),
    ('city_scale', 8): ('123e4336451c2d55be1fdb9a9061a9c9fb6ae9e09cf27b19578b36f906b946cb',),
    ('food_delivery', 3): ('d90aad70be048a115a5bdf525bf398fa813d818036dd518ed73f51f7caaad7be',),
    ('food_delivery', 8): ('09b6d0230b9f6280f703221ff47033e0794ddf5988fb1fc441cdfdd872529a48',),
    ('hotspot_burst', 3): ('4b323d668bd2c62696056ab726ba36db7664aa814609764c9c4029af700f25d6', 'f0c0842751cba159565fd7971cbf6361ab58fb06a1a4b3e696285c885d3efad2'),
    ('hotspot_burst', 8): ('4f193994ccb799c275f409c932f6e737deb1a58757a8452e49d9676ec765f327', '541b3ab66fa37b3d47229904b8a335b93ffb7d1b6cf4dcd2192c0e68027d84fa'),
    ('synthetic', 3): ('047085a3c3f7140b0bce9fbd09e91e26e91f052b2cba4e6fe35cab1de459c1e8',),
    ('synthetic', 8): ('fdbd62c8ddd7c60154de49063737e3f602e30adb1135013ea749eb7a22df19e8',),
    ('synthetic_exponential', 3): ('520931cb054713109364701074e72ad2a7d5ad058150dd6783a138a3772e2421',),
    ('synthetic_exponential', 8): ('6b51cb59d5da1b2a5089b61acd1d439cc5bbff8075e6fec94b9c28f099cd8989',),
}
CALIBRATION_PINS = {
    ('beijing_night', 3): 'ee77cf9c9d210e939addc0914e72584ab76da3d2a1a08d06099bc67252ffae85',
    ('beijing_night', 8): '7c158f4b4c77d1ccfb312bcdfb8493414ae5d739ae09758722a78c3c3fde34ec',
    ('beijing_rush', 3): '0f8d5d3b0078d782e105a1dd9f372f1b31caf6e566a5806ef189cc00aed336e7',
    ('beijing_rush', 8): '6e6585c46fb8069881deeb180bb5205b7d3680c16e6de61446cb250871acd293',
    ('churn_city', 3): 'c7d0623b945578f60abbe1993d0f942461df42b1713830e6dd85e6a56d9650d8',
    ('churn_city', 8): '7e1c34dc35353da6de073ffaff216cd07d12af048cce917e6e48ab9937ee7fce',
    ('city_scale', 3): 'be2e60db6ef5ae701bafd4fd2127e89615763e63394dc8a0e187369459e8046e',
    ('city_scale', 8): '473199987c458fa56643158189cf931a86a5824ef4d12c59a0202a88c475b8a6',
    ('food_delivery', 3): 'f58464977d585d71d1721a6d27486ddd7bdf5e9a338307f341a6c7a46820a87b',
    ('food_delivery', 8): 'ddbf7c85dd1346e5fb45363f90b9693a1a77e40dbee255e6f6f00b025794bf8c',
    ('hotspot_burst', 3): '61b8e313929048b16d46be5b5fde6e5d81aad7fc0fc43d105ff83bd2555afadb',
    ('hotspot_burst', 8): '6a175c1276c4bcd5f18b93c512c05c21aabe973e84779cc50d99ee79a985f51d',
    ('synthetic', 3): '48086d426693c44c364a0b706eacb45b54009aaaa8a11b471927e3ed8676f261',
    ('synthetic', 8): '026697c7e1f4898c98d6c49d8a83fbff7f5f5b22036b02d3c492a85529c44996',
    ('synthetic_exponential', 3): 'caa681917140c751e0c404b1fdb9e7d3d49c4906d967b559382dc7d0c2e05b2a',
    ('synthetic_exponential', 8): '578951cf169b30cc71e6d6e23acbf8a87a38291607c5bd540e0598cbbc40629f',
}
EVERY_CELL_CALIBRATION_PINS = {
    3: '81e3cc17a159083ef731cc1b19b923e3f9b423c06da4f1bafb7d66f853d1ac14',
    8: 'c2eb8ad555eee70db8149a165900ec19188b42a99ec55a350df48114f79fb141',
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_generation_pinned(case, seed):
    assert generation_digests(case, seed) == GENERATION_PINS[(case, seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_calibration_pinned(case, seed):
    assert calibration_digest(case, seed) == CALIBRATION_PINS[(case, seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_cell_calibration_pinned(seed):
    assert every_cell_calibration_digest(seed) == EVERY_CELL_CALIBRATION_PINS[seed]
