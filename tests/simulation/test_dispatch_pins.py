"""Golden pins of the window engine and the two dynamic dispatch drivers.

``DynamicStreamingEngine`` (windowed) and ``EventStreamingEngine``
(event at a time) both drive one :class:`DispatchSession`.  The service
gate compares the socket replay against ``EventStreamingEngine``, and
``TestGoldenPins`` in ``test_dynamic_streaming.py`` pins the windowed
engine for BaseP only, so a change shared by both drivers would not show
there.  These pins fix every other strategy across window lengths, the
degree cap and both resolve modes: committed revenue ``repr``, served
and accepted counts, a digest of the ``keep_details`` outcomes and, for
the event replay, a digest of the commit log.

``StreamingEngine`` (match or lose each task in its own window) runs the
one-shard batch loop over its windows.  Its pins cover all five
strategies at windows 0.5, 1.0 and 2.0, capped and uncapped: revenue
``repr``, served and accepted counts, the outcomes digest and the result
description.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import replace

import pytest

from repro.pricing.registry import calibrated_kwargs, create_strategy
from repro.simulation.scenarios import get_scenario
from repro.simulation.streaming import (
    DynamicStreamingEngine,
    EventStreamingEngine,
    StreamingEngine,
)

#: scenario -> (stream parameters, seed)
STREAMS = {
    "churn_city": ({"scale": 0.3, "num_periods": 20}, 0),
    "hotspot_burst": ({"scale": 0.05}, 5),
}
TASK_LIFETIME = 3.0
WINDOWED_STRATEGIES = ("MAPS", "SDR", "SDE", "CappedUCB")
STREAMING_STRATEGIES = ("BaseP", "MAPS", "SDR", "SDE", "CappedUCB")
EVENT_STRATEGIES = ("BaseP", "SDR", "SDE", "CappedUCB")


@functools.lru_cache(maxsize=None)
def _stream_and_calibration(scenario):
    params, seed = STREAMS[scenario]
    stream = get_scenario(scenario).stream(seed=seed, **params)
    stream = replace(stream, events=list(stream.iter_events()))
    return stream, StreamingEngine(stream, seed=seed).calibrate_base_price()


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _outcomes_digest(outcomes) -> str:
    return _digest(
        [
            (
                o.period,
                o.num_tasks,
                o.num_workers,
                sorted(o.prices.items()),
                o.accepted_tasks,
                o.served_tasks,
                repr(o.revenue),
            )
            for o in outcomes
        ]
    )


def _strategy(name, calibration, stream):
    low, high = stream.price_bounds
    return create_strategy(
        name, **calibrated_kwargs(name, calibration, p_min=low, p_max=high)
    )


def windowed_case(scenario, strategy, window, cap, resolve):
    stream, calibration = _stream_and_calibration(scenario)
    engine = DynamicStreamingEngine(
        stream,
        seed=STREAMS[scenario][1],
        window=window,
        task_lifetime=TASK_LIFETIME,
        resolve=resolve,
        max_degree=cap,
        keep_details=True,
    )
    result = engine.run(_strategy(strategy, calibration, stream))
    metrics = result.metrics
    return (
        repr(metrics.total_revenue),
        metrics.served_tasks,
        metrics.accepted_tasks,
        _outcomes_digest(result.outcomes),
    )


def streaming_case(scenario, strategy, window, cap):
    stream, calibration = _stream_and_calibration(scenario)
    engine = StreamingEngine(
        stream,
        seed=STREAMS[scenario][1],
        window=window,
        max_degree=cap,
        keep_details=True,
    )
    result = engine.run(_strategy(strategy, calibration, stream))
    metrics = result.metrics
    return (
        repr(metrics.total_revenue),
        metrics.served_tasks,
        metrics.accepted_tasks,
        _outcomes_digest(result.outcomes),
        result.description,
    )


def event_case(scenario, strategy, cap):
    stream, calibration = _stream_and_calibration(scenario)
    engine = EventStreamingEngine(
        stream,
        seed=STREAMS[scenario][1],
        task_lifetime=TASK_LIFETIME,
        max_degree=cap,
        keep_details=True,
    )
    result = engine.run(_strategy(strategy, calibration, stream))
    metrics = result.metrics
    return (
        repr(metrics.total_revenue),
        metrics.served_tasks,
        metrics.accepted_tasks,
        _outcomes_digest(result.outcomes),
        _digest(engine.last_session.commit_log),
    )


WINDOWED_CASES = [
    (scenario, strategy, window, cap, "delta")
    for scenario in STREAMS
    for strategy in WINDOWED_STRATEGIES
    for window in (0.5, 1.0, 2.0)
    for cap in (None, 2)
] + [
    (scenario, strategy, 1.0, cap, "rewindow")
    for scenario in STREAMS
    for strategy in WINDOWED_STRATEGIES
    for cap in (None, 2)
]
STREAMING_CASES = [
    (scenario, strategy, window, cap)
    for scenario in STREAMS
    for strategy in STREAMING_STRATEGIES
    for window in (0.5, 1.0, 2.0)
    for cap in (None, 2)
]
EVENT_CASES = [
    (scenario, strategy, cap)
    for scenario in STREAMS
    for strategy in EVENT_STRATEGIES
    for cap in (None, 2)
]

#: Recorded from the engines before the windowed engine became a driver
#: of ``DispatchSession``; both drivers must reproduce them bit for bit.
WINDOWED_PINS = {
    ('churn_city', 'MAPS', 0.5, None, 'delta'): ('6243.354226048163', 58, 162, 'cf62e534834c6e52'),
    ('churn_city', 'MAPS', 0.5, 2, 'delta'): ('2215.932981088373', 22, 159, '7691e233a9f675ec'),
    ('churn_city', 'MAPS', 1.0, None, 'delta'): ('6528.769187199599', 59, 157, 'c0002de147a0cc8c'),
    ('churn_city', 'MAPS', 1.0, 2, 'delta'): ('2322.216406563875', 22, 155, 'a2f003ccafb60c2e'),
    ('churn_city', 'MAPS', 2.0, None, 'delta'): ('6451.697634531121', 62, 145, 'a90ab0264e1810a0'),
    ('churn_city', 'MAPS', 2.0, 2, 'delta'): ('2356.7664241106404', 23, 149, 'ef49ffde5a95c879'),
    ('churn_city', 'SDR', 0.5, None, 'delta'): ('2776.5695737043416', 36, 46, '252bc6a0098afda8'),
    ('churn_city', 'SDR', 0.5, 2, 'delta'): ('1564.4622801029545', 17, 69, 'bd351dea253856a4'),
    ('churn_city', 'SDR', 1.0, None, 'delta'): ('2760.33467378589', 36, 46, '71300a8989156cbc'),
    ('churn_city', 'SDR', 1.0, 2, 'delta'): ('1370.6832362556963', 15, 68, '234dfa97785bac86'),
    ('churn_city', 'SDR', 2.0, None, 'delta'): ('3316.3671957864663', 38, 51, '92c9b647503d7018'),
    ('churn_city', 'SDR', 2.0, 2, 'delta'): ('1472.5919365757873', 16, 74, 'e93800766f3b8a72'),
    ('churn_city', 'SDE', 0.5, None, 'delta'): ('5476.975477109688', 52, 64, '87a005989fe5e113'),
    ('churn_city', 'SDE', 0.5, 2, 'delta'): ('1776.9937130614508', 18, 78, '71ae76d0e6ef10db'),
    ('churn_city', 'SDE', 1.0, None, 'delta'): ('5800.70647596758', 51, 71, '6d5e306462ed1498'),
    ('churn_city', 'SDE', 1.0, 2, 'delta'): ('1851.143510477048', 19, 89, 'de4f58b4ec6f2760'),
    ('churn_city', 'SDE', 2.0, None, 'delta'): ('6068.087940494139', 55, 87, '1a9621387b3fcd95'),
    ('churn_city', 'SDE', 2.0, 2, 'delta'): ('1665.92282787955', 18, 99, '28fb3daf685ba74c'),
    ('churn_city', 'CappedUCB', 0.5, None, 'delta'): ('5321.678701387044', 45, 61, '49ab9ed95eb0430f'),
    ('churn_city', 'CappedUCB', 0.5, 2, 'delta'): ('1548.4034946436846', 12, 63, '7d458152c6180839'),
    ('churn_city', 'CappedUCB', 1.0, None, 'delta'): ('5321.6787013870435', 45, 61, 'a0746a77f4ebf68a'),
    ('churn_city', 'CappedUCB', 1.0, 2, 'delta'): ('1548.4034946436846', 12, 63, 'c37e38635ee64801'),
    ('churn_city', 'CappedUCB', 2.0, None, 'delta'): ('5378.3180004719015', 47, 63, '2a0231e52bc5db48'),
    ('churn_city', 'CappedUCB', 2.0, 2, 'delta'): ('1622.0460109608907', 13, 65, '57bb1515f96cf214'),
    ('hotspot_burst', 'MAPS', 0.5, None, 'delta'): ('7131.549279209741', 67, 287, '9c8b2497226013fd'),
    ('hotspot_burst', 'MAPS', 0.5, 2, 'delta'): ('5009.436612820326', 46, 281, 'b7158694fc3b92a0'),
    ('hotspot_burst', 'MAPS', 1.0, None, 'delta'): ('7343.274795186671', 68, 283, '73d3decd23fafe87'),
    ('hotspot_burst', 'MAPS', 1.0, 2, 'delta'): ('5005.408644643931', 46, 270, '679f51c80c4afa71'),
    ('hotspot_burst', 'MAPS', 2.0, None, 'delta'): ('7418.635100010492', 67, 275, 'af6f4760aac33d53'),
    ('hotspot_burst', 'MAPS', 2.0, 2, 'delta'): ('4955.992436497304', 45, 262, '549ff203f73afa8a'),
    ('hotspot_burst', 'SDR', 0.5, None, 'delta'): ('4351.556378089627', 44, 50, 'f70701ee1151623e'),
    ('hotspot_burst', 'SDR', 0.5, 2, 'delta'): ('3085.020029530118', 31, 60, '5dbe09541a8555ce'),
    ('hotspot_burst', 'SDR', 1.0, None, 'delta'): ('4415.749045986166', 43, 48, '48b6aeb7c1cc6db4'),
    ('hotspot_burst', 'SDR', 1.0, 2, 'delta'): ('3191.2164388526867', 31, 56, 'ac501a4bd928d4cd'),
    ('hotspot_burst', 'SDR', 2.0, None, 'delta'): ('4427.009191884019', 46, 52, '26585897e5bf3be3'),
    ('hotspot_burst', 'SDR', 2.0, 2, 'delta'): ('2968.4784223902757', 32, 54, '9f86ea7fa51d98b7'),
    ('hotspot_burst', 'SDE', 0.5, None, 'delta'): ('6529.716224758698', 53, 187, '47bb61407fb1a5f2'),
    ('hotspot_burst', 'SDE', 0.5, 2, 'delta'): ('4360.265437297586', 36, 189, 'bfe500cddb561acd'),
    ('hotspot_burst', 'SDE', 1.0, None, 'delta'): ('6442.224694435013', 54, 207, '99bd7b9b88cf33e7'),
    ('hotspot_burst', 'SDE', 1.0, 2, 'delta'): ('4227.676874764951', 36, 207, 'c62add9dbc800310'),
    ('hotspot_burst', 'SDE', 2.0, None, 'delta'): ('5862.32800025327', 51, 210, 'f6964a6fe92009ca'),
    ('hotspot_burst', 'SDE', 2.0, 2, 'delta'): ('3747.8967048849618', 33, 213, '6abc086b1d3d2700'),
    ('hotspot_burst', 'CappedUCB', 0.5, None, 'delta'): ('5221.972437288917', 31, 103, '977d0739569d1949'),
    ('hotspot_burst', 'CappedUCB', 0.5, 2, 'delta'): ('3272.944810957535', 19, 103, '2c24aeecfb54ada3'),
    ('hotspot_burst', 'CappedUCB', 1.0, None, 'delta'): ('5221.972437288918', 31, 103, '5fc2709aa7eebee3'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2, 'delta'): ('3272.9448109575346', 19, 103, '6c17a6dbbfc0ab4d'),
    ('hotspot_burst', 'CappedUCB', 2.0, None, 'delta'): ('5257.0551768242585', 32, 105, '69d02bdca0a30243'),
    ('hotspot_burst', 'CappedUCB', 2.0, 2, 'delta'): ('3334.3749289299744', 20, 105, '5f66e474eed199d2'),
    ('churn_city', 'MAPS', 1.0, None, 'rewindow'): ('6421.0687521782675', 58, 159, '87461581682d354c'),
    ('churn_city', 'MAPS', 1.0, 2, 'rewindow'): ('2322.216406563875', 22, 155, 'a2f003ccafb60c2e'),
    ('churn_city', 'SDR', 1.0, None, 'rewindow'): ('2716.58273776852', 37, 46, '613794f48ec31bb9'),
    ('churn_city', 'SDR', 1.0, 2, 'rewindow'): ('1370.6832362556963', 15, 68, '234dfa97785bac86'),
    ('churn_city', 'SDE', 1.0, None, 'rewindow'): ('5678.66540126544', 52, 72, 'cbad8acecc2adce3'),
    ('churn_city', 'SDE', 1.0, 2, 'rewindow'): ('1851.143510477048', 19, 89, 'de4f58b4ec6f2760'),
    ('churn_city', 'CappedUCB', 1.0, None, 'rewindow'): ('5468.493292938721', 46, 61, '42bd79340c480709'),
    ('churn_city', 'CappedUCB', 1.0, 2, 'rewindow'): ('1548.4034946436846', 12, 63, 'c37e38635ee64801'),
    ('hotspot_burst', 'MAPS', 1.0, None, 'rewindow'): ('7425.02403677265', 69, 283, 'a31b605b8b7ed328'),
    ('hotspot_burst', 'MAPS', 1.0, 2, 'rewindow'): ('5005.408644643931', 46, 270, '679f51c80c4afa71'),
    ('hotspot_burst', 'SDR', 1.0, None, 'rewindow'): ('4415.749045986166', 43, 48, 'ab8afac2764ec361'),
    ('hotspot_burst', 'SDR', 1.0, 2, 'rewindow'): ('3191.2164388526867', 31, 56, 'ac501a4bd928d4cd'),
    ('hotspot_burst', 'SDE', 1.0, None, 'rewindow'): ('6442.224694435013', 54, 207, '47a77a3136b1df4e'),
    ('hotspot_burst', 'SDE', 1.0, 2, 'rewindow'): ('4227.676874764951', 36, 207, 'c62add9dbc800310'),
    ('hotspot_burst', 'CappedUCB', 1.0, None, 'rewindow'): ('5221.972437288918', 31, 103, '5fc2709aa7eebee3'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2, 'rewindow'): ('3272.9448109575346', 19, 103, '6c17a6dbbfc0ab4d'),
}
#: Recorded from the window engine while it still ran its own object
#: period loop; the one-shard batch loop over its windows must reproduce
#: them bit for bit.
STREAMING_PINS = {
    ('churn_city', 'BaseP', 0.5, None): ('10130.201324970041', 119, 161, '8605252e20ca34f4', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 0.5, 2): ('9830.002709927923', 115, 161, '2074949a34de5d2b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 1.0, None): ('10278.37679330507', 121, 161, 'b8d467c69c7a2ef6', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 1.0, 2): ('9893.979255731838', 116, 161, 'aceb614fa812f0ce', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 2.0, None): ('10849.759447064345', 125, 161, '2e81ef0a006f2bbc', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 2.0, 2): ('10064.037081338627', 113, 161, 'febb721507a63368', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 0.5, None): ('10264.515509846326', 119, 158, '2eefde24f48bfde0', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 0.5, 2): ('9887.747752111998', 114, 158, 'd9cf72c9d75e766b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 1.0, None): ('10520.737108713678', 121, 159, '58b26d86a9d1a291', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 1.0, 2): ('9872.40992255118', 113, 151, 'ed08f9fded5e13ad', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 2.0, None): ('11115.699138855876', 124, 147, 'd38e105a96d99502', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 2.0, 2): ('10341.83481127143', 112, 144, '32eef9ed09da32f3', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 0.5, None): ('5967.313967708648', 74, 74, 'd97a8a5c9ca4a9f6', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 0.5, 2): ('5556.585788030174', 68, 69, '2f7b592543ae8ed4', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 1.0, None): ('5902.51059464599', 74, 74, 'f97a775cae6d1cbd', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 1.0, 2): ('5645.467977494188', 68, 68, '97e53c9849291ccd', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 2.0, None): ('6487.711176617087', 79, 79, '6aa9fc0ec6654eee', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 2.0, 2): ('6388.323656738725', 74, 74, 'c16ed8f825f05517', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 0.5, None): ('7522.941003207135', 82, 86, '227fdd3610dfcca8', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 0.5, 2): ('7080.2139320679635', 78, 83, 'c83afc404142e06f', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 1.0, None): ('7434.511517656902', 81, 85, '00c5b3a202fb5a5e', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 1.0, 2): ('7420.228621313717', 79, 89, '8be57ef6ca9231c1', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 2.0, None): ('8962.014644414056', 94, 100, 'd9658c0148586266', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 2.0, 2): ('8128.7709899313', 84, 98, '222d3dbf35f7795b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 0.5, None): ('6861.891077259181', 60, 64, '293347d63cb6dc2c', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 0.5, 2): ('6861.891077259181', 60, 64, '363d23cb7c6eb4f6', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 1.0, None): ('6861.891077259182', 60, 64, '9b64524b299627c5', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 1.0, 2): ('6861.891077259182', 60, 64, '2c43651e02281372', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 2.0, None): ('7315.464869671757', 65, 65, 'f17630ca4d047973', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 2.0, 2): ('7040.957797636593', 63, 65, 'd4da69230451bed2', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('hotspot_burst', 'BaseP', 0.5, None): ('6653.24021348266', 70, 291, '3730770e57bf171d', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 0.5, 2): ('6432.454368602482', 68, 291, 'da41be51cc5611ef', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 1.0, None): ('6871.3419435233145', 70, 291, 'f6de7e9f659a2d96', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 1.0, 2): ('6650.556098643137', 68, 291, '6e9101a3a7f0cfb7', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 2.0, None): ('7069.6252737695095', 71, 291, 'f0788713ee06e863', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 2.0, 2): ('7101.199799833748', 71, 291, '71d82ab14b0df480', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 0.5, None): ('6599.558510682418', 66, 284, '39e10f80605a55fb', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 0.5, 2): ('6304.8293317176895', 63, 284, 'cc5f29edcb579777', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 1.0, None): ('7022.065223147064', 67, 275, 'e4a78752d25c6132', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 1.0, 2): ('6727.336044182335', 64, 275, '27f03f54b0303646', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 2.0, None): ('7242.512753976564', 67, 266, '6bd0eccb7a7c78c8', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'MAPS', 2.0, 2): ('7172.437420573564', 66, 266, '87a7826701c5619d', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 0.5, None): ('4583.788449208994', 49, 57, '955ab3aa4f07cf15', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 0.5, 2): ('4457.094386368715', 49, 57, 'a89d92f0d8fad7e1', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 1.0, None): ('4958.307326917096', 50, 55, 'e7b95dbd9ce87f19', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 1.0, 2): ('4682.710960924105', 49, 54, '78f4ced4b6455aec', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 2.0, None): ('4864.4704894698725', 51, 55, '72b788de58e2b0c3', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDR', 2.0, 2): ('4420.522476839409', 49, 54, '0dc019edafaee00d', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 0.5, None): ('5677.512278294354', 53, 191, 'ac12a83f993d41a5', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 0.5, 2): ('5815.569727246162', 53, 191, '211d269d50cef532', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 1.0, None): ('5923.461891208209', 54, 211, '4019f10b22c8907c', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 1.0, 2): ('6061.519340160017', 54, 211, '61be0475270e429a', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 2.0, None): ('5318.103486692312', 50, 214, '2091dc2bd628aa55', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 2.0, 2): ('5438.772470562628', 50, 214, '52469319eab0e05b', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 0.5, None): ('4293.930438414594', 26, 103, 'd25885e87a7813f7', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 0.5, 2): ('4293.930438414594', 26, 103, 'edb7b39e5607fb7c', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 1.0, None): ('4750.645202479623', 29, 103, '80cb3142f2101f83', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2): ('4750.645202479623', 29, 103, '8bd05c390763389c', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 2.0, None): ('4853.495777145064', 30, 105, '801f024a346f3d45', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 2.0, 2): ('4853.495777145064', 30, 105, 'bf50c8e0f55f5e6d', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
}
EVENT_PINS = {
    ('churn_city', 'BaseP', None): ('6211.261176973683', 58, 161, 'f1477385c58d7dda', '2f84c326d4572ce1'),
    ('churn_city', 'BaseP', 2): ('2296.8024677003277', 23, 161, 'f25a83c9aaf5f3c6', 'aacb51318c1ae14a'),
    ('churn_city', 'SDR', None): ('0.0', 0, 0, 'ae308960b75e0e61', '4f53cda18c2baa0c'),
    ('churn_city', 'SDR', 2): ('0.0', 0, 0, 'ae308960b75e0e61', '4f53cda18c2baa0c'),
    ('churn_city', 'SDE', None): ('2826.453306516004', 22, 26, 'e8f457a314c7f330', 'a426a5c369405c09'),
    ('churn_city', 'SDE', 2): ('621.7408480269783', 5, 26, 'd7d6b3889e408568', '46d8f0d7c1d099e1'),
    ('churn_city', 'CappedUCB', None): ('5110.209121626608', 41, 56, 'a382339d21c11f6f', 'b3eacf5200624319'),
    ('churn_city', 'CappedUCB', 2): ('1595.8798341101458', 12, 56, '0138360840ae991e', '196cc57cb46bede7'),
    ('hotspot_burst', 'BaseP', None): ('7306.265777176633', 71, 291, '926b66d426a70edc', 'f24aecb8019908ab'),
    ('hotspot_burst', 'BaseP', 2): ('4896.039494540595', 47, 291, '427de98da66f34df', '2281aca145d8276f'),
    ('hotspot_burst', 'SDR', None): ('0.0', 0, 0, '97ae3bc0c049811a', '4f53cda18c2baa0c'),
    ('hotspot_burst', 'SDR', 2): ('0.0', 0, 0, '97ae3bc0c049811a', '4f53cda18c2baa0c'),
    ('hotspot_burst', 'SDE', None): ('4957.894549187512', 27, 107, '8b889d02a86f5af5', '05fb7b06dbcf032e'),
    ('hotspot_burst', 'SDE', 2): ('3025.493250946665', 15, 107, '3f8e2d43e0e4f848', '8be8a1cfa9cabe1a'),
    ('hotspot_burst', 'CappedUCB', None): ('4653.4437528292965', 24, 95, '225e05106d4d1047', '8049442d2cf5f69f'),
    ('hotspot_burst', 'CappedUCB', 2): ('2564.4869142454054', 12, 95, 'abfeecc461cce059', 'e38dd216ed293d59'),
}


@pytest.mark.parametrize(
    "case", WINDOWED_CASES, ids=["-".join(map(str, case)) for case in WINDOWED_CASES]
)
def test_windowed_engine_is_pinned(case):
    assert windowed_case(*case) == WINDOWED_PINS[case]


@pytest.mark.parametrize(
    "case", STREAMING_CASES, ids=["-".join(map(str, case)) for case in STREAMING_CASES]
)
def test_streaming_engine_is_pinned(case):
    assert streaming_case(*case) == STREAMING_PINS[case]


@pytest.mark.parametrize(
    "case", EVENT_CASES, ids=["-".join(map(str, case)) for case in EVENT_CASES]
)
def test_event_engine_is_pinned(case):
    assert event_case(*case) == EVENT_PINS[case]
