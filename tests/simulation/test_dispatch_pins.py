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
#: of ``DispatchSession``, and re-recorded when every augmenting search
#: took the free-neighbour-first pairing rule; both drivers must
#: reproduce them bit for bit.
WINDOWED_PINS = {
    ('churn_city', 'MAPS', 0.5, None, 'delta'): ('6243.354226048163', 58, 162, '3e6c2828d4b2a090'),
    ('churn_city', 'MAPS', 0.5, 2, 'delta'): ('2215.932981088373', 22, 159, '7691e233a9f675ec'),
    ('churn_city', 'MAPS', 1.0, None, 'delta'): ('6960.005999279255', 64, 159, 'a4ac033117cd4162'),
    ('churn_city', 'MAPS', 1.0, 2, 'delta'): ('2322.216406563875', 22, 155, 'a2f003ccafb60c2e'),
    ('churn_city', 'MAPS', 2.0, None, 'delta'): ('6205.985950768767', 59, 145, 'ca526251d7b91077'),
    ('churn_city', 'MAPS', 2.0, 2, 'delta'): ('2356.7664241106404', 23, 149, 'e98f68ed36e8a765'),
    ('churn_city', 'SDR', 0.5, None, 'delta'): ('2693.6259528638484', 37, 47, '5e2debac59f2c877'),
    ('churn_city', 'SDR', 0.5, 2, 'delta'): ('1564.4622801029545', 17, 69, 'bd351dea253856a4'),
    ('churn_city', 'SDR', 1.0, None, 'delta'): ('2765.506542894856', 36, 46, 'e23c474bc82707dd'),
    ('churn_city', 'SDR', 1.0, 2, 'delta'): ('1370.6832362556963', 15, 68, '234dfa97785bac86'),
    ('churn_city', 'SDR', 2.0, None, 'delta'): ('3496.052713064896', 42, 54, '988ad7c652985efc'),
    ('churn_city', 'SDR', 2.0, 2, 'delta'): ('1472.5919365757873', 16, 74, 'e93800766f3b8a72'),
    ('churn_city', 'SDE', 0.5, None, 'delta'): ('5237.863004393651', 50, 65, '9cff4acb85e2dba2'),
    ('churn_city', 'SDE', 0.5, 2, 'delta'): ('1776.9937130614508', 18, 78, '71ae76d0e6ef10db'),
    ('churn_city', 'SDE', 1.0, None, 'delta'): ('5755.324225287128', 51, 72, 'f5c70b3f8bd90458'),
    ('churn_city', 'SDE', 1.0, 2, 'delta'): ('1851.143510477048', 19, 89, 'de4f58b4ec6f2760'),
    ('churn_city', 'SDE', 2.0, None, 'delta'): ('6280.40198829049', 57, 90, 'c837df97f2d49104'),
    ('churn_city', 'SDE', 2.0, 2, 'delta'): ('1665.92282787955', 18, 99, '2ceac35b42987442'),
    ('churn_city', 'CappedUCB', 0.5, None, 'delta'): ('5194.195536352246', 44, 61, '76a50b84b21ec93f'),
    ('churn_city', 'CappedUCB', 0.5, 2, 'delta'): ('1548.4034946436846', 12, 63, '08a5adffc2b3ec63'),
    ('churn_city', 'CappedUCB', 1.0, None, 'delta'): ('5375.987012316528', 46, 61, 'fb14e886b81db7dc'),
    ('churn_city', 'CappedUCB', 1.0, 2, 'delta'): ('1548.4034946436846', 12, 63, 'fe9e63ae4ca4a21f'),
    ('churn_city', 'CappedUCB', 2.0, None, 'delta'): ('5505.8011655067', 48, 63, '938bb6fc791f425a'),
    ('churn_city', 'CappedUCB', 2.0, 2, 'delta'): ('1622.0460109608907', 13, 65, '32cdf38b9b7a244c'),
    ('hotspot_burst', 'MAPS', 0.5, None, 'delta'): ('7357.87096209713', 69, 287, '122dd5d7e163450f'),
    ('hotspot_burst', 'MAPS', 0.5, 2, 'delta'): ('5009.436612820326', 46, 281, 'b7158694fc3b92a0'),
    ('hotspot_burst', 'MAPS', 1.0, None, 'delta'): ('7370.20040539929', 68, 282, 'c81454d1fada675d'),
    ('hotspot_burst', 'MAPS', 1.0, 2, 'delta'): ('5005.408644643931', 46, 270, '679f51c80c4afa71'),
    ('hotspot_burst', 'MAPS', 2.0, None, 'delta'): ('7418.635100010492', 67, 275, 'dd5425f9d8ce5300'),
    ('hotspot_burst', 'MAPS', 2.0, 2, 'delta'): ('4955.992436497304', 45, 262, '549ff203f73afa8a'),
    ('hotspot_burst', 'SDR', 0.5, None, 'delta'): ('4400.469415588047', 45, 50, 'b6cce56214b1dfc7'),
    ('hotspot_burst', 'SDR', 0.5, 2, 'delta'): ('3085.020029530118', 31, 60, '5dbe09541a8555ce'),
    ('hotspot_burst', 'SDR', 1.0, None, 'delta'): ('4464.662083484585', 44, 48, 'ab8afac2764ec361'),
    ('hotspot_burst', 'SDR', 1.0, 2, 'delta'): ('3191.2164388526867', 31, 56, 'ac501a4bd928d4cd'),
    ('hotspot_burst', 'SDR', 2.0, None, 'delta'): ('4444.347703318199', 47, 53, 'da86bb721ae85056'),
    ('hotspot_burst', 'SDR', 2.0, 2, 'delta'): ('2968.4784223902757', 32, 54, '9f86ea7fa51d98b7'),
    ('hotspot_burst', 'SDE', 0.5, None, 'delta'): ('6529.666271111386', 54, 187, '60b24cf0adb034b3'),
    ('hotspot_burst', 'SDE', 0.5, 2, 'delta'): ('4360.265437297586', 36, 189, 'bfe500cddb561acd'),
    ('hotspot_burst', 'SDE', 1.0, None, 'delta'): ('6442.1747407877', 55, 207, '22de97f10dae5aed'),
    ('hotspot_burst', 'SDE', 1.0, 2, 'delta'): ('4227.676874764951', 36, 207, 'c62add9dbc800310'),
    ('hotspot_burst', 'SDE', 2.0, None, 'delta'): ('5813.365009107538', 51, 210, '484a6cc3debaa79e'),
    ('hotspot_burst', 'SDE', 2.0, 2, 'delta'): ('3747.8967048849618', 33, 213, '6abc086b1d3d2700'),
    ('hotspot_burst', 'CappedUCB', 0.5, None, 'delta'): ('5221.972437288917', 31, 103, '977d0739569d1949'),
    ('hotspot_burst', 'CappedUCB', 0.5, 2, 'delta'): ('3272.944810957535', 19, 103, '2c24aeecfb54ada3'),
    ('hotspot_burst', 'CappedUCB', 1.0, None, 'delta'): ('5221.972437288918', 31, 103, '5fc2709aa7eebee3'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2, 'delta'): ('3272.9448109575346', 19, 103, '6c17a6dbbfc0ab4d'),
    ('hotspot_burst', 'CappedUCB', 2.0, None, 'delta'): ('5257.0551768242585', 32, 105, '69d02bdca0a30243'),
    ('hotspot_burst', 'CappedUCB', 2.0, 2, 'delta'): ('3334.3749289299744', 20, 105, '5f66e474eed199d2'),
    ('churn_city', 'MAPS', 1.0, None, 'rewindow'): ('6574.341669588965', 59, 157, 'ec2e672314d765bb'),
    ('churn_city', 'MAPS', 1.0, 2, 'rewindow'): ('2322.216406563875', 22, 155, 'a2f003ccafb60c2e'),
    ('churn_city', 'SDR', 1.0, None, 'rewindow'): ('3039.265893985205', 38, 46, '6c505a01ab78e999'),
    ('churn_city', 'SDR', 1.0, 2, 'rewindow'): ('1370.6832362556963', 15, 68, '234dfa97785bac86'),
    ('churn_city', 'SDE', 1.0, None, 'rewindow'): ('5672.7323897148035', 52, 72, '566ad90807ed6d40'),
    ('churn_city', 'SDE', 1.0, 2, 'rewindow'): ('1851.143510477048', 19, 89, 'de4f58b4ec6f2760'),
    ('churn_city', 'CappedUCB', 1.0, None, 'rewindow'): ('5321.6787013870435', 45, 61, 'f6fb0afc4c0d3fcc'),
    ('churn_city', 'CappedUCB', 1.0, 2, 'rewindow'): ('1548.4034946436846', 12, 63, 'fe9e63ae4ca4a21f'),
    ('hotspot_burst', 'MAPS', 1.0, None, 'rewindow'): ('7288.451163813311', 67, 282, '2487afc1505a946b'),
    ('hotspot_burst', 'MAPS', 1.0, 2, 'rewindow'): ('5005.408644643931', 46, 270, '679f51c80c4afa71'),
    ('hotspot_burst', 'SDR', 1.0, None, 'rewindow'): ('4464.662083484585', 44, 48, '48b6aeb7c1cc6db4'),
    ('hotspot_burst', 'SDR', 1.0, 2, 'rewindow'): ('3191.2164388526867', 31, 56, 'ac501a4bd928d4cd'),
    ('hotspot_burst', 'SDE', 1.0, None, 'rewindow'): ('6442.1747407877', 55, 207, 'b29a586b7415f67a'),
    ('hotspot_burst', 'SDE', 1.0, 2, 'rewindow'): ('4227.676874764951', 36, 207, 'c62add9dbc800310'),
    ('hotspot_burst', 'CappedUCB', 1.0, None, 'rewindow'): ('5221.972437288918', 31, 103, '5fc2709aa7eebee3'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2, 'rewindow'): ('3272.9448109575346', 19, 103, '6c17a6dbbfc0ab4d'),
}
#: Recorded from the window engine while it still ran its own object
#: period loop, and re-recorded under the free-neighbour-first pairing
#: rule; the one-shard batch loop over its windows must reproduce them
#: bit for bit.
STREAMING_PINS = {
    ('churn_city', 'BaseP', 0.5, None): ('10113.389655292294', 119, 161, '05602c74bb98d3b3', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 0.5, 2): ('9735.284935023079', 115, 161, '25ff7e69971a1cb5', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 1.0, None): ('10390.073938552134', 123, 161, '1bd9bfc087948665', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 1.0, 2): ('9901.009222907587', 116, 161, '2a2daf69065d2e89', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 2.0, None): ('10885.327972727613', 125, 161, 'be9efb50989a6aa5', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'BaseP', 2.0, 2): ('9991.848434014548', 113, 161, 'e7268a390da5c92b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 0.5, None): ('10177.690853119428', 119, 158, '97b1091de133b14d', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 0.5, 2): ('9668.294525496534', 113, 158, 'c652c111ba9d628d', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 1.0, None): ('10576.274488942248', 122, 159, '119860b7f5eadeb5', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 1.0, 2): ('10014.282197851355', 113, 151, '3cb6449660496048', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 2.0, None): ('11151.581068025056', 124, 147, '7dc45bd21878e7e5', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'MAPS', 2.0, 2): ('10179.911775159448', 111, 145, '47df18d9f26032bb', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 0.5, None): ('5721.76525897169', 73, 73, '5ccf5a60c7b0cd8f', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 0.5, 2): ('5529.742238809575', 69, 70, '0d26ec84d3f79d3b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 1.0, None): ('5691.847562857353', 73, 73, 'cfb046fe8d77b4ae', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 1.0, 2): ('5645.467977494188', 68, 68, '97e53c9849291ccd', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 2.0, None): ('6512.0616699138445', 79, 79, 'f95630d6ce7721ab', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDR', 2.0, 2): ('6388.323656738725', 74, 74, 'c16ed8f825f05517', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 0.5, None): ('7427.4874066198545', 82, 85, '998ac5f40b710dc0', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 0.5, 2): ('7080.2139320679635', 78, 83, 'c83afc404142e06f', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 1.0, None): ('7607.404454673615', 83, 87, 'e551e7f4b785227c', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 1.0, 2): ('7048.861669561364', 76, 85, '8f096815ff42468d', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 2.0, None): ('8997.510272472542', 95, 100, '07598d9e33cc7a95', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'SDE', 2.0, 2): ('8128.7709899313', 84, 98, '222d3dbf35f7795b', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 0.5, None): ('6861.891077259181', 60, 64, '55c8ca78cbb6bf6f', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 0.5, 2): ('6861.891077259181', 60, 64, '363d23cb7c6eb4f6', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 1.0, None): ('6861.891077259182', 60, 64, 'da43bf92bf276857', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 1.0, 2): ('6861.891077259182', 60, 64, '2c43651e02281372', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 2.0, None): ('7315.464869671757', 65, 65, 'f17630ca4d047973', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('churn_city', 'CappedUCB', 2.0, 2): ('7040.957797636593', 63, 65, 'd4da69230451bed2', 'churn-city(T=20, rate=12.0/period, lifetime~8, shift~6)'),
    ('hotspot_burst', 'BaseP', 0.5, None): ('6731.345073738832', 71, 291, '13bd04f2e9dda618', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 0.5, 2): ('6432.454368602482', 68, 291, 'da41be51cc5611ef', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 1.0, None): ('6989.709940924344', 72, 291, 'b74646135115d3af', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 1.0, 2): ('6690.819235787994', 69, 291, '4923aeaa2a5e3148', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 2.0, None): ('7187.99327117054', 73, 291, '233d353db3e922b7', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'BaseP', 2.0, 2): ('7141.462936978606', 72, 291, 'e11e0232923674b5', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
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
    ('hotspot_burst', 'SDE', 1.0, None): ('5923.461891208209', 54, 211, 'c3dc8e291f7ad035', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 1.0, 2): ('6061.519340160017', 54, 211, '557ff2f372c7b303', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 2.0, None): ('5318.103486692312', 50, 214, '5a1ae8d0b9dab37a', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'SDE', 2.0, 2): ('5438.772470562628', 50, 214, '21ec882147553ac6', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 0.5, None): ('4293.930438414594', 26, 103, 'd25885e87a7813f7', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 0.5, 2): ('4293.930438414594', 26, 103, 'edb7b39e5607fb7c', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 1.0, None): ('4750.645202479623', 29, 103, '80cb3142f2101f83', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 1.0, 2): ('4750.645202479623', 29, 103, '8bd05c390763389c', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 2.0, None): ('4853.495777145064', 30, 105, '801f024a346f3d45', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
    ('hotspot_burst', 'CappedUCB', 2.0, 2): ('4853.495777145064', 30, 105, 'bf50c8e0f55f5e6d', 'hotspot-burst(T=60, rate=3.0/period, burst x6)'),
}
EVENT_PINS = {
    ('churn_city', 'BaseP', None): ('6273.570810567398', 58, 161, 'bd0952c919d5d752', '6cb69f43d017a374'),
    ('churn_city', 'BaseP', 2): ('2296.8024677003277', 23, 161, 'f25a83c9aaf5f3c6', 'aacb51318c1ae14a'),
    ('churn_city', 'SDR', None): ('0.0', 0, 0, 'ae308960b75e0e61', '4f53cda18c2baa0c'),
    ('churn_city', 'SDR', 2): ('0.0', 0, 0, 'ae308960b75e0e61', '4f53cda18c2baa0c'),
    ('churn_city', 'SDE', None): ('2788.8235123012796', 22, 26, '1940fe16a0dd7f1f', '6856a3b947a5b556'),
    ('churn_city', 'SDE', 2): ('621.7408480269783', 5, 26, 'd7d6b3889e408568', '46d8f0d7c1d099e1'),
    ('churn_city', 'CappedUCB', None): ('5047.262399232515', 40, 56, 'ebd80a9f83255046', 'b37da7aa2966e40b'),
    ('churn_city', 'CappedUCB', 2): ('1595.8798341101458', 12, 56, '0138360840ae991e', '196cc57cb46bede7'),
    ('hotspot_burst', 'BaseP', None): ('7297.164309011851', 71, 291, 'd4e68b74aaed637b', 'c40f4663f1cb5964'),
    ('hotspot_burst', 'BaseP', 2): ('4896.039494540595', 47, 291, '427de98da66f34df', '419b30d610f000e4'),
    ('hotspot_burst', 'SDR', None): ('0.0', 0, 0, '97ae3bc0c049811a', '4f53cda18c2baa0c'),
    ('hotspot_burst', 'SDR', 2): ('0.0', 0, 0, '97ae3bc0c049811a', '4f53cda18c2baa0c'),
    ('hotspot_burst', 'SDE', None): ('4957.894549187512', 27, 107, '8b889d02a86f5af5', 'ed43d0cedde7aecd'),
    ('hotspot_burst', 'SDE', 2): ('3025.493250946665', 15, 107, '3f8e2d43e0e4f848', '8be8a1cfa9cabe1a'),
    ('hotspot_burst', 'CappedUCB', None): ('4653.4437528292965', 24, 95, '225e05106d4d1047', '08205f0de7842405'),
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
