"""The host's speed, probed alongside the timed work.

The benchmark's host is shared: work on the same physical core slows
this one by up to half, in phases lasting from milliseconds to minutes,
so two runs of the same code can differ by 30% in wall time.  A fixed
pure-Python loop — the *probe* — slows by nearly the same factor as the
interpreter-bound program under test, and the program's code never
changes it.  A time divided by the probe times measured around it
therefore no longer depends on the phase it ran in.

Such times are reported in *reference* seconds: the measured time scaled
to a host on which one probe takes :data:`REFERENCE_PROBE_S`.  That is
about the probe's time on the 2-vCPU container the baseline comes from
(``perf/README.md``), so there reference times read close to wall times.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the probe loop.
PROBE_LOOPS = 1500
#: Seconds one probe takes on the reference host.
REFERENCE_PROBE_S = 1e-4
#: Probes before and after a one-off timing such as a set-up.
BRACKET = 10
#: Seconds between the probes taken during a one-off timing.
SAMPLE_SECONDS = 0.01
#: Probes on each side of a period that set its scale.
REACH = 5


def probe() -> float:
    """Seconds one run of the fixed probe loop takes now."""
    begin = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return perf_counter() - begin


def probes(count: int = BRACKET) -> List[float]:
    """``count`` probes in a row."""
    return [probe() for _ in range(count)]


def in_reference(seconds: float, probe_times: Sequence[float]) -> float:
    """``seconds`` on the reference host, given probes taken around it."""
    return seconds * REFERENCE_PROBE_S / fmean(probe_times)


def timed(call: Callable[[], T]) -> Tuple[T, float]:
    """``call()`` and the reference seconds it took.

    A one-off call such as a set-up can outlast a phase of the host, so
    besides the probes just before and after it, a timer probes the host
    every :data:`SAMPLE_SECONDS` while it runs (the probes' own time is
    taken off the call's).  The timer's signal reaches Python between
    bytecodes, so a long native call delays a sample but is not cut.
    """
    before = probes()
    samples: List[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    begin = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
    try:
        result = call()
    finally:
        # Every sample taken lies inside ``elapsed``.
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - begin
        signal.signal(signal.SIGALRM, previous)
    return result, in_reference(elapsed - sum(samples), before + samples + probes())


def scaled(times: Sequence[float], probe_times: Sequence[float], reach: int = REACH) -> List[float]:
    """Consecutive ``times`` on the reference host.

    ``probe_times[i]`` was taken right after ``times[i]``; each time is
    scaled by the mean of the probes at most ``reach`` positions away.
    """
    if len(times) != len(probe_times):
        raise ValueError("one probe per time")
    return [
        in_reference(seconds, probe_times[max(0, i - reach) : i + reach + 1])
        for i, seconds in enumerate(times)
    ]


__all__ = [
    "PROBE_LOOPS",
    "REFERENCE_PROBE_S",
    "in_reference",
    "probe",
    "probes",
    "scaled",
    "timed",
]
