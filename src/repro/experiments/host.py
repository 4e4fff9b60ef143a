"""Host fingerprint stamped into every benchmark measure payload.

``tools/bench_to_json.py`` records a full ``run["host"]`` block
(platform, python, cpu counts) at the trajectory layer, but the
``measure_*`` payloads also travel alone — through the tier-1 benchmark
gates and ad-hoc profiling runs — where a number without its core budget
is unattributable.  Every measurement protocol therefore stamps this
minimal fingerprint into its own payload.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.utils.affinity import effective_cpu_count


def host_fingerprint() -> Dict[str, Any]:
    """The attribution block every measure payload carries.

    ``effective_cores`` is what the process may actually use (cpuset /
    affinity aware), not the machine's cpu count.
    """
    return {"effective_cores": effective_cpu_count()}


__all__ = ["host_fingerprint"]
