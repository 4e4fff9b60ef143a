"""Halo-reconciliation selection kernels.

The sharded engine's halo pass (``ShardedEngine._reconcile_halo``) scans
every dispatch twice per period: once for accepted-but-unmatched tasks in
the boundary band (re-offer candidates) and once for still-free boundary
workers (residual supply).  Both scans are pure position selection; the
matching itself runs through the normal backends.  Both return
positions in ascending order, so the reconciliation instance is a
deterministic function of the shard's dispatch.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def halo_task_candidates(
    accepted_positions: np.ndarray,
    matching: Dict[int, int],
    task_grids: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Accepted-but-unmatched task positions inside the halo band.

    Args:
        accepted_positions: Ascending accepted task positions.
        matching: The shard's ``{task_pos: worker_pos}`` matching.
        task_grids: 1-based grid index per task position.
        boundary: Boolean halo-band mask over 0-based cell positions.

    Returns:
        ``int64`` positions in ``accepted_positions`` order.
    """
    candidates = accepted_positions
    if matching:
        matched = np.fromiter(matching.keys(), dtype=np.int64, count=len(matching))
        candidates = candidates[~np.isin(candidates, matched, assume_unique=True)]
    return candidates[boundary[task_grids[candidates] - 1]]


def halo_residual_workers(
    matching: Dict[int, int],
    worker_grids: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Still-free worker positions inside the halo band, ascending.

    Args:
        matching: The shard's ``{task_pos: worker_pos}`` matching (its
            values are the taken workers).
        worker_grids: 1-based grid index per worker position.
        boundary: Boolean halo-band mask over 0-based cell positions.
    """
    residual = boundary[worker_grids - 1]
    if matching:
        residual = residual.copy()
        residual[
            np.fromiter(matching.values(), dtype=np.int64, count=len(matching))
        ] = False
    return np.flatnonzero(residual)


__all__ = ["halo_task_candidates", "halo_residual_workers"]
