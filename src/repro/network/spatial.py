"""Exact batched nearest-point queries in the plane.

Used for the Table 18.2 features sampled at segment midpoints: each soil
layer is a Voronoi field (category of the nearest seed) and the traffic
feature is the distance to the closest intersection. Both are answered
here with one call per layer rather than one call per segment.

The search is brute force over blocks of query rows: each block takes the
``argmin`` of ``dx*dx + dy*dy`` against every point, so exact ties go to
the lowest point index. Each returned distance is then computed with
``math.hypot`` on the chosen pair. ``np.hypot`` and the square root of the
rounded squared distance can differ from it in the last bit, and the
simulated regions are pinned bit-for-bit to ``math.hypot`` distances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import Point

#: Target size of one block's temporaries. Blocks are sized in bytes, not
#: rows, so a large point set shrinks the block instead of the peak RSS
#: growing with it.
BLOCK_BYTES = 1 << 20


def block_rows(n_points: int) -> int:
    """Query rows per block so that one ``(rows, n_points)`` float array is ~``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (8 * max(1, n_points)))


def nearest(
    queries: Sequence[Point] | np.ndarray, points: Sequence[Point] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and distance to, the closest of ``points`` for each query.

    ``queries`` is ``(n, 2)`` (``n`` may be 0) and ``points`` a non-empty
    ``(m, 2)`` set. Returns ``(idx, dist)``: int64 and float64 arrays of
    length ``n``, with ``dist[i] == math.hypot(qx - px, qy - py)`` for the
    chosen point.
    """
    q = _as_points(queries, "queries")
    p = _as_points(points, "points")
    if len(p) == 0:
        raise ValueError("nearest needs a non-empty point set")
    px, py = p[:, 0], p[:, 1]
    idx = np.empty(len(q), dtype=np.int64)
    rows = block_rows(len(p))
    for lo in range(0, len(q), rows):
        block = q[lo : lo + rows]
        d2 = block[:, 0:1] - px
        np.square(d2, out=d2)
        dy = block[:, 1:2] - py
        np.square(dy, out=dy)
        d2 += dy
        idx[lo : lo + rows] = d2.argmin(axis=1)
    dx = q[:, 0] - px[idx]
    dy = q[:, 1] - py[idx]
    return idx, np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), dtype=float, count=len(q))


def _as_points(values: Sequence[Point] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array, got shape {arr.shape}")
    return arr
