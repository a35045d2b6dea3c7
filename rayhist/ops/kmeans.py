"""Distributed exact-integer k-means (Lloyd iterations).

The broadcast-centroid shape — the ONLY shape k-means needs at any
scale, because the model state is k x 2 integers regardless of corpus
size: each iteration ships the centroid array in its stage, one
block-task pass (``io.map_blocks``) assigns every point to its nearest centroid by EXACT
int64 squared distance (numpy broadcasting, argmin tie -> lowest
cluster id) and emits k-row (cluster, n, sum_x, sum_y) partials, and
the driver combines |k x blocks| rows in PYTHON INTS (bignum — the
per-coordinate sums exceed int64 at ~2^36 points, so the final
combine must not be numpy). The centroid update is the floor mean
(sum // n, exact integer division), which keeps every quantity in the
pipeline an exact integer — assignments are therefore bit-identical
at any parallelism, and the oracle is the same iterations unrolled as
MATERIALIZED CTE chains (row_number argmin + HUGEINT sums + the same
// floor).

Determinism contract (mirrored in the SQL): init centroids are the k
points with the SMALLEST ids (cluster j = j-th smallest); distance
ties assign to the lowest cluster id; an emptied cluster keeps its
previous centroid.

Coordinates must be NON-NEGATIVE ints < 2^27 (squared spans then fit
int64 with headroom; callers grid-quantize into that budget — the
geospatial caller shifts e7 degrees non-negative and //100).

Reference parity: the reference has no clustering; this is the
standard scalable k-means layout (MacQueen'67 Lloyd step; Bahmani et
al., VLDB'12 on why broadcast-assign scales) expressed as Ray Data
batch passes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio

_MAX_COORD = 1 << 27


def kmeans_int(
    points: rio.Blocks,
    k: int,
    iters: int,
    pid: str = "pid",
    x: str = "gx",
    y: str = "gy",
) -> pd.DataFrame:
    """k rows (cluster, cx, cy, n, sum_gx, sum_gy): the centroids
    after ``iters`` exact Lloyd iterations from the k-smallest-id
    init, plus the final assignment's per-cluster count and exact
    coordinate sums (empty clusters zerofilled with their carried
    centroid)."""
    if k <= 0 or iters < 0:
        raise ValueError("kmeans_int: k must be > 0 and iters >= 0")

    def prep(b: pa.Table) -> pa.Table:
        gx = b[x].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = b[y].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(gx) and (
            gx.min() < 0 or gy.min() < 0
            or gx.max() >= _MAX_COORD or gy.max() >= _MAX_COORD
        ):
            raise ValueError("kmeans_int: coordinates must be in [0, 2^27)")
        return pa.table(
            {
                "pid": b[pid].to_numpy(zero_copy_only=False).astype(np.int64),
                "gx": gx,
                "gy": gy,
            }
        )

    pts = rio.materialize_blocks(points, prep)

    # init: the k points with the smallest ids (k x blocks partials)
    def smallest(b: pa.Table) -> pa.Table:
        n = min(k, len(b))
        idx = np.argsort(b["pid"].to_numpy(zero_copy_only=False), kind="stable")[:n]
        return b.take(idx)

    seed = rio.map_blocks(pts, smallest).to_pandas()
    seed = seed.sort_values("pid", kind="mergesort").head(k)
    if len(seed) < k:
        raise ValueError(f"kmeans_int: need at least k={k} points, got {len(seed)}")
    cx = seed["gx"].to_numpy(dtype=np.int64)
    cy = seed["gy"].to_numpy(dtype=np.int64)

    def assign_partials(b: pa.Table, cents) -> pa.Table:
        acx, acy = cents
        gx = b["gx"].to_numpy(zero_copy_only=False)
        gy = b["gy"].to_numpy(zero_copy_only=False)
        dx = gx[:, None] - acx[None, :]
        dy = gy[:, None] - acy[None, :]
        a = np.argmin(dx * dx + dy * dy, axis=1)  # first occurrence = lowest id
        return pa.table(
            {
                "cluster": np.arange(k, dtype=np.int64),
                "n": np.bincount(a, minlength=k).astype(np.int64),
                "sx": _bincount_int(a, gx, k),
                "sy": _bincount_int(a, gy, k),
            }
        )

    def combine(parts: pd.DataFrame):
        # PYTHON-int sums: exact past int64 at planetary point counts
        n = [0] * k
        sx = [0] * k
        sy = [0] * k
        for c, nn, xx, yy in zip(
            parts["cluster"].tolist(),
            parts["n"].tolist(),
            parts["sx"].tolist(),
            parts["sy"].tolist(),
        ):
            n[c] += int(nn)
            sx[c] += int(xx)
            sy[c] += int(yy)
        return n, sx, sy

    for _ in range(iters):
        parts = rio.map_blocks(pts, lambda b, _c=(cx, cy): assign_partials(b, _c)).to_pandas()
        n, sx, sy = combine(parts)
        cx = np.array(
            [sx[j] // n[j] if n[j] else int(cx[j]) for j in range(k)], dtype=np.int64
        )
        cy = np.array(
            [sy[j] // n[j] if n[j] else int(cy[j]) for j in range(k)], dtype=np.int64
        )

    parts = rio.map_blocks(pts, lambda b, _c=(cx, cy): assign_partials(b, _c)).to_pandas()
    n, sx, sy = combine(parts)
    return pd.DataFrame(
        {
            "cluster": np.arange(k, dtype=np.int64),
            "cx": cx,
            "cy": cy,
            "n": np.array(n, dtype=np.int64),
            "sum_gx": np.array(sx, dtype=np.int64),
            "sum_gy": np.array(sy, dtype=np.int64),
        }
    )


def _bincount_int(a: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """Exact int64 per-cluster sums (np.bincount weights are float64 —
    lossy past 2^53 — so sum int64 directly via add.at)."""
    out = np.zeros(k, dtype=np.int64)
    np.add.at(out, a, v)
    return out
