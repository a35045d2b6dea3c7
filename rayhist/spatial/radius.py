"""Distributed radius self-join (co-location pairs).

All pairs of points within planar euclidean distance ``radius`` of
each other, via the classic grid-partitioned spatial join: bucket the
plane into cells of side ``radius`` (so every qualifying pair lives in
the same or 8-adjacent cells), keep each point once as a RESIDENT of
its home cell and replicate it as a GHOST into the 8 neighbors, and
generate pairs inside each cell with the one-sided tie-break
``resident.id < other.id`` — a pair of adjacent-cell points meets
exactly twice across the two cells with roles swapped, and the id rule
keeps exactly one of the two; a same-cell pair meets once in both
orders and the rule keeps one.

This mirrors OSHDB's GridOSHEntity cell partitioning turned into a
join key (reference: oshdb/src/main/java/.../grid/XYGrid.java — the
"insert at the zoom whose cell covers the bbox" rule specialized to
points with a fixed cell = radius). Fan-out is exactly 9x the point
count; per-bucket work is vectorized (one merge per cell group);
nothing is quadratic in the corpus — only in the occupancy of a single
cell, which is the caller's density contract (pick radius << extent).

Squared distances stay in int64: deltas are prefiltered to
``|dx|, |dy| <= radius`` BEFORE squaring, so ``d2 <= 2*radius^2``
(radius up to ~2.1e9 is exact; coordinates are e7 ints).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from ..ops.relational import _per_key

_OFFSETS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def radius_self_join(
    points: rio.Blocks,
    radius: int,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
    carry: tuple = (),
) -> rio.Blocks:
    """(id_a, id_b, d2) for every unordered pair with id_a < id_b and
    squared planar distance d2 <= radius^2. Coordinates and ids must be
    int64; the metric is planar (no meridian wrap — callers spanning
    the antimeridian shift coordinates first). ``carry`` columns ride
    along and come back suffixed _a/_b (int64)."""
    if radius <= 0 or radius > 2_100_000_000:
        raise ValueError(f"radius_self_join: radius {radius} out of the exact-int64 range")
    r = np.int64(radius)

    def scatter(b: pa.Table) -> pa.Table:
        pid = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = np.floor_divide(x, r)
        cy = np.floor_divide(y, r)
        n = len(pid)
        extra = {
            c: b[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in carry
        }
        frames = []
        for dx, dy in _OFFSETS:
            frames.append(
                pd.DataFrame(
                    {
                        "cx": cx + dx,
                        "cy": cy + dy,
                        "pid": pid,
                        "x": x,
                        "y": y,
                        "res": np.full(n, dx == 0 and dy == 0, dtype=bool),
                        **extra,
                    }
                )
            )
        out = pd.concat(frames, ignore_index=True)
        # cell key for routing AND in-bucket grouping (collision-free:
        # cells are within +-2^32 of origin for e7 coordinates)
        cell = out["cx"].to_numpy() * np.int64(1 << 32) + out["cy"].to_numpy()
        out = out.drop(columns=["cx", "cy"])
        out["cell"] = cell
        return pa.Table.from_pandas(out, preserve_index=False)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        res = g[g["res"]]
        m = res.merge(g, on="cell", suffixes=("_a", "_b"))
        m = m[m["pid_a"] < m["pid_b"]]
        dx = np.abs(m["x_a"].to_numpy(dtype=np.int64) - m["x_b"].to_numpy(dtype=np.int64))
        dy = np.abs(m["y_a"].to_numpy(dtype=np.int64) - m["y_b"].to_numpy(dtype=np.int64))
        near = (dx <= r) & (dy <= r)
        dx, dy = dx[near], dy[near]
        d2 = dx * dx + dy * dy
        keep = d2 <= r * r
        out = {
            "id_a": m["pid_a"].to_numpy(dtype=np.int64)[near][keep],
            "id_b": m["pid_b"].to_numpy(dtype=np.int64)[near][keep],
            "d2": d2[keep],
        }
        for c in carry:
            out[f"{c}_a"] = m[f"{c}_a"].to_numpy(dtype=np.int64)[near][keep]
            out[f"{c}_b"] = m[f"{c}_b"].to_numpy(dtype=np.int64)[near][keep]
        return pd.DataFrame(out)

    return _per_key(points, ["cell"], pairs, stage=scatter)
