"""Distributed convex hull — the combiner-shaped geometric aggregate.

The convex hull's vertex set is a pure combiner: hull(S) subset-of
hull(hull(S1) union hull(S2)) for any partition, so each batch reduces
its points to a LOCAL hull (per group), the union of local hulls — a
few dozen rows per group, never the corpus — flows to a |groups|-sized
final that runs the same kernel once more. The kernel is Andrew's
monotone chain over exact integer orientation signs
(spatial/predicates.orient_sign — no float epsilons, no collinear
ambiguity): STRICT turns only, so collinear mid-edge points are not
vertices, matching the oracle's not-in-any-triangle vertex rule.

Reference semantics anchor: OSHDB's geometry utilities operate on the
same e7 integer lattice (oshdb-util Geo.java); the hull itself is a
target-side addition (the reference delegates to JTS).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from .predicates import orient_sign


def hull_vertices(ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices (into the input arrays) of the STRICT convex hull
    vertices via monotone chain. Deterministic: points are ordered by
    (x, y, id); duplicate coordinates keep the smallest id. Returns
    indices in hull boundary order (lower then upper chain). Inputs of
    0-2 distinct points return all of them."""
    order = np.lexsort((ids, y, x))
    # drop exact coordinate duplicates (keep smallest id: lexsort puts it first)
    xs, ys = x[order], y[order]
    keep = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        keep[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    order = order[keep]
    n = len(order)
    if n <= 2:
        return order

    def chain(idx: np.ndarray) -> list:
        out: list = []
        for i in idx:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                s = orient_sign(
                    np.array([x[a]]), np.array([y[a]]),
                    np.array([x[b]]), np.array([y[b]]),
                    np.array([x[i]]), np.array([y[i]]),
                )[0]
                if s <= 0:  # clockwise or collinear -> b is not a strict vertex
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def grouped_convex_hull(
    points: rio.Blocks,
    group_col: str,
    id_col: str = "id",
    x_col: str = "x",
    y_col: str = "y",
) -> pd.DataFrame:
    """Per-group strict convex hull vertices: (group, id, x, y), one
    row per hull vertex, sorted by (group, id). Per-batch local hulls
    reduce the stream; the |groups x hull-size| final re-runs the same
    kernel at the driver (documented small final, the combine_partials
    convention)."""

    def local(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": b[group_col].to_numpy(zero_copy_only=False),
                "i": b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                "x": b[x_col].to_numpy(zero_copy_only=False).astype(np.int64),
                "y": b[y_col].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        parts = []
        for _, grp in df.groupby("g", sort=False):
            idx = hull_vertices(
                grp["i"].to_numpy(), grp["x"].to_numpy(), grp["y"].to_numpy()
            )
            parts.append(grp.iloc[idx])
        out = pd.concat(parts, ignore_index=True) if parts else df.iloc[:0]
        return pa.Table.from_pandas(out, preserve_index=False)

    cand = rio.map_blocks(points, local).to_pandas()
    rows = []
    for g, grp in cand.groupby("g", sort=False):
        idx = hull_vertices(
            grp["i"].to_numpy(dtype=np.int64),
            grp["x"].to_numpy(dtype=np.int64),
            grp["y"].to_numpy(dtype=np.int64),
        )
        sel = grp.iloc[idx]
        rows.append(sel)
    out = pd.concat(rows, ignore_index=True) if rows else cand.iloc[:0]
    out = out.rename(columns={"g": group_col, "i": id_col, "x": x_col, "y": y_col})
    return out.sort_values([group_col, id_col]).reset_index(drop=True)
