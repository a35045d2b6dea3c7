"""Distributed rectangle-intersection self-join (PBSM shape).

All pairs of int64 closed boxes that intersect, with the exact
integer intersection area, via Partition-Based Spatial Merge (Patel &
DeWitt, SIGMOD'96): tile the plane into cells of side ``cell``,
replicate every box into EACH cell its extent overlaps (bounded at
2x2 because box sides are validated <= cell), pair up inside each
cell, and deduplicate with the REFERENCE-POINT rule — a pair is
reported only by the one cell containing the intersection's
lower-left corner ``(max(lx), max(ly))``, a point both boxes cover,
so every intersecting pair is emitted exactly once with no tie-break
bookkeeping. This is the rectangle analog of spatial/radius.py's
ghost/resident tie-break, and the same cell partitioning OSHDB uses
as its storage key (XYGrid.java) turned into a join key.

Fan-out is <= 4x the box count; per-cell work is one vectorized
merge; nothing is quadratic in the corpus — only in single-cell
occupancy, the caller's density contract (pick cell >= max box side
but << extent). Areas stay in int64: overlap sides are bounded by the
smaller box's side (<= cell), so area <= cell^2 — validated against
the 2^63 budget up front.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from ..ops.relational import _per_key


def rect_self_join(
    boxes: rio.Blocks,
    cell: int,
    id_col: str = "id",
    lx: str = "lx",
    ly: str = "ly",
    hx: str = "hx",
    hy: str = "hy",
) -> rio.Blocks:
    """(id_a, id_b, ix, iy, area) for every unordered pair of CLOSED
    boxes with id_a < id_b that intersect (touching counts, area 0):
    ix, iy = the intersection's lower-left corner, area = its exact
    int64 width x height. Box sides must be <= ``cell`` (loud raise:
    the 2x2 replication bound and the int64 area budget depend on it).
    """
    if cell <= 0 or int(cell) * int(cell) >= 1 << 63:
        raise ValueError(f"rect_self_join: cell {cell} outside the exact-int64 area budget")
    c = np.int64(cell)

    def scatter(b: pa.Table) -> pa.Table:
        pid = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        blx = b[lx].to_numpy(zero_copy_only=False).astype(np.int64)
        bly = b[ly].to_numpy(zero_copy_only=False).astype(np.int64)
        bhx = b[hx].to_numpy(zero_copy_only=False).astype(np.int64)
        bhy = b[hy].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(pid):
            if (blx > bhx).any() or (bly > bhy).any():
                raise ValueError("rect_self_join: box with low > high")
            if ((bhx - blx) > c).any() or ((bhy - bly) > c).any():
                raise ValueError(
                    f"rect_self_join: box side exceeds cell {cell}; "
                    "the 2x2 replication bound requires sides <= cell"
                )
        clx = np.floor_divide(blx, c)
        cly = np.floor_divide(bly, c)
        chx = np.floor_divide(bhx, c)
        chy = np.floor_divide(bhy, c)
        frames = []
        for dx in (0, 1):
            for dy in (0, 1):
                cx = clx + dx
                cy = cly + dy
                keep = (cx <= chx) & (cy <= chy)
                frames.append(
                    pd.DataFrame(
                        {
                            "cx": cx[keep],
                            "cy": cy[keep],
                            "pid": pid[keep],
                            "lx": blx[keep],
                            "ly": bly[keep],
                            "hx": bhx[keep],
                            "hy": bhy[keep],
                        }
                    )
                )
        out = pd.concat(frames, ignore_index=True)
        # collision-free cell key: cells are within +-2^32 of origin
        # for e7 coordinates at any cell >= 1; cx/cy ride along so the
        # pair stage can apply the reference-point rule without
        # re-deriving them from the packed key
        cellk = out["cx"].to_numpy() * np.int64(1 << 32) + out["cy"].to_numpy()
        out["cell"] = cellk
        return pa.Table.from_pandas(out, preserve_index=False)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="cell", suffixes=("_a", "_b"))
        m = m[m["pid_a"] < m["pid_b"]]
        ix = np.maximum(m["lx_a"].to_numpy(dtype=np.int64), m["lx_b"].to_numpy(dtype=np.int64))
        iy = np.maximum(m["ly_a"].to_numpy(dtype=np.int64), m["ly_b"].to_numpy(dtype=np.int64))
        jx = np.minimum(m["hx_a"].to_numpy(dtype=np.int64), m["hx_b"].to_numpy(dtype=np.int64))
        jy = np.minimum(m["hy_a"].to_numpy(dtype=np.int64), m["hy_b"].to_numpy(dtype=np.int64))
        # intersect (closed boxes) AND reference point in THIS cell
        keep = (
            (ix <= jx)
            & (iy <= jy)
            & (np.floor_divide(ix, c) == m["cx_a"].to_numpy(dtype=np.int64))
            & (np.floor_divide(iy, c) == m["cy_a"].to_numpy(dtype=np.int64))
        )
        ix, iy, jx, jy = ix[keep], iy[keep], jx[keep], jy[keep]
        return pd.DataFrame(
            {
                "id_a": m["pid_a"].to_numpy(dtype=np.int64)[keep],
                "id_b": m["pid_b"].to_numpy(dtype=np.int64)[keep],
                "ix": ix,
                "iy": iy,
                "area": (jx - ix) * (jy - iy),
            }
        )

    return _per_key(boxes, ["cell"], pairs, stage=scatter)
