"""STR-packed R-tree (Sort-Tile-Recursive bulk load) — the literal
JTS structure the reference holds per worker
(``oshdb-api/.../GeometrySplitter.java:36-60``: ``new STRtree()`` over
sub-region envelopes, ``query(env)`` for candidates). Independent
numpy implementation of the published STR algorithm (Leutenegger,
Lopez & Edgington, ICDE 1997):

bulk load: sort rectangles by center-x, slice into ceil(sqrt(n/M))
vertical strips, sort each strip by center-y, pack runs of M as
leaves; repeat on the leaf MBRs until one root remains.

Query is LEVEL-SYNCHRONOUS and vectorized across the whole point
batch: a frontier of (point, node) pairs expands one level per pass
with numpy repeat/containment masks — no per-point recursion, so a
million-point batch costs O(depth) array passes. This is the
candidate stage; exact polygon tests run after, per region, over its
candidate points (same contract as RegionIndex.classify, which
remains the grid-bucketed alternative — two indexes, one oracle).

A query builds the tree once on the driver and captures it in its
stage function (``io.map_blocks`` ships it once per query); each block
is classified with ``STRtreeRegionIndex.classify``.
"""

from __future__ import annotations

import numpy as np

from .fip import Polygon

NODE_CAP = 16


class STRtree:
    """Static packed R-tree over (n, 4) rectangles [x0, y0, x1, y1]."""

    def __init__(self, rects: np.ndarray, node_cap: int = NODE_CAP):
        rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
        self.node_cap = node_cap
        n = len(rects)
        # levels[0] = entry rects in packed order; entry_ids maps
        # packed position -> caller's rect index
        if n == 0:
            self.levels: list[np.ndarray] = [np.zeros((0, 4))]
            self.entry_ids = np.zeros(0, dtype=np.int64)
            self.starts: list[np.ndarray] = []
            return
        order = self._str_order(rects, node_cap)
        self.entry_ids = order
        self.levels = [rects[order]]
        self.starts = []  # starts[k]: child start offsets of level k+1's nodes
        while len(self.levels[-1]) > 1:
            child = self.levels[-1]
            m = len(child)
            n_nodes = (m + node_cap - 1) // node_cap
            starts = np.arange(n_nodes) * node_cap
            ends = np.minimum(starts + node_cap, m)
            parent = np.empty((n_nodes, 4))
            # parent MBR per packed run (children are contiguous)
            for k in range(n_nodes):
                c = child[starts[k] : ends[k]]
                parent[k] = (c[:, 0].min(), c[:, 1].min(), c[:, 2].max(), c[:, 3].max())
            self.starts.append(starts)
            self.levels.append(parent)

    @staticmethod
    def _str_order(rects: np.ndarray, node_cap: int) -> np.ndarray:
        cx = (rects[:, 0] + rects[:, 2]) * 0.5
        cy = (rects[:, 1] + rects[:, 3]) * 0.5
        n = len(rects)
        n_leaves = (n + node_cap - 1) // node_cap
        n_strips = int(np.ceil(np.sqrt(n_leaves)))
        by_x = np.argsort(cx, kind="mergesort")
        strip_len = n_strips * node_cap
        out = np.empty(n, dtype=np.int64)
        pos = 0
        for s in range(0, n, strip_len):
            strip = by_x[s : s + strip_len]
            strip = strip[np.argsort(cy[strip], kind="mergesort")]
            out[pos : pos + len(strip)] = strip
            pos += len(strip)
        return out

    def query_points(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (point_idx, rect_idx) pairs where the point lies inside
        the rectangle (closed bounds). Level-synchronous frontier
        expansion, vectorized across points."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(self.levels[-1]) == 0 or len(x) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # frontier: every point against the root
        pid = np.arange(len(x), dtype=np.int64)
        nid = np.zeros(len(x), dtype=np.int64)
        root = self.levels[-1][0]
        keep = (x >= root[0]) & (y >= root[1]) & (x <= root[2]) & (y <= root[3])
        pid, nid = pid[keep], nid[keep]
        for lvl in range(len(self.levels) - 1, 0, -1):
            child = self.levels[lvl - 1]
            starts = self.starts[lvl - 1]
            s = starts[nid]
            cnt = np.minimum(s + self.node_cap, len(child)) - s
            rep_p = np.repeat(pid, cnt)
            offs = np.arange(len(rep_p)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            cand = np.repeat(s, cnt) + offs
            r = child[cand]
            hit = (
                (x[rep_p] >= r[:, 0])
                & (y[rep_p] >= r[:, 1])
                & (x[rep_p] <= r[:, 2])
                & (y[rep_p] <= r[:, 3])
            )
            pid, nid = rep_p[hit], cand[hit]
        return pid, self.entry_ids[nid]


class STRtreeRegionIndex:
    """Many-region point classifier: STRtree candidates -> exact
    crossing-number test, grouped per region (one vectorized contains
    per region over its candidate points)."""

    def __init__(self, regions: list[tuple[str, list[np.ndarray]]], node_cap: int = NODE_CAP):
        self.rids: list[str] = []
        self.polys: list[Polygon] = []
        rects = []
        for rid, rings in regions:
            poly = Polygon([np.asarray(r, dtype=np.float64) for r in rings])
            self.rids.append(rid)
            self.polys.append(poly)
            rects.append(poly.bbox)
        self.tree = STRtree(np.asarray(rects, dtype=np.float64).reshape(-1, 4), node_cap)

    def classify(self, lon_e7: np.ndarray, lat_e7: np.ndarray):
        x = lon_e7.astype(np.float64)
        y = lat_e7.astype(np.float64)
        pid, rix = self.tree.query_points(x, y)
        row_parts, rid_parts = [], []
        order = np.argsort(rix, kind="mergesort")
        pid, rix = pid[order], rix[order]
        uniq, starts = np.unique(rix, return_index=True)
        ends = np.r_[starts[1:], len(rix)]
        for r, s, e in zip(uniq, starts, ends):
            rows = pid[s:e]
            hit = self.polys[int(r)].contains(x[rows], y[rows])
            sub = rows[hit]
            row_parts.append(sub)
            rid_parts.append(np.full(len(sub), self.rids[int(r)], dtype=object))
        if not row_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=object)
        return np.concatenate(row_parts).astype(np.int64), np.concatenate(rid_parts)

