"""Distributed exact triangle counting over an edge Dataset.

The classic compact-forward / degree-orientation algorithm expressed
as keyed shuffles (Latapy 2008; the MapReduce formulation is Suri &
Vassilvitskii 2011, "Counting Triangles and the Curse of the Last
Reducer"), each one ``io.reduce_by_key`` routed by real key columns:

- canonicalize + dedupe the undirected edge set (on ``(u, v)`` —
  duplicates would inflate counts);
- degrees (on ``node``): every node counts its adjacency and tells
  each neighbor its degree;
- wedges (on ``node`` again): every node knows its own degree and its
  neighbors', ORIENTS its edges from lower to higher endpoint under
  the total order ``ord(x) = (deg(x), x)``, and emits each pair of
  out-neighbors as a wedge plus each out-edge as a closing edge (the
  orientation bounds out-degree by O(sqrt(m)), which is exactly what
  defeats the "curse of the last reducer" on hot vertices);
- close (on the unordered pair ``(u, v)``): a wedge is a triangle iff
  its pair is an edge.

Every triangle {x,y,z} with ord(x) < ord(y) < ord(z) is generated
exactly once — as the wedge (y,z) emitted by x and closed by the edge
{y,z}. Total: four complete-key shuffles; nothing corpus-sized ever
reaches the driver (the result is one int64). Per-bucket memory is
O(bucket's edges + wedges); wedge volume is Sum_v C(outdeg(v), 2) <=
O(m^1.5) globally, spread across buckets.

Graphs whose deduped edge set fits ``cc.BROADCAST_GATE`` take the
broadcast fast path instead (two shuffles, in-stage closing test, no
wedge materialization) — see triangle_count's docstring; the two
paths are pinned equal in tests. Per-node and per-edge triangle counts
(``triangle_counts_per_node``, ``edge_triangle_support``) run the same
rank-relabeled wedge close.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from . import cc
from .cc import _ints, _np, _reduce_by

_SUPPORT = pa.schema([(c, pa.int64()) for c in ("u", "v", "deg_u", "deg_v", "cn")])


def _dedupe(edges, src: str, dst: str) -> rio.Blocks:
    """The buckets of the canonical distinct edge set (u < v)."""

    def canon(b: pa.Table) -> pa.Table:
        a, c = _ints(b, src), _ints(b, dst)
        u, v = np.minimum(a, c), np.maximum(a, c)
        keep = u != v
        return pa.table({"u": u[keep], "v": v[keep]})

    def distinct(t: pa.Table) -> pa.Table:
        return t.filter(~t.to_pandas().duplicated().to_numpy())

    return rio.reduce_by_key(edges, ["u", "v"], distinct, stage=canon)


def dedupe_edges(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
) -> rio.Blocks:
    """Canonical distinct undirected edge set: (u, v) with u < v,
    self-loops dropped, exactly one row per unordered pair. One
    shuffle on (u, v); per-bucket distinct."""
    return _dedupe(edges, src, dst)


def _pairs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs (i, j), i < j, within every run of equal ``s``
    (rows grouped by ``s``)."""
    n = len(s)
    if not n:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    starts = np.r_[0, np.flatnonzero(s[1:] != s[:-1]) + 1]
    ends = np.repeat(np.r_[starts[1:], n], np.diff(np.r_[starts, n]))
    reps = ends - np.arange(n) - 1  # later rows of the same run
    i = np.repeat(np.arange(n), reps)
    j = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps) + i + 1
    return i, j


class _Ranked:
    """The deduped edge set read to the driver (driver-sized under the
    gate), its nodes ascending with their degrees, and every node's
    rank under ord(x) = (deg(x), x): relabeling makes orientation and
    wedge order plain integer compares."""

    def __init__(self, e: list):
        uv = rio.blocks_table(e)
        u, v = _np(uv, "u", "v")
        self.nodes, self.deg = np.unique(np.concatenate([u, v]), return_counts=True)
        self.nv = len(self.nodes)
        self.rank = np.empty(self.nv, dtype=np.int64)
        self.rank[np.lexsort((self.nodes, self.deg))] = np.arange(self.nv, dtype=np.int64)
        s, t = self.oriented(u, v)
        # closing-edge key set: ranks are < |V| so s*|V| + t is exact
        # and collision-free in int64 for |V| < 3e9
        self.keys = np.sort(s * self.nv + t)

    def oriented(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ru = self.rank[np.searchsorted(self.nodes, u)]
        rv = self.rank[np.searchsorted(self.nodes, v)]
        return np.minimum(ru, rv), np.maximum(ru, rv)

    def closed(self, e: list, emit) -> list:
        """One shuffle on the oriented source ``s``: every bucket pairs
        the out-edges of each of its sources into wedges, tests each
        against the broadcast edge keys, and returns ``emit(src, a, b,
        s, t)`` over its triangles (ranks, src < a < b) and its
        oriented edges (s, t)."""

        def orient(b: pa.Table) -> pa.Table:
            s, t = self.oriented(*_np(b, "u", "v"))
            return pa.table({"s": s, "t": t})

        def close(b: pa.Table) -> pa.Table:
            s, t = _np(b, "s", "t")
            o = np.lexsort((t, s))
            s, t = s[o], t[o]
            i, j = _pairs(s)
            key = t[i] * self.nv + t[j]
            pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
            found = self.keys[pos] == key
            return emit(s[i][found], t[i][found], t[j][found], s, t)

        return rio.reduce_by_key(e, ["s"], close, stage=orient)


def triangle_count(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
) -> tuple[int, int]:
    """Exact (n_edges, n_triangles) of the undirected graph ``edges``
    (int64 endpoints; duplicates and self-loops tolerated — the edge
    set is canonicalized and deduped first).

    Size gate (the knn_queries/hotspot convention): a graph whose
    DEDUPED edge set fits ``cc.BROADCAST_GATE`` rows runs the broadcast
    fast path — the edge set read to the driver, nodes RELABELED by
    their (deg, id) rank so orientation and wedge order become plain
    integer compares, and the closing test an in-stage searchsorted
    against the broadcast edge-key set (|E| int64 keys, ~16 MB at the
    gate) — two shuffles total, no wedge materialization. Above the
    gate the fully distributed wedge join below runs (four shuffles,
    nothing driver-sized); the two paths are pinned equal in tests
    (a gate of 0 forces distributed)."""
    e = _dedupe(edges, src, dst)
    n_edges = rio.num_rows(e)
    if n_edges == 0:
        return 0, 0
    if n_edges <= cc.BROADCAST_GATE:
        closed = _Ranked(e).closed(e, lambda src, *_: pa.table({"n": [len(src)]}))
        return n_edges, int(rio.blocks_table(closed)["n"].to_numpy().sum())

    def explode(b: pa.Table) -> pa.Table:
        u, v = _np(b, "u", "v")
        return pa.table({"node": np.concatenate([u, v]), "peer": np.concatenate([v, u])})

    def tell_degree(t: pa.Table) -> pa.Table:
        node, peer = _np(t, "node", "peer")
        _, at, deg = np.unique(node, return_inverse=True, return_counts=True)
        return pa.table({"node": peer, "peer": node, "deg_peer": deg[at]})

    def wedges(t: pa.Table) -> pa.Table:
        # every row: (node y, neighbor x, deg x); deg y = y's row count
        y, x, dx = _np(t, "node", "peer", "deg_peer")
        _, at, dy = np.unique(y, return_inverse=True, return_counts=True)
        dy = dy[at]
        out = (dx > dy) | ((dx == dy) & (x > y))  # y -> x under ord = (deg, id)
        y, x, dx = y[out], x[out], dx[out]
        o = np.lexsort((x, dx, y))  # out-neighbors of each y in ord order
        y, x = y[o], x[o]
        i, j = _pairs(y)
        a, b = x[i], x[j]
        return pa.table(
            {
                "u": np.concatenate([np.minimum(a, b), np.minimum(y, x)]),
                "v": np.concatenate([np.maximum(a, b), np.maximum(y, x)]),
                "edge": np.repeat(np.array([0, 1], dtype=np.int8), [len(i), len(y)]),
            }
        )

    def close(t: pa.Table) -> pa.Table:
        # each pair has at most one closing-edge row
        df = t.to_pandas()
        edge = df.pop("edge") == 1
        return pa.table({"n": [len(df[~edge].merge(df[edge], on=["u", "v"]))]})

    told = rio.reduce_by_key(e, ["node"], tell_degree, stage=explode)
    closed = rio.reduce_by_key(rio.reduce_by_key(told, ["node"], wedges), ["u", "v"], close)
    return n_edges, int(rio.blocks_table(closed)["n"].to_numpy().sum())


def triangle_counts_per_node(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
) -> pd.DataFrame:
    """Per-node triangle participation counts (node, deg, n_triangles)
    — the LOCAL clustering numerator. Same rank-relabeled wedge close
    as triangle_count's fast path, with the wedge SOURCE carried
    through the close so each found triangle credits all three
    corners; per-bucket partial counts reduce to |V| rows. (Nodes on
    zero triangles still appear, with n_triangles = 0.)"""
    e = _dedupe(edges, src, dst)
    if rio.num_rows(e) == 0:
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in ("node", "deg", "n_triangles")})
    r = _Ranked(e)

    def corners(src, a, b, *_) -> pa.Table:
        rk, n = np.unique(np.concatenate([src, a, b]), return_counts=True)
        return pa.table({"rk": rk, "t_p": n.astype(np.int64)})

    parts = rio.blocks_table(r.closed(e, corners))
    rk, n = _reduce_by(*_np(parts, "rk", "t_p"), "sum")
    tri = np.zeros(r.nv, dtype=np.int64)
    tri[rk] = n
    # node i (ascending-id order) holds rank rank[i] -> count tri[rank[i]]
    return pd.DataFrame({"node": r.nodes, "deg": r.deg, "n_triangles": tri[r.rank]})


def edge_triangle_support(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
) -> rio.Blocks:
    """Per-EDGE triangle support — the k-truss / link-prediction
    primitive: for every distinct undirected edge (u, v), the number
    of common neighbors cn = |N(u) ∩ N(v)| (= triangles through the
    edge), plus both endpoint degrees. Returns the blocks of
    (u, v, deg_u, deg_v, cn) rows, u < v by node id.

    Same rank-relabeled wedge close as triangle_counts_per_node (the
    documented size-gated graph-family design; nv-sized node / rank /
    degree arrays are broadcast): each triangle is found exactly once
    as a closed wedge and credits its THREE edges in rank space, and
    every bucket also emits its own edges with zero credit, so
    zero-support edges survive with cn = 0. The credits sum per
    rank-pair key ``ek`` in one ``finish``: on the driver at or below
    ``cc.BROADCAST_GATE`` deduped edges (|E|-bounded, same budget as the
    broadcast edge-key set), in one shuffle on ``ek`` above it (pinned
    equal in tests with the gate at 0)."""
    e = _dedupe(edges, src, dst)
    n_edges = rio.num_rows(e)
    if n_edges == 0:
        return rio.table_blocks(_SUPPORT.empty_table())
    r = _Ranked(e)
    nv = np.int64(r.nv)
    node_of_rank = np.empty(r.nv, dtype=np.int64)
    node_of_rank[r.rank] = r.nodes
    deg_of_rank = np.empty(r.nv, dtype=np.int64)
    deg_of_rank[r.rank] = r.deg

    def credit(src, a, b, s, t) -> pa.Table:
        # three edges per triangle, already rank-canonical (src < a < b),
        # and the bucket's own edges with zero credit
        ek = np.concatenate([src * nv + a, src * nv + b, a * nv + b, s * nv + t])
        return pa.table({"ek": ek, "cn_p": (np.arange(len(ek)) < 3 * len(src)).astype(np.int64)})

    def finish(t: pa.Table) -> pa.Table:
        ek, cn = _reduce_by(*_np(t, "ek", "cn_p"), "sum")
        s, tt = ek // nv, ek % nv
        nu, nw = node_of_rank[s], node_of_rank[tt]
        lo = nu <= nw
        return pa.table(
            {
                "u": np.minimum(nu, nw),
                "v": np.maximum(nu, nw),
                "deg_u": np.where(lo, deg_of_rank[s], deg_of_rank[tt]),
                "deg_v": np.where(lo, deg_of_rank[tt], deg_of_rank[s]),
                "cn": cn,
            },
            schema=_SUPPORT,
        )

    credits = r.closed(e, credit)
    if n_edges <= cc.BROADCAST_GATE:
        return rio.table_blocks(finish(rio.blocks_table(credits)))
    return rio.reduce_by_key(credits, ["ek"], finish)
