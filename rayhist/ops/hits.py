"""Distributed exact integer HITS (hubs & authorities) over a
bipartite edge Dataset.

Float HITS normalizes by an L2 norm every round — order-dependent and
irreproducible under distribution. This operator runs the Kleinberg
iteration in FIXED-POINT INTEGERS: each half-round is an exact integer
message sum along the DISTINCT edges (auth = sum of incident hub
scores, hub = sum of incident auth scores) followed by L1
renormalization to the ``scale`` budget by floor division
``(x * scale) // S`` — every quantity is an int64, every reduction a
sum of ints, so the scores are bit-identical at any parallelism and
the oracle is the same rounds unrolled as MATERIALIZED join-aggregate
CTEs (the pagerank contract).

Edge dedup rides the FIRST routing pass: edges route by their source
(hub), and because every copy of a (src, dst) pair lands in the same
bucket, an in-bucket distinct is globally exact — no separate
distinct shuffle.

Size gate (the bfs/triangles convention): when the distinct edge
count fits ``cc.BROADCAST_GATE`` (2M edges = tens of MB, the
bfs-visited-set budget), the deduped edge arrays are pulled once and
the rounds run as exact numpy/Python-int passes on the driver —
bit-identical to the distributed rounds (pinned equal with the gate
at 0 in tests/test_ops.py). Above the gate, one more shuffle makes every
distinct edge an adjacency row of its authority too, and each
half-round is ONE ``io.reduce_by_key`` over the cc.py bucket tables,
keyed by (side, node) so a customer and a part with the same id stay
apart: the stage renormalizes the sending side's scores and sends
them along its edges pre-summed per target, and the reduce sums them
into the receiving side's scores. The driver reads two scalars per
half-round (the sending node count for the overflow guard, the L1
total; one block task per bucket each); nothing corpus-sized
materializes above the gate.

Reference semantics: Kleinberg's HITS as used for bipartite
recommendation graphs (customers x parts here); the reference engine
has no link-analysis operator — this is a target-only addition
(SURVEY.md round-5 graph suite).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from . import cc
from .cc import ADJ, MSG, STATE, _cols, _count, _ints, _lookup, _np, _reduce_by, _rows, _sent

HUB, AUTH = 0, 1  # side of a bucket-table row: src (hub) or dst (authority) node


def _sided(side: int, kind: int, node, peer=None, val=None) -> pa.Table:
    t = _rows(kind, node, peer, val)
    return t.append_column("side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))


def _side(t: pa.Table) -> np.ndarray:
    return _np(t, "side")[0] if t.num_columns else np.empty(0, np.int8)


def _half_round(buckets: list, frm: int, scale: int, total: int | None) -> tuple[list, int]:
    """One message pass from side ``frm``: its scores, renormalized to
    ``scale`` by exact floor division against the previous L1
    ``total`` (None: the hubs' starting scores), travel along its
    edges and sum per node of the other side. The next bucket tables
    and their L1 total."""

    def send(t: pa.Table) -> pa.Table:
        node, peer, val, kind = _cols(t)
        side = _side(t)
        st = (kind == STATE) & (side == frm)
        if total is not None:
            val = np.where(st, (val * scale) // total, 0)
        hit, v = _sent(node, val, kind, st)
        hit &= side == frm
        tg, m = _reduce_by(peer[hit], v[hit], "sum")
        return pa.concat_tables([t.filter(kind == ADJ), _sided(1 - frm, MSG, tg, val=m)])

    def receive(t: pa.Table) -> pa.Table:
        node, _, val, kind = _cols(t)
        msg = kind == MSG
        tg, m = _reduce_by(node[msg], val[msg], "sum")
        nodes = np.unique(node[(kind == ADJ) & (_side(t) != frm)])
        return pa.concat_tables(
            [t.filter(~msg), _sided(1 - frm, STATE, nodes, val=_lookup(tg, m, nodes, 0))]
        )

    buckets = rio.reduce_by_key(buckets, ["side", "node"], receive, stage=send)
    sums = rio.map_blocks(buckets, lambda t: pa.table({"s": [int(_cols(t)[2].sum())]}))
    s = int(sums["s"].to_numpy().sum())
    if s <= 0:
        raise ValueError("hits: non-positive score total (empty graph?)")
    if s * scale >= 2**62:
        raise OverflowError("hits: normalization product exceeds the int64 bound")
    return buckets, s


def _rounds_local(
    s_arr: np.ndarray, d_arr: np.ndarray, iters: int, scale: int
) -> pd.DataFrame:
    """Below-gate path: the identical fixed-point rounds over the
    pulled distinct edge arrays — bincount message sums (exact int64,
    guarded) and Python-int floor-division normalization."""
    su, si = np.unique(s_arr, return_inverse=True)
    du, di = np.unique(d_arr, return_inverse=True)
    if len(su) * scale >= 2**62:  # first-round message sums are the peak
        raise OverflowError("hits: hub-count x scale exceeds the int64 bound")
    h = np.full(len(su), scale, dtype=np.int64)
    a = None
    for i in range(iters):
        # np.bincount sums in float; add.at keeps exact int64
        a = np.zeros(len(du), dtype=np.int64)
        np.add.at(a, di, h[si])
        s = int(a.sum())
        if s <= 0:
            raise ValueError("hits: non-positive score total (empty graph?)")
        if s * scale >= 2**62:
            raise OverflowError("hits: normalization product exceeds the int64 bound")
        a = (a * scale) // s
        if i < iters - 1:
            h = np.zeros(len(su), dtype=np.int64)
            np.add.at(h, si, a[di])
            s = int(h.sum())
            if s <= 0:
                raise ValueError("hits: non-positive score total (empty graph?)")
            if s * scale >= 2**62:
                raise OverflowError(
                    "hits: normalization product exceeds the int64 bound"
                )
            h = (h * scale) // s
    return pd.DataFrame({"node": du, "val": a})


def hits_bipartite(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
    iters: int = 2,
    scale: int = 1_000_000,
) -> pd.DataFrame:
    """(node, auth) authority scores on the ``dst`` side after
    ``iters`` exact integer HITS iterations over the directed
    bipartite edge multiset src -> dst (duplicates deduped in the
    routing pass). Hubs start at ``scale`` each."""
    if iters < 1:
        raise ValueError("hits_bipartite: iters must be >= 1")

    def route(b: pa.Table) -> pa.Table:
        return _sided(HUB, ADJ, _ints(b, src), _ints(b, dst))

    def dedupe(t: pa.Table) -> pa.Table:
        # every copy of (s, d) lands in this bucket -> globally exact
        node, peer, _, _ = _cols(t)
        t = t.filter(~pd.DataFrame({"node": node, "peer": peer}).duplicated().to_numpy())
        hubs = np.unique(_cols(t)[0])
        return pa.concat_tables([t, _sided(HUB, STATE, hubs, val=np.full(len(hubs), scale))])

    buckets = rio.reduce_by_key(edges, ["side", "node"], dedupe, stage=route)
    n_edges = _count(buckets, ADJ)
    if n_edges == 0:
        raise ValueError("hits: non-positive score total (empty graph?)")
    if n_edges <= cc.BROADCAST_GATE:
        e = rio.map_blocks(buckets, lambda t: t.filter(_cols(t)[3] == ADJ))
        out = _rounds_local(*_np(e, "node", "peer"), iters, scale)
        return out.sort_values("node").reset_index(drop=True).astype("int64")

    def mirror(t: pa.Table) -> pa.Table:  # each edge also joins its authority's bucket
        node, peer, _, kind = _cols(t)
        return pa.concat_tables([t, _sided(AUTH, ADJ, peer[kind == ADJ], node[kind == ADJ])])

    buckets = rio.reduce_by_key(buckets, ["side", "node"], lambda t: t, stage=mirror)
    frm, total = HUB, None
    for _ in range(2 * iters - 1):  # the last hub update would be unread
        # every score is <= scale (hubs start AT scale, renormalized
        # scores sum to <= scale), so a message sum is <= (sending
        # nodes) * scale: the same bound _rounds_local checks before its
        # first round; only the sending side has state rows
        if _count(buckets, STATE) * scale >= 2**62:
            raise OverflowError("hits: state-count x scale exceeds the int64 bound")
        buckets, total = _half_round(buckets, frm, scale, total)
        frm = 1 - frm

    def auth(t: pa.Table) -> pa.Table:
        return t.filter(_cols(t)[3] == STATE).select(["node", "val"])

    out = rio.map_blocks(buckets, auth).to_pandas().astype("int64")
    out["val"] = (out["val"].to_numpy() * scale) // total
    return out.sort_values("node").reset_index(drop=True)
