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

Edge dedup rides the FIRST routing pass: edges co-group by the
source-key bucket, and because every copy of a (src, dst) pair hashes
to the same bucket, an in-group ``drop_duplicates`` is globally exact
— no separate distinct shuffle.

Size gate (the bfs/triangles convention): when the distinct edge
count fits ``broadcast_gate`` (2M edges = tens of MB, the
bfs-visited-set budget), the deduped edge arrays are pulled once and
the rounds run as exact numpy/Python-int passes on the driver —
bit-identical to the distributed rounds (pinned equal at gate=0 in
tests/test_ops.py). Above the gate, each half-round is the cc.py
message shape: hub state unions with the bucket-routed edges
(complete keys per bucket), a vectorized merge emits one message per
edge, ``groupby(dst)`` sums per authority — one bucket shuffle plus
one key-cardinality groupby per half-round, and the only driver value
is the scalar L1 total (``Dataset.sum``). Nothing corpus-sized
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
import ray
import ray.data

from .window import _bucket_of, _resolve_buckets


def _half_round(
    edges: ray.data.Dataset,
    state: ray.data.Dataset,
    key: str,
    out_key: str,
    scale: int,
    n_buckets: int,
) -> ray.data.Dataset:
    """One message pass: attach ``state[val]`` to edges by ``key``
    (bucket co-group), emit one message per edge, sum per ``out_key``,
    and L1-renormalize to ``scale`` by exact floor division."""
    # every state value is <= scale (hubs start AT scale, renormalized
    # scores sum to <= scale), so a message sum is <= n_state * scale:
    # the same bound _rounds_local checks before its first round
    if state.count() * scale >= 2**62:
        raise OverflowError("hits: state-count x scale exceeds the int64 bound")

    def tag_edges(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": k,
                "o": b[out_key].to_numpy(zero_copy_only=False).astype(np.int64),
                "val": np.full(len(k), -1, dtype=np.int64),
                "_bucket": _bucket_of(k, n_buckets),
            }
        )

    def tag_state(b: pa.Table) -> pa.Table:
        k = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": k,
                "o": np.full(len(k), -1, dtype=np.int64),
                "val": b["val"].to_numpy(zero_copy_only=False).astype(np.int64),
                "_bucket": _bucket_of(k, n_buckets),
            }
        )

    def messages(g: pd.DataFrame) -> pd.DataFrame:
        ed = g[g["val"] < 0]
        st = g[g["val"] >= 0]
        m = ed[["k", "o"]].merge(st[["k", "val"]], on="k", how="left")
        if m["val"].isna().any():
            raise ValueError("hits: edge key with no state row (incomplete bucket)")
        p = m.groupby("o", as_index=False)["val"].sum()
        o = p["o"].to_numpy(dtype=np.int64)
        # route the partials by OUT-node bucket: the reduce below is a
        # 64-group co-group, never a native node-cardinality groupby
        # (a full sort shuffle — the measured wall at scale)
        return pd.DataFrame(
            {
                "node": o,
                "val": p["val"].to_numpy(dtype=np.int64),
                "_ob": _bucket_of(o, n_buckets),
            }
        )

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        p = g.groupby("node", as_index=False)["val"].sum()
        return p[["node", "val"]]

    raw = (
        edges.map_batches(tag_edges, batch_format="pyarrow")
        .union(state.map_batches(tag_state, batch_format="pyarrow"))
        .groupby("_bucket")
        .map_groups(messages, batch_format="pandas")
        .groupby("_ob")
        .map_groups(reduce_bucket, batch_format="pandas")
        .materialize()
    )
    s = int(raw.sum("val"))
    if s <= 0:
        raise ValueError("hits: non-positive score total (empty graph?)")
    if s * scale >= 2**62:
        raise OverflowError("hits: normalization product exceeds the int64 bound")

    def norm(b: pa.Table) -> pa.Table:
        v = b["val"].to_numpy(zero_copy_only=False)
        return pa.table({"node": b["node"], "val": (v * scale) // s})

    return raw.map_batches(norm, batch_format="pyarrow").materialize()


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
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 2,
    scale: int = 1_000_000,
    n_buckets: int | None = None,
    broadcast_gate: int = 2_000_000,
) -> pd.DataFrame:
    """(node, auth) authority scores on the ``dst`` side after
    ``iters`` exact integer HITS iterations over the directed
    bipartite edge multiset src -> dst (duplicates deduped in the
    routing pass). Hubs start at ``scale`` each."""
    if iters < 1:
        raise ValueError("hits_bipartite: iters must be >= 1")
    nb = _resolve_buckets(n_buckets, floor=64)

    def route(b: pa.Table) -> pa.Table:
        s = b[src].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "s": s,
                "d": b[dst].to_numpy(zero_copy_only=False).astype(np.int64),
                "_bucket": _bucket_of(s, nb),
            }
        )

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        # every copy of (s, d) hashes to this bucket -> globally exact
        return g[["s", "d", "_bucket"]].drop_duplicates(["s", "d"])

    ded = (
        edges.map_batches(route, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(dedupe, batch_format="pandas")
        .materialize()
    )
    if ded.count() == 0:
        raise ValueError("hits: non-positive score total (empty graph?)")
    if ded.count() <= broadcast_gate:
        df = ded.to_pandas()
        out = _rounds_local(
            df["s"].to_numpy(dtype=np.int64),
            df["d"].to_numpy(dtype=np.int64),
            iters,
            scale,
        )
        return out.sort_values("node").reset_index(drop=True).astype("int64")

    def init_h(g: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(g["s"].to_numpy(dtype=np.int64))
        return pd.DataFrame({"node": u, "val": np.full(len(u), scale, dtype=np.int64)})

    hubs = ded.groupby("_bucket").map_groups(init_h, batch_format="pandas").materialize()
    auth = None
    for i in range(iters):
        auth = _half_round(ded, hubs, "s", "d", scale, nb)
        if i < iters - 1:  # the last hub update would be unread
            hubs = _half_round(ded, auth, "d", "s", scale, nb)
    out = auth.to_pandas().astype({"node": "int64", "val": "int64"})
    return out.sort_values("node").reset_index(drop=True)
