"""Distributed exact triangle counting over an edge Dataset.

The classic compact-forward / degree-orientation algorithm expressed
as bucket shuffles (Latapy 2008; the MapReduce formulation is Suri &
Vassilvitskii 2011, "Counting Triangles and the Curse of the Last
Reducer"):

- canonicalize + dedupe the undirected edge set (one pair-hash bucket
  shuffle — duplicates would inflate counts);
- compute degrees (one node-bucket shuffle) and ORIENT every edge from
  its lower endpoint to its higher endpoint under the total order
  ``ord(x) = (deg(x), x)`` — two attach shuffles;
- generate wedges per oriented source (one source-bucket shuffle; the
  orientation bounds out-degree by O(sqrt(m)), which is exactly what
  defeats the "curse of the last reducer" on hot vertices);
- close wedges against the oriented edge set (one pair-bucket co-group)
  and sum matches.

Every triangle {x,y,z} with ord(x) < ord(y) < ord(z) is generated
exactly once — as the wedge (y,z) emitted by source x and closed by
the oriented edge y->z. Total: six bounded complete-key bucket
shuffles; nothing corpus-sized ever reaches the driver (the result is
one int64). Per-bucket memory is O(bucket's edges + wedges); wedge
volume is Sum_v C(outdeg(v), 2) <= O(m^1.5) globally, spread across
buckets.

Graphs whose deduped edge set fits ``broadcast_gate`` take the
broadcast fast path instead (two shuffles, in-stage closing test) —
see triangle_count's docstring; the two paths are pinned equal in
tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .window import _bucket_of, _resolve_buckets


def _pair_key(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Collision-free int64 pair key for bucket routing ONLY (bucket
    routing tolerates collisions; the in-bucket compares use the real
    (u, v) columns). fmix-style mix of the two halves."""
    h = u.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + v.astype(np.uint64)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return h.astype(np.int64)


def dedupe_edges(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int | None = None,
) -> ray.data.Dataset:
    """Canonical distinct undirected edge set: (u, v) with u < v,
    self-loops dropped, exactly one row per unordered pair. One
    pair-hash bucket shuffle; per-bucket distinct."""
    n_buckets = _resolve_buckets(n_buckets, floor=64)

    def canon(b: pa.Table) -> pa.Table:
        a = b[src].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.minimum(a, c)
        v = np.maximum(a, c)
        keep = u != v
        u, v = u[keep], v[keep]
        return pa.table(
            {"u": u, "v": v, "_bucket": _bucket_of(_pair_key(u, v), n_buckets)}
        )

    def uniq(g: pd.DataFrame) -> pd.DataFrame:
        return g[["u", "v"]].drop_duplicates()

    return (
        edges.map_batches(canon, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(uniq, batch_format="pandas")
    )


def triangle_count(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int | None = None,
    broadcast_gate: int = 2_000_000,
) -> tuple[int, int]:
    """Exact (n_edges, n_triangles) of the undirected graph ``edges``
    (int64 endpoints; duplicates and self-loops tolerated — the edge
    set is canonicalized and deduped first).

    Size gate (the knn_queries/hotspot convention): a graph whose
    DEDUPED edge set fits ``broadcast_gate`` rows runs the broadcast
    fast path — degrees from per-batch partials combined at the
    driver, nodes RELABELED by their (deg, id) rank so orientation and
    wedge order become plain integer compares, and the closing test an
    in-stage searchsorted against the ray.put edge-key set (|E| int64
    keys, ~16 MB at the gate) — two shuffles total, no wedge
    materialization. Above the gate the fully distributed wedge join
    below runs (six shuffles, nothing driver-sized); the two paths are
    pinned equal in tests (gate=0 forces distributed)."""
    n_buckets = _resolve_buckets(n_buckets, floor=64)
    e = dedupe_edges(edges, src, dst, n_buckets).materialize()
    n_edges = e.count()
    if n_edges == 0:
        return 0, 0
    if n_edges <= broadcast_gate:
        return n_edges, _triangles_broadcast(e, n_buckets)

    # degrees: explode endpoints, node-bucket shuffle, per-bucket count
    def explode(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        n = np.concatenate([u, v])
        return pa.table({"node": n, "_bucket": _bucket_of(n, n_buckets)})

    def count_deg(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["node"].value_counts()
        return pd.DataFrame(
            {"node": vc.index.to_numpy(dtype=np.int64), "deg": vc.to_numpy(dtype=np.int64)}
        )

    degs = (
        e.map_batches(explode, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(count_deg, batch_format="pandas")
        .materialize()
    )

    # attach deg to each endpoint: co-group edge rows with degree rows
    # by the endpoint's node bucket (edge rows carry a null deg, degree
    # rows a null peer — the cc.py union-one-schema pattern)
    def attach(ds: ray.data.Dataset, node_col: str, out: str) -> ray.data.Dataset:
        other = "v" if node_col == "u" else "u"

        def tag_edge(b: pa.Table) -> pa.Table:
            n = b[node_col].to_numpy(zero_copy_only=False)
            cols = {
                "node": b[node_col],
                "peer": b[other],
                "deg": pa.nulls(len(b), type=pa.int64()),
                "_bucket": pa.array(_bucket_of(n, n_buckets)),
            }
            if "deg_u" in ds.schema().names:  # second attach keeps the first
                cols["deg_u"] = b["deg_u"]
            return pa.table(cols)

        def tag_deg(b: pa.Table) -> pa.Table:
            n = b["node"].to_numpy(zero_copy_only=False)
            cols = {
                "node": b["node"],
                "peer": pa.nulls(len(b), type=pa.int64()),
                "deg": b["deg"],
                "_bucket": pa.array(_bucket_of(n, n_buckets)),
            }
            if "deg_u" in ds.schema().names:
                cols["deg_u"] = pa.nulls(len(b), type=pa.int64())
            return pa.table(cols)

        carry = ["deg_u"] if "deg_u" in ds.schema().names else []

        def join(g: pd.DataFrame) -> pd.DataFrame:
            dg = g[g["peer"].isna()]
            eg = g[g["peer"].notna()]
            lut = pd.Series(
                dg["deg"].to_numpy(dtype=np.int64),
                index=dg["node"].to_numpy(dtype=np.int64),
            )
            out_df = pd.DataFrame(
                {
                    node_col: eg["node"].to_numpy(dtype=np.int64),
                    other: eg["peer"].to_numpy(dtype=np.int64),
                    out: lut[eg["node"].to_numpy(dtype=np.int64)].to_numpy(),
                }
            )
            for c in carry:
                out_df[c] = eg[c].to_numpy(dtype=np.int64)
            return out_df

        both = ds.map_batches(tag_edge, batch_format="pyarrow").union(
            degs.map_batches(tag_deg, batch_format="pyarrow")
        )
        return both.groupby("_bucket").map_groups(join, batch_format="pandas")

    e2 = attach(attach(e, "u", "deg_u"), "v", "deg_v").materialize()

    # orient low ord -> high ord under ord(x) = (deg(x), x), then group
    # wedges by source (complete-by-source bucket)
    def orient(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False)
        v = b["v"].to_numpy(zero_copy_only=False)
        du = b["deg_u"].to_numpy(zero_copy_only=False)
        dv = b["deg_v"].to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        s = np.where(u_first, u, v)
        t = np.where(u_first, v, u)
        st = np.where(u_first, dv, du)  # ord of the TARGET, for wedge ordering
        return pa.table(
            {"s": s, "t": t, "dt": st, "_bucket": _bucket_of(s, n_buckets)}
        )

    oriented = e2.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # per source, targets sorted by ord = (deg, id); emit ordered
        # pairs (a, b) with ord(a) < ord(b) — vectorized via a bounded
        # in-source self-merge (out-degree is O(sqrt(m)) by orientation)
        g = g.sort_values(["s", "dt", "t"], kind="mergesort")
        g = g.assign(_r=g.groupby("s", sort=False).cumcount())
        m = g.merge(g, on="s", suffixes=("_a", "_b"))
        m = m[m["_r_a"] < m["_r_b"]]
        if m.empty:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"a": m["t_a"].to_numpy(dtype=np.int64), "b": m["t_b"].to_numpy(dtype=np.int64)}
        )

    w = oriented.groupby("_bucket").map_groups(wedges, batch_format="pandas")

    # close: a wedge (a, b) with ord(a) < ord(b) is a triangle iff the
    # oriented edge a->b exists; co-group by pair bucket and count
    def tag_wedge(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        c = b["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": a,
                "b": c,
                "_is_edge": np.zeros(len(a), dtype=np.int64),
                "_bucket": _bucket_of(_pair_key(a, c), n_buckets),
            }
        )

    def tag_closing(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        t = b["t"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": s,
                "b": t,
                "_is_edge": np.ones(len(s), dtype=np.int64),
                "_bucket": _bucket_of(_pair_key(s, t), n_buckets),
            }
        )

    def close(g: pd.DataFrame) -> pd.DataFrame:
        eg = g[g["_is_edge"] == 1]
        wg = g[g["_is_edge"] == 0]
        if eg.empty or wg.empty:
            return pd.DataFrame({"n": pd.Series(dtype="int64")})
        m = wg.merge(eg[["a", "b"]], on=["a", "b"], how="inner")
        return pd.DataFrame({"n": [np.int64(len(m))]})

    both = w.map_batches(tag_wedge, batch_format="pyarrow").union(
        oriented.map_batches(tag_closing, batch_format="pyarrow")
    )
    closed = both.groupby("_bucket").map_groups(close, batch_format="pandas")
    n_tri = closed.sum("n")
    return int(n_edges), int(n_tri or 0)


def _triangles_broadcast(e: ray.data.Dataset, n_buckets: int) -> int:
    """Gated fast path: see triangle_count's docstring. ``e`` is the
    materialized deduped canonical edge Dataset (u < v)."""
    import ray as _ray

    # degrees via per-batch partials + driver combine (|V| <= 2|E|,
    # driver-sized under the gate)
    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnt = np.unique(n, return_counts=True)
        return pa.table({"node": nodes, "d_p": cnt.astype(np.int64)})

    parts = e.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
    degs = parts.groupby("node", as_index=False)["d_p"].sum()
    nodes = degs["node"].to_numpy(dtype=np.int64)  # ascending (groupby sorts)
    dvals = degs["d_p"].to_numpy(dtype=np.int64)
    nv = len(nodes)
    # rank under ord(x) = (deg(x), x): relabeling makes orientation and
    # wedge order plain < on ranks
    rank = np.empty(nv, dtype=np.int64)
    rank[np.lexsort((nodes, dvals))] = np.arange(nv, dtype=np.int64)
    nodes_ref = _ray.put(nodes)
    rank_ref = _ray.put(rank)

    def orient(b: pa.Table) -> pa.Table:
        nd, rk = _ray.get(nodes_ref), _ray.get(rank_ref)
        ru = rk[np.searchsorted(nd, b["u"].to_numpy(zero_copy_only=False))]
        rv = rk[np.searchsorted(nd, b["v"].to_numpy(zero_copy_only=False))]
        s = np.minimum(ru, rv)
        t = np.maximum(ru, rv)
        return pa.table({"s": s, "t": t, "_bucket": _bucket_of(s, n_buckets)})

    oriented = e.map_batches(orient, batch_format="pyarrow").materialize()
    # closing-edge key set: ranks are < |V| so s*|V| + t is exact and
    # collision-free in int64 for |V| < 3e9
    opd = oriented.to_pandas()  # |E| rows, driver-sized under the gate
    keys = np.sort(
        opd["s"].to_numpy(dtype=np.int64) * nv + opd["t"].to_numpy(dtype=np.int64)
    )
    keys_ref = _ray.put(keys)

    def wedges_close(g: pd.DataFrame) -> pd.DataFrame:
        k = _ray.get(keys_ref)
        g = g.sort_values(["s", "t"], kind="mergesort")
        g = g.assign(_r=g.groupby("s", sort=False).cumcount())
        m = g.merge(g, on="s", suffixes=("_a", "_b"))
        m = m[m["_r_a"] < m["_r_b"]]
        if m.empty:
            return pd.DataFrame({"n": pd.Series(dtype="int64")})
        key = m["t_a"].to_numpy(dtype=np.int64) * nv + m["t_b"].to_numpy(dtype=np.int64)
        pos = np.searchsorted(k, key)
        found = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == key)
        return pd.DataFrame({"n": [np.int64(found.sum())]})

    closed = oriented.groupby("_bucket").map_groups(wedges_close, batch_format="pandas")
    return int(closed.sum("n") or 0)


def triangle_counts_per_node(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int | None = None,
) -> pd.DataFrame:
    """Per-node triangle participation counts (node, deg, n_triangles)
    — the LOCAL clustering numerator. Same gated broadcast machinery
    as triangle_count's fast path, with the wedge SOURCE carried
    through the close so each found triangle credits all three
    corners; per-bucket partial counts reduce to |V| rows. (Nodes on
    zero triangles still appear, with n_triangles = 0.)"""
    n_buckets = _resolve_buckets(n_buckets, floor=64)
    e = dedupe_edges(edges, src, dst, n_buckets).materialize()
    if e.count() == 0:
        return pd.DataFrame(
            {
                "node": pd.Series(dtype="int64"),
                "deg": pd.Series(dtype="int64"),
                "n_triangles": pd.Series(dtype="int64"),
            }
        )
    import ray as _ray

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnt = np.unique(n, return_counts=True)
        return pa.table({"node": nodes, "d_p": cnt.astype(np.int64)})

    degs = (
        e.map_batches(deg_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("node")["d_p"]
        .sum()
        .sort_index()
    )
    nodes = degs.index.to_numpy(dtype=np.int64)
    dvals = degs.to_numpy(dtype=np.int64)
    nv = len(nodes)
    rank = np.empty(nv, dtype=np.int64)
    rank[np.lexsort((nodes, dvals))] = np.arange(nv, dtype=np.int64)
    nodes_ref = _ray.put(nodes)
    rank_ref = _ray.put(rank)

    def orient(b: pa.Table) -> pa.Table:
        nd, rk = _ray.get(nodes_ref), _ray.get(rank_ref)
        ru = rk[np.searchsorted(nd, b["u"].to_numpy(zero_copy_only=False))]
        rv = rk[np.searchsorted(nd, b["v"].to_numpy(zero_copy_only=False))]
        s = np.minimum(ru, rv)
        t = np.maximum(ru, rv)
        return pa.table({"s": s, "t": t, "_bucket": _bucket_of(s, n_buckets)})

    oriented = e.map_batches(orient, batch_format="pyarrow").materialize()
    opd = oriented.to_pandas()
    keys = np.sort(
        opd["s"].to_numpy(dtype=np.int64) * nv + opd["t"].to_numpy(dtype=np.int64)
    )
    keys_ref = _ray.put(keys)

    def wedges_close(g: pd.DataFrame) -> pd.DataFrame:
        k = _ray.get(keys_ref)
        g = g.sort_values(["s", "t"], kind="mergesort")
        g = g.assign(_r=g.groupby("s", sort=False).cumcount())
        m = g.merge(g, on="s", suffixes=("_a", "_b"))
        m = m[m["_r_a"] < m["_r_b"]]
        if m.empty:
            return pd.DataFrame({"rk": pd.Series(dtype="int64"), "t_p": pd.Series(dtype="int64")})
        key = m["t_a"].to_numpy(dtype=np.int64) * nv + m["t_b"].to_numpy(dtype=np.int64)
        pos = np.searchsorted(k, key)
        found = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == key)
        corners = np.concatenate(
            [
                m["s"].to_numpy(dtype=np.int64)[found],
                m["t_a"].to_numpy(dtype=np.int64)[found],
                m["t_b"].to_numpy(dtype=np.int64)[found],
            ]
        )
        rk_u, cnt = np.unique(corners, return_counts=True)
        return pd.DataFrame({"rk": rk_u, "t_p": cnt.astype(np.int64)})

    parts = (
        oriented.groupby("_bucket")
        .map_groups(wedges_close, batch_format="pandas")
        .to_pandas()
    )
    per_rank = parts.groupby("rk")["t_p"].sum() if len(parts) else pd.Series(dtype="int64")
    tri = np.zeros(nv, dtype=np.int64)
    if len(per_rank):
        tri[per_rank.index.to_numpy(dtype=np.int64)] = per_rank.to_numpy(dtype=np.int64)
    # node i (ascending-id order) holds rank rank[i] -> count tri[rank[i]]
    out = pd.DataFrame(
        {"node": nodes, "deg": dvals, "n_triangles": tri[rank]}
    )
    return out.sort_values("node").reset_index(drop=True)


def edge_triangle_support(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_buckets: int | None = None,
    broadcast_gate: int = 2_000_000,
) -> ray.data.Dataset:
    """Per-EDGE triangle support — the k-truss / link-prediction
    primitive: for every distinct undirected edge (u, v), the number
    of common neighbors cn = |N(u) ∩ N(v)| (= triangles through the
    edge), plus both endpoint degrees. Returns a DATASET of
    (u, v, deg_u, deg_v, cn) rows, u < v by node id.

    Same rank-relabeled broadcast path as triangle_counts_per_node
    (the documented size-gated graph-family design; nv-sized node /
    rank / degree arrays ride ray.put): each triangle is found exactly
    once as a closed wedge and credits its THREE edges in rank space.
    At or below ``broadcast_gate`` deduped edges the per-bucket credit
    PARTIALS reduce at the driver (|E|-bounded, same budget as the
    ray.put edge-key set already in flight) and join the edge table
    there — no extra shuffle rounds. Above the gate the credits reduce
    in a distributed groupby on the int64 rank-pair key and the
    support table left-joins back with the partitioned hash join —
    zero-support edges survive with cn = 0 on both paths (pinned equal
    in tests via gate=0)."""
    from .relational import hash_join

    n_buckets = _resolve_buckets(n_buckets, floor=64)
    e = dedupe_edges(edges, src, dst, n_buckets).materialize()
    empty = pa.table(
        {
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "deg_u": pa.array([], pa.int64()),
            "deg_v": pa.array([], pa.int64()),
            "cn": pa.array([], pa.int64()),
        }
    )
    if e.count() == 0:
        return ray.data.from_arrow(empty)
    import ray as _ray

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnt = np.unique(n, return_counts=True)
        return pa.table({"node": nodes, "d_p": cnt.astype(np.int64)})

    degs = (
        e.map_batches(deg_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("node")["d_p"]
        .sum()
        .sort_index()
    )
    nodes = degs.index.to_numpy(dtype=np.int64)
    dvals = degs.to_numpy(dtype=np.int64)
    nv = len(nodes)
    rank = np.empty(nv, dtype=np.int64)
    rank[np.lexsort((nodes, dvals))] = np.arange(nv, dtype=np.int64)
    node_of_rank = np.empty(nv, dtype=np.int64)
    node_of_rank[rank] = nodes
    deg_of_rank = np.empty(nv, dtype=np.int64)
    deg_of_rank[rank] = dvals
    nodes_ref = _ray.put(nodes)
    rank_ref = _ray.put(rank)
    inv_ref = _ray.put(node_of_rank)
    dor_ref = _ray.put(deg_of_rank)

    def orient(b: pa.Table) -> pa.Table:
        nd, rk = _ray.get(nodes_ref), _ray.get(rank_ref)
        ru = rk[np.searchsorted(nd, b["u"].to_numpy(zero_copy_only=False))]
        rv = rk[np.searchsorted(nd, b["v"].to_numpy(zero_copy_only=False))]
        s = np.minimum(ru, rv)
        t = np.maximum(ru, rv)
        return pa.table({"s": s, "t": t, "_bucket": _bucket_of(s, n_buckets)})

    oriented = e.map_batches(orient, batch_format="pyarrow").materialize()
    opd = oriented.to_pandas()
    keys = np.sort(
        opd["s"].to_numpy(dtype=np.int64) * nv + opd["t"].to_numpy(dtype=np.int64)
    )
    keys_ref = _ray.put(keys)

    def wedges_credit(g: pd.DataFrame) -> pd.DataFrame:
        k = _ray.get(keys_ref)
        g = g.sort_values(["s", "t"], kind="mergesort")
        g = g.assign(_r=g.groupby("s", sort=False).cumcount())
        m = g.merge(g, on="s", suffixes=("_a", "_b"))
        m = m[m["_r_a"] < m["_r_b"]]
        if m.empty:
            return pd.DataFrame({"ek": pd.Series(dtype="int64"), "cn_p": pd.Series(dtype="int64")})
        key = m["t_a"].to_numpy(dtype=np.int64) * nv + m["t_b"].to_numpy(dtype=np.int64)
        pos = np.searchsorted(k, key)
        found = (pos < len(k)) & (k[np.minimum(pos, len(k) - 1)] == key)
        s_f = m["s"].to_numpy(dtype=np.int64)[found]
        ta = m["t_a"].to_numpy(dtype=np.int64)[found]
        tb = m["t_b"].to_numpy(dtype=np.int64)[found]
        # three edges per triangle, already rank-canonical (s < t_a < t_b)
        eks = np.concatenate([s_f * nv + ta, s_f * nv + tb, ta * nv + tb])
        u_ek, cnt = np.unique(eks, return_counts=True)
        return pd.DataFrame({"ek": u_ek, "cn_p": cnt.astype(np.int64)})

    credits = oriented.groupby("_bucket").map_groups(
        wedges_credit, batch_format="pandas"
    )

    if len(opd) <= broadcast_gate:
        # |E|-bounded driver final: per-bucket partials collapse to one
        # row per supported edge; the edge table (opd) is already here
        parts = credits.to_pandas()
        sup = (
            parts.groupby("ek")["cn_p"].sum()
            if len(parts)
            else pd.Series(dtype="int64")
        )
        s = opd["s"].to_numpy(dtype=np.int64)
        t = opd["t"].to_numpy(dtype=np.int64)
        ek = s * np.int64(nv) + t
        cn = np.zeros(len(ek), dtype=np.int64)
        if len(sup):
            sk = sup.index.to_numpy(dtype=np.int64)
            pos = np.searchsorted(sk, ek)
            hit = (pos < len(sk)) & (sk[np.minimum(pos, len(sk) - 1)] == ek)
            cn[hit] = sup.to_numpy(dtype=np.int64)[pos[hit]]
        nu, nvv = node_of_rank[s], node_of_rank[t]
        lo = np.minimum(nu, nvv)
        out = pa.table(
            {
                "u": lo,
                "v": np.maximum(nu, nvv),
                "deg_u": np.where(nu <= nvv, deg_of_rank[s], deg_of_rank[t]),
                "deg_v": np.where(nu <= nvv, deg_of_rank[t], deg_of_rank[s]),
                "cn": cn,
            }
        )
        return ray.data.from_arrow(out)

    # materialize the |E|-bounded support table: hash_join reads both
    # schemas up front, and a lazy groupby-sum plan can report schema
    # None under constrained clusters (observed at the 6M-edge stress
    # level with 2 cpus) — blocks stay in the object store either way
    support = credits.groupby("ek").sum("cn_p").materialize()

    def edge_rows(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        t = b["t"].to_numpy(zero_copy_only=False)
        return pa.table({"ek": s * np.int64(nv) + t})

    if support.count() == 0:
        # triangle-free graph: an all-empty map_groups output has no
        # schema for hash_join to read — emit cn=0 rows directly
        joined = oriented.map_batches(edge_rows, batch_format="pyarrow")
    else:
        joined = hash_join(
            oriented.map_batches(edge_rows, batch_format="pyarrow"),
            support,
            on="ek",
            how="left",
        )

    def finish(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return empty
        inv, dor = _ray.get(inv_ref), _ray.get(dor_ref)
        ek = b["ek"].to_numpy(zero_copy_only=False).astype(np.int64)
        s, t = ek // nv, ek % nv
        if "sum(cn_p)" in b.column_names:
            cn = b["sum(cn_p)"].to_numpy(zero_copy_only=False)
            cn = np.nan_to_num(cn.astype(np.float64), nan=0.0).astype(np.int64)
        else:
            cn = np.zeros(len(ek), dtype=np.int64)
        nu, nvv = inv[s], inv[t]
        lo, hi = np.minimum(nu, nvv), np.maximum(nu, nvv)
        return pa.table(
            {
                "u": lo,
                "v": hi,
                "deg_u": np.where(nu <= nvv, dor[s], dor[t]),
                "deg_v": np.where(nu <= nvv, dor[t], dor[s]),
                "cn": cn,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")
