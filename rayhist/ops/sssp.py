"""Distributed bounded-round weighted shortest paths (Bellman-Ford).

Single-source-set shortest path DISTANCES over an undirected,
positively-integer-weighted edge Dataset: round r relaxes every edge
once — dist[v] <- min(dist[v], min over edges (dist[u] + w)) — so
after R rounds each node holds the exact cheapest cost over paths of
at most R edges. All arithmetic is int64 (the money rule: costs are
exact at any parallelism), the "unreached" marker is the finite
sentinel ``INF = 1 << 62`` (never a null — a null int column coerces
to float64 and large sentinels do not survive the round trip), and
the fixed round count makes the oracle expressible: the same
relaxation unrolls as a MATERIALIZED CTE chain (each level referenced
twice; inlining would duplicate the prefix exponentially — the k-core
lesson). Only the nodes whose distance fell in the previous round
relax their edges: every other node already sent its distance, so
each round's distances are those of relaxing every edge.

Each round is the cc.py min-propagation round (``_min_round``): ONE
``io.reduce_by_key`` on node over bucket tables holding each node's
distance row and adjacency rows (the edge weight in ``val``). The
bounded-hop BFS (ops/bfs.py) is the unit-weight case of ``_relaxed``.

Size gate (the triangles/k-core convention): when the node count fits
``broadcast_gate``, the (nodes, dist) arrays live on the driver and
each round is one block task per bucket (``io.map_blocks``) over the
adjacency rows with the nodes that changed broadcast, and a
|touched nodes x blocks|-bounded driver min-combine; gate=0 forces
the message rounds (pinned equal in tests).

Reference parity: the reference has no graph engine; this is the
standard Pregel-style relaxation (Malewicz et al., SIGMOD'10)
expressed as block-task shuffles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import io as rio
from .cc import (
    ACTIVE, ADJ, INF, STATE, _cols, _count, _lookup, _min_round, _node_buckets, _np,
    _reduce_by, _rows, _state_rows,
)

_MAX_W = 1 << 40  # rounds * max_w must stay clear of the sentinel


def _seeded(seed_pred):
    """``_node_buckets`` init: seeds ACTIVE at distance 0, every other
    node unreached."""

    def init(nodes: np.ndarray) -> pa.Table:
        seed = np.asarray(seed_pred(nodes), dtype=bool)
        return _rows(np.where(seed, ACTIVE, STATE), nodes, val=np.where(seed, 0, INF))

    return init


def _relaxed(
    buckets: list, rounds: int, broadcast_gate: int, fin, settle: bool = False
) -> pa.Table:
    """``fin`` (state rows -> partial table) over the distances after
    ``rounds`` relaxation rounds of the seeded bucket tables: on the
    driver's table below the gate, per bucket above it."""
    if _count(buckets, STATE, ACTIVE) > broadcast_gate:
        for _ in range(rounds):
            buckets = _min_round(buckets, settle)
        return rio.map_blocks(buckets, lambda t: fin(_state_rows(t)))

    node, _, dist, kind = _cols(rio.map_blocks(buckets, _state_rows))
    o = np.argsort(node)
    node, dist, active = node[o], dist[o], kind[o] == ACTIVE
    for _ in range(rounds):
        if not active.any():
            break

        def cand(t: pa.Table, sn=node[active], sd=dist[active]) -> pa.Table:
            n, peer, w, k = _cols(t)
            d = _lookup(sn, sd, n, INF)
            ok = (k == ADJ) & (d < INF)
            tg, m = _reduce_by(peer[ok], d[ok] + w[ok], "min")
            return pa.table({"node": tg, "val": m})

        parts = rio.map_blocks(buckets, cand)
        tg, m = _reduce_by(*_np(parts, "node", "val"), "min")
        pos = np.searchsorted(node, tg)
        better = m < dist[pos]
        dist[pos[better]] = m[better]
        active = np.zeros(len(node), dtype=bool)
        active[pos[better]] = True
    return fin(_rows(STATE, node, val=dist))


def sssp_int(
    edges: rio.Blocks,
    seed_pred,
    rounds: int,
    src: str = "src",
    dst: str = "dst",
    weight: str = "w",
    broadcast_gate: int = 2_000_000,
) -> pd.DataFrame:
    """(node, dist) for every node whose cheapest <=``rounds``-edge
    path cost from the seed set ``seed_pred(node_ids) -> bool mask``
    is finite, over the undirected graph ``edges`` (distinct canonical
    pairs with a positive int64 ``weight`` column expected). Exact
    int64 costs, bit-identical at any parallelism."""
    if rounds < 0 or rounds > (1 << 20):
        raise ValueError("sssp_int: rounds must be in [0, 2^20]")

    def weights(b: pa.Table) -> np.ndarray:
        if b[weight].null_count:
            raise ValueError("sssp_int: null edge weight")
        w = b[weight].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and (w.min() <= 0 or w.max() >= _MAX_W):
            raise ValueError("sssp_int: edge weights must be in (0, 2^40)")
        return w

    def reached(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["val"], INF)).select(["node", "val"])

    buckets = _node_buckets(edges, src, dst, _seeded(seed_pred), weight=weights)
    out = _relaxed(buckets, rounds, broadcast_gate, reached).to_pandas()
    out = out.rename(columns={"val": "dist"}).astype({"node": "int64", "dist": "int64"})
    return out.sort_values("node").reset_index(drop=True)
