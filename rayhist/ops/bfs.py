"""Distributed bounded-hop BFS (multi-source shortest hop counts).

Frontier expansion over an edge Dataset: round h sends one message
along every edge leaving the current frontier, and a node that
receives a message while still unvisited joins the next frontier at
distance h. That is the unit-weight case of the sssp.py relaxation
(``_relaxed``): each round is ONE ``io.reduce_by_key`` on node over
bucket tables holding each node's hop-distance row and adjacency rows
(the frontier is the ACTIVE rows). A node's first hop is final, so
the stage drops the adjacency of every reached node (it never sends
again) and a round moves only the rows of unvisited nodes plus the
messages. The driver reads the per-hop counts once, after the last
round. The hop bound makes the oracle expressible: the same expansion
unrolls as a MATERIALIZED CTE chain (each level referenced multiple
times — inlining would duplicate the whole prefix exponentially, the
k-core lesson).

Size gate (the triangles/k-core convention): when the node count fits
``cc.BROADCAST_GATE``, the visited set lives on the driver and each
round is one block task per bucket over the adjacency rows with the
frontier broadcast — no per-round shuffle; a gate of 0 forces the
message rounds (pinned equal in tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio
from .cc import _node_buckets, _np
from .sssp import _relaxed, _seeded


def bfs_hops(
    edges: rio.Blocks,
    seed_pred,
    max_hops: int,
    src: str = "src",
    dst: str = "dst",
) -> pd.DataFrame:
    """(hop, n) for hop 0..max_hops: how many nodes are first reached
    at each hop from the seed set ``seed_pred(node_ids) -> bool mask``
    over the undirected graph ``edges`` (distinct canonical pairs
    expected). Nodes beyond ``max_hops`` are not reported."""
    if max_hops < 0:
        raise ValueError("bfs_hops: max_hops must be >= 0")

    def hops(t: pa.Table) -> pa.Table:
        d = _np(t, "val")[0]
        n = np.bincount(d[d <= max_hops], minlength=max_hops + 1)
        return pa.table({"n": n.astype(np.int64)})

    def unit(b: pa.Table) -> np.ndarray:
        return np.ones(b.num_rows, dtype=np.int64)

    buckets = _node_buckets(edges, src, dst, _seeded(seed_pred), weight=unit)
    parts = _relaxed(buckets, max_hops, hops, settle=True)
    n = parts["n"].to_numpy().reshape(-1, max_hops + 1).sum(axis=0)
    return pd.DataFrame({"hop": np.arange(max_hops + 1), "n": n}).astype("int64")
