"""Deterministic integer PageRank over an edge Dataset.

Float PageRank is nondeterministic under distribution (per-block
summation order changes low bits), so this operator runs the classic
power iteration in FIXED-POINT INTEGER arithmetic: ranks are integer
micro-units, each node sends ``share = (pr * d_num) // (d_den * deg)``
to every neighbor (floor division — exact, associative, order-free),
and receives ``base = (scale * (d_den - d_num)) // d_den`` plus the
integer sum of incoming shares. Every quantity is int64 and every
reduction is a sum of ints, so the result is bit-identical at any
parallelism AND expressible as K unrolled join-aggregate CTEs in SQL —
the oracle checks the exact ranks, not an epsilon.

Distribution is the cc.py round shape: per iteration, ONE
``io.reduce_by_key`` on node over bucket tables holding each node's
rank row and adjacency rows. The stage sends every node's share along
its edges (its degree is its adjacency row count), pre-summed per
target; the reduce sums the shares per node into its next rank —
nothing corpus-sized at the driver. Mass leaks downward through the
floors (bounded by one unit per neighbor per round), which is the
standard price of exact integer PageRank; ranks remain a faithful
total order for top-k/centrality use.

Caller contract: edges form an undirected graph; every node mentioned
has degree >= 1 (an edge list cannot mention isolated nodes), so every
node receives at least one message per round.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import io as rio
from .cc import ADJ, MSG, STATE, _cols, _lookup, _node_buckets, _reduce_by, _rows, _sent, _state


def pagerank_int(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
    iters: int = 3,
    scale: int = 1_000_000,
    damping: tuple[int, int] = (85, 100),
) -> rio.Blocks:
    """(node, pr) after ``iters`` exact integer power iterations over
    the undirected graph ``edges`` (deduped canonical pairs expected —
    compose with ops.triangles.dedupe_edges for raw pair streams).
    int64 node ids; pr starts at ``scale`` per node."""
    d_num, d_den = damping
    if not (0 < d_num < d_den):
        raise ValueError(f"pagerank_int: damping {damping} must satisfy 0 < num < den")
    base = (scale * (d_den - d_num)) // d_den

    def init(nodes: np.ndarray) -> pa.Table:
        return _rows(STATE, nodes, val=np.full(len(nodes), scale, dtype=np.int64))

    def send(t: pa.Table) -> pa.Table:
        node, peer, val, kind = _cols(t)
        adj = kind == ADJ
        _, pr = _sent(node, val, kind, kind == STATE)
        _, at, deg = np.unique(node[adj], return_inverse=True, return_counts=True)
        tg, m = _reduce_by(peer[adj], (pr[adj] * d_num) // (d_den * deg[at]), "sum")
        return pa.concat_tables([t.filter(adj), _rows(MSG, tg, val=m)])

    def receive(t: pa.Table) -> pa.Table:
        node, _, val, kind = _cols(t)
        msg = kind == MSG
        tg, m = _reduce_by(node[msg], val[msg], "sum")
        nodes = np.unique(node[kind == ADJ])
        state = _rows(STATE, nodes, val=base + _lookup(tg, m, nodes, 0))
        return pa.concat_tables([t.filter(~msg), state])

    buckets = _node_buckets(edges, src, dst, init)
    for _ in range(iters):
        buckets = rio.reduce_by_key(buckets, ["node"], receive, stage=send)
    return _state(buckets, "node", "pr")
