"""Distributed connected components over an edge Dataset, and the
message-round shape the other graph operators share.

Near-dup detection (ops/dedup.py) produces PAIRS; deduplication needs
CLUSTERS — "keep one document per connected component of the
similarity graph". Components are the classic iterative graph step a
batch engine cannot express in one shuffle, so this module runs
min-label propagation as a sequence of message rounds:

- state: one (node, label) row per node, label initialised to the
  node id;
- each round, every node whose label changed in the previous round
  sends it along its edges, and every node adopts the minimum of its
  own label and everything it received (a node that did not change
  already sent its label, so the labels after each round are those of
  all nodes sending every round);
- convergence when a round changes no label (the driver reads ONE
  aggregated counter per round — never the label table).

A component's final label is the minimum node id in it —
deterministic and SQL-mirrorable (a recursive-CTE reachable-min
computes the same fixpoint). Rounds needed = the graph diameter;
near-dup components are overwhelmingly tiny cliques (diameter 1-2).
For adversarial long-chain graphs the hash-to-min variant (Rastogi et
al. 2013, "Finding Connected Components in Map-Reduce in Logarithmic
Rounds") halves the round count exponentially; label propagation is
kept here because the similarity-graph workload never approaches that
regime — ``max_rounds`` raises loudly rather than silently looping if
one does.

The round shape (Pregel's superstep, Malewicz et al., SIGMOD'10, as
one ``io.reduce_by_key`` on ``node``): ``_node_buckets`` routes both
directions of every edge by node into bucket tables that hold each
node's ADJACENCY rows and its STATE row (``ACTIVE``: changed in the
previous round). Each round is ONE ``reduce_by_key`` over those
bucket tables: its ``stage`` sees complete nodes and emits MESSAGE
rows keyed by the target node, the routing brings them to the
target's bucket (state and adjacency rows hash to the bucket they
came from), and its ``reduce`` applies them and returns the next
bucket tables. bfs, sssp, k-core and pagerank run the same rounds.
Per-bucket memory is O(bucket's nodes + edges + messages), never
O(graph).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio

# row kinds of a bucket table
ADJ, STATE, ACTIVE, MSG = 0, 1, 2, 3
# "unreached" value of a distance (bfs, sssp): finite, so sums stay exact
INF = 1 << 62


def _rows(kind, node, peer=None, val=None) -> pa.Table:
    """Bucket-table rows: ``kind`` (one value or one per row), the
    routing ``node``, an adjacency ``peer`` and an int64 ``val``."""
    node = np.asarray(node, dtype=np.int64)
    zero = np.zeros(len(node), dtype=np.int64)
    return pa.table(
        {
            "node": node,
            "peer": zero if peer is None else np.asarray(peer, dtype=np.int64),
            "val": zero if val is None else np.asarray(val, dtype=np.int64),
            "kind": np.broadcast_to(np.asarray(kind, dtype=np.int8), len(node)),
        }
    )


def _np(t: pa.Table, *names: str) -> tuple[np.ndarray, ...]:
    return tuple(t[c].to_numpy(zero_copy_only=False) for c in names)


def _cols(t: pa.Table) -> tuple[np.ndarray, ...]:
    """(node, peer, val, kind) of a bucket table as numpy arrays."""
    if not t.num_columns:  # a bucket of an input without one typed block
        t = _rows(ADJ, [])
    return _np(t, "node", "peer", "val", "kind")


def _ints(b: pa.Table, col: str) -> np.ndarray:
    if b[col].null_count:
        raise ValueError(f"graph edges: null node ids in {col!r}")
    return _np(b, col)[0].astype(np.int64)


def _lookup(keys: np.ndarray, vals: np.ndarray, q: np.ndarray, missing: int) -> np.ndarray:
    """``vals[i]`` where ``keys[i] == q`` (``keys`` sorted and unique),
    ``missing`` elsewhere."""
    if not len(keys):
        return np.full(len(q), missing, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, vals[pos], missing).astype(np.int64)


def _sent(node, val, kind, sender) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the ADJ rows leaving a node whose state row is in
    ``sender``, that state row's ``val`` per row) of one bucket."""
    sn, sv = node[sender], val[sender]
    o = np.argsort(sn, kind="stable")
    sn, sv = sn[o], sv[o]
    if not len(sn):
        return np.zeros(len(node), dtype=bool), np.zeros(len(node), dtype=np.int64)
    pos = np.minimum(np.searchsorted(sn, node), len(sn) - 1)
    return (kind == ADJ) & (sn[pos] == node), sv[pos]


def _reduce_by(keys: np.ndarray, vals: np.ndarray, how: str) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys ascending, exact int64 ``how`` of ``vals`` per key)."""
    g = getattr(pd.Series(vals, dtype=np.int64).groupby(keys, sort=True), how)()
    return g.index.to_numpy(dtype=np.int64), g.to_numpy(dtype=np.int64)


def _node_buckets(edges, src: str, dst: str, init, weight=None) -> list:
    """Bucket tables of the undirected graph ``edges`` (one
    ``reduce_by_key`` on ``node``): every edge as two ADJ rows (``val``:
    ``weight(batch)``, or 0), plus the state rows ``init(nodes)``
    returns for the bucket's distinct nodes (ascending). The refs, one
    per input block."""

    def directed(b: pa.Table) -> pa.Table:
        u, v = _ints(b, src), _ints(b, dst)
        w = np.zeros(len(u), dtype=np.int64) if weight is None else weight(b)
        return _rows(ADJ, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]))

    def with_state(t: pa.Table) -> pa.Table:
        return pa.concat_tables([t, init(np.unique(_np(t, "node")[0]))])

    return rio.reduce_by_key(edges, ["node"], with_state, stage=directed)


def _count(buckets: list, *kinds: int) -> int:
    """Rows of ``kinds`` over all bucket tables (one block task each)."""

    def n(t: pa.Table) -> pa.Table:
        return pa.table({"n": [int(np.isin(_cols(t)[3], kinds).sum())]})

    return int(rio.map_blocks(buckets, n)["n"].to_numpy().sum())


def _state_rows(t: pa.Table) -> pa.Table:
    kind = _cols(t)[3]
    return t.filter((kind == STATE) | (kind == ACTIVE)) if t.num_columns else _rows(STATE, [])


def _state(buckets: list, node: str, val: str | None = None) -> rio.Blocks:
    """The state rows as blocks of their ``node`` (and ``val``)
    columns under the given names, one block per bucket."""

    def select(t: pa.Table) -> pa.Table:
        t = _state_rows(t)
        return pa.table({node: t["node"], **({val: t["val"]} if val else {})})

    return rio.materialize_blocks(buckets, select)


def _min_round(buckets: list, settle: bool = False) -> list:
    """One min-propagation round: every ACTIVE node sends its ``val``
    plus the edge's ``val`` (its weight) along its edges; every node
    takes the minimum of its ``val`` and what it received, and is
    ACTIVE when that lowered it. ``settle`` (unit weights: a node's
    first finite value is final) drops the adjacency of every reached
    node, which has sent or is sending its last message."""

    def send(t: pa.Table) -> pa.Table:
        node, peer, val, kind = _cols(t)
        hit, v = _sent(node, val, kind, kind == ACTIVE)
        tg, m = _reduce_by(peer[hit], v[hit] + val[hit], "min")
        if settle:
            unreached, _ = _sent(node, val, kind, (kind == STATE) & (val == INF))
            t = t.filter((kind != ADJ) | unreached)
        return pa.concat_tables([t, _rows(MSG, tg, val=m)])

    def apply(t: pa.Table) -> pa.Table:
        node, peer, val, kind = _cols(t)
        msg = kind == MSG
        tg, m = _reduce_by(node[msg], val[msg], "min")
        got = _lookup(tg, m, node, np.iinfo(np.int64).max)
        st = (kind == STATE) | (kind == ACTIVE)
        new = st & (got < val)
        kind = np.where(new, ACTIVE, np.where(st, STATE, kind))
        return _rows(kind[~msg], node[~msg], peer[~msg], np.where(new, got, val)[~msg])

    return rio.reduce_by_key(buckets, ["node"], apply, stage=send)


def connected_components(
    edges: rio.Blocks,
    src: str = "src",
    dst: str = "dst",
    max_rounds: int = 64,
) -> rio.Blocks:
    """Label every node of the undirected graph ``edges`` with its
    component id = the MINIMUM node id reachable from it. Node ids
    must be non-null int64. Returns (node, component) blocks with
    one row per distinct node appearing in any edge. Isolated nodes
    (no edges) are the caller's to union in — an edge list cannot
    mention them."""
    buckets = _node_buckets(edges, src, dst, lambda n: _rows(ACTIVE, n, val=n))

    for _ in range(max_rounds):
        buckets = _min_round(buckets)
        if not _count(buckets, ACTIVE):
            return _state(buckets, "node", "component")
    raise RuntimeError(
        f"connected_components: no fixpoint after {max_rounds} rounds — "
        "graph diameter exceeds the label-propagation budget; use a "
        "hash-to-min variant for long-chain graphs"
    )
