"""Distributed k-core decomposition (iterative peeling).

The k-core is the maximal subgraph where every node keeps >= k
neighbors INSIDE the subgraph. Unlike connected components (fixpoint
min-label) or PageRank (fixed iteration count), peeling terminates on
a DATA-DEPENDENT round count: each round drops the nodes whose induced
degree fell below k, and removal cascades. Each round is ONE
``io.reduce_by_key`` on node over the cc.py bucket tables (an alive
node's state row and adjacency rows; a dead node has neither):

- the stage sends one message per adjacency row (every one leaves an
  alive node), pre-summed per target;
- the reduce sums the messages per ALIVE target — that is the induced
  degree — and keeps the rows of the nodes with degree >= k, dropping
  the adjacency of the dead ones (they never send again).

Monotonicity makes the termination check one integer: the alive set
only shrinks, so |alive| unchanged <=> fixpoint. The driver reads one
count per round, never the node table. Rounds needed = peeling depth
(bounded by the degeneracy ordering length; ``max_rounds`` raises
loudly rather than silently looping).

SQL mirror: the same peel unrolled as non-recursive CTE chain
(membership joins on both endpoints + HAVING count >= k), with the
round count recovered from the first count-equal consecutive pair —
valid because the sets are nested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import io as rio
from .cc import (
    ADJ, MSG, STATE, _cols, _count, _lookup, _node_buckets, _np, _reduce_by, _rows, _state,
    _state_rows,
)


def k_core(
    edges: rio.Blocks,
    k: int,
    src: str = "src",
    dst: str = "dst",
    max_rounds: int = 64,
    broadcast_gate: int = 2_000_000,
) -> tuple[rio.Blocks, int]:
    """(core-membership blocks with one ``node`` column, peel-round
    count) of the undirected graph ``edges`` (distinct canonical pairs
    expected — compose with ops.triangles.dedupe_edges).

    Size gate (the triangles convention): when the node count fits
    ``broadcast_gate``, the alive set lives on the driver and each peel
    round is one block task per bucket over the adjacency rows with
    the alive set broadcast, and a driver combine of per-bucket degree
    partials — no per-round shuffle. Above the gate the message rounds
    below run; the paths are pinned equal in tests (gate=0 forces
    distributed)."""
    if k < 1:
        raise ValueError(f"k_core: k must be >= 1, got {k}")
    buckets = _node_buckets(edges, src, dst, lambda n: _rows(STATE, n))
    n_alive = _count(buckets, STATE)
    if n_alive <= broadcast_gate:
        return _kcore_broadcast(buckets, k, max_rounds)

    def send(t: pa.Table) -> pa.Table:
        _, peer, _, kind = _cols(t)
        tg, n = np.unique(peer[kind == ADJ], return_counts=True)
        return pa.concat_tables([t, _rows(MSG, tg, val=n)])

    def keep(t: pa.Table) -> pa.Table:
        node, _, val, kind = _cols(t)
        msg = kind == MSG
        tg, deg = _reduce_by(node[msg], val[msg], "sum")
        alive = node[kind == STATE]
        core = alive[_lookup(tg, deg, alive, 0) >= k]
        return t.filter(~msg & np.isin(node, core))

    rounds = 0
    for _ in range(max_rounds):
        peeled = rio.reduce_by_key(buckets, ["node"], keep, stage=send)
        n_new = _count(peeled, STATE)
        if n_new == n_alive:
            return _state(buckets, "node"), rounds
        buckets, n_alive = peeled, n_new
        rounds += 1
        if n_alive == 0:
            return _state(buckets, "node"), rounds
    raise RuntimeError(
        f"k_core: no fixpoint after {max_rounds} rounds — raise max_rounds "
        "for deeper peeling cascades"
    )


def _kcore_broadcast(buckets: list, k: int, max_rounds: int) -> tuple[rio.Blocks, int]:
    """Gated fast path: see k_core's docstring. Alive membership
    broadcasts as a sorted int64 array (driver-sized under the gate)."""
    arr = np.sort(rio.map_blocks(buckets, _state_rows)["node"].to_numpy())
    rounds = 0
    for _ in range(max_rounds):

        def deg_partial(t: pa.Table, a=arr) -> pa.Table:
            node, peer, _, kind = _cols(t)
            ok = (kind == ADJ) & np.isin(node, a) & np.isin(peer, a)
            tg, n = np.unique(peer[ok], return_counts=True)
            return pa.table({"node": tg, "d_p": n.astype(np.int64)})

        parts = rio.map_blocks(buckets, deg_partial)
        tg, deg = _reduce_by(*_np(parts, "node", "d_p"), "sum")
        new = tg[deg >= k]
        if len(new) == len(arr):
            break
        arr = new
        rounds += 1
        if not len(arr):
            break
    else:
        raise RuntimeError(
            f"k_core: no fixpoint after {max_rounds} rounds — raise max_rounds"
        )
    return rio.table_blocks(pa.table({"node": arr})), rounds
