"""kNN proximity queries and ANN cosine top-k.

The reference has no kNN operator; this is a target-only component
(BASELINE.json north_rule: "kNN proximity queries"). Design:

- ``knn_points``: broadcast the (small) query-point matrix, compute
  per-batch distances vectorized (numpy), keep the per-batch top-k
  candidates per query, then reduce the candidate stream to the global
  top-k. Work per batch is O(|batch| x |queries|) with no shuffle; the
  final reduce sees only ``k x n_batches x n_queries`` rows. It is the
  exact reference of the grid paths and their straggler fallback.
- ``knn_queries`` / ``knn_all``: the exact grid paths (a flagged
  query subset / every point), a halo join by grid cell with a
  guarantee-radius resolve.
- ``ann_cosine_topk``: same pattern over an embedding column
  (list<float>) with a matmul kernel — brute-force exact baseline.
  At scale, ``ann_cosine_ivf_pruned`` / ``ann_cosine_lsh_pruned``
  read a bucket-partitioned layout of the table and score only the
  buckets a query probes.

Determinism: candidates are ranked by (metric, neighbor_id) so ties
break identically everywhere — required for oracle equality and for
parallelism-invariance across num_cpus levels.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import io as rio

# largest materialized input knn_queries resolves in one driver pass;
# tests set it to 0 to run the distributed shuffles on a small input
DRIVER_GATE = 64 * 1024


def _fp() -> str:
    """Cache-key version suffix for the IVF/LSH layout fixtures:
    fingerprint of this module's source (io.code_fingerprint) — any
    edit to the index builders forces a cold layout rebuild instead of
    serving stale partitions (round-4 stale-cache hazard class)."""
    import sys

    return rio.code_fingerprint(sys.modules[__name__])


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise L2 normalization, zero-norm safe: an all-zero embedding
    stays zero (cosine 0 vs everything) instead of NaN — a single NaN
    similarity would poison the shared top-k cut for every query in
    the batch."""
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.where(n == 0, 1.0, n)


def _topk_order(qid: np.ndarray, d: np.ndarray, nid: np.ndarray, k: int, ascending: bool = True):
    """(positions of each query's first ``k`` rows in (query_id, ``d``,
    neighbor_id) order, ``d`` descending unless ``ascending``; their
    1-based ranks): one lexsort and segment offsets."""
    o = np.lexsort((nid, d if ascending else -d, qid))
    q = qid[o]
    new = np.r_[True, q[1:] != q[:-1]] if len(q) else np.zeros(0, dtype=bool)
    offset = np.arange(len(q)) - np.flatnonzero(new)[np.cumsum(new) - 1]
    keep = offset < k
    return o[keep], offset[keep] + 1


def _topk_reduce(cands: pd.DataFrame, k: int, by: str, ascending: bool) -> pd.DataFrame:
    """Each query's top ``k`` candidate rows by ``by`` (ties broken by
    neighbor id), query ids ascending, with a ``rank`` column."""
    idx, rank = _topk_order(
        cands["query_id"].to_numpy(), cands[by].to_numpy(), cands["neighbor_id"].to_numpy(),
        k, ascending,
    )
    out = cands.iloc[idx].reset_index(drop=True)
    out["rank"] = rank
    return out


def _resolve_topk_distributed(
    ds: rio.Blocks, k: int, by: str, ascending: bool, stage=None
) -> pd.DataFrame:
    """DISTRIBUTED per-query top-k resolve for ANN candidate streams —
    the ``knn_queries`` resolve pattern applied to the cosine family.

    ``stage`` (pyarrow batch -> candidate frame; None when ``ds``
    already holds the candidates) emits each block's own per-query
    top-k partials, so the global answer is a pure per-query reduce;
    shuffling the partials by query_id (``io.reduce_by_key``) and
    reducing each bucket in a task keeps the driver transfer at the
    FINAL nq x k rows. The driver-side ``concat``-then-reduce this
    replaces was nq x k x #blocks rows — fine at sandbox block counts,
    a corpus-proportional driver materialization at 10^6 blocks.
    """
    def cands(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(stage(batch), preserve_index=False)

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        return _topk_reduce(g, k, by=by, ascending=ascending)

    out = rio.reduce_by_key(
        ds, ["query_id"], rio.on_pandas(resolve), stage=None if stage is None else cands
    )
    out = rio.blocks_table(out).to_pandas()
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _query_vectors(embeddings: rio.Blocks, query_ids: list[int], id_col: str, vec_col: str):
    """(query ids, unit query matrix), sorted by id: the query rows
    looked up from the dataset itself (small id list) by one filter
    task per block."""
    qset = pa.array(sorted(int(i) for i in set(query_ids)), pa.int64())

    def lookup(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b[id_col], qset.cast(b[id_col].type)))

    qrows = rio.map_blocks(embeddings, lookup).to_pandas().sort_values(id_col)
    qids = qrows[id_col].to_numpy(dtype=np.int64)
    return qids, _unit_rows(np.stack(qrows[vec_col].to_numpy()).astype(np.float64))


def knn_points(
    points: rio.Blocks,
    queries: list[tuple],  # (query_id:int, lon_e7:int, lat_e7:int)
    k: int = 3,
    id_col: str = "osm_id",
) -> pd.DataFrame:
    """Exact kNN by squared euclidean distance in e7 coordinate space.

    ``queries`` is broadcast into the stage closure (tiny); the
    candidate reduce happens on the small per-batch top-k stream.
    A query point never matches itself (neighbor_id != query_id).

    Vectorized ACROSS queries: each batch computes a (q_chunk x batch)
    squared-distance matrix and row-wise argpartitions it, so the
    per-batch cost is one BLAS-shaped pass instead of a Python loop
    per query. Chunking bounds the matrix at q_chunk x |batch| floats.
    """
    q = np.asarray([(a, b, c) for a, b, c in queries], dtype=np.int64)
    QCHUNK = 512  # 512 x 4096-row batch x 8B = 16 MiB distance matrix

    _EMPTY = pd.DataFrame(
        {"query_id": pd.Series([], dtype="int64"),
         "neighbor_id": pd.Series([], dtype="int64"),
         "dist2": pd.Series([], dtype="float64")}
    )

    def candidates(batch: pa.Table) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0 or len(q) == 0:
            return _EMPTY
        lon = batch["lon_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch["lat_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        take = min(k, n)
        frames = []
        for s in range(0, len(q), QCHUNK):
            qc = q[s : s + QCHUNK]
            qid = qc[:, 0]
            dx = lon[None, :] - qc[:, 1].astype(np.float64)[:, None]
            dy = lat[None, :] - qc[:, 2].astype(np.float64)[:, None]
            d2 = dx * dx + dy * dy
            d2[ids[None, :] == qid[:, None]] = np.inf  # self-exclusion
            # argpartition keeps an ARBITRARY member of a distance tie
            # at the cut; emit every candidate at <= the k-th distance
            # so the global reduce's (dist2, neighbor_id) tie-break sees
            # all of them (exact e7-integer ties are realistic: 3-4-5).
            # Rows with < take finite candidates get kth=inf and emit
            # every finite candidate — same as the per-query take=min().
            part = np.argpartition(d2, take - 1, axis=1)[:, :take]
            kth = np.take_along_axis(d2, part, axis=1).max(axis=1)
            sel = (d2 <= kth[:, None]) & np.isfinite(d2)
            qi, ci = np.nonzero(sel)
            if len(qi) == 0:
                continue
            frames.append(
                pd.DataFrame(
                    {
                        "query_id": qid[qi],
                        "neighbor_id": ids[ci],
                        "dist2": d2[qi, ci],
                    }
                )
            )
        if not frames:
            return _EMPTY
        return pd.concat(frames, ignore_index=True)

    def stage(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(candidates(batch), preserve_index=False)

    cands = rio.map_blocks(points, stage).to_pandas()
    return _topk_reduce(cands, k, by="dist2", ascending=True)


def ann_cosine_topk(
    embeddings: rio.Blocks,
    query_ids: list[int],
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Brute-force cosine top-k over an embedding column.

    The query matrix is looked up from the dataset itself (small id
    list), L2-normalized once, and broadcast; each batch does one
    matmul. Ranking by (-cos, neighbor_id); self-matches excluded.
    """
    qids, qmat = _query_vectors(embeddings, query_ids, id_col, vec_col)

    def stage(batch: pa.Table) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        if n == 0:
            return _EMPTY_COS
        mat = np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        mat = _unit_rows(mat)
        sims = qmat @ mat.T  # (nq, nb)
        return _emit_cos_topk(sims, qids, ids, k)

    return _resolve_topk_distributed(embeddings, k, "cos_sim", False, stage=stage)


_EMPTY_COS = pd.DataFrame(
    {"query_id": pd.Series([], dtype="int64"),
     "neighbor_id": pd.Series([], dtype="int64"),
     "cos_sim": pd.Series([], dtype="float64")}
)


def _emit_cos_topk(sims: np.ndarray, qids: np.ndarray, ids: np.ndarray, k: int) -> pd.DataFrame:
    """Row-wise tie-inclusive top-k emission over a (nq, n) similarity
    matrix — vectorized across queries (the per-query loop was the last
    Python hot path in the ANN stages). Self-matches and non-candidates
    must already be masked to -inf; rows with < k finite candidates get
    kth = -inf and emit every finite one, identical to the per-query
    take=min(k, n_valid) semantics."""
    n = sims.shape[1]
    sims[ids[None, :] == qids[:, None]] = -np.inf  # self-exclusion
    take = min(k, n)
    part = np.argpartition(-sims, take - 1, axis=1)[:, :take]
    kth = np.take_along_axis(sims, part, axis=1).min(axis=1)
    sel = (sims >= kth[:, None]) & np.isfinite(sims)
    qi, ci = np.nonzero(sel)
    if len(qi) == 0:
        return _EMPTY_COS
    return pd.DataFrame(
        {"query_id": qids[qi], "neighbor_id": ids[ci], "cos_sim": sims[qi, ci]}
    )


def ivf_buckets(mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """IVF bucket of each unit row of ``mat``: the nearest of the
    ``nlist`` unit coarse centroids ``cents`` (``build_ivf_centroids``)
    by cosine. Queries then probe only their ``nprobe`` nearest
    buckets — the scale path for cosine top-k."""
    return np.argmax(mat @ cents.T, axis=1).astype(np.int64)


def build_ivf_centroids(
    embeddings: rio.Blocks,
    nlist: int = 16,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    stride: int = 31,
) -> np.ndarray:
    """Deterministic coarse centroids: strided seed sample + one Lloyd
    iteration over the sample (small, driver-side)."""
    sample = (
        rio.map_blocks(
            embeddings,
            lambda b: b.filter(pa.array(b[id_col].to_numpy(zero_copy_only=False) % stride == 0)),
        )
        .to_pandas()
        .sort_values(id_col)
    )
    mat = np.stack(sample[vec_col].to_numpy()).astype(np.float64)
    mat = _unit_rows(mat)
    cents = mat[:nlist].copy()
    for _ in range(2):  # fixed Lloyd iterations -> deterministic
        cents = _unit_rows(cents)
        assign = np.argmax(mat @ cents.T, axis=1)
        for j in range(nlist):
            sel = mat[assign == j]
            if len(sel):
                cents[j] = sel.mean(axis=0)
    return _unit_rows(cents)


def _probed_scan(layout: str, qbuckets: np.ndarray, id_col: str, vec_col: str):
    """(the rows of the buckets some query probes, their count): the
    resident layout filtered to the probed buckets inside each block
    task, and the rows that filter kept (``io.num_rows``, a count over
    the same filtered blocks)."""
    probed = sorted(int(b) for b in set(qbuckets.ravel()))
    flt = pc.field("bucket").isin(probed)
    scan = rio.read_resident(layout, columns=[id_col, vec_col, "bucket"], filter=flt)
    return scan, rio.num_rows(scan)


# ------------------------------------------------- IVF layout pruning
def _ensure_layout(parquet_path: str, name: str, id_col: str, vec_col: str, build, buckets):
    """Materialize (once) the bucket-partitioned LAYOUT of an embedding
    table and return (layout_dir, index state).

    ``build(ds)`` makes the index state (centroids, hyperplanes) on the
    driver; ``buckets(mat, state)`` assigns each embedding row its
    bucket inside one task-pool ``map_batches`` function, which also
    writes the bucket as the ``pb`` partition column. The cache key
    is the source file identity (``io._stat_identity``: an in-place
    rewrite changes the ctime even when size and mtime are restored),
    the layout parameters and this module's code fingerprint
    (``io.ensure``)."""

    def write(staging: str) -> None:
        ds = rio.read_table(str(parquet_path), columns=[id_col, vec_col])
        state = build(ds)

        def assign(b: pa.Table) -> pa.Table:
            mat = np.stack(b[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
            bucket = pa.array(buckets(mat, state))
            # `pb` duplicates `bucket`: hive partition values are stripped
            # from the files, and the query stage needs the bucket per row
            return b.append_column("bucket", bucket).append_column("pb", bucket)

        ds.map_batches(assign, batch_format="pyarrow").write_parquet(staging, partition_cols=["pb"])
        np.save(os.path.join(staging, "_state.npy"), state)

    out = rio.ensure(f"{name}_layout", [parquet_path], [id_col, vec_col, _fp()], write)
    return out, np.load(os.path.join(out, "_state.npy"))


def ensure_ivf_layout(
    parquet_path: str,
    nlist: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """The IVF-bucketed layout of an embedding table: vectors assigned
    to their nearest centroid (``ivf_buckets``) and written to parquet
    PARTITIONED BY BUCKET, so probing can prune the SCAN: a query
    scores only the rows of the buckets it probes (``_probed_scan``),
    and a layout over the resident budget is read with that bucket
    filter pushed to parquet, which skips the unprobed partitions'
    files. Returns (layout_dir, centroids)."""
    return _ensure_layout(
        parquet_path, f"ivf{nlist}", id_col, vec_col,
        lambda ds: build_ivf_centroids(ds, nlist, vec_col, id_col),
        lambda mat, cents: ivf_buckets(_unit_rows(mat), cents),
    )


def ann_cosine_ivf_pruned(
    parquet_path: str,
    query_ids: list[int],
    k: int = 5,
    nlist: int = 16,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """IVF ANN over the bucket-partitioned layout: scans ONLY the
    buckets probed by some query (``_probed_scan``), then scores each
    query against its own probed buckets. nprobe == nlist is provably
    exact (scans everything); smaller nprobe trades recall for scanned
    rows.

    The scanned row count is attached as
    ``result.attrs['rows_scanned']`` so tests can assert the pruning
    actually happened (scan < corpus for nprobe < nlist)."""
    import pyarrow.dataset as pds

    layout, cents = ensure_ivf_layout(parquet_path, nlist, id_col, vec_col)

    qset = sorted(int(i) for i in set(query_ids))
    # pushed-down id filter: only the O(|queries|) rows reach the
    # driver — never the corpus (the scan pruning below would be
    # pointless if the query lookup materialized everything)
    qtab = pds.dataset(parquet_path).to_table(
        columns=[id_col, vec_col],
        filter=pc.field(id_col).isin(qset),
    )
    qids = qtab[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(qids)
    qids = qids[order]
    qmat = np.stack(qtab[vec_col].to_numpy(zero_copy_only=False))[order].astype(np.float64)
    qmat = _unit_rows(qmat)
    qbuckets = np.argsort(-(qmat @ cents.T), axis=1)[:, :nprobe]

    scan, rows_scanned = _probed_scan(layout, qbuckets, id_col, vec_col)

    # query x bucket membership LUT: probed[i, b] == query i probes b
    probed = np.zeros((len(qids), nlist), dtype=bool)
    probed[np.arange(len(qids))[:, None], qbuckets] = True

    def stage(batch: pa.Table) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return _EMPTY_COS
        mat = np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        mat = _unit_rows(mat)
        bucket = batch["bucket"].to_numpy(zero_copy_only=False)
        sims = qmat @ mat.T  # (nq, nb), same float path as the brute stage
        sims[~probed[:, bucket]] = -np.inf  # outside this query's probe set
        return _emit_cos_topk(sims, qids, ids, k)

    out = _resolve_topk_distributed(scan, k, "cos_sim", False, stage=stage)
    out.attrs["rows_scanned"] = int(rows_scanned)
    return out


# ------------------------------------------- LSH-bucketed cosine ANN
def lsh_hyperplanes(dim: int, n_bits: int, seed: int = 20240115) -> np.ndarray:
    """Deterministic random-hyperplane family: fixed seed, so the same
    (dim, n_bits) yields the same planes on every worker and run."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bits, dim))


def lsh_buckets(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Random-hyperplane LSH bucket of each row of ``mat`` for cosine
    ANN (the second scale path beside IVF): the packed sign bits of
    ``mat @ planes.T``. Sign is norm-invariant, so rows need no
    normalization."""
    weights = 1 << np.arange(planes.shape[0], dtype=np.int64)
    return (((mat @ planes.T) >= 0.0) * weights).sum(axis=1).astype(np.int64)


def ensure_lsh_layout(
    parquet_path: str,
    n_bits: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """The LSH-bucketed layout of an embedding table (``lsh_buckets``),
    same partitioned-parquet shape as ``ensure_ivf_layout``, so probing
    prunes the SCAN, not just the compute. Returns (layout_dir,
    planes)."""
    return _ensure_layout(
        parquet_path, f"lsh{n_bits}", id_col, vec_col,
        lambda ds: lsh_hyperplanes(len(ds.take(1)[0][vec_col]), n_bits), lsh_buckets,
    )


def ann_cosine_lsh_pruned(
    parquet_path: str,
    query_ids: list[int],
    k: int = 5,
    n_bits: int = 4,
    nprobe: int | None = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """LSH ANN over the bucket-partitioned layout: each query probes
    the ``nprobe`` buckets nearest to its own signature in Hamming
    distance (ties broken by bucket id — deterministic). nprobe ==
    2**n_bits probes every bucket and is provably exact; smaller
    nprobe trades recall for scanned rows: only probed buckets are scanned
    (``result.attrs['rows_scanned']`` lets tests assert the pruning)."""
    import pyarrow.dataset as pds

    n_buckets = 1 << n_bits
    if nprobe is None:
        nprobe = n_buckets
    layout, planes = ensure_lsh_layout(parquet_path, n_bits, id_col, vec_col)

    qset = sorted(int(i) for i in set(query_ids))
    qtab = pds.dataset(parquet_path).to_table(
        columns=[id_col, vec_col],
        filter=pc.field(id_col).isin(qset),
    )
    qids = qtab[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(qids)
    qids = qids[order]
    qmat = np.stack(qtab[vec_col].to_numpy(zero_copy_only=False))[order].astype(np.float64)
    qbucket = lsh_buckets(qmat, planes)
    qmat = _unit_rows(qmat)

    # Hamming-nearest probe sets (n_buckets is tiny; popcount per pair)
    all_b = np.arange(n_buckets, dtype=np.int64)
    pop = np.array([bin(x).count("1") for x in range(n_buckets)], dtype=np.int64)
    ham = pop[np.bitwise_xor(qbucket[:, None], all_b[None, :])]
    probe_order = np.lexsort((all_b[None, :].repeat(len(qids), 0), ham), axis=1)
    qbuckets = probe_order[:, :nprobe]

    scan, rows_scanned = _probed_scan(layout, qbuckets, id_col, vec_col)

    probed = np.zeros((len(qids), n_buckets), dtype=bool)
    probed[np.arange(len(qids))[:, None], qbuckets] = True

    def stage(batch: pa.Table) -> pd.DataFrame:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return _EMPTY_COS
        mat = np.stack(batch[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
        mat = _unit_rows(mat)
        bucket = batch["bucket"].to_numpy(zero_copy_only=False)
        sims = qmat @ mat.T
        sims[~probed[:, bucket]] = -np.inf
        return _emit_cos_topk(sims, qids, ids, k)

    out = _resolve_topk_distributed(scan, k, "cos_sim", False, stage=stage)
    out.attrs["rows_scanned"] = int(rows_scanned)
    return out


# ------------------------------------------------- distributed queries
_RESOLVED = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("d2", pa.float64()),
     ("q_lon", pa.int64()), ("q_lat", pa.int64()), ("resolved", pa.bool_())]
)


def knn_queries(
    points: rio.Blocks,
    k: int = 3,
    id_col: str = "osm_id",
    query_col: str = "_is_query",
    zoom: int = 6,
    halo: int = 1,
) -> pd.DataFrame:
    """EXACT kNN for a FLAGGED SUBSET of the points, fully distributed —
    the scale path when the query set itself grows with the corpus (the
    per-query kernels above take a driver-built Python list, which is
    O(corpus) driver state when queries are e.g. every 17th entity).

    Shape (asymmetric halo join — cheaper than ``knn_all``'s 9x corpus
    replication when queries are a sparse subset):

    1. scatter: every point goes to its OWN grid cell once; every
       flagged query is additionally replicated to its (2*halo+1)^2
       halo cells. Shuffle volume = corpus + queries x (2*halo+1)^2.
    2. shuffle by cell (``io.reduce_by_key``): per-cell vectorized
       distance matrix (queries in
       the cell x candidate points of the cell), emitting each query's
       per-cell top-k candidates by (dist2, neighbor_id). The home cell
       additionally emits one sentinel row per query (neighbor -1,
       dist2 inf) so queries with empty neighborhoods still reach the
       resolve stage.
    3. shuffle by query: DISTRIBUTED per-query top-k resolve —
       one lexsort per bucket, running k-th distance vs the guaranteed
       radius (distance from the query point to the edge of its
       explored block; a side that reaches the grid border guards
       infinite — nothing exists beyond the planar world). Strict ``<``
       so boundary ties fall through to the fallback, same rule as
       ``knn_all``.
    4. the rare unresolved queries (sparse neighborhoods) fall back to
       one brute-force broadcast pass — O(stragglers) driver state, by
       construction small when ``zoom`` matches point density.

    Exactness is zoom/halo-independent (the guarantee adapts); zoom
    picks the partitioning granularity, halo trades replication for
    fewer fallbacks. Planar e7 distances, no antimeridian wrap (same
    contract as ``knn_points``).
    """
    from ..model import LAT_MOD, LON_MOD
    from .grid import cell_id

    nx = 1 << zoom
    ny = max(1, 1 << (zoom - 1))
    w = LON_MOD / nx
    h = LAT_MOD / ny
    side = 2 * halo + 1

    def scatter(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = batch["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        qf = batch[query_col].to_numpy(zero_copy_only=False).astype(bool)
        cells = cell_id(lon, lat, zoom)
        qi = np.flatnonzero(qf)
        reps = np.repeat(qi, side * side)
        off = np.tile(np.arange(side * side), len(qi))
        ox = off % side - halo
        oy = off // side - halo
        tx = (cells % nx)[reps] + ox
        ty = (cells // nx)[reps] + oy
        valid = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
        reps2, tx, ty = reps[valid], tx[valid], ty[valid]
        home = (ox[valid] == 0) & (oy[valid] == 0)
        return pa.table(
            {
                "tcell": pa.array(np.concatenate([cells, ty * nx + tx])),
                id_col: pa.array(np.concatenate([ids, ids[reps2]])),
                "lon_e7": pa.array(np.concatenate([lon, lon[reps2]])),
                "lat_e7": pa.array(np.concatenate([lat, lat[reps2]])),
                "_q": pa.array(
                    np.concatenate([np.zeros(len(ids), dtype=bool), np.ones(len(reps2), dtype=bool)])
                ),
                "_home": pa.array(
                    np.concatenate([np.zeros(len(ids), dtype=bool), home])
                ),
            }
        )

    def cells(t: pa.Table) -> pa.Table:
        """Per target cell, every query's top-k candidates among the
        cell's points by (d2, tie-inclusive), plus one sentinel row per
        query in its home cell (neighbor -1, d2 inf); numpy columns
        gathered over the cells and concatenated once."""
        tc = t["tcell"].to_numpy(zero_copy_only=False)
        o = np.argsort(tc, kind="stable")
        tc = tc[o]
        qm = t["_q"].to_numpy(zero_copy_only=False)[o]
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[o]
        lon = t["lon_e7"].to_numpy(zero_copy_only=False).astype(np.float64)[o]
        lat = t["lat_e7"].to_numpy(zero_copy_only=False).astype(np.float64)[o]
        ends = np.flatnonzero(np.r_[tc[1:] != tc[:-1], True]) + 1 if len(tc) else []
        parts = []
        for a, b in zip(np.r_[0, ends[:-1]], ends):
            ci = a + np.flatnonzero(qm[a:b])
            pi = a + np.flatnonzero(~qm[a:b])
            if not len(ci) or not len(pi):
                continue
            qid = ids[ci]
            dx = lon[ci][:, None] - lon[pi][None, :]
            dy = lat[ci][:, None] - lat[pi][None, :]
            d2 = dx * dx + dy * dy
            d2[ids[pi][None, :] == qid[:, None]] = np.inf  # self-exclusion
            take = min(k, len(pi))
            part = np.argpartition(d2, take - 1, axis=1)[:, :take]
            kth = np.take_along_axis(d2, part, axis=1).max(axis=1)
            qrow, crow = np.nonzero((d2 <= kth[:, None]) & np.isfinite(d2))  # tie-inclusive
            parts.append((qid[qrow], ids[pi][crow], d2[qrow, crow], ci[qrow]))
        # sentinel: every query surfaces in the resolve stage
        hm = np.flatnonzero(qm & t["_home"].to_numpy(zero_copy_only=False)[o])
        parts.append((ids[hm], np.full(len(hm), -1, dtype=np.int64), np.full(len(hm), np.inf), hm))
        qid, nid, d2, at = (np.concatenate(c) for c in zip(*parts))
        return pa.table(
            {"query_id": qid, "neighbor_id": nid, "d2": d2,
             "q_lon": lon[at].astype(np.int64), "q_lat": lat[at].astype(np.int64)}
        )

    def resolve(t: pa.Table) -> pa.Table:
        qid, d2, nid, qlon, qlat = (
            t[c].to_numpy(zero_copy_only=False)
            for c in ("query_id", "d2", "neighbor_id", "q_lon", "q_lat")
        )
        o = np.lexsort((nid, d2, qid))
        qid, d2, nid = qid[o], d2[o].astype(np.float64), nid[o]
        qlon, qlat = qlon[o].astype(np.float64), qlat[o].astype(np.float64)
        # an empty group has no starts, so it resolves to typed empties
        starts = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]][: len(qid)])
        cnt = np.diff(np.r_[starts, len(qid)])
        # sentinels (d2=inf) sort last, so they only reach the k-th slot
        # when a query has < k real candidates — which correctly forces
        # kth=inf and the fallback below
        take = np.minimum(cnt, k)
        offset = np.arange(len(qid)) - np.repeat(starts, cnt)
        sel = offset < np.repeat(take, cnt)
        kth = d2[starts + take - 1]
        # guaranteed radius: explored block edges; grid-border sides
        # guard infinite (no planar points beyond the world edge)
        ql, qt = qlon[starts], qlat[starts]
        cx = ((ql.astype(np.int64) + LON_MOD // 2) % LON_MOD) * nx // LON_MOD
        cy = np.minimum((qt.astype(np.int64) + LAT_MOD // 2) * ny // LAT_MOD, ny - 1)
        xlo = np.where(cx - halo >= 0, (cx - halo) * w - LON_MOD / 2, -np.inf)
        xhi = np.where(cx + halo <= nx - 1, (cx + halo + 1) * w - LON_MOD / 2, np.inf)
        ylo = np.where(cy - halo >= 0, (cy - halo) * h - LAT_MOD / 2, -np.inf)
        yhi = np.where(cy + halo <= ny - 1, (cy + halo + 1) * h - LAT_MOD / 2, np.inf)
        guard = np.minimum(np.minimum(ql - xlo, xhi - ql), np.minimum(qt - ylo, yhi - qt))
        guard = np.maximum(guard, 0.0)  # antimeridian cell-index wrap clamp
        resolved = (cnt >= k) & (kth < guard * guard)
        return pa.table(
            {
                "query_id": qid[sel].astype(np.int64),
                "neighbor_id": nid[sel].astype(np.int64),
                "d2": d2[sel],
                "q_lon": qlon[sel].astype(np.int64),
                "q_lat": qlat[sel].astype(np.int64),
                "resolved": np.repeat(resolved, cnt)[sel],
            },
            schema=_RESOLVED,
        )

    # adaptive operating point (the combine_partials philosophy: the
    # distributed machinery is for data that NEEDS it). For an input
    # whose row count (``io.num_rows``, known without running anything)
    # is small, the two shuffles' tasks cost more than one driver pass
    # over the SAME scatter/cell/resolve kernels. Driver memory is
    # bounded by DRIVER_GATE, never by the corpus.
    points = rio.as_blocks(points)
    if rio.num_rows(points) <= DRIVER_GATE:
        res = resolve(cells(scatter(rio.blocks_table(points))))
    else:
        # shuffle by target cell, then by query (the cell buckets are
        # its input): resolve groups by query_id, so a bucket holding
        # all of a query's rows resolves it
        partials = rio.reduce_by_key(points, ["tcell"], cells, stage=scatter)
        # output-sized: <= queries x (k + boundary ties) rows
        res = rio.blocks_table(rio.reduce_by_key(partials, ["query_id"], resolve))
        if not res.num_columns:  # every input block schema-less: no rows
            res = _RESOLVED.empty_table()
    qid, nid, d2 = (
        res[c].to_numpy(zero_copy_only=False) for c in ("query_id", "neighbor_id", "d2")
    )
    ok = res["resolved"].to_numpy(zero_copy_only=False)
    good = ok & (nid >= 0)
    qid, nid, d2 = qid[good], nid[good], d2[good]
    # res is in query order: the first row of each unresolved query
    _, first = np.unique(res["query_id"].to_numpy(zero_copy_only=False)[~ok], return_index=True)
    if len(first):
        rows = res.filter(pa.array(~ok)).take(pa.array(first))
        queries = list(zip(*(rows[c].to_pylist() for c in ("query_id", "q_lon", "q_lat"))))
        brute = knn_points(points, queries, k=k, id_col=id_col)
        qid = np.r_[qid, brute["query_id"].to_numpy(dtype=np.int64)]
        nid = np.r_[nid, brute["neighbor_id"].to_numpy(dtype=np.int64)]
        d2 = np.r_[d2, brute["dist2"].to_numpy(dtype=np.float64)]
    idx, rank = _topk_order(qid, d2, nid, k)
    return pd.DataFrame(
        {"query_id": qid[idx].astype(np.int64), "neighbor_id": nid[idx].astype(np.int64),
         "rank": rank, "dist2": d2[idx].astype(np.float64)}
    )


# ------------------------------------------------------------ kNN-all
def knn_all(
    points: rio.Blocks,
    k: int = 3,
    id_col: str = "osm_id",
    zoom: int = 3,
) -> pd.DataFrame:
    """EXACT k nearest neighbors for EVERY point (kNN-all) — the
    all-pairs workload the per-query kernels cap out on.

    Shape: halo-replicated neighborhood join. Each point is emitted to
    its own grid cell AND its 8 neighbors (9x replication — the halo);
    one shuffle by cell (``io.reduce_by_key``) then gives every cell's CORE points all
    candidates within the 3x3 block, and the per-group kNN is one
    vectorized distance matrix. A core point is RESOLVED when its k-th
    candidate distance is within the guaranteed radius (distance to the
    edge of the explored block — everything beyond is provably
    farther); the rare unresolved points (sparse cells) fall back to
    one brute-force pass. Partitioning assumption: a 3x3 block of
    cells fits in one group — pick ``zoom`` so cells hold O(100-10k)
    points; the shuffle volume is 9x the corpus, independent of k.
    """
    from ..model import LAT_MOD, LON_MOD
    from .grid import cell_id

    nx = 1 << zoom
    ny = max(1, 1 << (zoom - 1))
    w = LON_MOD / nx
    h = LAT_MOD / ny

    def replicate(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = batch["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        cells = cell_id(lon, lat, zoom)
        cx = cells % nx
        cy = cells // nx
        n = len(ids)
        reps = np.repeat(np.arange(n), 9)
        off = np.tile(np.arange(9), n)
        ox = off % 3 - 1
        oy = off // 3 - 1
        tx = cx[reps] + ox
        ty = cy[reps] + oy
        valid = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
        reps, tx, ty, ox, oy = reps[valid], tx[valid], ty[valid], ox[valid], oy[valid]
        return pa.table(
            {
                "tcell": pa.array(ty * nx + tx),
                id_col: pa.array(ids[reps]),
                "lon_e7": pa.array(lon[reps]),
                "lat_e7": pa.array(lat[reps]),
                "_core": pa.array((ox == 0) & (oy == 0)),
            }
        )

    _EMPTY_CAND = pd.DataFrame(
        {"query_id": pd.Series([], dtype="int64"),
         "neighbor_id": pd.Series([], dtype="int64"),
         "d2": pd.Series([], dtype="float64"),
         "q_lon": pd.Series([], dtype="int64"),
         "q_lat": pd.Series([], dtype="int64"),
         "resolved": pd.Series([], dtype="bool")}
    )

    def group_knn(tcell: int, g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(dtype=np.int64)
        lon = g["lon_e7"].to_numpy(dtype=np.float64)
        lat = g["lat_e7"].to_numpy(dtype=np.float64)
        core = g["_core"].to_numpy(dtype=bool)
        ci = np.flatnonzero(core)
        if len(ci) == 0:
            return _EMPTY_CAND
        cx, cy = tcell % nx, tcell // nx
        # explored block bounds in e7 (edges at the grid border explore
        # to the end of the world -> infinite guard on that side)
        xlo = (cx - 1) * w - LON_MOD / 2 if cx - 1 >= 0 else -np.inf
        xhi = (cx + 2) * w - LON_MOD / 2 if cx + 1 < nx else np.inf
        ylo = (cy - 1) * h - LAT_MOD / 2 if cy - 1 >= 0 else -np.inf
        yhi = (cy + 2) * h - LAT_MOD / 2 if cy + 1 < ny else np.inf

        dx = lon[ci][:, None] - lon[None, :]
        dy = lat[ci][:, None] - lat[None, :]
        d2 = dx * dx + dy * dy
        # exclude by ID equality, not position: knn_points and the
        # sparse-cell brute fallback both id-exclude, so a duplicate-id
        # input must not give path-dependent results
        d2[ids[ci][:, None] == ids[None, :]] = np.inf
        take = min(k, d2.shape[1] - 1)
        # flat accumulation: one DataFrame per GROUP, not per point
        q_parts, n_parts, d_parts, res_flags, n_rows = [], [], [], [], []
        for j, q in enumerate(ci):
            order = np.lexsort((ids, d2[j]))[:take] if take > 0 else np.array([], dtype=int)
            kth = d2[j][order[-1]] if take > 0 and len(order) else np.inf
            guard = max(
                0.0,  # antimeridian wrap can make the raw margin negative
                min(lon[q] - xlo, xhi - lon[q], lat[q] - ylo, yhi - lat[q]),
            )
            # resolved needs a FULL k candidates STRICTLY inside the
            # guarantee: a tied candidate exactly ON the block boundary
            # may be owned by an unexplored cell, so boundary ties fall
            # through to the brute pass; fewer than k found likewise
            resolved = len(order) == k and kth < guard * guard
            if len(order):
                n_parts.append(ids[order])
                d_parts.append(d2[j][order])
                n_rows.append(len(order))
            else:
                n_parts.append(np.array([-1], dtype=np.int64))
                d_parts.append(np.array([np.inf]))
                n_rows.append(1)
            res_flags.append(resolved)
        n_rows = np.asarray(n_rows)
        qv = ids[ci]
        return pd.DataFrame(
            {
                "query_id": np.repeat(qv, n_rows),
                "neighbor_id": np.concatenate(n_parts),
                "d2": np.concatenate(d_parts),
                "q_lon": np.repeat(lon[ci].astype(np.int64), n_rows),
                "q_lat": np.repeat(lat[ci].astype(np.int64), n_rows),
                "resolved": np.repeat(np.asarray(res_flags, dtype=bool), n_rows),
            }
        )

    def cells(rep: pd.DataFrame) -> pd.DataFrame:
        frames = [group_knn(c, g) for c, g in rep.groupby("tcell", sort=False)]
        return pd.concat(frames, ignore_index=True) if frames else _EMPTY_CAND

    cand = rio.blocks_table(
        rio.reduce_by_key(points, ["tcell"], rio.on_pandas(cells), stage=replicate)
    ).to_pandas()
    resolved = cand[cand["resolved"] & (cand["neighbor_id"] >= 0)][
        ["query_id", "neighbor_id", "d2"]
    ]
    unresolved = cand[~cand["resolved"]][["query_id", "q_lon", "q_lat"]].drop_duplicates("query_id")
    if len(unresolved):
        # brute-force pass for the sparse-region remainder (rare by
        # construction when zoom matches density)
        queries = list(unresolved.itertuples(index=False, name=None))
        brute = knn_points(points, queries, k=k, id_col=id_col)
        resolved = pd.concat(
            [resolved, brute.rename(columns={"dist2": "d2"})[["query_id", "neighbor_id", "d2"]]],
            ignore_index=True,
        )
    out = _topk_reduce(resolved.rename(columns={"d2": "dist2"}), k, by="dist2", ascending=True)
    return out[["query_id", "neighbor_id", "rank", "dist2"]]
