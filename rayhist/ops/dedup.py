"""Deduplication operators: exact, n-gram Jaccard, MinHash-LSH, SimHash.

Target-only components for large-scale training-data pipelines. All
hashing is deterministic (no process salt) so results are identical
across workers, runs, and parallelism levels.

Shingling: 3-word shingles (``w[i] w[i+1] w[i+2]`` over a plain
whitespace split) — the same definition the DuckDB oracle uses, so the
exact-Jaccard operator is oracle-checkable; MinHash-LSH and SimHash
approximate the same similarity and are cross-checked against the
exact pairs in tests.

Scale notes (10^12 docs): every wide step is one ``io.reduce_by_key``
routed by its real key (shingle, LSH band key, doc pair, content
hash). The exact path's per-shingle pair explosion is quadratic in
per-shingle document frequency — the ``df_cap`` stop-shingle guard
(exact_jaccard_pairs) bounds it, and the MinHash path's shuffle volume
is O(docs x bands). Verification is a co-group of candidate pairs with
the shingle pair counts on the doc pair, with the threshold applied in
each bucket.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import io as rio

SHINGLE_N = 3
MERSENNE = (1 << 61) - 1
N_PERM = 128
LSH_BANDS = 16  # x 8 rows = 128
SIMHASH_BITS = 64
# largest materialized corpus minhash_lsh_pairs runs in one driver pass;
# tests set it to 0 to run the distributed path on a small corpus
DRIVER_GATE = 64 * 1024


def md5_hex(texts) -> list[str]:
    # nulls behave as empty strings — the module-wide contract every
    # text consumer honors (tests: *_survive_null_text)
    return [hashlib.md5(("" if t is None else t).encode()).hexdigest() for t in texts]


def content_hash128(texts) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 128-bit content key as two INDEPENDENT 64-bit lanes
    (uint64 each): FNV-1a over the utf-8 bytes (ops.text.fnv1a_batch)
    and pandas' keyed siphash. A single 64-bit lane collides at the
    birthday bound (~4x10^9 docs — real at 10^12-doc scale and it
    would silently merge distinct texts); two independent lanes push
    the expected first collision past ~10^18 docs. No per-row Python —
    both lanes are numpy kernels. NOT cryptographic: adversarially
    chosen inputs can collide; use the md5 path for hostile corpora.

    Accepts a Python list OR a pyarrow string Array/ChunkedArray —
    the Arrow path feeds fnv1a_batch zero-copy (nulls as empty) and
    materializes Python objects once, for the siphash lane only."""
    import pyarrow.compute as pc

    from .text import fnv1a_batch

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        arr = pc.fill_null(texts, "")
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        h1 = fnv1a_batch(arr)
        h2 = hash64_arr(arr.to_numpy(zero_copy_only=False))
        return h1, h2
    lst = ["" if t is None else t for t in texts]
    h1 = fnv1a_batch(lst)
    h2 = hash64_arr(np.asarray(lst, dtype=object))
    return h1, h2


def shingle_set(text: str, n: int = SHINGLE_N) -> set[str]:
    """Docs shorter than n words have NO shingles — same as the oracle's
    ``generate_series(1, len(ws)-2)``, which emits nothing for them.
    (Reference definition; the batch path is explode_shingles.)"""
    ws = text.split(" ")
    if len(ws) < n:
        return set()
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def hash64_arr(strings) -> np.ndarray:
    """Deterministic (fixed-key, process-salt-free) vectorized 64-bit
    string hash — pandas' siphash kernel over an object array."""
    return pd.util.hash_array(np.asarray(strings, dtype=object), categorize=False)


def explode_shingles(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """(doc, text) -> one row per DISTINCT (doc, shingle), built with
    Arrow kernels end to end: split -> list offsets -> three shifted
    takes -> binary_join_element_wise -> group_by distinct. No Python
    loop over words."""
    import pyarrow.compute as pc

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    # a null text's split is a null list whose length is NaN -> int64
    # garbage in the offset math; treat nulls as empty (same defense
    # as text.explode_windows)
    texts = pc.fill_null(texts, "")
    parts = pc.split_pattern(texts, " ")
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(parts)
    n_sh = np.maximum(lens - (SHINGLE_N - 1), 0)
    total = int(n_sh.sum())
    if total == 0:
        return pa.table({id_col: batch[id_col].slice(0, 0), "shingle": pa.array([], type=pa.string())})
    doc_of_sh = np.repeat(np.arange(len(lens)), n_sh)
    sh_start = np.cumsum(n_sh) - n_sh
    local = np.arange(total) - sh_start[doc_of_sh]
    word_start = np.cumsum(lens) - lens
    base = word_start[doc_of_sh] + local
    words = [flat.take(pa.array(base + i)) for i in range(SHINGLE_N)]
    shingles = pc.binary_join_element_wise(*words, " ")
    ids = batch[id_col].combine_chunks() if isinstance(batch[id_col], pa.ChunkedArray) else batch[id_col]
    t = pa.table({id_col: ids.take(pa.array(doc_of_sh)), "shingle": shingles})
    # distinct per (doc, shingle) — C-level hash aggregation
    return pa.TableGroupBy(t, [id_col, "shingle"]).aggregate([]).select([id_col, "shingle"])


def exact_jaccard_pairs(
    docs: rio.Blocks,
    threshold_num: int = 1,
    threshold_den: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    df_cap: int = 1024,
) -> pd.DataFrame:
    """Exact n-gram Jaccard near-dup pairs with integer threshold test
    ``common * den >= union * num`` (no float compare). Pipeline:
    explode shingles (carrying each doc's set size batch-locally) ->
    one ``io.reduce_by_key`` on the shingle (pair expansion) -> one on
    the doc pair (combine + threshold) -> tiny hit set to the driver.

    No O(corpus) driver state: set sizes ride on the shingle rows (a
    doc's text lives in one batch, so its distinct-shingle count is
    batch-local), pair partials are combined by a SECOND shuffle
    keyed on the pair, and the threshold filter runs inside its
    buckets so only actual near-dup pairs ever reach the driver.

    ``df_cap`` is the stop-shingle document-frequency cap (the standard
    quadratic-pair-explosion guard): a shingle appearing in more than
    ``df_cap`` documents is skipped during pair expansion — exactly,
    with no extra pass, because a shingle's postings are complete
    within its bucket. Union sizes keep ALL shingles, so capping
    can only LOWER ``common`` — a false-negative-only trade. Pass
    ``df_cap=None`` to disable (the oracle twin is uncapped; the
    sandbox corpus has no shingle near the default cap, proven by
    pytest capped == uncapped)."""
    partials = rio.reduce_by_key(
        docs,
        ["shingle"],
        rio.on_pandas(lambda g: _pair_common_partials(g, id_col, df_cap)),
        stage=lambda b: _explode_with_sizes(b, id_col, text_col),
    )

    def combine_and_threshold(g: pd.DataFrame) -> pd.DataFrame:
        """Sum partial commons per pair (cross-bucket), then apply the
        integer threshold HERE so only hits leave the bucket."""
        pc_ = g.groupby(["doc_a", "doc_b"], as_index=False).agg(
            common=("common", "sum"), n_a=("n_a", "first"), n_b=("n_b", "first")
        )
        pc_["un"] = (pc_["n_a"] + pc_["n_b"] - pc_["common"]).astype("int64")
        hit = pc_[pc_["common"] * threshold_den >= pc_["un"] * threshold_num]
        return hit[["doc_a", "doc_b", "common", "un"]]

    hits = rio.reduce_by_key(partials, ["doc_a", "doc_b"], rio.on_pandas(combine_and_threshold))
    out = rio.blocks_table(hits).to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


class MinHashStage:
    """Routing stage: per-document MinHash signature + LSH band keys.

    Permutation parameters are derived deterministically in __init__
    (once, on the driver; the instance ships with the routing tasks);
    per batch the work is fully vectorized: one shingle explode (Arrow
    kernels), one siphash over unique shingles, one (rows x perms)
    affine transform, and a per-document ``minimum.reduceat`` — no
    Python loop over documents or shingles.
    """

    def __init__(self, n_perm: int = N_PERM, bands: int = LSH_BANDS):
        rng = np.random.default_rng(0xD1CE)
        self.a = rng.integers(1, MERSENNE, n_perm, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE, n_perm, dtype=np.uint64)
        self.n_perm = n_perm
        self.bands = bands
        self.rows = n_perm // bands

    def signature(self, shingles: set[str]) -> np.ndarray:
        """Single-doc signature (reference/tests); the batch path below
        computes the identical values via reduceat."""
        if not shingles:
            return np.full(self.n_perm, MERSENNE, dtype=np.uint64)
        h = hash64_arr(sorted(shingles))
        prod = (h[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(MERSENNE)
        return prod.min(axis=0)

    def _band_keys(self, sigs: np.ndarray) -> np.ndarray:
        """(docs, n_perm) -> (docs, bands) int64 keys: polynomial
        combine of each band's rows (vectorized; replaces per-doc md5)."""
        chunks = sigs.reshape(len(sigs), self.bands, self.rows)
        key = chunks[:, :, 0].copy()
        P = np.uint64(0x9E3779B97F4A7C15)
        for r in range(1, self.rows):
            key = key * P ^ chunks[:, :, r]
        key ^= np.arange(self.bands, dtype=np.uint64)[None, :]  # band salt
        return key.view(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        ex = explode_shingles(batch)
        # rows sorted by doc position for reduceat
        import pyarrow.compute as pc

        ids_col = batch["doc_id"]
        if isinstance(ids_col, pa.ChunkedArray):
            ids_col = ids_col.combine_chunks()
        ids_all = ids_col.to_pylist()
        # id -> batch position as one C kernel, not a per-row dict scan
        doc_idx = pc.index_in(ex["doc_id"], value_set=ids_col).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        order = np.argsort(doc_idx, kind="stable")
        doc_idx = doc_idx[order]
        h = hash64_arr(np.asarray(ex["shingle"].to_pylist(), dtype=object))[order]
        sigs = np.full((n, self.n_perm), MERSENNE, dtype=np.uint64)
        has_shingles = np.zeros(n, dtype=bool)
        if len(doc_idx):
            starts = np.flatnonzero(np.r_[True, doc_idx[1:] != doc_idx[:-1]])
            # affine transform over UNIQUE shingle hashes only (docs
            # share shingles — ~10x fewer rows on the sandbox corpus),
            # with the Mersenne mod as shift-add folding: 2^61 === 1
            # (mod 2^61-1), so x % M == fold(x) for every uint64 —
            # value-identical to the % in signature() (pinned by the
            # batch-vs-reference pytest and a full-range fold test)
            # but no per-element division. Perm-chunked so the gather
            # + reduceat intermediates stay cache-sized. Measured
            # 8.3 s -> 0.4 s on the sf0.1 corpus (260k shingle rows).
            hu, inv = np.unique(h, return_inverse=True)
            M = np.uint64(MERSENNE)
            mins = np.empty((len(starts), self.n_perm), dtype=np.uint64)
            for c0 in range(0, self.n_perm, 32):
                c1 = min(c0 + 32, self.n_perm)
                p = hu[:, None] * self.a[None, c0:c1]
                p += self.b[None, c0:c1]
                q = (p >> np.uint64(61)) + (p & M)
                np.subtract(q, M, out=q, where=q >= M)
                mins[:, c0:c1] = np.minimum.reduceat(q[inv], starts, axis=0)
            sigs[doc_idx[starts]] = mins
            has_shingles[doc_idx[starts]] = True
        # docs with NO shingles (fewer than SHINGLE_N words) emit no
        # band rows at all: they cannot be near-dups under the shingle
        # Jaccard definition, and giving them a shared sentinel
        # signature would collide every short doc in every band — a
        # quadratic candidate explosion at corpus scale
        keep = np.flatnonzero(has_shingles)
        keys = self._band_keys(sigs[keep])  # (n_keep, bands)
        out_id = np.repeat(np.asarray(ids_all, dtype=object)[keep], self.bands)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=batch["doc_id"].type),
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), len(keep))),
                "key": pa.array(keys.ravel() if len(keep) else np.array([], dtype=np.int64)),
            }
        )


def lsh_bands_for_threshold(
    threshold_num: int, threshold_den: int, n_perm: int = N_PERM
) -> int:
    """Band count whose S-curve midpoint sits at or below the
    verification threshold. The candidate probability of a pair at
    Jaccard J under (bands b, rows r=n_perm/b) is 1-(1-J^r)^b, with
    midpoint (1/b)^(1/r); a geometry whose midpoint EXCEEDS the
    threshold silently misses most pairs just above it (16x8's
    midpoint is 0.71 — at J=0.5 only ~6% of true pairs ever become
    candidates). Pick the fewest bands (cheapest: fewer band rows and
    buckets) whose midpoint <= threshold."""
    thr = threshold_num / threshold_den
    for b in (4, 8, 16, 32, 64):
        r = n_perm // b
        if (1.0 / b) ** (1.0 / r) <= thr:
            return b
    return 64


def _explode_with_sizes(b: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Distinct (doc, shingle) rows with the doc's distinct-shingle
    count riding along as ``n`` (a doc's text is one row, so the count
    is batch-local exact)."""
    t = explode_shingles(b, id_col, text_col)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    _uq, inv, cnt = np.unique(ids, return_inverse=True, return_counts=True)
    return t.append_column("n", pa.array(cnt[inv].astype(np.int64)))


def _pair_common_partials(
    g: pd.DataFrame, id_col: str = "doc_id", df_cap: int | None = None
) -> pd.DataFrame:
    """Pair partial counts (shared shingles) for every shingle in
    ``g`` — a shingle's postings are complete in its bucket — with set
    sizes riding along; a shingle in more than ``df_cap`` documents
    is skipped (None: uncapped, as the MinHash verification counts
    every shared shingle). Triangular expansion per shingle run,
    vectorized over one sorted frame; the same kernel for the
    distributed per-bucket reduce and the gated driver pass (one
    'bucket' = the whole frame)."""
    g = g.sort_values(["shingle", id_col], kind="mergesort")
    sh_v = g["shingle"].to_numpy()
    ids = g[id_col].to_numpy()
    szs = g["n"].to_numpy()
    starts = np.flatnonzero(np.r_[True, sh_v[1:] != sh_v[:-1]])
    ends = np.r_[starts[1:], len(sh_v)]
    das, dbs, nas, nbs = [], [], [], []
    for s, e in zip(starts, ends):
        n = e - s
        if n < 2 or (df_cap is not None and n > df_cap):  # stop-shingle
            continue
        ii, jj = np.triu_indices(n, k=1)
        das.append(ids[s + ii])
        dbs.append(ids[s + jj])
        nas.append(szs[s + ii])
        nbs.append(szs[s + jj])
    if not das:
        z = np.array([], dtype=np.int64)
        return pd.DataFrame({"doc_a": ids[:0], "doc_b": ids[:0], "common": z, "n_a": z, "n_b": z})
    df = pd.DataFrame(
        {
            "doc_a": np.concatenate(das),
            "doc_b": np.concatenate(dbs),
            "n_a": np.concatenate(nas),
            "n_b": np.concatenate(nbs),
        }
    )
    return df.groupby(["doc_a", "doc_b"], as_index=False).agg(
        common=("n_a", "size"), n_a=("n_a", "first"), n_b=("n_b", "first")
    )


def _threshold_hits(
    counts: pd.DataFrame, cp: pd.DataFrame, threshold_num: int, threshold_den: int
) -> pd.DataFrame:
    """Candidate restriction + integer Jaccard threshold: inner-merge
    the summed pair counts with the (deduped) candidate pairs, compute
    the union size, keep common/union >= num/den."""
    counts = counts.merge(cp, on=["doc_a", "doc_b"], how="inner")
    counts["common"] = counts["common"].astype("int64")
    counts["un"] = (counts["n_a"] + counts["n_b"] - counts["common"]).astype("int64")
    hit = counts[
        (counts["un"] > 0)
        & (counts["common"] * threshold_den >= counts["un"] * threshold_num)
    ]
    return hit[["doc_a", "doc_b", "common", "un"]]


def _segment_candidate_pairs(
    ids: np.ndarray, band: np.ndarray, key: np.ndarray
) -> pd.DataFrame:
    """All unordered id pairs (id-ascending) within each (band, key)
    group, for a candidate bucket or the gated driver pass: one
    lexsort, then one triangular gather per DISTINCT group size (LSH
    buckets are tiny, so a handful of sizes), instead of a pandas
    frame per group (2.4 s -> ~0.05 s at 6.7k groups)."""
    order = np.lexsort((ids, key, band))
    ids, band, key = ids[order], band[order], key[order]
    new = np.r_[True, (band[1:] != band[:-1]) | (key[1:] != key[:-1])]
    starts = np.flatnonzero(new)
    counts = np.diff(np.r_[starts, len(ids)])
    das, dbs = [], []
    for s in np.unique(counts):
        if s < 2:
            continue
        sel = starts[counts == s]
        mat = ids[sel[:, None] + np.arange(s)[None, :]]  # rows id-sorted
        ii, jj = np.triu_indices(s, k=1)
        das.append(mat[:, ii].ravel())
        dbs.append(mat[:, jj].ravel())
    if not das:
        return pd.DataFrame({"doc_a": ids[:0], "doc_b": ids[:0]})
    return pd.DataFrame(
        {"doc_a": np.concatenate(das), "doc_b": np.concatenate(dbs)}
    )


def _minhash_lsh_pairs_local(
    tbl: pa.Table, threshold_num: int, threshold_den: int, bands: int
) -> pd.DataFrame:
    """Gated driver pass: the SAME signature / band / pair / verify
    kernels as the distributed path, run over one in-memory table
    (one bucket per stage). Byte-identical results by construction —
    every distributed decomposition is an associative regroup of
    these kernels (A/B-pinned in tests)."""
    stage = MinHashStage(bands=bands)
    bt = stage(tbl).to_pandas()
    bt = bt[bt.duplicated(["band", "key"], keep=False)]
    empty = pd.DataFrame(columns=["doc_a", "doc_b", "common", "un"])
    cp = _segment_candidate_pairs(
        bt["doc_id"].to_numpy(), bt["band"].to_numpy(), bt["key"].to_numpy()
    ).drop_duplicates()
    if cp.empty:
        return empty
    import pyarrow.compute as pc

    ids = pd.unique(pd.concat([cp["doc_a"], cp["doc_b"]], ignore_index=True))
    sub = tbl.filter(
        pc.is_in(tbl["doc_id"], value_set=pa.array(ids, type=tbl["doc_id"].type))
    )
    ex = _explode_with_sizes(sub).to_pandas()
    counts = _pair_common_partials(ex)
    hits = _threshold_hits(counts, cp, threshold_num, threshold_den)
    if hits.empty:
        return empty
    return hits.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def minhash_lsh_pairs(
    docs: rio.Blocks,
    threshold_num: int = 1,
    threshold_den: int = 2,
    bands: int | None = None,
) -> pd.DataFrame:
    """MinHash+LSH near-dup pairs: shingle -> minhash -> band -> one
    ``io.reduce_by_key`` on (band, key) for the candidate pairs ->
    DISTRIBUTED exact-Jaccard verification. NOTHING corpus- or
    candidate-sized ever lands on the driver — candidates stay in the
    object store end to end (the round-3 version broadcast frozensets
    of the candidate set, which is itself huge at 10^12 docs):

    1. ``MinHashStage`` is the routing stage: signatures and band keys
       are computed in the block task that routes them; each bucket
       emits the candidate pairs of its (band, key) groups
       (cross-band duplicates included);
    2. the candidate DOC ids are SEMI-JOINED back to the corpus via
       the partitioned ``hash_semi_join`` (duplicate-key tolerant, so
       no dedup shuffle) — the shingle explode below only ever sees
       candidate docs;
    3. intersection counts come from the same per-shingle pair
       expansion as the exact path (uncapped, matching the original
       verification: candidate docs are a small subset);
    4. pair partials and candidate pairs are co-grouped on the pair
       (``relational._cogroup``); each bucket dedups the candidate
       side, inner-merges (the candidate restriction), sums commons,
       and applies the integer threshold — only true hits reach the
       driver.
    """
    from .relational import _cogroup, _tag_side, hash_semi_join

    # LSH geometry FOLLOWS the verification threshold (the S-curve
    # rule, lsh_bands_for_threshold): the default 1/2 threshold gets
    # 32 bands x 4 rows (midpoint ~0.42), not the historical 16x8
    # (midpoint ~0.71, which finds almost nothing at J ~ 0.5)
    if bands is None:
        bands = lsh_bands_for_threshold(threshold_num, threshold_den)

    # adaptive operating point (the knn_queries precedent, BASELINE.md
    # round-5 notes): the pipeline below is five task rounds, mostly
    # scheduling overhead at few-thousand-doc scale (1 cpu, median of
    # 3: 703 ms against the driver pass's 207 ms on the sf0.01 corpus,
    # 1883 against 1562 ms on sf0.1). For an input whose small row
    # count is small (``io.num_rows``, known without running anything),
    # run the SAME kernels in one driver pass.
    # Driver memory is bounded by DRIVER_GATE, never by the corpus; the
    # distributed path is A/B-pinned byte-identical against this one.
    n = rio.num_rows(docs)
    if n <= DRIVER_GATE:
        tbl = rio.blocks_table(docs)
        return _minhash_lsh_pairs_local(tbl, threshold_num, threshold_den, bands)

    def candidate_pairs(t: pa.Table) -> pa.Table:
        ids, band, key = (t[c].to_numpy(zero_copy_only=False) for c in ("doc_id", "band", "key"))
        return pa.Table.from_pandas(_segment_candidate_pairs(ids, band, key), preserve_index=False)

    # candidate pairs, cross-band duplicates included, as bucket refs
    stage = MinHashStage(bands=bands)
    cand = rio.reduce_by_key(docs, ["band", "key"], candidate_pairs, stage=stage)

    # ---- candidate doc ids (block-local dedup only: the semi-join
    # tolerates duplicate right keys, so no dedicated dedup shuffle)
    def pair_ids(b: pa.Table) -> pa.Table:
        ids = pa.concat_arrays([b["doc_a"].combine_chunks(), b["doc_b"].combine_chunks()])
        return pa.TableGroupBy(pa.table({"doc_id": ids}), ["doc_id"]).aggregate([])

    # ---- semi-join: only candidate docs reach the shingle explode
    filtered = hash_semi_join(docs, rio.materialize_blocks(cand, pair_ids), on="doc_id")
    partials = rio.reduce_by_key(
        filtered, ["shingle"], rio.on_pandas(_pair_common_partials), stage=_explode_with_sizes
    )

    # ---- co-group candidate pairs (side 0) with pair partials (side
    # 1) on the pair; combine + restrict + threshold in each bucket
    # (only hits leave)
    def combine_and_threshold(g: pd.DataFrame) -> pd.DataFrame:
        cp = g[g["_side"] == 0][["doc_a", "doc_b"]].drop_duplicates()
        counts = g[g["_side"] == 1].groupby(["doc_a", "doc_b"], as_index=False).agg(
            common=("common", "sum"), n_a=("n_a", "first"), n_b=("n_b", "first")
        )
        return _threshold_hits(counts, cp, threshold_num, threshold_den)

    hits = _cogroup(
        rio.materialize_blocks(cand, lambda t: _tag_side(t, 0)),
        rio.materialize_blocks(partials, lambda t: _tag_side(t, 1)),
        ["doc_a", "doc_b"],
        combine_and_threshold,
    )
    out = rio.blocks_table(hits).to_pandas()  # hit-sized: only verified near-dup pairs
    if out.empty:
        return pd.DataFrame(columns=["doc_a", "doc_b", "common", "un"])
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def simhash64(shingles: set[str]) -> int:
    """Unweighted 64-bit SimHash over shingle hashes (single-doc
    reference; the batch stage computes identical values vectorized)."""
    if not shingles:
        return 0
    h = hash64_arr(sorted(shingles))
    bits = (h[:, None] >> np.arange(SIMHASH_BITS, dtype=np.uint64)[None, :]) & np.uint64(1)
    votes = bits.sum(axis=0) * 2 > len(h)
    return int(votes.astype(np.uint64) @ (np.uint64(1) << np.arange(SIMHASH_BITS, dtype=np.uint64)))


def simhash_pairs(docs: rio.Blocks, max_hamming: int = 3) -> pd.DataFrame:
    """SimHash near-dup pairs: 64-bit fingerprints bucketed by 4
    16-bit chunks (any pair within hamming<=3 shares at least one of 4
    chunks by pigeonhole), verified by exact hamming distance. Both the
    fingerprint stage and the per-group verification are vectorized
    (reduceat bit votes; unpackbits popcount)."""
    if max_hamming > 3:
        # 4 chunks guarantee recall only up to hamming 3 (pigeonhole:
        # 4 differing bits can land in 4 distinct chunks and share no
        # bucket) — silently missing pairs is worse than refusing
        raise ValueError(
            f"max_hamming={max_hamming} exceeds the 4x16-bit chunk "
            "blocking's recall guarantee (hamming <= 3)"
        )

    def stage(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = len(batch)
        ids_col = batch["doc_id"]
        if isinstance(ids_col, pa.ChunkedArray):
            ids_col = ids_col.combine_chunks()
        ids_all = ids_col.to_pylist()
        ex = explode_shingles(batch)
        # id -> batch position as one C kernel (the MinHashStage
        # pattern), not a per-row Python dict scan
        doc_idx = pc.index_in(ex["doc_id"], value_set=ids_col).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        order = np.argsort(doc_idx, kind="stable")
        doc_idx = doc_idx[order]
        h = hash64_arr(np.asarray(ex["shingle"].to_pylist(), dtype=object))[order]
        bits = (h[:, None] >> np.arange(SIMHASH_BITS, dtype=np.uint64)[None, :]) & np.uint64(1)
        sigs = np.zeros(n, dtype=np.uint64)
        has_shingles = np.zeros(n, dtype=bool)
        if len(doc_idx):
            starts = np.flatnonzero(np.r_[True, doc_idx[1:] != doc_idx[:-1]])
            votes = np.add.reduceat(bits, starts, axis=0)
            counts = np.diff(np.r_[starts, len(doc_idx)])
            maj = votes * 2 > counts[:, None]
            weights = np.uint64(1) << np.arange(SIMHASH_BITS, dtype=np.uint64)
            sigs[doc_idx[starts]] = (maj.astype(np.uint64) * weights[None, :]).sum(axis=1)
            has_shingles[doc_idx[starts]] = True
        # no-shingle docs are excluded (see MinHashStage): sig 0 for
        # every short doc would both bucket-collide them all AND pass
        # hamming==0 verification as false near-dup pairs
        keep = np.flatnonzero(has_shingles)
        sigs = sigs[keep]
        out_id = np.repeat(np.asarray(ids_all, dtype=object)[keep], 4)
        chunk = np.tile(np.arange(4, dtype=np.int32), len(keep))
        sig4 = np.repeat(sigs, 4)
        key = (sig4 >> (np.uint64(16) * chunk.astype(np.uint64))) & np.uint64(0xFFFF)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=batch["doc_id"].type),
                "chunk": pa.array(chunk),
                "key": pa.array(key.astype(np.int64)),
                "sig": pa.array(sig4.view(np.int64)),
            }
        )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        ids, chunk, key = (t[c].to_numpy(zero_copy_only=False) for c in ("doc_id", "chunk", "key"))
        cp = _segment_candidate_pairs(ids, chunk, key)
        sig = pd.Series(t["sig"].to_numpy(zero_copy_only=False), index=ids)
        sig = sig[~sig.index.duplicated()]
        sa = sig.reindex(cp["doc_a"]).to_numpy(dtype=np.int64).view(np.uint64)
        sb = sig.reindex(cp["doc_b"]).to_numpy(dtype=np.int64).view(np.uint64)
        xor = (sa ^ sb).view(np.uint8).reshape(len(sa), 8)
        ham = np.unpackbits(xor, axis=1).sum(axis=1).astype(np.int64)
        ok = ham <= max_hamming
        out = cp[ok].assign(hamming=ham[ok])
        return pa.Table.from_pandas(out, preserve_index=False)

    refs = rio.reduce_by_key(docs, ["chunk", "key"], bucket_pairs, stage=stage)
    out = rio.blocks_table(refs).to_pandas().drop_duplicates(subset=["doc_a", "doc_b"])
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def exact_dedup(
    docs: rio.Blocks,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "vector128",
) -> rio.Blocks:
    """Exact dedup: content-hash -> keep the smallest-id row per hash.

    Scale shape (hash-partition + vectorized keep-first), NOT one
    call per distinct hash (group size is ~1, so per-group
    Python/pandas overhead would dominate):

    1. per-batch PARTIAL keep-first — each batch emits at most one row
       per distinct hash it contains, shrinking the shuffle;
    2. one ``io.reduce_by_key`` on the content hash: each bucket is
       one vectorized sort+drop_duplicates over all rows of its
       hashes. Returns the survivors' blocks.

    ``hash_fn``: ``"vector128"`` (default, the production path) keys on
    ``content_hash128`` — two vectorized 64-bit lanes, no per-row
    Python in the hot stage; ``"md5"`` keeps the per-row hashlib path
    (bit-mirrorable in SQL, collision-proof under hostile inputs).
    Survivors are identical under either key barring a 128-bit
    collision (asserted A/B in tests)."""
    hcols = ["_h"] if hash_fn == "md5" else ["_h1", "_h2"]

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(id_col, kind="mergesort").drop_duplicates(hcols, keep="first")

    def add_hash_and_partial(batch: pa.Table) -> pa.Table:
        if hash_fn == "md5":
            t = batch.append_column("_h", pa.array(md5_hex(batch[text_col].to_pylist())))
        else:
            # Arrow column straight through: fnv1a_batch reads the
            # utf-8 data buffer zero-copy (no per-row Python rebuild)
            h1, h2 = content_hash128(batch[text_col])
            t = batch.append_column("_h1", pa.array(h1.view(np.int64)))
            t = t.append_column("_h2", pa.array(h2.view(np.int64)))
        return pa.Table.from_pandas(keep_first(t.to_pandas()), preserve_index=False)

    return rio.reduce_by_key(
        docs, hcols, rio.on_pandas(lambda g: keep_first(g).drop(columns=hcols)),
        stage=add_hash_and_partial,
    )


def embedding_dup_pairs(
    embeddings: rio.Blocks,
    tau: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_blocks: int | None = None,
    target_group_bytes: int = 128 << 20,
) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs (cos >= tau, i < j),
    EXACT, via a distributed triangular block join.

    The corpus is hash-split into ``n_blocks`` blocks; every unordered
    block pair (bi <= bj) is one group of an ``io.reduce_by_key`` on
    (bi, bj), and each group computes ONE vectorized (block x block)
    matmul and emits only its above-threshold pairs. Shuffle volume is
    O(n * n_blocks) (each vector is replicated once per partner
    block); compute is the same O(n^2) flops as brute force but spread
    over B*(B+1)/2 independent groups — NOTHING is materialized on the
    driver and no matmul ever holds more than two blocks. (IVF bucketing would scale
    further but drops cross-bucket pairs; an exact threshold join needs
    the full triangle.)

    ``n_blocks`` SCALES WITH THE CORPUS by default: a group holds two
    blocks = ``2 * n / B`` rows, so ``B = ceil(2 * n * rowbytes /
    target_group_bytes)`` (floor 8) bounds per-group memory at
    ``target_group_bytes`` no matter how large the corpus grows — the
    same cluster-scaling rule as ``hash_join``'s bucket count
    (relational.py). A CONSTANT block count would make one group's
    matmul OOM at 100x corpus."""
    if n_blocks is None:
        def size(b: pa.Table) -> pa.Table:
            dim = pc.max(pc.list_value_length(b[vec_col])).as_py() or 1
            return pa.table({"n": pa.array([b.num_rows]), "dim": pa.array([dim])})

        sizes = rio.map_blocks(embeddings, size)
        n, dim = sum(sizes["n"].to_pylist()), max(sizes["dim"].to_pylist(), default=1)
        rowbytes = dim * 8 + 16  # float64 matmul copy + id/index overhead
        n_blocks = int(max(8, -(-2 * n * rowbytes // target_group_bytes)))

    def tag(batch: pa.Table) -> pa.Table:
        from .text import fmix64

        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # finalize before bucketing (the fmix64 rule): raw `ids %
        # n_blocks` collapses strided id spaces (ids all multiples of
        # a factor of n_blocks) into few blocks — one group then holds
        # the whole corpus and the per-group memory bound is gone
        blk = (fmix64(ids.astype(np.uint64)) % np.uint64(n_blocks)).astype(np.int64)
        n = len(ids)
        # each row joins every block pair it participates in
        reps = np.repeat(np.arange(n), n_blocks)
        other = np.tile(np.arange(n_blocks), n)
        my = blk[reps]
        bi = np.minimum(my, other)
        bj = np.maximum(my, other)
        # `other` hits each block exactly once, so each row lands in its
        # self-pair (b,b) once and in every cross pair (min,max) once —
        # no duplicates by construction
        t = batch.take(pa.array(reps))
        t = t.append_column("_bi", pa.array(bi))
        t = t.append_column("_bj", pa.array(bj))
        return t.append_column("_blk", pa.array(my))

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        bi, bj = int(g["_bi"].iloc[0]), int(g["_bj"].iloc[0])
        ids = g[id_col].to_numpy(dtype=np.int64)
        mat = np.stack(g[vec_col].to_numpy()).astype(np.float64)
        from ..spatial.knn import _unit_rows

        mat = _unit_rows(mat)  # zero-norm safe (a zero vector must not NaN its row)
        if bi == bj:
            sims = mat @ mat.T
            ii, jj = np.nonzero(sims >= tau)
            keep = ids[ii] < ids[jj]
            a, b, s = ids[ii[keep]], ids[jj[keep]], sims[ii[keep], jj[keep]]
        else:
            left = g["_blk"].to_numpy() == bi
            la, lb = ids[left], ids[~left]
            ma, mb = mat[left], mat[~left]
            sims = ma @ mb.T
            ii, jj = np.nonzero(sims >= tau)
            a0, b0, s = la[ii], lb[jj], sims[ii, jj]
            a, b = np.minimum(a0, b0), np.maximum(a0, b0)
        return pd.DataFrame({"vec_a": a, "vec_b": b, "cos_sim": s})

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        frames = [pair_group(x) for _, x in g.groupby(["_bi", "_bj"], sort=False)]
        if not frames:  # a bucket that received no block pair
            z = np.zeros(0, dtype=np.int64)
            return pd.DataFrame({"vec_a": z, "vec_b": z, "cos_sim": z.astype(np.float64)})
        return pd.concat(frames, ignore_index=True)

    refs = rio.reduce_by_key(embeddings, ["_bi", "_bj"], rio.on_pandas(pair_bucket), stage=tag)
    out = rio.blocks_table(refs).to_pandas()
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
