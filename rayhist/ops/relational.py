"""Relational primitives over Ray Datasets.

These are the generic map/filter/join/aggregate/sort building blocks
(SURVEY.md §2.3/2.7/2.9). Joins follow the broadcast pattern for small
sides (``ray.put`` once, pandas merge per batch — no shuffle); both-
sides-large joins and per-key operators shuffle through the one
primitive, ``io.reduce_by_key`` routed by the real key columns
(``_per_key`` for one input, ``_cogroup`` for two).

Money columns are converted to integer cents BEFORE aggregation so
sums are order-independent and bit-equal to the SQL oracles (float
sums are not associative; integer sums are).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import io as rio
from ..aggregate import value_counts


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round half AWAY from zero — the SQL ``round()`` contract (DuckDB,
    ANSI; C ``round()``). numpy's ``np.round`` is half-to-even and
    ``floor(abs(x)+0.5)`` rounds UP across the integer for values half
    an ulp below .5 (0.49999999999999994+0.5 == 1.0 in IEEE); this
    kernel compares the exact fractional part instead, so it matches
    DuckDB bit-for-bit on every double. Every value->integer derivation
    in the engine uses this function so the rounding contract is pinned
    in one place (mirrored by the oracle SQL's bare ``round()``)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.trunc(x)
    frac = x - t  # exact for |x| < 2^52 (money values always are)
    return t + np.where(np.abs(frac) >= 0.5, np.sign(x), 0.0)


def cents(batch: pa.Table, col: str, out: str) -> pa.Table:
    """round(x*100) as int64 — the exact-sum money representation
    (half-away rounding, matching SQL round()). Null money values are
    rejected loudly: NaN -> int64 is undefined (INT64_MIN on x86) and
    one null row would silently corrupt every downstream cents sum."""
    if batch[col].null_count:
        raise ValueError(
            f"cents: {batch[col].null_count} null value(s) in {col!r} — "
            "money columns must be non-null (filter or fill upstream)"
        )
    v = batch[col].to_numpy(zero_copy_only=False)
    return batch.append_column(out, pa.array(round_half_away(v * 100).astype(np.int64)))


def unpivot(
    ds: rio.Blocks,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "name",
    value_name: str = "value",
) -> rio.Blocks:
    """SQL UNPIVOT (wide -> long), the inverse of the PIVOT reshape:
    each input row becomes len(value_cols) rows carrying the id
    columns, the source column's name under ``var_name`` and its
    value under ``value_name``. Pure per-batch Arrow kernel — one
    zero-copy column slice plus a dictionary-encoded constant name
    column per measure, concatenated; no shuffle, no row loop, output
    streams at len(value_cols) x the input row count. Value columns
    must share one Arrow type (SQL UNPIVOT's same-type rule) so the
    long column is well-typed; mixed types raise loudly rather than
    silently promoting ints to float."""
    if not value_cols:
        raise ValueError("unpivot: value_cols must be non-empty")

    def fn(batch: pa.Table) -> pa.Table:
        types = {str(batch.schema.field(c).type) for c in value_cols}
        if len(types) > 1:
            raise ValueError(
                f"unpivot: value columns must share one type, got {sorted(types)}"
            )
        ids = [batch[c] for c in id_cols]
        parts = []
        for c in value_cols:
            name = pa.DictionaryArray.from_arrays(
                np.zeros(len(batch), dtype=np.int32), pa.array([c])
            )
            parts.append(
                pa.table(
                    {**dict(zip(id_cols, ids)), var_name: name, value_name: batch[c]}
                )
            )
        return pa.concat_tables(parts).unify_dictionaries()

    return rio.materialize_blocks(ds, fn)


_BCAST_CACHE: dict[bytes, pd.DataFrame] = {}


def _broadcast_get(ref) -> pd.DataFrame:
    """Per-worker-process memo of a broadcast ObjectRef: one ray.get /
    unpickle per process, then shared by every task the process runs.
    Capped (FIFO) so long sessions with many distinct dimension tables
    don't accumulate frames in every worker."""
    key = ref.binary()
    val = _BCAST_CACHE.get(key)
    if val is None:
        val = ray.get(ref)
        while len(_BCAST_CACHE) >= 8:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        _BCAST_CACHE[key] = val
    return val


def broadcast_join(
    ds: rio.Blocks,
    small: pd.DataFrame,
    on: str | list[str],
    how: str = "inner",
) -> rio.Blocks:
    """Hash join against a broadcast small side: the dimension table is
    put in the object store ONCE and merged per batch (no shuffle) —
    the Ray analog of the reference's denormalize-instead-of-join
    strategy (data-model.md:20-22). ONLY for fixed-size dimension
    tables (nation/region-class); a side that grows with the corpus
    belongs in hash_join. Only ``inner``/``left`` are sound per batch:
    a per-batch ``right``/``outer`` merge would re-emit the small
    side's unmatched rows once PER BATCH."""
    if how not in ("inner", "left"):
        raise ValueError(
            f"broadcast_join: how={how!r} unsupported — per-batch merges "
            "duplicate unmatched small-side rows; use hash_join"
        )
    ref = ray.put(small)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(_broadcast_get(ref), on=on, how=how)

    # the deserialized small side is memoized per worker PROCESS
    # (_broadcast_get), so each process pays the ray.get + unpickle
    # once. Parallelism follows the scan fan-out, uncapped.
    return rio.materialize_blocks(ds, rio.on_pandas(join))


def _per_key(ds, keys: list[str], fn, stage=None) -> rio.Blocks:
    """``fn`` (pandas -> pandas) over complete ``keys``: one
    ``io.reduce_by_key`` routed by the key columns (after ``stage``),
    its bucket outputs as the returned blocks. ``fn`` sees every row of
    its bucket's keys, and an empty typed frame for a bucket that
    received no rows."""
    return rio.reduce_by_key(ds, keys, rio.on_pandas(fn), stage=stage)


def _tag_side(t: pa.Table, side: int) -> pa.Table:
    return t.append_column("_side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))


def _side_columns(tagged: rio.Blocks) -> list[str]:
    """Column names of one tagged (``materialize_blocks``) side of a
    co-group, ``_side`` excluded (``io.schema``)."""
    return [c for c in rio.schema(tagged).names if c != "_side"]


def _cogroup(left: rio.Blocks, right: rio.Blocks, keys: list[str], fn) -> rio.Blocks:
    """The two-sided co-group: the blocks of both tagged
    (``materialize_blocks``) sides as one block list through one
    ``io.reduce_by_key`` on ``keys``, so each bucket holds all rows of
    its keys from both sides, the other side's columns null-filled.
    ``fn`` (pandas -> pandas) sees each bucket with its integer
    columns as nullable Int64: the null fill must not coerce an int64
    column to float64 (exact at any magnitude — money rule: integer
    cents). Returns the bucket outputs."""

    def reduce(t: pa.Table) -> pa.Table:
        g = t.to_pandas(
            types_mapper=lambda typ: pd.Int64Dtype() if pa.types.is_integer(typ) else None
        )
        return pa.Table.from_pandas(fn(g), preserve_index=False)

    both = rio.Blocks(left.refs + right.refs, left.rows + right.rows)
    return rio.reduce_by_key(both, keys, reduce)


def _is_int(s: pd.Series) -> bool:
    return isinstance(s.dtype, pd.Int64Dtype)


def _complete_ints(out: pd.DataFrame) -> pd.DataFrame:
    """Nullable Int64 columns without a null back to plain int64;
    columns with genuine nulls (outer joins) STAY Int64 — never
    float64."""
    for c in out.columns:
        if _is_int(out[c]) and out[c].notna().all():
            out[c] = out[c].astype("int64")
    return out


def topk(ds: rio.Blocks, key: str, k: int, tiebreak: str, descending: bool = True) -> pd.DataFrame:
    """Deterministic top-k: per-batch candidate top-k, then a global
    reduce — no full sort shuffle (ds.sort would move every row; this
    moves k rows per batch)."""

    def cand(batch: pa.Table) -> pa.Table:
        df = batch.select([key, tiebreak]).to_pandas()
        df = df.sort_values([key, tiebreak], ascending=[not descending, True], kind="mergesort")
        return pa.Table.from_pandas(df.head(k), preserve_index=False)

    allc = rio.map_blocks(ds, cand).to_pandas()
    allc = allc.sort_values([key, tiebreak], ascending=[not descending, True], kind="mergesort")
    return allc.head(k).reset_index(drop=True)


def topk_per_group(
    ds: rio.Blocks,
    group_col: str,
    key: str,
    k: int,
    tiebreak: str,
    descending: bool = True,
) -> rio.Blocks:
    """Deterministic top-k PER GROUP (the windowed
    ``row_number() <= k`` idiom). Two stages, both distributed: a
    per-batch candidate prune keeps at most k rows per group per batch
    (so at most blocks x groups x k rows shuffle — never the corpus),
    then one ``io.reduce_by_key`` on ``group_col`` resolves the final
    k with a 1-based ``rank`` column. Ties on ``key`` break by
    ``tiebreak`` ascending. Works at any group cardinality: low-card
    groups cost a small shuffle; high-card groups stay fully
    distributed."""
    asc = [not descending, True]

    def cand(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, key, tiebreak]).to_pandas()
        df = df.sort_values([key, tiebreak], ascending=asc, kind="mergesort")
        # dropna=False: SQL's PARTITION BY puts NULL groups together
        # and emits up to k of them too — pandas' default silently
        # drops every null-group row at the candidate stage
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False, dropna=False).head(k),
            preserve_index=False,
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, key, tiebreak], ascending=[True, *asc], kind="mergesort")
        g = g.groupby(group_col, sort=False, dropna=False).head(k)
        return g.assign(rank=g.groupby(group_col, sort=False, dropna=False).cumcount() + 1)

    return _per_key(ds, [group_col], final, stage=cand)


def exact_quantiles_int(ds: rio.Blocks, col: str, fracs: list[tuple[int, int]]) -> list[int]:
    """Exact discrete quantiles of an integer column: value at sorted
    index ((n-1)*num)//den, resolved over the value histogram
    (``value_histogram``) by its cumulative counts — no global sort."""
    values, cum = _ranked_values(ds, col, "exact_quantiles_int")
    n = int(cum[-1])
    # 0-based rank ((n-1)*num)//den is the first value whose cum passes it
    return [int(values[np.searchsorted(cum, ((n - 1) * num) // den + 1)]) for num, den in fracs]


def hash_join(
    left: rio.Blocks,
    right: rio.Blocks,
    on: str | list[str],
    how: str = "inner",
) -> rio.Blocks:
    """Both-sides-large equi-join (``how``: inner / left / outer —
    outer is SQL FULL OUTER; ``on``: one key column or a composite key
    as a list — a row with ANY null key component matches nothing, per
    SQL).

    Each side is tagged with its side in one stage, the blocks of both
    sides go through one ``io.reduce_by_key`` on the key columns, and
    each bucket (all rows of its keys from both sides) is merged in
    pandas — one shuffle, no broadcast. The bucket count is the input
    block count, which ``io.auto_num_blocks`` sizes from the input
    bytes, so per-bucket memory does not grow with the corpus.

    Ray >= 2.46 also ships ``Dataset.join``; this explicit form is kept
    because its partitioning is deterministic (resume-stable).
    """
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"hash_join: how={how!r} unsupported (inner/left/outer)")
    ons = [on] if isinstance(on, str) else list(on)

    def tag(side: int, keeps_nulls: bool):
        def fn(batch: pa.Table) -> pa.Table:
            # SQL join semantics: a NULL key matches nothing. Pandas'
            # merge would match NA==NA, so drop null-key rows at the
            # scan unless the join KEEPS unmatched rows from this side
            # (LEFT keeps left nulls, FULL OUTER keeps both); kept
            # null-key rows are routed around the in-bucket merge
            present = [c for c in ons if c in batch.schema.names]
            if not keeps_nulls and present:
                valid = pc.is_valid(batch[present[0]])
                for c in present[1:]:
                    valid = pc.and_(valid, pc.is_valid(batch[c]))
                batch = batch.filter(valid)
            return _tag_side(batch, side)

        return fn

    lt = rio.materialize_blocks(left, tag(0, how != "inner"))
    rt = rio.materialize_blocks(right, tag(1, how == "outer"))
    lcols, rnames = _side_columns(lt), _side_columns(rt)
    missing = [c for c in ons if c not in lcols or c not in rnames]
    if missing:
        raise ValueError(f"hash_join: key columns missing on a side: {missing}")
    rcols = [c for c in rnames if c not in ons]
    overlap = (set(lcols) - set(ons)) & set(rcols)
    if overlap:
        # a shared non-key name would collapse in the co-group table
        # and come back _x/_y-suffixed from the merge — rename upstream
        raise ValueError(f"hash_join: non-key columns on both sides: {sorted(overlap)}")

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        unmatched = None
        if how == "outer":
            # null keys survive a FULL OUTER join unmatched, but pandas
            # merge would pair NaN==NaN across sides — route them around
            # the merge
            nullk = g[ons].isna().any(axis=1)
            if nullk.any():
                unmatched = g[nullk]
                g = g[~nullk]
        lg = g[g["_side"] == 0][lcols]
        rg = g[g["_side"] == 1][[*ons, *rcols]]
        out = lg.merge(rg, on=ons, how=how)
        if unmatched is not None:
            out = pd.concat([out, unmatched[list(out.columns)]], ignore_index=True)
        return _complete_ints(out)

    return _cogroup(lt, rt, ons, join_bucket)


def hash_semi_join(
    left: rio.Blocks,
    right: rio.Blocks,
    on: str,
    bloom=None,
    anti: bool = False,
) -> rio.Blocks:
    """Both-sides-large SEMI-join: keep left rows whose key appears in
    ``right`` (right's other columns and duplicate keys are ignored —
    no row multiplication, unlike an inner ``hash_join`` against a
    non-deduped right side). One co-group shuffle of the left rows and
    the right keys (``io.reduce_by_key`` on ``on``); the in-bucket
    filter is a vectorized ``isin``.

    ``bloom``: optional ``functions.bloom.BloomFilter`` of the RIGHT
    keys (build with ``build_bloom(right, on, expected_distinct)``).
    When set, left batches are pre-pruned in the SCAN stage before the
    shuffle — false positives just ride to the exact in-bucket isin
    (results identical, pinned by test), false negatives are
    impossible, and at low match rates the shuffle moves a fraction of
    the left side. Broadcast once via ``ray.put``.

    ``anti=True`` flips to the ANTI-join (keep left rows whose key
    does NOT appear in right — SQL ``NOT IN`` with non-null keys).
    Bloom pruning is REJECTED for anti-joins: the pre-filter drops
    non-matching rows, which are exactly the anti-join's output."""
    if anti and bloom is not None:
        raise ValueError("bloom pruning is unsound for anti-joins")

    bloom_ref = ray.put(bloom) if bloom is not None else None

    def tag_left(batch: pa.Table) -> pa.Table:
        # SQL `k IN (...)` / `k NOT IN (...)` evaluates to unknown for
        # a NULL k -> the row is dropped in BOTH modes (pandas' isin
        # would instead match NaN==NaN and keep it)
        batch = batch.filter(pc.is_valid(batch[on]))
        if bloom_ref is not None:
            bf = ray.get(bloom_ref)
            batch = batch.filter(pa.array(bf.contains(batch[on])))
        return _tag_side(batch, 0)

    def tag_right(batch: pa.Table) -> pa.Table:
        # null right keys never match any left key in SQL — drop them
        # (the anti docstring's non-null contract covers the NOT IN
        # any-null-empties-the-result corner); only the key moves
        return _tag_side(batch.select([on]).filter(pc.is_valid(batch[on])), 1)

    lt = rio.materialize_blocks(left, tag_left)
    lcols = _side_columns(lt)

    def filter_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["_side"] == 0]
        keep = lg[on].isin(g.loc[g["_side"] == 1, on])
        return _complete_ints(lg[~keep if anti else keep][lcols])

    return _cogroup(lt, rio.materialize_blocks(right, tag_right), [on], filter_bucket)


def deterministic_sample(
    ds: rio.Blocks,
    rate_num: int,
    rate_den: int,
    key_col: str,
    hash_fn: str = "fnv1a",
) -> rio.Blocks:
    """Deterministic, resume-stable corpus sampling: keep a row iff the
    top 32 bits of hash(key) fall under ``rate_num/rate_den`` of the
    hash space (integer threshold — exact in every engine). The sample
    is a pure function of the key, so it is identical across runs,
    partitionings and parallelism levels, and NESTED: a lower-rate
    sample is always a subset of a higher-rate one (re-sampling an
    existing sample at a lower rate equals sampling the corpus at that
    lower rate directly — rates nest, they do not multiply).

    ``hash_fn``:
    - ``"fnv1a"`` (default, the production path): vectorized 64-bit
      FNV-1a over the key bytes (ops.text.fnv1a_batch) + the murmur
      fmix64 finalizer — FNV alone under-mixes the top bits of short
      keys (measured: a nominal 1/2 sample kept 98% of small-int doc
      ids), and the threshold reads the top 32 bits. No per-row
      Python in the hot filter.
    - ``"md5"``: per-row hashlib, bit-mirrorable in SQL
      (``('0x' || substr(md5(k),1,8))::UBIGINT < thresh``) — used by
      the oracle-checked twin; at corpus scale prefer fnv1a.
    """
    thresh = (rate_num << 32) // rate_den

    if hash_fn == "md5":
        import hashlib

        def stage(b: pa.Table) -> pa.Table:
            keys = b[key_col].to_pylist()
            mask = [
                int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) < thresh
                for k in keys
            ]
            return b.filter(pa.array(mask, type=pa.bool_()))

    else:

        def stage(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            from .text import fmix64, fnv1a_batch

            col = b[key_col]
            # C-kernel cast (int/decimal -> same digits as str());
            # fnv1a_batch reads the utf-8 buffer directly. Nulls map
            # to "None" (the legacy str() name) via fill_null so a
            # key's hash NEVER depends on whether a null co-resides in
            # its block (an all-str() fallback formatted bool/timestamp
            # keys differently in null-bearing blocks, breaking the
            # partitioning-invariance contract)
            keys = pc.cast(col, pa.string())
            if col.null_count:
                keys = pc.fill_null(keys, "None")
            h = fmix64(fnv1a_batch(keys)) >> np.uint64(32)  # top 32 bits
            return b.filter(pa.array(h < np.uint64(thresh)))

    return rio.materialize_blocks(ds, stage)


def stratified_sample(
    ds: rio.Blocks,
    rates: dict,
    key_col: str,
    stratum_col: str,
    hash_fn: str = "fnv1a",
    default: tuple[int, int] | None = None,
) -> rio.Blocks:
    """Deterministic STRATIFIED sampling: per-stratum keep rates
    (``rates[stratum] = (num, den)``), decided by the same hash
    threshold as ``deterministic_sample`` — resume-stable,
    partitioning/parallelism-invariant, and NESTED per stratum (a
    lower rate is a subset of a higher one), so rebalancing a corpus
    by source never resamples disjoint rows. Strata absent from
    ``rates`` use ``default`` (None = drop — an explicit whitelist).
    The threshold lookup is a vectorized map; the hash is computed
    once per row regardless of stratum count."""
    thresh = {
        s: np.uint64((num << 32) // den) for s, (num, den) in rates.items()
    }
    dflt = np.uint64((default[0] << 32) // default[1]) if default else np.uint64(0)

    if hash_fn == "md5":
        import hashlib

        def hashes(keys_col) -> np.ndarray:
            return np.array(
                [
                    int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
                    for k in keys_col.to_pylist()
                ],
                dtype=np.uint64,
            )

    else:

        def hashes(keys_col) -> np.ndarray:
            import pyarrow.compute as pc

            from .text import fmix64, fnv1a_batch

            # same block-layout-invariant formatting rule as
            # deterministic_sample: cast for values, "None" for nulls
            keys = pc.cast(keys_col, pa.string())
            if keys_col.null_count:
                keys = pc.fill_null(keys, "None")
            return fmix64(fnv1a_batch(keys)) >> np.uint64(32)

    def stage(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        h = hashes(b[key_col])
        # O(distinct strata) Python, vectorized gather per row — the
        # factorization is Arrow's dictionary_encode (no per-row
        # Python object materialization in the hot filter)
        col = b[stratum_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = col.dictionary_encode()
        codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
        categories = enc.dictionary.to_pylist()
        lut = np.array(
            [thresh.get(s, dflt) for s in categories], dtype=np.uint64
        )
        # null stratum -> code -1, which would wrap to the LAST
        # category's threshold; route it to the default rate instead.
        # An ALL-null block has no categories at all — every row is a
        # null stratum and must take the same default rate (a zero
        # threshold here would make sampling depend on which rows
        # co-reside in a block, breaking partitioning invariance)
        if len(lut):
            t = np.where(codes >= 0, lut[np.maximum(codes, 0)], dflt)
        else:
            t = np.full(len(b), dflt, dtype=np.uint64)
        return b.filter(pa.array(h < t))

    return rio.materialize_blocks(ds, stage)


def _weighted_pick(h: pd.DataFrame, keys: list[str], val: str, w: str, rank) -> np.ndarray:
    """Per key of ``h`` (rows sorted by (keys, val), positive integer
    weights ``w``): the ``val`` of the first row whose running weight
    within its key reaches ``rank(total weight)`` (1 <= rank <= total),
    in key order — one global cumsum and one searchsorted for every
    key, so a (key, value) pair split over several rows counts once in
    total."""
    wt = h[w].to_numpy(dtype=np.int64)
    cum = np.cumsum(wt)
    starts = np.flatnonzero(~h.duplicated(keys).to_numpy())
    tot = h.groupby(keys, sort=False, dropna=False)[w].sum().to_numpy(dtype=np.int64)
    return h[val].to_numpy()[np.searchsorted(cum, cum[starts] - wt[starts] + rank(tot))]


def combine_by_key(ds, keys: list[str], aggs: dict[str, str], stage=None) -> list:
    """The complete-key twin of ``aggregate.combine_partials``, for
    keys too many for the driver: each ``aggs`` column is reduced per
    ``keys`` with its Arrow hash aggregate (``"sum"``, ``"min"``,
    ``"max"``) in one ``io.reduce_by_key`` routed by the keys, so each
    key leaves the shuffle once. ``stage`` makes the per-block
    partials (pre-aggregating there bounds the shuffle at distinct
    keys per block; a count is a sum of partial counts). Returns the
    bucket refs, columns ``keys`` then ``aggs``."""
    cols = list(aggs)

    def final(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, keys).aggregate([(c, aggs[c]) for c in cols])
        return g.rename_columns([*keys, *cols])

    return rio.reduce_by_key(ds, keys, final, stage=stage)


def value_histogram(ds, keys: list[str], col: str) -> pd.DataFrame:
    """The (keys, non-null ``col`` value) -> count ``n`` histogram on
    the driver, sorted by keys then value: small relative to the data
    (distinct values, not rows), so exact quantiles and ranks resolve
    from its cumulative counts with no global row sort."""
    refs = combine_by_key(ds, [*keys, col], {"n": "sum"}, stage=value_counts(keys, col))
    h = rio.blocks_table(refs).to_pandas()
    if h.empty:  # no value at all: an empty input can arrive schema-less
        return h
    return h.sort_values([*keys, col], kind="mergesort").reset_index(drop=True)


def _ranked_values(ds, col: str, who: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-null values of ``col`` ascending and their
    cumulative counts."""
    hist = value_histogram(ds, [], col)
    if hist.empty:
        raise ValueError(f"{who}: no non-null values in {col!r}")
    return hist[col].to_numpy(), np.cumsum(hist["n"].to_numpy())


def grouped_exact_quantiles_int(
    ds: rio.Blocks,
    key: str,
    col: str,
    fracs: list[tuple[int, int]],
    names: list[str],
) -> pd.DataFrame:
    """Exact discrete quantiles of an integer column PER GROUP (value
    at sorted index ((n-1)*num)//den within each key) — no global or
    per-group row sort: per-block (key, value) histograms, one
    ``io.reduce_by_key`` on ``key``, and a per-key cumsum resolve in
    each bucket. Driver receives |keys| rows; an all-null group emits
    nothing."""

    def final(h: pd.DataFrame) -> pd.DataFrame:
        h = h.sort_values([key, col], kind="mergesort")
        out = h.drop_duplicates(key)[[key]].reset_index(drop=True)
        for (num, den), name in zip(fracs, names):
            at = _weighted_pick(h, [key], col, "n", lambda tot: (tot - 1) * num // den + 1)
            out[name] = at.astype(np.int64)
        return out

    refs = rio.reduce_by_key(ds, [key], rio.on_pandas(final), stage=value_counts([key], col))
    return rio.blocks_table(refs).to_pandas().sort_values(key).reset_index(drop=True)


def grouped_median_mad_int(
    ds: rio.Blocks, key: str, col: str
) -> pd.DataFrame:
    """Exact discrete median AND median-absolute-deviation per group
    from ONE shuffle of per-block (key, value) histograms: each key's
    complete histogram lands in one ``io.reduce_by_key`` bucket, where
    the median resolves by cumsum rank and the deviation histogram
    |v - med| (the same counts re-sorted by deviation) resolves the MAD
    the same way — no second scan of the corpus, no broadcast
    round-trip. Rank rule is the discrete (n-1)//2 selection on both
    passes. Null values are dropped (SQL semantics)."""

    def mid(tot: np.ndarray) -> np.ndarray:
        return (tot - 1) // 2 + 1

    def final(h: pd.DataFrame) -> pd.DataFrame:
        h = h.sort_values([key, col], kind="mergesort")
        med = _weighted_pick(h, [key], col, "n", mid).astype(np.int64)
        sizes = h.groupby(key, sort=False, dropna=False).size().to_numpy()
        dev = np.abs(h[col].to_numpy(dtype=np.int64) - np.repeat(med, sizes))
        d = h.assign(dev=dev).sort_values([key, "dev"], kind="mergesort")
        mad = _weighted_pick(d, [key], "dev", "n", mid).astype(np.int64)
        return h.drop_duplicates(key)[[key]].reset_index(drop=True).assign(med=med, mad=mad)

    refs = rio.reduce_by_key(ds, [key], rio.on_pandas(final), stage=value_counts([key], col))
    return rio.blocks_table(refs).to_pandas().sort_values(key).reset_index(drop=True)


def _skyline_mask_2d(maxv: np.ndarray, minv: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2D Pareto frontier under STRICT
    dominance: row A is dominated iff some row B has maxv >= / minv <=
    with at least one strict — duplicate points all survive. Sorted
    sweep: a row survives iff its minv equals its maxv-level's minimum
    AND beats the running minimum of every strictly-higher maxv level."""
    order = np.lexsort((minv, -maxv))
    p, d = maxv[order], minv[order]
    new_level = np.r_[True, p[1:] != p[:-1]]
    lvl_idx = np.cumsum(new_level) - 1
    lvl_min = d[new_level]  # minv asc within a level: first row is the level min
    higher_min = np.concatenate(
        [[np.iinfo(np.int64).max], np.minimum.accumulate(lvl_min)[:-1]]
    )
    keep_sorted = (d == lvl_min[lvl_idx]) & (d < higher_min[lvl_idx])
    keep = np.zeros(len(maxv), dtype=bool)
    keep[order] = keep_sorted
    return keep


def pareto_front_2d(
    ds: rio.Blocks,
    group_col: str,
    max_col: str,
    min_col: str,
) -> rio.Blocks:
    """Per-group 2D Pareto frontier (skyline): the rows not strictly
    dominated within their group (``max_col`` maximized, ``min_col``
    minimized; both int64 — exact compares). Distributed as a
    block-local frontier prefilter (sound combiner: a row dominated
    inside its own block is dominated in the union, so
    frontier(∪blocks) ⊆ ∪ block-frontiers) followed by one
    ``io.reduce_by_key`` on the group — only block-frontier rows
    shuffle, never the corpus. The SQL mirror is the classic NOT EXISTS anti-self-join."""

    def local(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = np.zeros(len(df), dtype=bool)
        for _, idx in df.groupby(group_col, sort=False).indices.items():
            sub = df.iloc[idx]
            keep[idx] = _skyline_mask_2d(
                sub[max_col].to_numpy(dtype=np.int64),
                sub[min_col].to_numpy(dtype=np.int64),
            )
        return pa.Table.from_pandas(df[keep], preserve_index=False)

    # the block-local prefilter is also the final: a bucket holds
    # complete groups, and frontier(group) is what it computes
    return rio.reduce_by_key(ds, [group_col], local, stage=local)


def grouped_weighted_median_int(
    ds: rio.Blocks, keys: list[str], col: str, weight: str
) -> pd.DataFrame:
    """Exact LOWER weighted median per group of an int64 ``col``
    weighted by int64 ``weight``: the smallest value whose cumulative
    weight reaches half the group total (2*cw >= tw — the SQL
    cumulative-weight window idiom). Distributed as a per-batch
    (keys, value) weight pre-aggregation (bounds the shuffle at
    distinct values per block, never raw rows) -> one
    ``io.reduce_by_key`` on ``keys`` -> per-group sorted cumsum in each
    bucket; only |groups| rows reach the driver. Zero and negative weights are
    rejected loudly (a zero-weight value could otherwise BE the median
    while contributing nothing)."""

    def prag(b: pa.Table) -> pa.Table:
        w = b[weight].to_numpy(zero_copy_only=False)
        if len(w) and int(w.min()) <= 0:
            raise ValueError(
                f"grouped_weighted_median_int: non-positive weights in {weight!r}"
            )
        t = b.select([*keys, col, weight])
        g = pa.TableGroupBy(t, [*keys, col]).aggregate([(weight, "sum")])
        return g.rename_columns([*keys, col, "w_p"])

    def final(h: pd.DataFrame) -> pd.DataFrame:
        h = h.sort_values([*keys, col], kind="mergesort")
        wm = _weighted_pick(h, keys, col, "w_p", lambda tot: (tot + 1) // 2)
        return h.drop_duplicates(keys)[keys].reset_index(drop=True).assign(
            wmedian=wm.astype(np.int64)
        )

    refs = rio.reduce_by_key(ds, keys, rio.on_pandas(final), stage=prag)
    return rio.blocks_table(refs).to_pandas()


def ordered_string_agg(
    ds: rio.Blocks,
    key_col: str,
    val_col: str,
    order_cols: list[str],
    sep: str = "",
) -> rio.Blocks:
    """SQL ``string_agg(val, sep ORDER BY order_cols)`` per key — the
    ordered-collect operator (DISTRIBUTED BY key, ORDERED WITHIN key).
    One ``io.reduce_by_key`` on the key; the in-bucket final sorts by
    (key, order_cols) and joins per group. Output is one row per key
    (key, agg, n) — per-key string size is the caller's density
    contract, exactly like SQL's. Order columns must make the order
    total (ties would make the result nondeterministic); callers pass
    a unique tiebreaker last."""

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        gb = g.groupby(key_col, sort=False)[val_col]
        out = gb.agg(lambda s: sep.join(s.astype(str)))
        n = gb.size()
        return pd.DataFrame(
            {key_col: out.index, "agg": out.to_numpy(), "n": n.to_numpy(dtype=np.int64)}
        )

    def cols(b: pa.Table) -> pa.Table:
        return b.select([key_col, val_col, *order_cols])

    return _per_key(ds, [key_col], agg, stage=cols)


def deterministic_split(
    ds: rio.Blocks,
    key_col: str,
    cuts: list[tuple[str, int, int]],
    last: str,
    hash_fn: str = "fnv1a",
) -> rio.Blocks:
    """Deterministic TRAIN/VAL/TEST-style dataset splitting: appends a
    ``split`` label chosen by where hash(key) falls among the
    CUMULATIVE integer thresholds ``cuts`` ((name, num, den): rows
    with h < num/den of the hash space and above every earlier cut),
    remainder labeled ``last``. Same hash machinery and guarantees as
    deterministic_sample — pure function of the key, identical at any
    parallelism/partitioning, and CONSISTENT with it: a
    deterministic_sample at rate r equals the union of the splits
    under r (samples and splits nest, so ablations stay aligned with
    the split a model trained on)."""
    fracs = [(name, (num << 32) // den) for name, num, den in cuts]
    for (na, ta), (nb, tb) in zip(fracs, fracs[1:]):
        if tb <= ta:
            raise ValueError(f"deterministic_split: cuts must be increasing ({na}>={nb})")

    if hash_fn == "md5":
        import hashlib

        def hashes(col) -> np.ndarray:
            return np.array(
                [int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) for k in col.to_pylist()],
                dtype=np.uint64,
            )

    else:

        def hashes(col) -> np.ndarray:
            import pyarrow.compute as pc

            from .text import fmix64, fnv1a_batch

            keys = pc.cast(col, pa.string())
            if col.null_count:
                keys = pc.fill_null(keys, "None")
            return fmix64(fnv1a_batch(keys)) >> np.uint64(32)

    def stage(b: pa.Table) -> pa.Table:
        h = hashes(b[key_col])
        label = np.full(len(h), last, dtype=object)
        assigned = np.zeros(len(h), dtype=bool)
        for name, t in fracs:
            sel = (~assigned) & (h < np.uint64(t))
            label[sel] = name
            assigned |= sel
        return b.append_column("split", pa.array(label, type=pa.string()))

    return rio.materialize_blocks(ds, stage)


def percentile_cont_int(
    ds: rio.Blocks, col: str, fracs: list[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """SQL PERCENTILE_CONT as an EXACT RATIONAL over an integer
    column: for p = num/den the continuous percentile interpolates the
    order statistics at floor/ceil of (n-1)*p, and
    ``v_lo*(den - r) + v_hi*r`` over ``den`` (r = (n-1)*num mod den)
    is that value with no float until the caller's ONE division.
    Returns (numerator, denominator, n) per frac. Same distributed
    shape as exact_quantiles_int: the value histogram's cumulative
    counts — no global sort."""
    values, cum = _ranked_values(ds, col, "percentile_cont_int")
    n = int(cum[-1])

    def at(idx: int) -> int:
        return int(values[int(np.searchsorted(cum, idx + 1, side="left"))])

    out = []
    for num, den in fracs:
        k, r = divmod((n - 1) * num, den)
        lo = at(k)
        hi = at(k + 1) if r else lo
        out.append((lo * (den - r) + hi * r, den, n))
    return out


def weighted_sample_topk(
    ds: rio.Blocks,
    k: int,
    weight_col: str,
    key_col: str,
    hash_fn: str = "fnv1a",
) -> pd.DataFrame:
    """Deterministic WEIGHTED sampling without replacement
    (Efraimidis-Spirakis exponential race): row r wins iff its race
    key -ln(u_r)/w_r is among the k smallest, where u_r is a uniform
    derived from hash(key) — P(select) proportional to weight, yet the
    draw is a pure function of the keys (re-runs, repartitions and
    parallelism levels all agree). Shape: per-batch race keys + LOCAL
    top-k (lexsort by (race, key) so tie boundaries are exact), then
    one bounded driver final over <= #blocks x k candidate rows —
    never the corpus.

    ``hash_fn``: "fnv1a" (vectorized production path, np.log) or
    "md5" (per-row hashlib + math.log — scalar libm ln, bit-mirrorable
    in SQL as -ln((md5_u32+1)/2^32)/w; the oracle twin's path).
    Weights must be positive integers; u = (h32+1)/2^32 is in (0, 1]
    so ln never sees 0 (u == 1 gives race key 0.0, the best possible,
    deterministically).
    """
    if k <= 0:
        raise ValueError("weighted_sample_topk: k must be positive")

    def race_keys(b: pa.Table) -> np.ndarray:
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if (w <= 0).any():
            raise ValueError("weighted_sample_topk: weights must be > 0")
        if hash_fn == "md5":
            import hashlib
            import math

            u = np.array(
                [
                    (int(hashlib.md5(str(x).encode()).hexdigest()[:8], 16) + 1)
                    / 4294967296.0
                    for x in b[key_col].to_pylist()
                ]
            )
            lnu = np.array([math.log(x) for x in u.tolist()])
        else:
            import pyarrow.compute as pc

            from .text import fmix64, fnv1a_batch

            keys = pc.cast(b[key_col], pa.string())
            h = (fmix64(fnv1a_batch(keys)) >> np.uint64(32)).astype(np.float64)
            lnu = np.log((h + 1.0) / 4294967296.0)
        return -lnu / w.astype(np.float64)

    def stage(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return b.append_column("race_key", pa.array([], pa.float64()))
        r = race_keys(b)
        out = b.append_column("race_key", pa.array(r))
        if len(b) > k:
            kk = b[key_col].to_numpy(zero_copy_only=False)
            keep = np.lexsort((kk, r))[:k]
            out = out.take(pa.array(np.sort(keep)))
        return out

    cand = rio.map_blocks(ds, stage).to_pandas()
    cand = cand.sort_values(["race_key", key_col], kind="mergesort").head(k)
    return cand.reset_index(drop=True)


def island_length_histogram(
    ds: rio.Blocks, col: str, range_size: int = 1024
) -> pd.DataFrame:
    """Distributed GAPS-AND-ISLANDS: lengths of maximal runs of
    consecutive integers in ``col`` (values assumed distinct), as a
    (length -> n_chains) histogram.

    Scale shape: RANGE-key by value // range_size (contiguous ranges,
    one ``io.reduce_by_key`` on that key); each bucket resolves the
    interior runs of its ranges locally and emits at most TWO
    boundary-touching segments per range, so the driver stitch walks
    O(#ranges) segments — never the value corpus. The SQL mirror is
    the classic id - row_number() island key; equality is pinned by
    the *_chain_lengths oracle."""
    rs = int(range_size)

    def add_rb(b: pa.Table) -> pa.Table:
        v = b[col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({col: v, "_rb": np.floor_divide(v, rs)})

    def local_runs(g: pd.DataFrame) -> pd.DataFrame:
        v = np.unique(g[col].to_numpy(dtype=np.int64))
        rb = np.floor_divide(v, rs)
        new = np.ones(len(v), dtype=bool)
        new[1:] = (np.diff(v) > 1) | (rb[1:] != rb[:-1])  # a run never crosses a range
        runs = pd.DataFrame({"run": np.cumsum(new), "v": v}).groupby("run")["v"]
        first, last = runs.min().to_numpy(), runs.max().to_numpy()
        lo = np.floor_divide(first, rs) * rs
        edge = (first == lo) | (last == lo + rs - 1)
        lens = (last - first + 1)[~edge]
        ul, uc = np.unique(lens, return_counts=True)
        out = pd.DataFrame(
            {
                "kind": ["len"] * len(ul) + ["seg"] * int(edge.sum()),
                "a": np.concatenate([ul, first[edge]]),
                "b": np.concatenate([uc, last[edge]]),
            }
        )
        return out.astype({"kind": "object", "a": "int64", "b": "int64"})

    # O(#ranges) rows by construction
    rows = rio.blocks_table(rio.reduce_by_key(ds, ["_rb"], rio.on_pandas(local_runs), add_rb))
    rows = rows.to_pandas()
    hist: dict[int, int] = {}
    segs = []
    for _, r in rows.iterrows():
        if r["kind"] == "len":
            hist[int(r["a"])] = hist.get(int(r["a"]), 0) + int(r["b"])
        else:
            segs.append((int(r["a"]), int(r["b"])))
    segs.sort()
    k = 0
    while k < len(segs):
        first, last = segs[k]
        k2 = k + 1
        while k2 < len(segs) and segs[k2][0] == last + 1:
            last = segs[k2][1]
            k2 += 1
        ln = last - first + 1
        hist[ln] = hist.get(ln, 0) + 1
        k = k2
    out = pd.DataFrame(
        {"length": sorted(hist), "n_chains": [hist[x] for x in sorted(hist)]}
    ).astype({"length": "int64", "n_chains": "int64"})
    return out
