"""Grouped spatio-temporal aggregation — the MapAggregator layer.

Rebuilds the semantics of the reference's ``MapAggregator``
(``oshdb-api/.../MapAggregator.java``, 1044 LoC) on Ray Data:

- ``aggregateBy(indexer)``  -> a groupby key column
- grouped reduce (TreeMap fold + merge, MapAggregator.java:848-869)
  -> per-block partials (the accumulator, ``KeyedPartials``: the count
  and integer sums per key of the rows a row function gives, one
  class for view rows, decoded versions and every plain input)
  combined on the driver by ``combine_partials`` for low-cardinality
  keys, or per key bucket by ``ops.relational.combine_by_key`` (one
  ``io.reduce_by_key``) for keys too many for the driver (the
  combiner)
- ``aggregateByTimestamp`` (MapReducer.java:774-822): snapshot rows
  already carry their snapshot timestamp (``ts_q``); contribution rows
  are binned to the greatest query timestamp <= contribution timestamp
  (``floor_bin``)
- zerofill (MapAggregator.java:870-881, completeZerofill :956-988):
  expected keys absent from the result get identity values; for
  combined indices the FULL CROSS PRODUCT of expected key levels is
  completed. Snapshot views zerofill every query timestamp;
  contribution views all but the last (MapReducer.java:1857-1866).
  Implemented on the driver by index arithmetic — the aggregated
  result is small by construction (|keys| x |timestamps|), never the
  raw data.

- ``estimated_quantiles``: per-batch t-digest partials merged on the
  driver (TDigestReducer pattern, partial digests are tiny).
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.tdigest import DEFAULT_COMPRESSION, TDigest
from .io import Blocks, blocks_table, map_blocks, on_pandas, reduce_by_key


def floor_bin(ts: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
    """Greatest query timestamp <= ts (interval binning for the
    contribution view, MapReducer.java:774-822). ts < timestamps[0]
    maps to -1 (caller drops those — they are outside the interval)."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    if len(timestamps) == 0:  # degenerate interval: everything outside
        return np.full(len(ts), -1, dtype=np.int64)
    idx = np.searchsorted(timestamps, ts, side="right") - 1
    return np.where(idx >= 0, timestamps[np.clip(idx, 0, None)], -1)


def zerofill(
    df: pd.DataFrame,
    expected: dict[str, Sequence],
    fill: dict[str, object],
) -> pd.DataFrame:
    """Complete a small aggregated frame with the cross product of
    expected key levels, filling absent cells with identity values.

    One row per cell of the product, sorted by the keys; rows of ``df``
    whose keys fall outside the levels are dropped, its other columns
    are NaN in the filled cells, and duplicate keys raise (as a pandas
    reindex does). Each frame row is placed by its level positions
    (``Index.get_indexer`` per key, ``np.ravel_multi_index``), so no
    index is built over the frame."""
    keys = list(expected)
    levels = [pd.Index(list(expected[k])) for k in keys]
    # each level's distinct entries in key order: a frame row's cell is
    # its keys' positions there
    uniq = [
        lvl if lvl.is_monotonic_increasing and lvl.is_unique else lvl.unique().sort_values()
        for lvl in levels
    ]
    codes = np.stack([u.get_indexer(df[k]) for u, k in zip(uniq, keys)])
    hit = (codes >= 0).all(axis=0)
    shape = tuple(len(u) for u in uniq)
    cells = np.ravel_multi_index(codes[:, hit], shape)
    if len(np.unique(cells)) < len(cells) or (
        not hit.all() and df.loc[~hit, keys].duplicated().any()
    ):
        raise ValueError("zerofill: duplicate keys in the aggregated frame")
    src = np.full(int(np.prod(shape)), -1, dtype=np.intp)
    src[cells] = np.flatnonzero(hit)
    # the product of the levels, then a stable sort by key
    grid = [g.ravel() for g in np.meshgrid(*[np.arange(len(lvl)) for lvl in levels], indexing="ij")]
    at = [g if lvl is u else u.get_indexer(lvl)[g] for g, lvl, u in zip(grid, levels, uniq)]
    if any(lvl is not u for lvl, u in zip(levels, uniq)):
        order = np.lexsort(at[::-1])
        grid, at = [g[order] for g in grid], [a[order] for a in at]
    rows = src[np.ravel_multi_index(at, shape)]
    out = {k: lvl.to_numpy()[g] for k, lvl, g in zip(keys, levels, grid)}
    filled = set()
    for c in df.columns:
        if c in expected:
            continue
        val = fill.get(c)
        if isinstance(val, int) and df[c].dtype.kind in "iub":
            col = pd.api.extensions.take(df[c].to_numpy(), rows, allow_fill=True, fill_value=val)
            out[c] = col.astype(np.int64)
            filled.add(c)
        else:
            out[c] = df[c].array.take(rows, allow_fill=True)
    out = pd.DataFrame(out)
    for col, val in fill.items():
        if col not in filled:
            out[col] = out[col].fillna(val)
            if isinstance(val, int):
                out[col] = out[col].astype("int64")
    return out


def estimated_quantiles(
    ds: Blocks,
    col: str,
    qs: Sequence[float],
    compression: float = DEFAULT_COMPRESSION,
) -> list[float]:
    """estimatedQuantiles (MapReducer.java:1227-1360): one t-digest
    partial per batch, merged on the driver (partials are ~KB)."""

    def partial(batch: pa.Table) -> pa.Table:
        d = TDigest.of(batch[col].to_numpy(zero_copy_only=False), compression)
        return pa.table({"digest": pa.array([d.to_bytes()], type=pa.binary())})

    merged = TDigest(compression)
    for row in map_blocks(ds, partial).to_pylist():
        merged = merged.merge(TDigest.from_bytes(row["digest"], compression))
    return [merged.quantile(q) for q in qs]


def uniq(ds: Blocks, col: str) -> list:
    """Exact distinct (MapReducer.uniq, :1134-1161): per-block
    distinct partials, then one ``reduce_by_key`` on ``col`` whose
    buckets take the distinct values of their keys — the set-union
    combiner, so the shuffle only sees pre-deduplicated rows and each
    value reaches the driver once."""

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({col: pc.unique(t[col])})

    vals = blocks_table(reduce_by_key(ds, [col], distinct, stage=distinct))[col].to_pylist()
    # a null among the distinct values crashes the bare sort (None vs
    # str); SQL DISTINCT keeps NULL as a value — sort it last
    return sorted(vals, key=lambda v: (v is None, v))


# an empty group sums to 0, as a SQL SUM over partial counts would
_SUM = pc.ScalarAggregateOptions(min_count=0)


def sorted_sums(t: pa.Table, keys: list[str], sums: dict[str, str]) -> pa.Table:
    """The ``sums`` columns (source -> output name) of ``t`` summed per
    ``keys`` in one Arrow ``group_by``, in the row order of a pandas
    ``groupby(keys, sort=True, dropna=False)``: sorted by the keys,
    null keys kept and last (a float NaN key groups with the nulls, a
    categorical key sorts in category order); no keys, one row."""
    t = t.select(keys + list(sums))
    for i, k in enumerate(keys):
        if pa.types.is_floating(t.schema.field(i).type):
            t = t.set_column(i, k, pc.if_else(pc.is_nan(t[k]), None, t[k]))
    g = t.group_by(keys, use_threads=False).aggregate([(src, "sum", _SUM) for src in sums])
    g = pa.table([g[k] for k in keys] + [g[f"{src}_sum"] for src in sums],
                 names=keys + list(sums.values()))
    if not keys:
        return g
    sort_on = g.select(keys)
    for i, k in enumerate(keys):
        if pa.types.is_dictionary(sort_on.schema.field(i).type):
            sort_on = sort_on.set_column(i, k, g[k].unify_dictionaries().combine_chunks().indices)
    return g.take(pc.sort_indices(
        sort_on, sort_keys=[(k, "ascending") for k in keys], null_placement="at_end"
    ))


def _summable(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """A sum column as it is summed: booleans as int64 (Arrow sums them
    as uint64), every other type as it is."""
    return col.cast(pa.int64()) if pa.types.is_boolean(col.type) else col


@dataclass(frozen=True, eq=False)
class KeyedPartials:
    """The accumulator: per-batch partial count and sums per key over
    the rows of ``rows`` — the one per-block "rows -> count and integer
    sums per key" stage of the engine, whatever its input, finished by
    ``combine_partials`` on the driver or per key bucket by
    ``ops.relational.combine_by_key``.

    ``rows`` maps a block to the rows counted: a ``views.ViewRows`` (or
    a stage over one) for view rows, or for a plain input a
    module-level function or a ``functools.partial``/
    ``operator.methodcaller`` of one, computing the key and sum columns
    (a day, a cohort, cents, token counts). The key is ``ts_q`` (the
    rows' ``ts`` floor-binned to ``bins`` when set: a contribution
    aggregated by timestamp, MapReducer.java:774-822), then the
    ``keys`` columns of the rows, then ``cell`` (the ``cell`` indexer,
    a module-level ``(lon_e7, lat_e7) -> int64`` callable such as
    ``functools.partial(grid.cell_id, zoom=z)``, over the rows'
    coordinates) when set. A batch gives the key columns, its row count
    per key in ``count`` and a ``<col>_part`` sum per ``sums`` column:
    booleans sum as int64, a float column keeps its type. Without a key
    it gives one row. Null keys form their own group (SQL GROUP BY).

    Every field is a module-level callable or plain data, so the stage
    pickles by reference to its class plus its fields (tens of
    microseconds, where a nested closure is pickled by value, ~0.5 ms
    per shipment). Its count is Arrow's ``count_all`` (~2% faster than
    summing a column of ones on the history_scan stages)."""

    rows: Callable[[pa.Table], pa.Table]
    bins: np.ndarray | None = None
    keys: tuple[str, ...] = ()
    cell: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    sums: tuple[str, ...] = ()
    count: str = "n_part"

    def _key_columns(self, batch: pa.Table) -> tuple[dict, pa.Table]:
        v = self.rows(batch)
        keys = {}
        if self.bins is not None:
            ts = v["ts"].to_numpy(zero_copy_only=False)
            keys["ts_q"] = pa.array(floor_bin(ts, self.bins), type=pa.int64())
        for k in self.keys:
            keys[k] = v[k]
        if self.cell is not None:
            lon = v["lon_e7"].to_numpy(zero_copy_only=False)
            lat = v["lat_e7"].to_numpy(zero_copy_only=False)
            keys["cell"] = pa.array(np.asarray(self.cell(lon, lat), dtype=np.int64))
        return keys, v

    def keyed(self, batch: pa.Table) -> pa.Table:
        """The keyed rows the partials count: the key columns, then the
        ``sums`` columns as the rows carry them (the sketch terminals'
        input)."""
        keys, v = self._key_columns(batch)
        return pa.table({**keys, **{c: v[c] for c in self.sums if c not in keys}})

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, v = self._key_columns(batch)
        sums = {c + "_part": _summable(v[c]) for c in self.sums}
        if not keys:
            out = {self.count: pa.array([v.num_rows], type=pa.int64())}
            for name, col in sums.items():
                # keep a float column's type (an int64 cast would truncate)
                typ = col.type if pa.types.is_floating(col.type) else pa.int64()
                out[name] = pa.array([pc.sum(col).as_py() or 0], type=typ)
            return pa.table(out)
        g = pa.TableGroupBy(pa.table({**keys, **sums}), list(keys)).aggregate(
            [([], "count_all")] + [(s, "sum") for s in sums]
        )
        return g.rename_columns([*keys, self.count, *sums])


def _non_null(batch: pa.Table, columns: tuple[str, ...]) -> pa.Table:
    """The ``columns`` of the rows whose last column is not null."""
    return batch.select(list(columns)).filter(pc.is_valid(batch[columns[-1]]))


def value_counts(keys: Sequence[str], col: str) -> KeyedPartials:
    """Stage: the block's (keys, non-null value) histogram ``n`` — the
    pre-aggregation that bounds a shuffle at distinct pairs per block
    (SQL quantiles and modes ignore NULL values)."""
    cols = (*keys, col)
    return KeyedPartials(functools.partial(_non_null, columns=cols), keys=cols, count="n")


def combine_partials(
    t: pa.Table,
    keys: list[str],
    sums: dict[str, str],
) -> pd.DataFrame:
    """Final combine of pre-aggregated partials: the table
    ``io.map_blocks`` returns (or ``io.blocks_table`` of a
    ``reduce_by_key`` result).

    The partials are tiny by construction (#blocks x #keys), so a
    Dataset-level groupby would pay a full shuffle's scheduling
    overhead (~seconds) to move a few thousand rows; instead the
    partials are brought to the driver and combined with one Arrow
    ``group_by`` (``sorted_sums``) — the reference's combiner step
    (MapAggregator.java:848-869) at the driver, exactly like its
    client-side node-result merge. The frame holds the keys, then the
    ``sums`` outputs in their order, one row per key in the order of a
    pandas ``groupby(keys, sort=True, dropna=False)``: sorted, null-key
    groups kept (SQL GROUP BY) and last. Integer and bool sums are
    int64, a keyless combine is one row, and a float sum column raises
    ``TypeError``: money and counts are integers, and a float sum
    depends on the order of its partials.

    Use ONLY for low-cardinality keys (timestamps, cells at coarse
    zoom, enum values). High-cardinality finals (fine-zoom cells,
    per-document keys) must be reduced per key first (``io.reduce_by_key``
    routed by the keys, so each key arrives here once) — rule of thumb:
    keys x blocks > ~10^7 rows means keep it distributed.
    """
    if not isinstance(t, pa.Table):
        raise TypeError(f"combine_partials takes a pa.Table, not {type(t).__name__}")
    if t.num_rows == 0 and not set(keys) | set(sums) <= set(t.column_names):
        # all-empty partials can arrive schema-less (a materialized
        # Dataset's empty blocks): return a typed empty result — or,
        # for a global total (no keys), the zero row
        if not keys:
            return pd.DataFrame([{out: 0 for out in sums.values()}]).astype("int64")
        cols = {k: pd.Series([], dtype="object") for k in keys}
        cols.update({out: pd.Series([], dtype="int64") for out in sums.values()})
        return pd.DataFrame(cols)
    for src in sums:
        if pa.types.is_floating(t.schema.field(src).type):
            raise TypeError(f"combine_partials: {src!r} is a float column; sum integers")
    g = sorted_sums(t, keys, sums)
    for out in sums.values():
        g = g.set_column(g.schema.get_field_index(out), out, g[out].cast(pa.int64()))
    return g.to_pandas()


def grouped_estimated_quantiles(
    ds: Blocks,
    key: str,
    col: str,
    qs: Sequence[float],
    compression: float = DEFAULT_COMPRESSION,
) -> pd.DataFrame:
    """Grouped estimatedQuantiles (aggregateBy + t-digest,
    MapAggregator.java:378-732): one digest PER KEY per batch, merged
    per key on the driver — the grouped-sketch partial+combine shape
    (sketches are the mergeable-aggregate answer at 10^12 rows; per-key
    partials are ~KB regardless of row count)."""

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        key_type = batch[key].type  # empty batches must keep the key
        # type (a null-typed column would break downstream schema
        # unification)
        df = pd.DataFrame({key: batch[key].to_pylist(), "_v": batch[col].to_numpy(zero_copy_only=False)})
        rows_k, rows_d = [], []
        for k, g in df.groupby(key, sort=True):
            rows_k.append(k)
            rows_d.append(TDigest.of(g["_v"].to_numpy(), compression).to_bytes())
        return pa.table(
            {key: pa.array(rows_k, type=key_type), "digest": pa.array(rows_d, type=pa.binary())}
        )

    merged: dict[object, TDigest] = {}
    for row in map_blocks(ds, partial).to_pylist():
        d = TDigest.from_bytes(row["digest"], compression)
        k = row[key]
        merged[k] = merged[k].merge(d) if k in merged else d
    # int(q*100) truncates float error (0.29*100 -> 28) and collides
    # (0.99 and 0.999 both -> p99); round and refuse collisions
    names = [f"p{round(q * 100)}_est" for q in qs]
    if len(set(names)) != len(names):
        raise ValueError(f"quantile column names collide: {names} for qs={list(qs)}")
    out = []
    for k in sorted(merged):
        rec = {key: k}
        for q, nm in zip(qs, names):
            rec[nm] = merged[k].quantile(q)
        out.append(rec)
    return pd.DataFrame(out, columns=[key, *names])  # typed-empty safe


def rollup_sums(
    ds: Blocks,
    keys: list[str],
    sums: dict[str, str],
    count_as: str | None = None,
    all_marker: str = "ALL",
    levels: list[list[str]] | None = None,
) -> pd.DataFrame:
    """One-pass GROUPING SETS: aggregates at every requested
    granularity in a SINGLE scan — each batch emits a partial for
    every level (absent key columns set to ``all_marker``), and one
    driver combine folds them (the result is |levels| x |key cross
    product|, tiny by construction). ``levels`` defaults to the
    ROLLUP prefix ladder ``keys[:n], ..., ()``; pass every subset for
    CUBE (``cube_levels(keys)``). The SQL ``GROUP BY
    ROLLUP/CUBE/GROUPING SETS`` with ``coalesce(k, 'ALL')``. Key
    columns must be strings (the marker must be representable); cast
    upstream. ``count_as`` adds a row count per cell."""
    if levels is None:
        levels = [keys[:n] for n in range(len(keys), -1, -1)]
    seen_lvls = set()
    for lvl in levels:
        if not set(lvl) <= set(keys):
            raise ValueError(f"level {lvl} not a subset of keys {keys}")
        sig = tuple(sorted(lvl))
        if sig in seen_lvls:  # a duplicate level would double-count its cells
            raise ValueError(f"duplicate grouping level {lvl}")
        seen_lvls.add(sig)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        for k in keys:  # a genuine marker value would silently merge
            # into the super-aggregate rows — refuse loudly; a NULL
            # key is just as unrepresentable (pandas drops it from
            # fine levels while the grand total includes it, and the
            # coalesce-marker SQL mirror folds it into the marker)
            if df[k].isna().any():
                raise ValueError(f"key column {k!r} contains nulls — "
                                 "fill or filter before rollup/cube")
            if (df[k] == all_marker).any():
                raise ValueError(
                    f"key column {k!r} contains the rollup marker {all_marker!r}"
                )
        if count_as:
            df = df.assign(**{count_as: np.ones(len(df), dtype=np.int64)})
        vals = [*sums.keys(), *([count_as] if count_as else [])]
        outs = []
        for lvl in levels:
            g = (
                df.groupby(lvl, as_index=False)[vals].sum()
                if lvl
                else df[vals].sum().to_frame().T
            )
            for k in keys:
                if k not in lvl:
                    g[k] = all_marker
            outs.append(g[[*keys, *vals]])
        return pa.Table.from_pandas(pd.concat(outs, ignore_index=True), preserve_index=False)

    outmap = dict(sums)
    if count_as:
        outmap[count_as] = count_as
    return combine_partials(map_blocks(ds, partial), keys, outmap)


def pivot_counts(
    ds: Blocks,
    row_key: str,
    col_key: str,
    col_values: Sequence,
    prefix: str = "n_",
) -> pd.DataFrame:
    """Pivot a two-key count into a wide matrix: one row per
    ``row_key`` value, one int64 column ``{prefix}{v}`` per expected
    ``col_values`` entry (absent cells zerofilled). The scan stage
    emits per-batch (row, col, n) partials; the reshape happens on the
    combined small frame only. Observed ``col_key`` values OUTSIDE
    ``col_values`` are discarded — the SQL ``PIVOT ... IN (list)``
    contract (the IN-list is an explicit projection, not a filter
    error); pass the full domain to keep every count."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([row_key, col_key]).to_pandas()
        g = df.groupby([row_key, col_key], as_index=False).size()
        return pa.Table.from_pandas(
            g.rename(columns={"size": "n_part"}), preserve_index=False
        )

    long = combine_partials(
        map_blocks(ds, partial),
        [row_key, col_key],
        {"n_part": "n"},
    )
    wide = long.pivot_table(
        index=row_key, columns=col_key, values="n", aggfunc="sum", fill_value=0
    )
    for v in col_values:
        if v not in wide.columns:
            wide[v] = 0
    wide = wide[list(col_values)].astype("int64")
    wide.columns = [f"{prefix}{v}" for v in col_values]
    return wide.reset_index().sort_values(row_key).reset_index(drop=True)


def grouped_approx_count_distinct(
    ds: Blocks,
    key: str,
    col: str,
    p: int | None = None,
) -> pd.DataFrame:
    """Grouped approximate COUNT(DISTINCT col) via per-key HyperLogLog
    partials (functions/hll.py) — the sketch twin of the exact
    ``uniq``/``countUniq`` path, exactly as t-digest is the sketch
    twin of exact quantiles: one fixed-size (2^p B) register array per
    key per batch, merged per key on the driver. At 10^12 rows the
    exact distinct must shuffle every distinct value; this moves
    |keys| x 16 KiB regardless of cardinality. Values are hashed with
    the fmix64-finalized FNV path (register index and rank read
    SPECIFIC bit positions, so the hash must be full-avalanche)."""
    import pyarrow.compute as pc

    from .functions.hll import DEFAULT_P, HLL
    from .ops.text import fmix64, fnv1a_batch

    if p is None:
        p = DEFAULT_P

    def partial(batch: pa.Table) -> pa.Table:
        key_type = batch[key].type
        # COUNT(DISTINCT col) ignores NULL values (a key whose values
        # are ALL null is omitted, like an inner aggregate over the
        # non-null rows); fnv1a_batch would otherwise abort on the
        # first null
        batch = batch.filter(pc.is_valid(batch[col]))
        col_s = pc.cast(batch[col], pa.string())
        h = fmix64(fnv1a_batch(col_s))
        df = pd.DataFrame({key: batch[key].to_pylist(), "_h": h})
        rows_k, rows_s = [], []
        for k, g in df.groupby(key, sort=True):
            rows_k.append(k)
            rows_s.append(HLL.of(g["_h"].to_numpy(dtype=np.uint64), p).to_bytes())
        return pa.table(
            {key: pa.array(rows_k, type=key_type), "hll": pa.array(rows_s, type=pa.binary())}
        )

    merged: dict[object, object] = {}
    for row in map_blocks(ds, partial).to_pylist():
        s = HLL.from_bytes(row["hll"])
        k = row[key]
        merged[k] = merged[k].merge(s) if k in merged else s
    return pd.DataFrame(
        [{key: k, "n_uniq_est": merged[k].count()} for k in sorted(merged)],
        columns=[key, "n_uniq_est"],  # typed-empty safe (callers sort on key)
    )


def cube_levels(keys: list[str]) -> list[list[str]]:
    """All 2^n key subsets (SQL CUBE), coarsest-last for readability."""
    from itertools import combinations

    out = []
    for r in range(len(keys), -1, -1):
        out.extend([list(c) for c in combinations(keys, r)])
    return out


def approx_heavy_hitters(
    ds: Blocks, col: str, k: int, top_n: int
) -> pd.DataFrame:
    """Top-n frequent values via mergeable Misra-Gries partials
    (functions/heavyhitters.py): one capacity-k summary per batch
    (at most k (value, count) rows leave each block — never the
    corpus), merged on the driver. EXACT whenever the true distinct
    count <= k (the oracle-checked operating point); above that, every
    item with frequency > n/(k+1) is guaranteed present with bounded
    count error (pinned in tests)."""
    from .functions.heavyhitters import MisraGries

    val_type = None  # preserved from the input schema (not string-only)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # NULL is not a countable value (SQL COUNT/freq semantics),
        # and a None in the Misra-Gries counters crashes its sorted()
        col_v = batch[col].drop_null()
        # C-kernel pre-aggregation: the Python dict work is
        # O(distinct-in-batch), never O(rows)
        vc = pc.value_counts(col_v)
        mg = MisraGries(k)
        mg.add_weighted_items(
            vc.field("values").to_pylist(), vc.field("counts").to_numpy()
        )
        vs, cs = mg.to_items()
        return pa.table(
            {
                "values": pa.array([vs], type=pa.list_(batch[col].type)),
                "counts": pa.array([cs], type=pa.list_(pa.int64())),
            }
        )

    merged = MisraGries(k)
    for row in map_blocks(ds, partial).to_pylist():
        merged = merged.merge(MisraGries.from_items(k, list(row["values"]), list(row["counts"])))
    out = merged.top(top_n)
    return pd.DataFrame(
        {
            col: [v for v, _ in out],
            "n": np.array([c for _, c in out], dtype=np.int64),
            "rank": np.arange(1, len(out) + 1, dtype=np.int64),
        }
    )


def grouped_mode(ds: Blocks, key: str, col: str) -> pd.DataFrame:
    """Exact grouped MODE (most frequent value per key) with a
    deterministic tie-break: the SMALLEST value among the max-count
    ones. Null values are not countable (SQL COUNT semantics); null
    keys form their own group (SQL GROUP BY).

    Shape: per-batch (key, value) pre-counts (Arrow groupby, rows
    leaving a block = distinct pairs in it) -> ONE ``io.reduce_by_key``
    on the (key, value) pair completes each pair's count inside its
    bucket -> per-bucket argmax PARTIALS per key (legal only because
    each completed pair now appears exactly once globally, making
    argmax associative) -> a <= buckets x |keys| driver final. The
    driver never sees the value distribution, only one candidate row
    per (bucket, key)."""

    def bucket_best(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby([key, col], as_index=False, dropna=False)["n"].sum()
        c = c.sort_values([key, "n", col], ascending=[True, False, True])
        best = c.groupby(key, as_index=False, dropna=False).first()
        return best.rename(columns={col: "modal_v", "n": "n_modal"})

    refs = reduce_by_key(ds, [key, col], on_pandas(bucket_best), stage=value_counts([key], col))
    parts = blocks_table(refs).to_pandas()
    parts = parts.sort_values([key, "n_modal", "modal_v"], ascending=[True, False, True])
    out = parts.groupby(key, as_index=False, dropna=False).first()
    out["n_modal"] = out["n_modal"].astype("int64")
    return out.sort_values(key).reset_index(drop=True)
