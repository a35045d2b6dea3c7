"""Global ordered prefix sums over Ray Datasets.

A running total in a single global order is the one aggregation shape
neither ``map_batches`` (no cross-block state) nor ``groupby`` (no
order) can express, yet it is the backbone of sequence packing for
LLM training data (concatenate the corpus, chunk every N tokens —
each document's pack is a pure function of the EXCLUSIVE prefix sum
of token counts before it) and of percentile/cdf materialization.

The distributed shape is the classic two-phase scan:

1. ``Dataset.sort(order_cols)`` range-partitions into globally
   ordered blocks (Ray Data's sample-based shuffle — scale-correct).
2. Phase 1: one small Ray task per block returns (sum, first-key,
   last-key) — three scalars; the driver sees O(#blocks) values, not
   rows, and exclusive-scans the block sums in block order (Python
   ints — no int64 overflow before the guard fires).
3. Phase 2: one task per block adds its offset to the block-local
   cumulative sum and yields the block back into a Dataset
   (``from_arrow_refs`` — blocks never touch the driver).

This is one of the documented drops to raw Ray tasks (the Dataset
API genuinely cannot express a scan); the driver-side state is
O(#blocks), the per-block work is a numpy cumsum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .relational import _per_key

_I64_MAX = (1 << 63) - 1


@ray.remote(num_returns=1)
def _block_stats(t: pa.Table, value_col: str, order_cols: list[str], signed: bool):
    """Phase-1 scalars: block value sum + the block's first/last order
    key tuple (None for empty blocks). The sum is EXACT even past
    int64 (int64 kernels wrap silently): when count x max could
    exceed int64 the block falls back to Python-int summation, so the
    driver's overflow guard sees the true total."""
    if t.num_rows == 0:
        return 0, None, None
    if t[value_col].null_count:
        raise ValueError(f"ordered_prefix_sum: null values in {value_col!r}")
    v = t[value_col].to_numpy(zero_copy_only=False)
    if not signed and int(v.min()) < 0:
        raise ValueError(
            f"ordered_prefix_sum: negative values in {value_col!r} "
            "(the scan contract is non-negative counts/sizes; pass "
            "signed=True for deltas)"
        )
    if int(np.abs(v).max()) * len(v) <= _I64_MAX:
        s = int(v.sum())
    else:  # rare: exact arbitrary-precision path
        s = sum(int(x) for x in v)
    first = tuple(t[c][0].as_py() for c in order_cols)
    last = tuple(t[c][t.num_rows - 1].as_py() for c in order_cols)
    return s, first, last


@ray.remote(num_returns=1)
def _block_scan(t: pa.Table, value_col: str, out_col: str, offset: int) -> pa.Table:
    """Phase-2: out_col[i] = offset + sum(value[0..i-1]) — the
    EXCLUSIVE running total (each row sees the mass strictly before
    it in the global order)."""
    v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.empty(len(v), dtype=np.int64)
    if len(v):
        cum[0] = 0
        np.cumsum(v[:-1], out=cum[1:])
    return t.append_column(out_col, pa.array(cum + offset))


def ordered_prefix_sum(
    ds: ray.data.Dataset,
    order_cols: list[str],
    value_col: str,
    out_col: str = "prefix_sum",
    signed: bool = False,
) -> ray.data.Dataset:
    """Append the EXCLUSIVE global prefix sum of ``value_col`` in the
    total order given by ``order_cols`` (which must be a total order —
    ties across blocks would make the scan nondeterministic; the
    block-boundary monotonicity assert below catches violations).
    Values must be non-negative int64 (token counts, byte sizes)
    unless ``signed=True`` (sweep-line deltas: concurrency counters,
    balance ledgers); the running total is guarded against int64
    overflow in Python ints in both directions."""
    sorted_ds = ds.sort(order_cols).materialize()
    refs = sorted_ds.to_arrow_refs()
    stats = ray.get(
        [_block_stats.remote(r, value_col, list(order_cols), signed) for r in refs]
    )

    prev_last = None
    offsets, total = [], 0
    for s, first, last in stats:
        offsets.append(total)
        if first is not None:
            if prev_last is not None and first < prev_last:
                raise ValueError(
                    f"ordered_prefix_sum: block boundary out of order "
                    f"({first} after {prev_last}) — order_cols must be a "
                    "total order"
                )
            prev_last = last
        total += s
        if not (-_I64_MAX - 1 <= total <= _I64_MAX):
            raise OverflowError(
                f"ordered_prefix_sum: running total exceeds int64 ({total})"
            )

    # empty blocks can arrive schema-less (Ray drops their columns);
    # skip them — they carry no rows and no offset mass
    out_refs = [
        _block_scan.remote(r, value_col, out_col, off)
        for (r, off), (_, first, _l) in zip(zip(refs, offsets), stats)
        if first is not None
    ]
    if not out_refs:
        # an all-empty sorted dataset may be schema-less; fall back to
        # the input's schema, then to the bare out_col
        sch = sorted_ds.schema() or ds.schema()
        cols = {}
        if sch is not None:
            for name, typ in zip(sch.names, sch.types):
                t = typ if isinstance(typ, pa.DataType) else pa.int64()
                cols[name] = pa.array([], type=t)
        cols[out_col] = pa.array([], type=pa.int64())
        return ray.data.from_arrow(pa.table(cols))
    return ray.data.from_arrow_refs(out_refs)


def grouped_recurrence_ewma_int(
    ds,
    key_col: str,
    order_cols: list[str],
    value_col: str,
):
    """Per-key integer EWMA — the NON-ASSOCIATIVE ordered recurrence
    ``s_1 = v_1; s_t = (s_{t-1} + v_t) // 2`` (floor halving, exact
    ints, no float drift). A fold like this has no combiner, so the
    distributed shape is one ``io.reduce_by_key`` on the key (complete
    keys per bucket) + an in-bucket scan;
    the scan itself is VECTORIZED ACROSS KEYS, not rows: rows sort by
    (key, order), per-key step indices come from cumcount, and one
    numpy pass per STEP updates every key still alive at that step —
    O(max key length) passes over shrinking arrays, never a Python
    per-row loop. Returns one row per key: (key, n, ewma_c).

    SQL mirror: the identical recurrence as a recursive CTE stepping
    rn -> rn+1. (Associative scans belong in ordered_prefix_sum; this
    operator exists precisely for the recurrences that are not.)"""
    import pandas as pd

    def cols(b: pa.Table) -> pa.Table:
        return b.select([key_col, value_col, *order_cols])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        keys = g[key_col].to_numpy(dtype=np.int64)
        vals = g[value_col].to_numpy(dtype=np.int64)
        step = g.groupby(key_col, sort=False).cumcount().to_numpy()
        first = step == 0
        kid = np.cumsum(first) - 1  # dense key index in sorted order
        nk = int(kid[-1]) + 1 if len(kid) else 0
        state = np.zeros(nk, dtype=np.int64)
        max_step = int(step.max()) + 1 if len(step) else 0
        order = np.lexsort((kid, step))  # group rows by step
        s_sorted, k_sorted, v_sorted = step[order], kid[order], vals[order]
        bounds = np.searchsorted(s_sorted, np.arange(max_step + 1))
        for t in range(max_step):
            lo, hi = bounds[t], bounds[t + 1]
            ks, vs = k_sorted[lo:hi], v_sorted[lo:hi]
            if t == 0:
                state[ks] = vs
            else:
                state[ks] = (state[ks] + vs) >> 1  # floor((s+v)/2), all >= 0
        uk = keys[first]
        n = np.bincount(kid, minlength=nk).astype(np.int64)
        return pd.DataFrame({key_col: uk, "n": n, "ewma_c": state})

    return _per_key(ds, [key_col], fold, stage=cols)


def grouped_recurrence_holt_int(
    ds,
    key_col: str,
    order_cols: list[str],
    value_col: str,
):
    """Per-key integer HOLT (double-exponential) smoothing — TWO
    coupled non-associative recurrences with alpha = beta = 1/2:

        l_1 = v_1;  b_1 = 0
        l_t = trunc((l_{t-1} + b_{t-1} + v_t) / 2)
        b_t = trunc((b_{t-1} + (l_t - l_{t-1})) / 2)

    The halving is TRUNCATING division (sign * (|x| // 2)) because the
    trend can go negative and DuckDB's ``//`` truncates where Python's
    floors — the mirror contract pins truncation on both engines.
    Same distributed shape as grouped_recurrence_ewma_int:
    complete-keys-per-bucket, the scan vectorized ACROSS keys per
    step. Returns one row per key: (key, n, level_c, trend_c)."""
    import pandas as pd

    def cols(b: pa.Table) -> pa.Table:
        return b.select([key_col, value_col, *order_cols])

    def tdiv2(x: np.ndarray) -> np.ndarray:
        return np.sign(x) * (np.abs(x) // 2)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        keys = g[key_col].to_numpy(dtype=np.int64)
        vals = g[value_col].to_numpy(dtype=np.int64)
        if len(vals) and int(np.abs(vals).max()) >= 1 << 40:
            raise OverflowError("holt: value magnitude exceeds the guarded bound")
        step = g.groupby(key_col, sort=False).cumcount().to_numpy()
        first = step == 0
        kid = np.cumsum(first) - 1
        nk = int(kid[-1]) + 1 if len(kid) else 0
        lvl = np.zeros(nk, dtype=np.int64)
        trd = np.zeros(nk, dtype=np.int64)
        max_step = int(step.max()) + 1 if len(step) else 0
        order = np.lexsort((kid, step))
        s_sorted, k_sorted, v_sorted = step[order], kid[order], vals[order]
        bounds = np.searchsorted(s_sorted, np.arange(max_step + 1))
        for t in range(max_step):
            lo, hi = bounds[t], bounds[t + 1]
            ks, vs = k_sorted[lo:hi], v_sorted[lo:hi]
            if t == 0:
                lvl[ks] = vs
                trd[ks] = 0
            else:
                newl = tdiv2(lvl[ks] + trd[ks] + vs)
                trd[ks] = tdiv2(trd[ks] + (newl - lvl[ks]))
                lvl[ks] = newl
        uk = keys[first]
        n = np.bincount(kid, minlength=nk).astype(np.int64)
        return pd.DataFrame(
            {key_col: uk, "n": n, "level_c": lvl, "trend_c": trd}
        )

    return _per_key(ds, [key_col], fold, stage=cols)
