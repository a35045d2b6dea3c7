"""Global ordered prefix sums over Ray Datasets.

A running total in a single global order is the one aggregation shape
neither ``map_batches`` (no cross-block state) nor ``groupby`` (no
order) can express, yet it is the backbone of sequence packing for
LLM training data (concatenate the corpus, chunk every N tokens —
each document's pack is a pure function of the EXCLUSIVE prefix sum
of token counts before it) and of percentile/cdf materialization.

The distributed shape is the classic two-phase scan over range bins:

1. Range bins: each block sends a small sorted sample of the first
   order column; the driver picks one splitter per block boundary,
   and the routing stage gives every row the bin ``_bin`` its value
   falls in (equal values share a bin, bins ascend with the value).
   One ``io.reduce_by_key`` on ``_bin`` brings each bin's rows into
   one bucket, where they are sorted by (``_bin``, ``order_cols``).
2. Phase 1: one small Ray task per bucket returns, per bin, (sum,
   first key, last key) — scalars; the driver sees O(#bins) values,
   not rows, and exclusive-scans the bin sums in bin order (Python
   ints — no int64 overflow before the guard fires).
3. Phase 2: one task per bucket adds each bin's offset to the
   bin-local cumulative sum; the outputs are the returned blocks
   (blocks never touch the driver).

This is one of the documented drops to raw Ray tasks (the Dataset
API genuinely cannot express a scan); the driver-side state is
O(#bins), the per-bucket work is a sort and a numpy cumsum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .. import io as rio
from .relational import _per_key

_I64_MAX = (1 << 63) - 1
_SAMPLE = 32  # sampled values per block for the range splitters


def _sample_stage(col: str):
    """Stage: up to ``_SAMPLE`` evenly spaced values of the block's
    sorted ``col``."""

    def stage(t: pa.Table) -> pa.Table:
        if not t.num_columns:  # Ray's schema-less empty block
            return t
        v = np.sort(t[col].to_numpy(zero_copy_only=False))
        pick = np.linspace(0, len(v) - 1, min(len(v), _SAMPLE)).astype(np.int64)
        return pa.table({col: v[pick]})

    return stage


def _bin_stage(col: str, splitters: np.ndarray):
    """Stage: the block with its range bin ``_bin``, the number of
    splitters at or below its ``col`` value."""

    def stage(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        b = np.searchsorted(splitters, v, side="right").astype(np.int64)
        return t.append_column("_bin", pa.array(b))

    return stage


@ray.remote(num_returns=1)
def _bin_stats(t: pa.Table, value_col: str, order_cols: list[str], signed: bool):
    """Phase-1 scalars of one sorted bucket: per bin, (bin, value sum,
    first order key tuple, last order key tuple); None for a
    schema-less bucket. The sums are EXACT even past int64 (int64
    kernels wrap silently): when count x max could exceed int64 the
    bucket falls back to Python-int summation, so the driver's
    overflow guard sees the true total."""
    if not t.num_columns:
        return None
    if t[value_col].null_count:
        raise ValueError(f"ordered_prefix_sum: null values in {value_col!r}")
    v = t[value_col].to_numpy(zero_copy_only=False)
    if not len(v):
        return []
    if not signed and int(v.min()) < 0:
        raise ValueError(
            f"ordered_prefix_sum: negative values in {value_col!r} "
            "(the scan contract is non-negative counts/sizes; pass "
            "signed=True for deltas)"
        )
    exact = int(np.abs(v).max()) * len(v) > _I64_MAX  # rare: arbitrary precision
    bins = t["_bin"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
    out = []
    for lo, hi in zip(starts, np.r_[starts[1:], len(v)]):
        seg = v[lo:hi]
        s = sum(int(x) for x in seg) if exact else int(seg.sum())
        first = tuple(t[c][int(lo)].as_py() for c in order_cols)
        last = tuple(t[c][int(hi) - 1].as_py() for c in order_cols)
        out.append((int(bins[lo]), s, first, last))
    return out


@ray.remote(num_returns=1)
def _bin_scan(t: pa.Table, value_col: str, out_col: str, offsets: np.ndarray) -> pa.Table:
    """Phase-2: out_col[i] = offset of its bin + the sum of the values
    before it in its bin — the EXCLUSIVE running total (each row sees
    the mass strictly before it in the global order)."""
    v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
    bins = t["_bin"].to_numpy(zero_copy_only=False)
    cum = np.cumsum(v) - v  # int64 wraps alike on both sides of the difference
    new = np.r_[True, bins[1:] != bins[:-1]] if len(v) else np.zeros(0, dtype=bool)
    start = cum[new][np.cumsum(new) - 1]
    return t.drop_columns(["_bin"]).append_column(out_col, pa.array(cum - start + offsets[bins]))


def ordered_prefix_sum(
    ds: rio.Blocks,
    order_cols: list[str],
    value_col: str,
    out_col: str = "prefix_sum",
    signed: bool = False,
) -> rio.Blocks:
    """Append the EXCLUSIVE global prefix sum of ``value_col`` in the
    total order given by ``order_cols`` (which must be a total order —
    ties would make the scan nondeterministic; the bin-boundary
    monotonicity assert below catches a broken binning). Values must be
    non-negative int64 (token counts, byte sizes) unless ``signed=True``
    (sweep-line deltas: concurrency counters, balance ledgers); the
    running total is guarded against int64 overflow in Python ints in
    both directions."""
    blocks = rio.as_blocks(ds)
    col = order_cols[0]
    samples = rio.map_blocks(blocks, _sample_stage(col))
    # no column at all: every block schema-less (an empty input)
    sample = np.sort(samples[col].to_numpy()) if samples.num_columns else np.zeros(0)
    n = len(blocks)
    splitters = np.unique(sample[np.arange(1, n) * len(sample) // n]) if len(sample) else sample

    def sort_bins(t: pa.Table) -> pa.Table:
        return t.sort_by([(c, "ascending") for c in ["_bin", *order_cols]])

    refs = rio.reduce_by_key(blocks, ["_bin"], sort_bins, stage=_bin_stage(col, splitters))
    stats = ray.get([_bin_stats.remote(r, value_col, list(order_cols), signed) for r in refs.refs])

    offsets = np.zeros(len(splitters) + 1, dtype=np.int64)
    prev_last, total = None, 0
    for b, s, first, last in sorted(x for st in stats if st for x in st):
        if prev_last is not None and first < prev_last:
            raise ValueError(
                f"ordered_prefix_sum: bin boundary out of order "
                f"({first} after {prev_last}) — order_cols must be a "
                "total order"
            )
        prev_last = last
        offsets[b] = total
        total += s
        if not (-_I64_MAX - 1 <= total <= _I64_MAX):
            raise OverflowError(
                f"ordered_prefix_sum: running total exceeds int64 ({total})"
            )
    typed = [(r, n) for r, n, st in zip(refs.refs, refs.rows, stats) if st is not None]
    if not typed:  # every input block was schema-less (no rows)
        return refs
    out = tuple(_bin_scan.remote(r, value_col, out_col, offsets) for r, _n in typed)
    return rio.Blocks(out, tuple(n for _r, n in typed))


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
