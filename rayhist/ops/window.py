"""Ordered / temporal join-and-window operators.

The reference engine is a batch engine with no join or window surface
(SURVEY.md §2.9/§2.11) — these are the target-only operators a
large-scale event/training-data pipeline needs on top of it:

- ``asof_join``: keyed as-of join (each left row matched to the
  latest right row at-or-before / earliest at-or-after its time) —
  the attribution join. Distributed as one co-group shuffle
  (``io.reduce_by_key`` on the by-key, complete keys per bucket), with
  the in-bucket match a vectorized sorted-merge (``pd.merge_asof``).
- ``interval_coverage_counts``: non-equi range join of intervals
  against points (start <= t < end) with NO key equality, counted per
  point without pair expansion. Distributed by time-binning: an
  interval is replicated to every bin it overlaps, a point goes to its
  own bin, so every point meets every interval that covers it in
  exactly one bucket (the point's) — no all-pairs shuffle; the
  replication factor is bounded by interval_length / bin_us + 1.
- ``with_prior_window`` / bucket-final rolling kernels: per-key
  ordered ROWS-frame window aggregates (sum/count over the previous
  W rows), vectorized with cumsum + key-boundary resets.

All buckets hold COMPLETE keys by construction, so per-key finals may
run inside the bucket stage (the ``sessions.py`` pattern) and only
|keys| small rows reach the driver. The bucket count is the input
block count (``io.reduce_by_key``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import io as rio
from .relational import (
    _cogroup, _complete_ints, _is_int, _per_key, _side_columns, _tag_side,
)


def _replicate_to_bins(
    s: np.ndarray, e: np.ndarray, bin_us: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interval -> overlapped-bin replication used by BOTH range-join
    kernels (pair-expanding and coverage-counting): one (row index,
    bin id) pair per bin the half-open interval [s, e) overlaps. The
    two operators must agree bin-for-bin so a count query answered by
    either gives the same result — keep this the single copy.
    Malformed intervals (e < s) are rejected loudly: downstream they
    would crash np.repeat in the pair kernel but SILENTLY subtract
    from coverage counts."""
    if (e < s).any():
        bad = int((e < s).sum())
        raise ValueError(f"interval end < start on {bad} row(s)")
    b0 = s // bin_us
    b1 = np.maximum(e - 1, s) // bin_us  # end exclusive; empty -> own bin
    reps = (b1 - b0 + 1).astype(np.int64)
    idx = np.repeat(np.arange(len(s)), reps)
    # bin id per replica: running offset within each row's span
    off = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
    return idx, b0[idx] + off


def asof_join(
    left: rio.Blocks,
    right: rio.Blocks,
    on: str,
    by: str,
    direction: str = "backward",
    rsuffix: str = "_r",
    group_final=None,
) -> rio.Blocks:
    """Keyed as-of join: for each left row, the single right row with
    the same ``by`` key and the latest ``on`` <= left.on (backward,
    inclusive — the SQL ``ASOF JOIN ... ON l.by = r.by AND l.on >=
    r.on`` contract) or earliest >= (forward). Unmatched left rows
    keep nulls (LEFT semantics).

    Both sides are co-grouped by ``by`` in one ``io.reduce_by_key``
    (complete keys per bucket), and the in-bucket match is a sorted
    vectorized merge. Right columns colliding with left names
    (including ``on``) come back suffixed with ``rsuffix``.

    ``group_final``: optional pandas->pandas callable applied to each
    bucket's joined frame BEFORE it leaves the stage. Because a bucket
    holds complete ``by`` keys, any per-key aggregate is final there —
    use it so only |keys| small rows stream out instead of |left|.
    """
    if on == by:
        raise ValueError("asof_join: on and by must be distinct columns")
    lt = rio.materialize_blocks(left, lambda b: _tag_side(b, 0))
    lcols = _side_columns(lt)
    if on not in lcols:
        raise ValueError(f"asof_join: left side lacks the on-column {on!r}")

    def tag_right(b: pa.Table) -> pa.Table:
        if on not in b.column_names:
            raise ValueError(f"asof_join: right side lacks the on-column {on!r}")
        # by keeps its name: it is the equi key
        names = [c if (c == by or c not in lcols) else c + rsuffix for c in b.column_names]
        dup = sorted({c for c in names if names.count(c) > 1})
        if dup:  # e.g. right has both v and v_r
            raise ValueError(f"rsuffix={rsuffix!r} makes right columns collide: {dup}")
        return _tag_side(b.rename_columns(names), 1)

    rt = rio.materialize_blocks(right, tag_right)
    rcols_out = [c for c in _side_columns(rt) if c != by]
    clash = set(rcols_out) & set(lcols)
    if clash:  # a suffixed right name colliding with a left column
        raise ValueError(f"rsuffix={rsuffix!r} collides with left columns: {sorted(clash)}")
    # on is a left column, so the rename suffixed the right on-key
    ron = on + rsuffix

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # explicit copies: the astype writes below must never hit a
        # pandas view-vs-copy landmine
        lg = g.loc[g["_side"] == 0, lcols].copy()
        rg = g.loc[g["_side"] == 1, [by, *rcols_out]].copy()
        if rg.empty:  # an empty pandas-block side arrives null-typed
            rg = rg.astype({ron: lg[on].dtype})
        # downcast ONLY the merge keys to numpy int64 (merge_asof
        # rejects masked on-keys); VALUE columns stay nullable Int64 so
        # an unmatched left row pads pd.NA instead of coercing the
        # whole column to float64 (money rule — exactness above 2^53)
        for frame in (lg, rg):
            for c in (on, ron, by):
                if c in frame.columns and _is_int(frame[c]) and frame[c].notna().all():
                    frame[c] = frame[c].astype("int64")
        lg = lg.sort_values(on, kind="mergesort")
        rg = rg.sort_values(ron, kind="mergesort")
        out = pd.merge_asof(lg, rg, left_on=on, right_on=ron, by=by, direction=direction)
        # the right on-key went through merge_asof as numpy int64, so
        # unmatched-row NaN padding upcast it to float64 — restore the
        # nullable-int dtype (int64 microseconds fit float64 exactly,
        # so the round-trip is lossless for the time contract)
        if _is_int(g[on]):
            out[ron] = out[ron].astype("Int64")
        return group_final(out) if group_final is not None else out

    return _cogroup(lt, rt, [by], join_bucket)


def _binned(side: int, idx: np.ndarray, bins: np.ndarray, t: pa.Table) -> pa.Table:
    """Rows ``idx`` of ``t`` keyed by their time bin, tagged with their
    side: the co-group input of the time-binned range joins."""
    return _tag_side(t.take(pa.array(idx)).append_column("_bin", pa.array(bins)), side)


def prior_window_sums(
    sorted_keys: np.ndarray, values: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """ROWS-frame window kernel: for rows already sorted by (key,
    order), return (prior_sum, prior_n) over the frame ``ROWS BETWEEN
    window PRECEDING AND 1 PRECEDING`` restarting at key boundaries.
    Vectorized: cumulative sums with per-key start offsets; integer
    values stay integer (exact — money rule)."""
    n = len(values)
    if n == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    new_key = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    key_start = np.maximum.accumulate(np.where(new_key, np.arange(n), 0))
    pos = np.arange(n) - key_start  # 0-based position within key
    cum = np.concatenate([[0], np.cumsum(values)])  # cum[i] = sum(values[:i])
    frame_lo = np.maximum(np.arange(n) - window, key_start)
    prior_sum = cum[np.arange(n)] - cum[frame_lo]
    prior_n = np.minimum(pos, window).astype(np.int64)
    return prior_sum, prior_n


def with_prior_window(
    ds: rio.Blocks,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    window: int,
    group_final=None,
) -> rio.Blocks:
    """Per-key ordered window aggregate: appends ``prior_sum`` /
    ``prior_n`` = sum/count of ``value_col`` over the previous
    ``window`` rows of the same key (rows ordered by ``order_cols``;
    the frame excludes the current row). Keys are complete per
    ``io.reduce_by_key`` bucket, so ``group_final`` may compute per-key
    finals in-stage (emit |keys| rows, not |rows|)."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        ps, pn = prior_window_sums(
            g[key_col].to_numpy(), g[value_col].to_numpy(), window
        )
        g = g.assign(prior_sum=ps, prior_n=pn)
        return group_final(g) if group_final is not None else g

    return _per_key(ds, [key_col], bucket_fn)


def with_ranked_window(
    ds: rio.Blocks,
    key_col: str,
    order_cols: list[str],
    value_col: str,
    group_final=None,
    ntile: int | None = None,
    extras: frozenset | set | tuple = (),
) -> rio.Blocks:
    """Per-key ordered RANKED-WINDOW stage: the classic SQL window
    functions the frame-aggregate ops don't cover. Appends, per key
    (rows ordered by ``order_cols``):

    - ``row_number``: 1-based position within the key (ROW_NUMBER()),
    - ``dense_rank``: DENSE_RANK() of ``value_col`` within the key
      (ordered by value; ties share a rank, no gaps),
    - ``prior_val``: LAG(value, 1) — the previous row's value, null
      on each key's first row,
    - ``prior_max``: MAX(value) OVER (ROWS BETWEEN UNBOUNDED
      PRECEDING AND 1 PRECEDING) — the running max of strictly-prior
      values, null on each key's first row,
    - ``tile`` (only when ``ntile`` is given): NTILE(ntile) over the
      key's order — equal-frequency buckets with the SQL remainder
      rule (the first n mod k tiles get one extra row).

    ``extras`` opts into the remaining SQL window functions (kept off
    the default path so existing callers' schemas are untouched):

    - ``'lead'`` -> ``next_val``: LEAD(value, 1) in the key's order,
      null on each key's last row (nullable Int64 — exact cents),
    - ``'first'`` -> ``first_val``: FIRST_VALUE(value) in the key's
      order (the ROWS UNBOUNDED PRECEDING frame's first row),
    - ``'dist'`` -> ``pct_rank`` / ``cume_dist``: PERCENT_RANK() and
      CUME_DIST() OVER (PARTITION BY key ORDER BY value) — each a
      SINGLE IEEE float64 division of exact int64 ranks/counts
      ((rank-1)/(n-1) with the SQL n==1 -> 0.0 rule, and rank_max/n),
      so the values are bit-identical to any engine computing the
      same two-integer division (the money-rule float exemption).

    Keys are complete per bucket (the ``with_prior_window``
    contract), so ``group_final`` may compute per-key finals in-stage
    and emit |keys| rows. The lag/max columns are pandas nullable
    Int64 — exact at any int64 magnitude (money rule: a shift that
    coerces cents to float64 silently loses exactness above 2^53).
    ``value_col`` must be integer and non-null; null keys or values
    raise loudly (a groupby would silently drop null-key rows)."""
    if ntile is not None and ntile < 1:
        raise ValueError(f"with_ranked_window: ntile must be >= 1, got {ntile}")
    extras = frozenset(extras)
    if not extras <= {"lead", "first", "dist"}:
        raise ValueError(
            f"with_ranked_window: unknown extras {sorted(extras - {'lead', 'first', 'dist'})}"
        )

    def non_null(batch: pa.Table) -> pa.Table:
        if batch[key_col].null_count or batch[value_col].null_count:
            raise ValueError(
                f"with_ranked_window: null {key_col!r}/{value_col!r} rows "
                "(pandas groupby would drop them silently); filter upstream"
            )
        return batch

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        # positional frame: groupby kernels (cumcount/shift/cummax/rank)
        # are Cython-vectorized; Int64 keeps lag/max exact under nulls
        t = pd.DataFrame(
            {
                "k": g[key_col].to_numpy(),
                "v": pd.array(g[value_col].to_numpy(), dtype="Int64"),
            }
        )
        gb = t.groupby("k", sort=False)["v"]
        prior_val = gb.shift(1)
        prior_max = (
            pd.DataFrame({"k": t["k"], "c": gb.cummax()})
            .groupby("k", sort=False)["c"]
            .shift(1)
        )
        pos = t.groupby("k", sort=False).cumcount().to_numpy()
        g = g.assign(
            row_number=pos + 1,
            dense_rank=gb.rank(method="dense").to_numpy().astype(np.int64),
            prior_val=prior_val.array,
            prior_max=prior_max.array,
        )
        if "lead" in extras:
            g = g.assign(next_val=gb.shift(-1).array)
        if "first" in extras:
            g = g.assign(first_val=gb.transform("first").to_numpy().astype(np.int64))
        if "dist" in extras:
            n = t.groupby("k", sort=False)["v"].transform("size").to_numpy()
            n = n.astype(np.int64)
            r_min = gb.rank(method="min").to_numpy().astype(np.int64)
            r_max = gb.rank(method="max").to_numpy().astype(np.int64)
            # one float64 division of exact int64s each (money rule);
            # SQL defines PERCENT_RANK() = 0 for single-row partitions
            g = g.assign(
                pct_rank=np.where(n > 1, (r_min - 1) / np.maximum(n - 1, 1), 0.0),
                cume_dist=r_max / n,
            )
        if ntile is not None:
            # SQL NTILE remainder rule: n = key size, big = n // k,
            # r = n % k; the first r tiles hold big+1 rows. big == 0
            # (n < k) degenerates to tile = pos + 1 via the first
            # branch (r == n, every pos < r * 1).
            n = gb.transform("size").to_numpy().astype(np.int64)
            big, r = n // ntile, n % ntile
            head = r * (big + 1)
            tile = np.where(
                pos < head,
                pos // (big + 1),
                r + (pos - head) // np.maximum(big, 1),
            )
            g = g.assign(tile=(tile + 1).astype(np.int64))
        return group_final(g) if group_final is not None else g

    return _per_key(ds, [key_col], bucket_fn, stage=non_null)


def distinct_set_op(
    a: rio.Blocks,
    b: rio.Blocks,
    on: str,
    mode: str,
) -> rio.Blocks:
    """Distributed DISTINCT set operation on one key column:
    ``except`` (keys of a not in b), ``intersect``, or ``union``.
    Each batch is pre-deduped before the shuffle (only unique keys per
    batch move), both sides are co-grouped by the key in one
    ``io.reduce_by_key``, and the set op runs vectorized per bucket —
    the SQL EXCEPT/INTERSECT/UNION the reference never exposed
    (SURVEY.md §2.9)."""
    if mode not in ("except", "intersect", "union"):
        raise ValueError(f"unknown set op {mode!r}")

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            # null keys have no SQL DISTINCT set semantics here and
            # would ride NaN float semantics — reject loudly
            if batch[on].null_count:
                raise ValueError(
                    f"distinct_set_op: null keys in {on!r} "
                    f"({batch[on].null_count} in one batch); filter them upstream"
                )
            return _tag_side(pa.table({on: pc.unique(batch[on])}), side)

        return fn

    def op_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ka = g.loc[g["_side"] == 0, on].drop_duplicates()
        kb = g.loc[g["_side"] == 1, on]
        if mode == "except":
            out = ka[~ka.isin(kb)]
        elif mode == "intersect":
            out = ka[ka.isin(kb)]
        else:
            out = pd.concat([ka, kb]).drop_duplicates()
        return _complete_ints(out.sort_values().to_frame().reset_index(drop=True))

    sides = [rio.materialize_blocks(d, tag(i)) for i, d in enumerate((a, b))]
    return _cogroup(*sides, [on], op_bucket)


def prior_time_window_agg(
    sorted_keys: np.ndarray,
    sorted_t: np.ndarray,
    values: np.ndarray,
    dt: int,
) -> tuple[np.ndarray, np.ndarray]:
    """RANGE-frame window kernel: for rows sorted by (key, t), return
    (window_sum, window_n) of ``values`` over the frame
    ``[t_i - dt, t_i)`` within the same key — the strictly-before time
    window (SQL ``RANGE BETWEEN dt PRECEDING AND 1 PRECEDING`` on
    integer time: equal-t peers are EXCLUDED on both sides).

    Fully vectorized: per-key times are embedded on a shared monotone
    axis (key ordinal x stride + relative t), so ONE ``searchsorted``
    pair resolves every row's window bounds; an explicit overflow
    assert guards the embedding."""
    n = len(sorted_t)
    if n == 0:
        return np.zeros(0, dtype=values.dtype), np.zeros(0, dtype=np.int64)
    new_key = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    ordinal = np.cumsum(new_key) - 1  # 0-based key index
    t_rel = sorted_t.astype(np.int64) - int(sorted_t.min())
    stride = int(t_rel.max()) + int(dt) + 2  # keys never overlap on the axis
    # guard computed in PYTHON ints: the np.int64 product could itself
    # wrap negative and sail past the very check it implements
    if int(ordinal[-1] + 1) * stride >= np.iinfo(np.int64).max // 2:
        raise OverflowError(
            "time-window embedding overflow: too many keys x time span in "
            "one bucket; repartition the input into more blocks"
        )
    u = ordinal * stride + t_rel
    lo = np.searchsorted(u, ordinal * stride + (t_rel - dt), side="left")
    hi = np.searchsorted(u, u, side="left")  # first index of the t-tie run
    cum = np.concatenate([[0], np.cumsum(values)])
    return cum[hi] - cum[lo], (hi - lo).astype(np.int64)


def with_time_window(
    ds: rio.Blocks,
    key_col: str,
    t_col: str,
    value_col: str,
    dt: int,
    group_final=None,
) -> rio.Blocks:
    """Per-key time-based sliding window: appends ``win_sum`` /
    ``win_n`` = sum/count of ``value_col`` over the same key's rows in
    the strictly-before interval ``[t - dt, t)``. Same complete-keys
    distribution as ``with_prior_window`` (ROWS frame); this is the
    RANGE frame."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, t_col], kind="mergesort")
        ws, wn = prior_time_window_agg(
            g[key_col].to_numpy(),
            g[t_col].to_numpy(),
            g[value_col].to_numpy(),
            dt,
        )
        g = g.assign(win_sum=ws, win_n=wn)
        return group_final(g) if group_final is not None else g

    return _per_key(ds, [key_col], bucket_fn)


def interval_coverage_counts(
    intervals: rio.Blocks,
    points: rio.Blocks,
    start_col: str,
    end_col: str,
    t_col: str,
    bin_us: int,
    group_final=None,
) -> rio.Blocks:
    """COUNT-style range join without pair expansion: each point row
    comes back with ``n_cover`` = number of intervals containing it
    (start <= t < end). Time is cut into ``bin_us`` bins; an interval
    is REPLICATED into every bin it overlaps (pick bin_us ~ the typical
    interval length), a point goes only to bin(t), and both sides are
    co-grouped by bin in one ``io.reduce_by_key``. The in-bucket kernel
    is coverage counting — ``(#starts <= t) - (#ends <= t)`` over two sorted
    arrays — so the work is O((n_i + n_p) log) per bin and NOTHING of
    pair cardinality is ever materialized. Use THIS whenever the
    consumer aggregates pair counts: a pair join's output is
    inherently quadratic (measured: 10M events -> 2.8e9 pairs, 117 s;
    coverage counting answers the same daily-count query in ~3 s).
    Only the interval bounds move, as ``_s``/``_e``.
    ``group_final`` (pandas->pandas per bucket) for in-stage partials."""

    def tag_intervals(batch: pa.Table) -> pa.Table:
        s = batch[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _binned(0, *_replicate_to_bins(s, e, bin_us), pa.table({"_s": s, "_e": e}))

    def tag_points(batch: pa.Table) -> pa.Table:
        t = batch[t_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _binned(1, np.arange(len(t)), t // bin_us, batch)

    ivs = rio.materialize_blocks(intervals, tag_intervals)
    pts = rio.materialize_blocks(points, tag_points)
    pcols = [c for c in _side_columns(pts) if c != "_bin"]

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _bin, gb in g.groupby("_bin", sort=False):
            pt = gb[gb["_side"] == 1]
            if pt.empty:
                continue
            iv = gb[gb["_side"] == 0]
            t = pt[t_col].to_numpy(dtype=np.int64)
            starts = np.sort(iv["_s"].to_numpy(dtype=np.int64))
            ends = np.sort(iv["_e"].to_numpy(dtype=np.int64))
            n_cover = (
                np.searchsorted(starts, t, side="right") - np.searchsorted(ends, t, side="right")
            ).astype(np.int64)
            outs.append(pt[pcols].reset_index(drop=True).assign(n_cover=n_cover))
        if not outs:
            outs = [g.iloc[:0][pcols].assign(n_cover=np.zeros(0, dtype=np.int64))]
        res = _complete_ints(pd.concat(outs, ignore_index=True))
        return group_final(res) if group_final is not None else res

    return _cogroup(ivs, pts, ["_bin"], count_bucket)


def per_key_interarrival(
    ds: rio.Blocks,
    key_col: str,
    t_col: str,
) -> rio.Blocks:
    """Per-key LAG analytics: inter-arrival gaps (t - lag(t) within
    the key, time-ordered) reduced to per-key gap count and EXACT
    discrete median gap (value at sorted index (n-1)//2 — the
    engine's quantile rule). Complete keys per bucket, so the median
    is final in-stage; only |keys| rows leave. Keys with fewer than
    two rows emit no gap row (lag of the first row is NULL in SQL)."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, t_col], kind="mergesort")
        k = g[key_col].to_numpy()
        t = g[t_col].to_numpy().astype(np.int64)
        same = np.zeros(len(k), dtype=bool)  # gap rows: same key as prev
        same[1:] = k[1:] == k[:-1]
        gaps = np.diff(t, prepend=t[:1])[same]
        gkeys = k[same]
        if len(gaps) == 0:
            return pd.DataFrame(
                {key_col: pd.Series(dtype=g[key_col].dtype),
                 "n_gaps": pd.Series(dtype="int64"),
                 "med_gap_us": pd.Series(dtype="int64")}
            )
        # per-key exact discrete median: sort (key, gap), pick the
        # (n-1)//2-th gap of each key run — fully vectorized
        order = np.lexsort((gaps, gkeys))
        sk, sg = gkeys[order], gaps[order]
        new = np.r_[True, sk[1:] != sk[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, len(sk)])
        med_idx = starts + (counts - 1) // 2
        return pd.DataFrame(
            {key_col: sk[starts], "n_gaps": counts.astype(np.int64),
             "med_gap_us": sg[med_idx].astype(np.int64)}
        )

    return _per_key(ds, [key_col], bucket_fn)
