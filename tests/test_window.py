"""Ordered/temporal operator tests: as-of join, interval coverage
counts, prior-window rolling kernel, distinct set ops, top-k per group.
Each distributed operator is checked against an independent brute-force
in-memory oracle on randomized inputs, on multi-block inputs (one
shuffle bucket per input block), and at two block counts to pin
partitioning-invariance."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from rayhist.ops.relational import topk_per_group
from rayhist.ops.window import (
    asof_join,
    distinct_set_op,
    interval_coverage_counts,
    prior_window_sums,
    with_prior_window,
)


def _rng():
    return np.random.default_rng(42)


def _blocks(df: pd.DataFrame, n: int) -> ray.data.Dataset:
    """``df`` as ``n`` contiguous blocks (some empty when n > rows)."""
    cuts = [i * len(df) // n for i in range(n + 1)]
    return ray.data.from_pandas([df.iloc[a:b] for a, b in zip(cuts, cuts[1:])])


def _events(n=800, n_users=17, tmax=1_000_000):
    rng = _rng()
    return pd.DataFrame(
        {
            "user_id": rng.integers(0, n_users, n).astype(np.int64),
            "t": rng.integers(0, tmax, n).astype(np.int64),
            "v": rng.integers(1, 100, n).astype(np.int64),
            "row_id": np.arange(n, dtype=np.int64),
        }
    )


# ------------------------------------------------------------- asof


def _brute_asof(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    """Per-row scan oracle: latest right.t <= left.t for the same user."""
    out = []
    for _, row in left.iterrows():
        cand = right[(right["user_id"] == row["user_id"]) & (right["t"] <= row["t"])]
        out.append(cand["t"].max() if len(cand) else np.nan)
    res = left.copy()
    res["matched_t"] = out
    return res


@pytest.mark.parametrize("n_blocks", [1, 7])
def test_asof_join_matches_bruteforce(n_blocks):
    df = _events()
    left = df[df["row_id"] % 3 == 0][["user_id", "t", "row_id"]].reset_index(drop=True)
    right = df[df["row_id"] % 3 != 0][["user_id", "t", "v"]].reset_index(drop=True)
    got = asof_join(
        _blocks(left, n_blocks),
        _blocks(right, n_blocks),
        on="t",
        by="user_id",
    ).to_pandas()
    exp = _brute_asof(left, right)
    got = got.sort_values("row_id").reset_index(drop=True)
    exp = exp.sort_values("row_id").reset_index(drop=True)
    assert len(got) == len(left)  # left join: one row per left row
    # matched right timestamp equals the brute-force latest-at-or-before
    gt = got["t_r"].astype("float64").to_numpy()
    et = exp["matched_t"].to_numpy(dtype=np.float64)
    assert np.array_equal(np.isnan(gt), np.isnan(et))
    m = ~np.isnan(gt)
    assert np.array_equal(gt[m], et[m])


def test_asof_join_exact_match_inclusive():
    left = pd.DataFrame({"user_id": [1, 1], "t": [10, 5], "lid": [0, 1]})
    right = pd.DataFrame({"user_id": [1], "t": [10], "rid": [7]})
    got = (
        asof_join(
            _blocks(left, 2),
            ray.data.from_pandas(right),
            on="t",
            by="user_id",
        )
        .to_pandas()
        .sort_values("lid")
    )
    assert got["rid"].tolist()[0] == 7  # t=10 matches t=10 (>= inclusive)
    assert pd.isna(got["rid"].tolist()[1])  # t=5 has no earlier right row


def test_asof_group_final_runs_per_complete_key():
    df = _events(400)
    left = df[["user_id", "t", "row_id"]]
    right = df[["user_id", "t", "v"]].assign(t=lambda d: d["t"] - 1)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("user_id", as_index=False).agg(n=("row_id", "size"))

    got = (
        asof_join(
            _blocks(left, 5),
            ray.data.from_pandas(right),
            on="t",
            by="user_id",
            group_final=final,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    exp = (
        left.groupby("user_id", as_index=False)
        .agg(n=("row_id", "size"))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


# ------------------------------------------------------ rolling window


def test_prior_window_sums_vs_pandas_rolling():
    df = _events(600, n_users=9)
    w = 4
    df = df.sort_values(["user_id", "t", "row_id"], kind="mergesort")
    ps, pn = prior_window_sums(df["user_id"].to_numpy(), df["v"].to_numpy(), w)
    # pandas oracle: shifted rolling sum/count per user
    g = df.groupby("user_id")["v"]
    exp_sum = g.transform(lambda s: s.rolling(w, min_periods=0).sum().shift(1)).fillna(0)
    exp_n = g.transform(lambda s: s.rolling(w, min_periods=0).count().shift(1)).fillna(0)
    assert np.array_equal(ps, exp_sum.to_numpy(dtype=np.int64))
    assert np.array_equal(pn, exp_n.to_numpy(dtype=np.int64))


@pytest.mark.parametrize("n_blocks", [1, 6])
def test_with_prior_window_distributed(n_blocks):
    df = _events(500, n_users=11)
    got = (
        with_prior_window(
            _blocks(df, n_blocks),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
            window=3,
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    sdf = df.sort_values(["user_id", "t", "row_id"], kind="mergesort")
    ps, pn = prior_window_sums(sdf["user_id"].to_numpy(), sdf["v"].to_numpy(), 3)
    exp = sdf.assign(prior_sum=ps, prior_n=pn).sort_values("row_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)


# ----------------------------------------------------------- set ops


@pytest.mark.parametrize("mode", ["except", "intersect", "union"])
def test_distinct_set_op(mode):
    rng = _rng()
    a = pd.DataFrame({"k": rng.integers(0, 300, 900).astype(np.int64)})
    b = pd.DataFrame({"k": rng.integers(150, 450, 900).astype(np.int64)})
    got = (
        distinct_set_op(_blocks(a, 4), _blocks(b, 5), on="k", mode=mode)
        .to_pandas()["k"]
        .to_numpy()
    )
    sa, sb = set(a["k"]), set(b["k"])
    exp = {"except": sa - sb, "intersect": sa & sb, "union": sa | sb}[mode]
    assert set(got.tolist()) == exp
    assert len(got) == len(exp)  # distinct


# ----------------------------------------------------- top-k per group


def test_topk_per_group_vs_pandas():
    rng = _rng()
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 7, 2_000).astype(np.int64),
            "score": rng.integers(0, 50, 2_000).astype(np.int64),  # many ties
            "id": np.arange(2_000, dtype=np.int64),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = (
        topk_per_group(ds, "g", "score", 3, "id", descending=True)
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    exp = (
        df.sort_values(["score", "id"], ascending=[False, True], kind="mergesort")
        .groupby("g", sort=False)
        .head(3)
        .sort_values(["g"], kind="mergesort")
        .reset_index(drop=True)
    )
    exp["rank"] = exp.groupby("g").cumcount() + 1
    exp = exp.sort_values(["g", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["g", "score", "id", "rank"]], exp[["g", "score", "id", "rank"]],
        check_dtype=False,
    )


def test_asof_join_forward_direction():
    """direction='forward': earliest right row at-or-after left.t."""
    df = _events(300, n_users=5)
    left = df[df["row_id"] % 2 == 0][["user_id", "t", "row_id"]].reset_index(drop=True)
    right = df[df["row_id"] % 2 == 1][["user_id", "t", "v"]].reset_index(drop=True)
    got = (
        asof_join(
            _blocks(left, 3),
            ray.data.from_pandas(right),
            on="t",
            by="user_id",
            direction="forward",
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    exp = []
    for _, row in left.iterrows():
        cand = right[(right["user_id"] == row["user_id"]) & (right["t"] >= row["t"])]
        exp.append(cand["t"].min() if len(cand) else np.nan)
    exp = left.sort_values("row_id").assign(matched_t=exp)
    gt = got["t_r"].astype("float64").to_numpy()
    et = exp["matched_t"].to_numpy(dtype=np.float64)
    assert np.array_equal(np.isnan(gt), np.isnan(et))
    m = ~np.isnan(gt)
    assert np.array_equal(gt[m], et[m])


# ------------------------------------------------- stratified sample


def test_stratified_sample_rates_and_nesting():
    from rayhist.ops.relational import stratified_sample

    n = 40_000
    df = pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "s": np.where(np.arange(n) % 2 == 0, "even", "odd"),
        }
    )
    ds = ray.data.from_pandas(df).repartition(6)
    got = stratified_sample(
        ds, {"even": (1, 2), "odd": (1, 8)}, key_col="k", stratum_col="s"
    ).to_pandas()
    n_even = (got["s"] == "even").sum()
    n_odd = (got["s"] == "odd").sum()
    # binomial 4-sigma bounds around n/2 * 1/2 and n/2 * 1/8
    assert abs(n_even - n / 4) < 4 * np.sqrt(n / 2 * 0.25)
    assert abs(n_odd - n / 16) < 4 * np.sqrt(n / 2 * (1 / 8) * (7 / 8))
    # nesting: the 1/8 stratum is a subset of what a 1/2 rate keeps
    half = stratified_sample(
        ds, {"even": (1, 2), "odd": (1, 2)}, key_col="k", stratum_col="s"
    ).to_pandas()
    assert set(got.loc[got["s"] == "odd", "k"]) <= set(half.loc[half["s"] == "odd", "k"])
    # unknown strata drop by default (explicit whitelist)
    none_kept = stratified_sample(
        ds, {"nope": (1, 2)}, key_col="k", stratum_col="s"
    ).to_pandas()
    assert len(none_kept) == 0


def test_stratified_sample_null_stratum_gets_default_rate():
    """A null stratum value must take the default rate (drop when no
    default), NOT wrap pd.Categorical code -1 to the last category's
    threshold."""
    from rayhist.ops.relational import stratified_sample

    n = 8_000
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64)})
    # half the rows have a null stratum; the named stratum keeps all
    df["s"] = pd.array(
        np.where(np.arange(n) % 2 == 0, "keep", None), dtype="string"
    )
    ds = ray.data.from_pandas(df).repartition(4)
    # no default -> null-stratum rows all drop (would all SURVIVE under
    # the wraparound bug, since "keep"'s threshold is the max uint64 rate)
    got = stratified_sample(ds, {"keep": (1, 1)}, "k", "s").to_pandas()
    assert (got["s"] == "keep").all() and len(got) == n // 2
    # with a default, null rows sample at that rate (binomial 4-sigma)
    got2 = stratified_sample(
        ds, {"keep": (1, 1)}, "k", "s", default=(1, 4)
    ).to_pandas()
    n_null = got2["s"].isna().sum()
    assert abs(n_null - n / 8) < 4 * np.sqrt(n / 2 * 0.25 * 0.75)


def test_stratified_sample_all_null_block_gets_default_rate():
    """A block containing ONLY null-stratum rows has no pd.Categorical
    categories at all (empty lut) — its rows must still take the
    default rate, not a zero threshold. A zero threshold would make
    sampling depend on which rows co-reside in a block, breaking the
    documented partitioning invariance."""
    from rayhist.ops.relational import stratified_sample

    n = 4_000
    df_null = pd.DataFrame({"k": np.arange(n, dtype=np.int64)})
    df_null["s"] = pd.array([None] * n, dtype="string")
    df_named = pd.DataFrame({"k": np.arange(n, 2 * n, dtype=np.int64)})
    df_named["s"] = pd.array(["keep"] * n, dtype="string")
    # two blocks: one entirely null-stratum, one entirely named
    ds = ray.data.from_pandas([df_null, df_named])
    got = stratified_sample(
        ds, {"keep": (1, 1)}, "k", "s", default=(1, 2)
    ).to_pandas()
    n_null = got["s"].isna().sum()
    assert (got["s"] == "keep").sum() == n
    # the all-null block samples at the default rate (binomial 4-sigma;
    # under the zero-threshold bug n_null == 0)
    assert abs(n_null - n / 2) < 4 * np.sqrt(n * 0.25)
    # partitioning invariance: same rows kept when the nulls are
    # interleaved with named rows instead of isolated in one block
    mixed = ray.data.from_pandas(
        pd.concat([df_null, df_named]).sample(frac=1, random_state=7)
    ).repartition(4)
    got_mixed = stratified_sample(
        mixed, {"keep": (1, 1)}, "k", "s", default=(1, 2)
    ).to_pandas()
    assert set(got_mixed["k"]) == set(got["k"])


def test_stratified_sample_md5_matches_flat_at_uniform_rate():
    """With one uniform rate the stratified op equals
    deterministic_sample (same hash, same threshold)."""
    from rayhist.ops.relational import deterministic_sample, stratified_sample

    df = pd.DataFrame(
        {"k": np.arange(3_000, dtype=np.int64), "s": ["a"] * 1_500 + ["b"] * 1_500}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    a = (
        stratified_sample(ds, {"a": (1, 4), "b": (1, 4)}, "k", "s", hash_fn="md5")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    b = (
        deterministic_sample(ds, 1, 4, "k", hash_fn="md5")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


# ------------------------------------------------ time-based window


def test_prior_time_window_agg_vs_bruteforce():
    from rayhist.ops.window import prior_time_window_agg

    rng = _rng()
    n = 700
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 8, n).astype(np.int64),
            "t": rng.integers(0, 100_000, n).astype(np.int64),
            "v": rng.integers(1, 50, n).astype(np.int64),
        }
    ).sort_values(["k", "t"], kind="mergesort")
    dt = 5_000
    ws, wn = prior_time_window_agg(
        df["k"].to_numpy(), df["t"].to_numpy(), df["v"].to_numpy(), dt
    )
    k_arr, t_arr, v_arr = df["k"].to_numpy(), df["t"].to_numpy(), df["v"].to_numpy()
    for i in range(n):
        m = (k_arr == k_arr[i]) & (t_arr >= t_arr[i] - dt) & (t_arr < t_arr[i])
        assert wn[i] == m.sum(), i
        assert ws[i] == v_arr[m].sum(), i


def test_prior_time_window_excludes_equal_t_peers():
    from rayhist.ops.window import prior_time_window_agg

    k = np.array([1, 1, 1], dtype=np.int64)
    t = np.array([10, 10, 20], dtype=np.int64)
    v = np.array([5, 7, 1], dtype=np.int64)
    ws, wn = prior_time_window_agg(k, t, v, dt=100)
    assert wn.tolist() == [0, 0, 2]  # equal-t peers excluded
    assert ws.tolist() == [0, 0, 12]


@pytest.mark.parametrize("n_blocks", [1, 5])
def test_with_time_window_distributed(n_blocks):
    from rayhist.ops.window import prior_time_window_agg, with_time_window

    df = _events(400, n_users=7, tmax=50_000)
    got = (
        with_time_window(
            _blocks(df, n_blocks),
            key_col="user_id",
            t_col="t",
            value_col="v",
            dt=3_000,
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    sdf = df.sort_values(["user_id", "t"], kind="mergesort")
    ws, wn = prior_time_window_agg(
        sdf["user_id"].to_numpy(), sdf["t"].to_numpy(), sdf["v"].to_numpy(), 3_000
    )
    exp = sdf.assign(win_sum=ws, win_n=wn).sort_values("row_id").reset_index(drop=True)
    # rows with duplicate (user, t) would be order-ambiguous between the
    # engine sort and this oracle sort; the generator's us-resolution
    # times make them unique here
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp, check_dtype=False)


# ------------------------------------------------- degenerate inputs


def test_asof_join_empty_right_side():
    """An empty right side must yield pure-left rows with null matches
    (merge_asof against an empty frame), not crash."""
    left = _events(60, n_users=4)[["user_id", "t", "row_id"]]
    right = pd.DataFrame(
        {"user_id": pd.Series(dtype="int64"), "t": pd.Series(dtype="int64"),
         "v": pd.Series(dtype="int64")}
    )
    got = asof_join(
        _blocks(left, 3),
        _blocks(right, 3),
        on="t",
        by="user_id",
    ).to_pandas()
    assert len(got) == len(left)
    assert got["v"].isna().all()


def test_distinct_set_op_empty_b_side():
    a = pd.DataFrame({"k": np.arange(50, dtype=np.int64)})
    b = pd.DataFrame({"k": pd.Series(dtype="int64")})
    got = distinct_set_op(
        _blocks(a, 3), ray.data.from_pandas(b), on="k", mode="except"
    ).to_pandas()
    assert sorted(got["k"].tolist()) == list(range(50))


def test_asof_join_rejects_suffix_collision():
    left = pd.DataFrame({"user_id": [1], "t": [1], "t_r": [9]})
    right = pd.DataFrame({"user_id": [1], "t": [0]})
    with pytest.raises(ValueError):
        asof_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            on="t", by="user_id",
        )


def test_interval_coverage_counts_equals_pair_counts():
    """Coverage counting == per-point brute-force match counts."""
    from rayhist.ops.window import interval_coverage_counts

    rng = _rng()
    s = rng.integers(0, 200_000, 80).astype(np.int64)
    iv = pd.DataFrame({"s": s, "e": s + rng.integers(1, 20_000, 80).astype(np.int64)})
    pt = pd.DataFrame(
        {"pid": np.arange(500, dtype=np.int64),
         "t": rng.integers(0, 220_000, 500).astype(np.int64)}
    )
    got = (
        interval_coverage_counts(
            _blocks(iv, 3), _blocks(pt, 4),
            start_col="s", end_col="e", t_col="t", bin_us=10_000,
        )
        .to_pandas()
        .sort_values("pid")
        .reset_index(drop=True)
    )
    assert len(got) == len(pt)  # every point exactly once
    for _, row in got.iterrows():
        t = row["t"]
        exp = int(((iv["s"] <= t) & (t < iv["e"])).sum())
        assert row["n_cover"] == exp, (row["pid"], row["n_cover"], exp)


def test_default_bucket_counts_resolve():
    """Every co-grouped op works on one-block inputs (its bucket count
    is the input block count, so one bucket per side here) — the unit
    tests above feed several blocks, so this pins the smallest case."""
    from rayhist.ops.window import (
        asof_join as _aj,
        distinct_set_op as _dso,
        interval_coverage_counts as _icc,
        with_prior_window as _wpw,
        with_time_window as _wtw,
    )

    df = _events(120, n_users=5, tmax=10_000)
    ds = ray.data.from_pandas(df)
    assert len(_aj(ds.select_columns(["user_id", "t"]), ds.select_columns(["user_id", "t", "v"]), on="t", by="user_id").to_pandas()) == 120
    assert len(_wpw(ds, "user_id", ["t", "row_id"], "v", 2).to_pandas()) == 120
    assert len(_wtw(ds, "user_id", "t", "v", 1_000).to_pandas()) == 120
    assert len(_dso(ds.select_columns(["user_id"]), ds.select_columns(["user_id"]), on="user_id", mode="union").to_pandas()) == 5
    iv = pd.DataFrame({"s": [0], "e": [5_000]})
    assert len(_icc(ray.data.from_pandas(iv), ds.select_columns(["t"]), "s", "e", "t", 1_000).to_pandas()) == 120


def test_per_key_interarrival_vs_pandas():
    from rayhist.ops.window import per_key_interarrival

    df = _events(600, n_users=9, tmax=100_000)
    got = (
        per_key_interarrival(_blocks(df, 4), "user_id", "t")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    for uid, g in df.groupby("user_id"):
        gaps = np.sort(np.diff(np.sort(g["t"].to_numpy())))
        row = got[got["user_id"] == uid].iloc[0]
        assert row["n_gaps"] == len(gaps)
        assert row["med_gap_us"] == gaps[(len(gaps) - 1) // 2]


def test_per_key_interarrival_single_row_keys_dropped():
    from rayhist.ops.window import per_key_interarrival

    df = pd.DataFrame({"user_id": [1, 2, 2], "t": [10, 5, 9]})
    got = per_key_interarrival(_blocks(df, 2), "user_id", "t").to_pandas()
    assert got["user_id"].tolist() == [2]  # key 1 has no gap (lag NULL)
    assert got["med_gap_us"].tolist() == [4]


# ------------------------------------- review-fix regressions (round 5)


def test_asof_join_value_columns_stay_exact_int():
    """Unmatched left rows must NOT coerce right int VALUE columns to
    float64 (money rule): a cents value above 2^53 survives bit-exact
    and the unmatched row pads NA, not NaN."""
    big = 2**55 + 3  # not representable in float64
    left = pd.DataFrame({"u": [1, 2], "t": [10, 10], "lid": [0, 1]})
    right = pd.DataFrame({"u": [1], "t": [5], "cents": [big]})
    got = (
        asof_join(
            _blocks(left, 2), ray.data.from_pandas(right),
            on="t", by="u",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert str(got["cents"].dtype) == "Int64"
    assert got["cents"].iloc[0] == big  # exact — float64 would round
    assert pd.isna(got["cents"].iloc[1])
    # the right on-key keeps an integer dtype too (restored post-merge)
    assert str(got["t_r"].dtype) == "Int64"


def test_asof_join_validates_on_and_by():
    import pytest

    l = ray.data.from_pandas(pd.DataFrame({"u": [1], "x": [2]}))
    r = ray.data.from_pandas(pd.DataFrame({"u": [1], "t": [5]}))
    with pytest.raises(ValueError, match="left side lacks"):
        asof_join(l, r, on="t", by="u")
    with pytest.raises(ValueError, match="distinct"):
        asof_join(r, r, on="u", by="u")
    # right carrying both v and v_r collides after suffixing
    l2 = ray.data.from_pandas(pd.DataFrame({"u": [1], "t": [1], "v": [0]}))
    r2 = ray.data.from_pandas(pd.DataFrame({"u": [1], "t": [1], "v": [2], "v_r": [3]}))
    with pytest.raises(ValueError, match="collide"):
        asof_join(l2, r2, on="t", by="u")


def test_interval_ops_empty_bucket_schema_with_string_columns():
    """A bucket that yields zero output rows must emit a frame whose
    dtypes match populated buckets — an all-int64 placeholder against
    a string point column fails Ray's block-schema unification. Also
    covers pandas-block (from_pandas) sources, whose schema reports
    numpy dtypes."""
    iv = pd.DataFrame({"s": [0, 10], "e": [20, 30]})
    pt = pd.DataFrame({"t": [5, 5000], "tag": ["a", "b"]})  # bin 50: no intervals
    cov = interval_coverage_counts(
        _blocks(iv, 2), _blocks(pt, 6),
        "s", "e", "t", bin_us=100,
    ).to_pandas()
    assert sorted(map(tuple, cov[["t", "n_cover"]].to_numpy())) == [(5, 1), (5000, 0)]


def test_interval_ops_reject_malformed_intervals():
    """end < start must raise loudly in the replication tag —
    downstream it would SILENTLY subtract from coverage counts."""
    import pytest
    import ray.exceptions

    iv = ray.data.from_pandas(pd.DataFrame({"s": [10], "e": [5]}))
    pt = ray.data.from_pandas(pd.DataFrame({"t": [7]}))
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)) as ei:
        interval_coverage_counts(iv, pt, "s", "e", "t", bin_us=100).to_pandas()
    assert "end < start" in str(ei.value)


def test_distinct_set_op_rejects_null_keys():
    import pytest
    import ray.exceptions

    from rayhist.ops.window import distinct_set_op

    a = pd.DataFrame({"k": pd.array(["x", None], dtype="string")})
    b = pd.DataFrame({"k": pd.array(["x"], dtype="string")})
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)) as ei:
        distinct_set_op(
            ray.data.from_pandas(a), ray.data.from_pandas(b), on="k", mode="except"
        ).to_pandas()
    assert "null keys" in str(ei.value)


# ----------------------------------------------------- ranked window


@pytest.mark.parametrize("n_blocks", [2, 16])
def test_with_ranked_window_matches_duckdb(n_blocks):
    """Randomized differential: the appended row_number / dense_rank /
    prior_val (LAG) / prior_max (running max over strictly-prior rows)
    columns equal DuckDB's window functions, at two block counts
    (partitioning invariance)."""
    import duckdb

    from rayhist.ops.window import with_ranked_window

    df = _events(n=600, n_users=13)
    got = (
        with_ranked_window(
            ray.data.from_pandas(df).repartition(n_blocks),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("df", df)
    want = (
        con.execute(
            """
            SELECT row_id,
              CAST(row_number() OVER w AS BIGINT) AS row_number,
              CAST(dense_rank() OVER (PARTITION BY user_id ORDER BY v) AS BIGINT)
                AS dense_rank,
              lag(v) OVER w AS prior_val,
              max(v) OVER (PARTITION BY user_id ORDER BY t, row_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                AS prior_max
            FROM df WINDOW w AS (PARTITION BY user_id ORDER BY t, row_id)
            """
        )
        .df()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    assert got["row_number"].tolist() == want["row_number"].tolist()
    assert got["dense_rank"].tolist() == want["dense_rank"].tolist()
    for col in ("prior_val", "prior_max"):
        g = got[col].astype("float64").to_numpy()
        w = want[col].astype("float64").to_numpy()
        assert np.array_equal(g, w, equal_nan=True), col


@pytest.mark.parametrize("n_blocks", [2, 16])
def test_with_ranked_window_extras_match_duckdb(n_blocks):
    """Randomized differential for the extras surface: next_val
    (LEAD), first_val (FIRST_VALUE), pct_rank (PERCENT_RANK) and
    cume_dist (CUME_DIST) equal DuckDB's window functions BIT-exactly
    — the rank divisions are the identical two-integer IEEE op in
    both engines, so == (not allclose) is the right comparison."""
    import duckdb

    from rayhist.ops.window import with_ranked_window

    df = _events(n=600, n_users=13)
    got = (
        with_ranked_window(
            ray.data.from_pandas(df).repartition(n_blocks),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
            extras={"lead", "first", "dist"},
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("df", df)
    want = (
        con.execute(
            """
            SELECT row_id,
              lead(v) OVER w AS next_val,
              first_value(v) OVER w AS first_val,
              percent_rank() OVER (PARTITION BY user_id ORDER BY v) AS pct_rank,
              cume_dist() OVER (PARTITION BY user_id ORDER BY v) AS cume_dist
            FROM df WINDOW w AS (PARTITION BY user_id ORDER BY t, row_id)
            """
        )
        .df()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    g_next = got["next_val"].astype("float64").to_numpy()
    assert np.array_equal(
        g_next, want["next_val"].astype("float64").to_numpy(), equal_nan=True
    )
    assert got["first_val"].tolist() == want["first_val"].tolist()
    # bit-exact float equality, deliberately not allclose
    assert got["pct_rank"].tolist() == want["pct_rank"].tolist()
    assert got["cume_dist"].tolist() == want["cume_dist"].tolist()


def test_with_ranked_window_rejects_unknown_extras():
    from rayhist.ops.window import with_ranked_window

    ds = ray.data.from_pandas(_events(n=10))
    with pytest.raises(ValueError, match="unknown extras"):
        with_ranked_window(
            ds, key_col="user_id", order_cols=["t"], value_col="v",
            extras={"lead", "median"},
        )


def test_with_ranked_window_int64_exact_above_2_53():
    """The lag/max columns must stay nullable Int64 — a float64 shift
    would silently corrupt cents above 2^53."""
    from rayhist.ops.window import with_ranked_window

    big = 2**55
    df = pd.DataFrame(
        {
            "user_id": np.zeros(3, dtype=np.int64),
            "t": np.arange(3, dtype=np.int64),
            "row_id": np.arange(3, dtype=np.int64),
            "v": np.array([big + 3, big + 1, big + 7], dtype=np.int64),
        }
    )
    out = (
        with_ranked_window(
            _blocks(df, 4),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
        )
        .to_pandas()
        .sort_values("row_id")
    )
    assert out["prior_val"].tolist()[1:] == [big + 3, big + 1]
    assert out["prior_max"].tolist()[1:] == [big + 3, big + 3]
    assert pd.isna(out["prior_val"].iloc[0]) and pd.isna(out["prior_max"].iloc[0])


def test_with_ranked_window_rejects_nulls():
    import pytest
    import ray.exceptions

    from rayhist.ops.window import with_ranked_window

    df = pd.DataFrame(
        {
            "user_id": pd.array([1, None], dtype="Int64"),
            "t": [1, 2],
            "row_id": [0, 1],
            "v": [5, 6],
        }
    )
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)) as ei:
        with_ranked_window(
            ray.data.from_pandas(df),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
        ).to_pandas()
    assert "null" in str(ei.value)


@pytest.mark.parametrize("k", [1, 3, 7, 50])
def test_with_ranked_window_ntile_matches_duckdb(k):
    """NTILE remainder rule vs DuckDB, incl. k=1 (one tile) and
    k > group size (every row its own tile)."""
    import duckdb

    from rayhist.ops.window import with_ranked_window

    df = _events(n=220, n_users=9)
    got = (
        with_ranked_window(
            ray.data.from_pandas(df).repartition(8),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
            ntile=k,
        )
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("df", df)
    want = (
        con.execute(
            f"""SELECT row_id, CAST(ntile({k}) OVER (PARTITION BY user_id
                ORDER BY t, row_id) AS BIGINT) AS tile FROM df"""
        )
        .df()
        .sort_values("row_id")
        .reset_index(drop=True)
    )
    assert got["tile"].tolist() == want["tile"].tolist()


def test_with_ranked_window_ntile_validates():
    import pytest

    from rayhist.ops.window import with_ranked_window

    with pytest.raises(ValueError, match="ntile"):
        with_ranked_window(
            ray.data.from_pandas(_events(n=10)),
            key_col="user_id",
            order_cols=["t", "row_id"],
            value_col="v",
            ntile=0,
        )


def test_user_streaks_brute_force():
    """Gaps-and-islands pipeline vs a pandas reference on a corpus with
    known multi-run users (shared events parquet at sf0.001)."""
    from rayhist.pipelines import DAY_US, T0, q_user_streaks

    got = q_user_streaks("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "ts"])
    ev["day"] = (ev["ts"].astype("int64") - T0) // DAY_US
    days = ev[["user_id", "day"]].drop_duplicates().sort_values(["user_id", "day"])
    rows = []
    for uid, g in days.groupby("user_id"):
        d = g["day"].to_numpy()
        runs = np.split(d, np.flatnonzero(np.diff(d) != 1) + 1)
        rows.append(
            {
                "user_id": uid,
                "n_active_days": len(d),
                "n_streaks": len(runs),
                "longest_streak": max(len(r) for r in runs),
            }
        )
    want = pd.DataFrame(rows).sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    assert (want["n_streaks"] > 1).any()  # corpus exercises real gaps


def test_cohort_retention_conservation():
    """Every (cohort, offset=0) cell equals the cohort's size, and the
    sum over the matrix equals total distinct (user, day) pairs."""
    from rayhist.pipelines import DAY_US, T0, q_cohort_retention

    got = q_cohort_retention("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "ts"])
    ev["day"] = (ev["ts"].astype("int64") - T0) // DAY_US
    days = ev[["user_id", "day"]].drop_duplicates()
    first = days.groupby("user_id")["day"].min()
    z = got[got["day_offset"] == 0].set_index("cohort_day")["n_users"]
    want_z = first.value_counts().sort_index()
    assert dict(z) == dict(want_z)
    assert got["n_users"].sum() == len(days)


def test_etype_transitions_brute_force():
    from rayhist.pipelines import q_etype_transitions

    got = q_etype_transitions("/root/testdata/sf0.001")
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"])
    ev["prev_etype"] = ev.groupby("user_id")["event_type"].shift()
    want = (
        ev.dropna(subset=["prev_etype"])
        .groupby(["prev_etype", "event_type"], as_index=False)
        .size()
        .rename(columns={"event_type": "etype", "size": "n"})
        .sort_values(["prev_etype", "etype"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, want.astype({"n": "int64"}), check_dtype=False
    )
    assert got["n"].sum() == len(ev) - ev["user_id"].nunique()


def test_peak_concurrency_brute_force():
    """Sweep-line pipeline vs a pandas reference: sessionize (30-min
    gap), boundary deltas, exclusive scan + starts-before-ends peak,
    per-day max."""
    from rayhist.pipelines import DAY_US, SESSION_GAP_US, T0, q_peak_concurrency

    got = q_peak_concurrency("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "ts"])
    ev["t"] = ev["ts"].astype("int64")
    ev = ev.sort_values(["user_id", "t"])
    new = (ev["user_id"].diff() != 0) | (ev.groupby("user_id")["t"].diff()
                                         >= SESSION_GAP_US)
    ev["sid"] = new.cumsum()
    sess = ev.groupby("sid")["t"].agg(["min", "max"])
    b = pd.concat(
        [
            pd.DataFrame({"t": sess["min"], "d": 1}),
            pd.DataFrame({"t": sess["max"], "d": -1}),
        ]
    )
    g = b.groupby("t").agg(net=("d", "sum"), pos=("d", lambda s: int((s > 0).sum())))
    g = g.sort_index()
    before = np.concatenate([[0], np.cumsum(g["net"].to_numpy())[:-1]])
    peak = before + g["pos"].to_numpy()
    want = (
        pd.DataFrame({"day": (g.index.to_numpy() - T0) // DAY_US, "peak": peak})
        .groupby("day", as_index=False)["peak"]
        .max()
        .rename(columns={"peak": "peak_concurrency"})
        .sort_values("day")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    assert (want["peak_concurrency"] > 1).any()  # real overlap in the corpus


def test_interval_union_length_brute_force():
    """Random interval sets vs a per-key Python sweep: covered length
    and span count match; touching half-open intervals ([1,3)+[3,5))
    merge into one span; zero-length intervals add no coverage."""
    from rayhist.ops.sessions import interval_union_length

    rng = np.random.RandomState(5)
    n = 400
    k = rng.randint(0, 12, n).astype(np.int64)
    s = rng.randint(0, 1000, n).astype(np.int64)
    e = s + rng.randint(0, 50, n).astype(np.int64)  # includes zero-length
    # pin the touching case on its own key
    k[:2], s[0], e[0], s[1], e[1] = 99, 1, 3, 3, 5
    # 8 input blocks -> 8 hash buckets, each key spread over blocks
    df = pd.DataFrame({"k": k, "s": s, "e": e})
    ds = ray.data.from_pandas([df.iloc[i::8] for i in range(8)])
    got = (
        interval_union_length(ds, "k", "s", "e")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )

    want_rows = []
    for key in sorted(set(k.tolist())):
        ivs = sorted((int(a), int(b)) for a, b, kk in zip(s, e, k) if kk == key)
        spans = []
        for a, b in ivs:
            if spans and a <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], b)
            else:
                spans.append([a, b])
        want_rows.append(
            {"k": key, "covered": sum(b - a for a, b in spans), "n_spans": len(spans)}
        )
    want = pd.DataFrame(want_rows).astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), want)
    assert int(got.loc[got["k"] == 99, "n_spans"].iloc[0]) == 1  # touching merged


def test_interval_union_length_rejects_negative():
    from rayhist.ops.sessions import interval_union_length

    bad, good = {"k": [1], "s": [10], "e": [5]}, {"k": [2], "s": [0], "e": [1]}
    ds = ray.data.from_pandas([pd.DataFrame(bad), pd.DataFrame(good)])
    with pytest.raises(Exception):
        interval_union_length(ds, "k", "s", "e").to_pandas()


def test_rolling_active_users_brute_force():
    """Window-coverage fan-out vs a literal per-window distinct count."""
    from rayhist.pipelines import (
        DAY_GRID_N,
        DAY_US,
        ROLL_WIN_DAYS,
        T0,
        q_rolling_active_users,
    )

    got = q_rolling_active_users("/root/testdata/sf0.001").set_index("wday")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "ts"])
    ev["day"] = (ev["ts"].astype("int64") - T0) // DAY_US
    days = ev[["user_id", "day"]].drop_duplicates()
    for w in range(DAY_GRID_N):
        sel = days[(days["day"] >= w - (ROLL_WIN_DAYS - 1)) & (days["day"] <= w)]
        assert got.loc[w, "n_active"] == sel["user_id"].nunique(), w
    # windows genuinely widen the daily count
    daily = days.groupby("day")["user_id"].nunique()
    assert (got["n_active"].to_numpy()[7:] >= daily.reindex(range(7, DAY_GRID_N)).fillna(0).to_numpy()).all()
