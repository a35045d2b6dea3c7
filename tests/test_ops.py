"""Operator tests: t-digest accuracy, dedup recall, text stages,
multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayhist import io as rio
from rayhist.functions.tdigest import TDigest
from rayhist.ops import cc
from rayhist.ops.dedup import (
    exact_dedup,
    exact_jaccard_pairs,
    minhash_lsh_pairs,
    shingle_set,
    simhash64,
)
from rayhist.ops.multimodal import MediaDecodeStage, synth_media_table
from rayhist.ops.relational import exact_quantiles_int
from rayhist.ops.text import add_token_count
from tests.test_window import _blocks  # a graph operator has one bucket per input block

# the graph operators' size gate as shipped (tests lower it to 0 to run
# the distributed rounds)
DEFAULT_GATE = cc.BROADCAST_GATE


def test_tdigest_accuracy_vs_exact():
    """t-digest at compression=1000 ~ 0.1% quantile accuracy
    (TDigestReducer.java:9-21 claim)."""
    rng = np.random.default_rng(5)
    x = rng.lognormal(3, 1, 200_000)
    d1 = TDigest.of(x[:100_000])
    d2 = TDigest.of(x[100_000:])
    d = d1.merge(d2)
    xs = np.sort(x)
    for q in (0.25, 0.5, 0.75, 0.95):
        est = d.quantile(q)
        # rank error, not value error
        rank = np.searchsorted(xs, est) / len(xs)
        assert abs(rank - q) < 0.005, (q, rank)


@pytest.mark.parametrize("n_blocks", [1, 4, 16])
def test_tdigest_price_quantiles_at_any_block_count(monkeypatch, n_blocks):
    """The rows-only t-digest query holds the rank-error bound of
    test_tdigest_accuracy_vs_exact against the exact lineitem quartiles
    however its input is split into blocks (one partial digest each)."""
    import pyarrow.parquet as pq

    from rayhist import io as rio
    from rayhist.pipelines import q_tdigest_price_quantiles
    from tests.test_ingest import SF

    monkeypatch.setattr(rio, "auto_num_blocks", lambda *args: n_blocks)
    est = q_tdigest_price_quantiles(SF).iloc[0]
    xs = np.sort(pq.read_table(f"{SF}/lineitem.parquet")["l_extendedprice"].to_numpy())
    for q, col in ((0.25, "p25_est"), (0.5, "p50_est"), (0.75, "p75_est")):
        rank = np.searchsorted(xs, est[col]) / len(xs)
        assert abs(rank - q) < 0.005, (n_blocks, q, rank)


def test_tdigest_serialization_roundtrip():
    d = TDigest.of(np.arange(1000.0))
    d2 = TDigest.from_bytes(d.to_bytes())
    assert d2.quantile(0.5) == d.quantile(0.5)


def test_tdigest_merge_order_insensitive():
    rng = np.random.default_rng(9)
    parts = [TDigest.of(rng.normal(0, 1, 1000)) for _ in range(4)]
    a = parts[0].merge(parts[1]).merge(parts[2]).merge(parts[3])
    b = parts[3].merge(parts[2]).merge(parts[1]).merge(parts[0])
    assert a.quantile(0.5) == pytest.approx(b.quantile(0.5), abs=0.02)


def _doc_ds():
    import ray.data

    texts = [
        "a b c d e f g h",
        "a b c d e f g x",  # near-dup of 0
        "p q r s t u v w",
        "a b c d e f g h",  # exact dup of 0
        "z z z y y y x x",
    ]
    return ray.data.from_arrow(
        pa.table({"doc_id": list(range(5)), "text": texts})
    )


def test_exact_dedup():
    out = exact_dedup(_doc_ds()).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 1, 2, 4]  # doc 3 deduped to doc 0


def test_jaccard_and_minhash_agree():
    ds = _doc_ds()
    exact = exact_jaccard_pairs(ds, 1, 2)
    assert (0, 1) in set(zip(exact["doc_a"], exact["doc_b"]))
    assert (0, 3) in set(zip(exact["doc_a"], exact["doc_b"]))  # identical
    mh = minhash_lsh_pairs(ds, 1, 2)
    # LSH with 16 bands x 8 rows has ~certain recall at J>=0.5 for
    # identical docs and very high for J~0.8; verify against exact set
    exact_set = set(zip(exact["doc_a"], exact["doc_b"]))
    mh_set = set(zip(mh["doc_a"], mh["doc_b"]))
    assert mh_set <= exact_set  # verification removes false positives
    assert (0, 3) in mh_set


def test_jaccard_df_cap():
    """Stop-shingle DF cap: capped == uncapped on corpora whose max
    shingle frequency is under the cap (the default-cap contract the
    oracle relies on), and a hot shingle above the cap is excluded
    from pair expansion (false-negative-only)."""
    ds = _doc_ds()
    capped = exact_jaccard_pairs(ds, 1, 2)  # default df_cap=1024
    uncapped = exact_jaccard_pairs(ds, 1, 2, df_cap=None)
    assert capped.equals(uncapped)

    # corpus whose ONLY overlap is one shingle shared by all docs: with
    # df_cap below the doc count that shingle is a stop-shingle and no
    # pairs survive; uncapped still finds the identical pair
    import ray.data

    hot = ["h o t x%d y%d z%d" % (i, i, i) for i in range(6)]
    hot[5] = hot[0]  # identical pair (0, 5)
    ds2 = ray.data.from_arrow(pa.table({"doc_id": list(range(6)), "text": hot}))
    # at 1/8, a single shared shingle (common=1, union=7) IS a hit:
    # uncapped emits all 15 cross pairs
    un2 = exact_jaccard_pairs(ds2, 1, 8, df_cap=None)
    assert len(un2) == 15
    cap2 = exact_jaccard_pairs(ds2, 1, 8, df_cap=5)
    # "h o t" (df=6) is capped; docs 0/5 still share their unique
    # shingles so the identical pair survives on those alone
    assert set(zip(cap2["doc_a"], cap2["doc_b"])) == {(0, 5)}


def test_simhash_identical_docs():
    s1 = simhash64(shingle_set("a b c d e f g h"))
    s2 = simhash64(shingle_set("a b c d e f g h"))
    s3 = simhash64(shingle_set("p q r s t u v w"))
    assert s1 == s2
    assert bin(s1 ^ s3).count("1") > 3


def test_exact_quantiles_int():
    import ray.data

    vals = np.array([5, 1, 9, 3, 7, 2, 8, 4, 6, 0], dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"x": vals}))
    p25, p50, p75 = exact_quantiles_int(ds, "x", [(1, 4), (1, 2), (3, 4)])
    # sorted: 0..9 ; idx = (9*1)//4=2 -> 2 ; (9)//2=4 -> 4 ; (27)//4=6 -> 6
    assert (p25, p50, p75) == (2, 4, 6)


def test_token_count_definition():
    t = pa.table({"text": ["a b c", "", "one"]})
    out = add_token_count(t)
    assert out["n_tokens"].to_pylist() == [3, 0, 1]


def test_multimodal_plumbing():
    """The decode stage runs in block tasks (one per block, as the
    media queries run it) and yields the same features every time."""
    refs = [f"img://{i}" for i in range(10)]
    blocks = _blocks(synth_media_table(refs).to_pandas(), 3)
    out = rio.map_blocks(blocks, MediaDecodeStage()).to_pandas()
    assert len(out) == 10
    assert set(out.columns) == {"media_ref", "kind", "width", "height", "feature"}
    assert all(len(f) == 16 for f in out["feature"])
    # deterministic: same ref -> same feature
    out2 = rio.map_blocks(rio.table_blocks(synth_media_table(refs)), MediaDecodeStage()).to_pandas()
    a = out.sort_values("media_ref")["feature"].tolist()
    b = out2.sort_values("media_ref")["feature"].tolist()
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_hash_join_matches_pandas():
    import ray.data
    from rayhist.ops.relational import broadcast_join, hash_join

    rng = np.random.default_rng(8)
    left = pd.DataFrame({"k": rng.integers(0, 50, 500), "a": np.arange(500)})
    right = pd.DataFrame({"k": np.arange(0, 60), "b": np.arange(60) * 10})
    want = left.merge(right, on="k").sort_values(["k", "a"]).reset_index(drop=True)
    got = (
        hash_join(
            ray.data.from_pandas([left.iloc[:250], left.iloc[250:]]),
            ray.data.from_pandas([right.iloc[i::3] for i in range(3)]),
            on="k",
        )
        .to_pandas()
        .sort_values(["k", "a"])
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    # and the broadcast variant agrees
    got2 = (
        broadcast_join(ray.data.from_pandas(left), right, on="k")
        .to_pandas()
        .sort_values(["k", "a"])
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got2.astype("int64"), want.astype("int64"))


def test_timeutil_grids_and_iso():
    from rayhist.functions.timeutil import format_iso, parse_iso, timestamps
    from rayhist.pipelines import DAY_US, SNAP_DAILY, T0

    assert parse_iso("2024-01-01") == T0
    assert parse_iso("2024-01-01T00:00:00Z") == T0
    assert format_iso(T0) == "2024-01-01T00:00:00Z"
    daily = timestamps("2024-01-01", "2024-02-02", "DAILY")
    assert daily == SNAP_DAILY
    assert timestamps("2024-01-01", "2024-01-02", "PT6H") == [T0 + i * DAY_US // 4 for i in range(5)]
    monthly = timestamps("2008-01-01", "2009-01-01", "MONTHLY")
    assert len(monthly) == 13
    yearly = timestamps("2008-01-01", "2012-01-01", "YEARLY")
    assert len(yearly) == 5


def test_grouped_tdigest_accuracy():
    import duckdb
    import ray.data

    from rayhist.aggregate import grouped_estimated_quantiles

    ds = ray.data.read_parquet("/root/testdata/sf0.01/events.parquet", columns=["event_type", "value"])
    est = grouped_estimated_quantiles(ds, "event_type", "value", [0.5])
    exact = duckdb.sql(
        "SELECT event_type, quantile_cont(value, 0.5) AS m FROM '/root/testdata/sf0.01/events.parquet' GROUP BY 1 ORDER BY 1"
    ).df()
    merged = est.merge(exact, on="event_type")
    rel = ((merged["p50_est"] - merged["m"]).abs() / merged["m"].abs().clip(lower=1)).max()
    assert rel < 0.02, rel


def test_embedding_dup_pairs_blocked_equals_dense():
    """The distributed triangular block join returns exactly the dense
    in-memory all-pairs result (same pair set, same similarities)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from rayhist.ops.dedup import embedding_dup_pairs

    path = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got = embedding_dup_pairs(ds, tau=0.4, n_blocks=4)

    tb = pq.read_table(path, columns=["vec_id", "embedding"]).to_pandas().sort_values("vec_id")
    ids = tb["vec_id"].to_numpy(dtype=np.int64)
    mat = np.stack(tb["embedding"].to_numpy()).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    ii, jj = np.nonzero(sims >= 0.4)
    keep = ids[ii] < ids[jj]
    import pandas as pd

    exp = (
        pd.DataFrame({"vec_a": ids[ii[keep]], "vec_b": ids[jj[keep]], "cos_sim": sims[ii[keep], jj[keep]]})
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    assert (got["vec_a"].to_numpy() == exp["vec_a"].to_numpy()).all()
    assert (got["vec_b"].to_numpy() == exp["vec_b"].to_numpy()).all()
    assert np.allclose(got["cos_sim"].to_numpy(), exp["cos_sim"].to_numpy(), atol=1e-12)


def test_short_docs_never_near_dup():
    """Docs with fewer than SHINGLE_N words have no shingles: they must
    produce NO near-dup pairs in any path, and must not share LSH/
    SimHash buckets (a shared sentinel signature would collide every
    short doc -> quadratic candidates at corpus scale)."""
    import pyarrow as pa
    import ray.data

    from rayhist.ops.dedup import (
        MinHashStage,
        exact_jaccard_pairs,
        minhash_lsh_pairs,
        simhash_pairs,
    )

    texts = ["hi", "yo", "", "one two", "a proper document with many words here",
             "a proper document with many words here"]
    ds = ray.data.from_arrow(pa.table({"doc_id": list(range(6)), "text": texts}))
    ex = exact_jaccard_pairs(ds, 1, 2)
    assert set(zip(ex["doc_a"], ex["doc_b"])) == {(4, 5)}
    mh = minhash_lsh_pairs(ds, 1, 2)
    assert set(zip(mh["doc_a"], mh["doc_b"])) == {(4, 5)}
    sh = simhash_pairs(ds)
    assert set(zip(sh["doc_a"], sh["doc_b"])) == {(4, 5)}
    # short docs emit zero band rows
    bands = MinHashStage()(pa.table({"doc_id": [0, 1], "text": ["hi", "yo"]}))
    assert len(bands) == 0


def test_tag_interpreter_modes():
    from rayhist.geometry import TagInterpreter, is_area

    ti = TagInterpreter([
        {"key": "building", "polygon": "all"},
        {"key": "highway", "polygon": "whitelist", "values": ["services", "rest_area"]},
        {"key": "natural", "polygon": "blacklist", "values": ["coastline", "ridge"]},
    ])
    assert ti.is_area({"building": "yes"})
    assert not ti.is_area({"building": "yes", "area": "no"})  # area=no wins
    assert ti.is_area({"highway": "services"})
    assert not ti.is_area({"highway": "residential"})
    assert ti.is_area({"natural": "water"})
    assert not ti.is_area({"natural": "coastline"})
    assert not ti.is_area({"name": "x"})
    # default interpreter == historical AREA_TAGS behavior
    assert is_area({"building": "yes"}) and not is_area({"name": "x"})
    # reference "no" semantics (DefaultTagInterpreter.java:88-104):
    # "all" wraps an inverted set CONTAINING "no" -> building=no is a
    # line; "whitelist" ADDS "no" to the accepted set (a reference
    # quirk mirrored verbatim) -> highway=no is an area
    assert not ti.is_area({"building": "no"})
    assert ti.is_area({"highway": "no"})
    assert ti.is_area({"natural": "no"})  # blacklist: not listed -> area


def test_dedup_and_text_stages_survive_null_text():
    """One null text must not poison a batch (explode_shingles offset
    math, quality/langid stages) — nulls behave as empty strings."""
    import pandas as pd
    import pyarrow as pa

    from rayhist.ops.dedup import explode_shingles
    from rayhist.ops.text import langid_stage, quality_stage

    t = pa.table({"doc_id": [0, 1, 2], "text": ["a b c d", None, "e f g h"]})
    sh = explode_shingles(t)
    assert set(sh["doc_id"].to_pylist()) == {0, 2}

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["the quick brown fox", None]})
    q = quality_stage(df.copy())
    assert q["n_chars_m"].iloc[1] == 0 and not q["quality_ok"].iloc[1]
    assert np.isfinite(q["punct_ratio"]).all()
    lid = langid_stage(df.copy())
    assert lid["lang_pred"].iloc[1] == "en"  # default, not a crash


def test_pair_ops_empty_result_schemas():
    """Zero surviving pairs must return the documented typed columns,
    not a schema-less frame."""
    import ray.data

    from rayhist.ops.dedup import exact_jaccard_pairs, simhash_pairs

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"unique{i} words{i} here{i} now{i}"} for i in range(6)]
    )
    ej = exact_jaccard_pairs(docs, 1, 2)
    assert list(ej.columns) == ["doc_a", "doc_b", "common", "un"] and ej.empty
    sh = simhash_pairs(docs, max_hamming=0)
    assert list(sh.columns) == ["doc_a", "doc_b", "hamming"]


def test_embedding_dup_blocks_scale_with_corpus():
    """Default n_blocks derives from corpus size x vector bytes /
    target_group_bytes (hash_join's cluster-scaling rule): under a
    forced-small target the block count must rise so no group ever
    holds more than ~2*ceil(n/B) rows, and the pair set must stay
    identical to the fixed-block result (exactness is B-independent)."""
    import numpy as np
    import pandas.testing as pdt
    import pyarrow.parquet as pq
    import ray.data

    from rayhist.ops.dedup import embedding_dup_pairs

    path = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"]).materialize()
    n = ds.count()
    dim = len(ds.take(1)[0]["embedding"])
    rowbytes = dim * 8 + 16
    target = max(1, (2 * n * rowbytes) // 32)  # force B ~ 32
    got = embedding_dup_pairs(ds, tau=0.4, target_group_bytes=target)
    ref = embedding_dup_pairs(ds, tau=0.4, n_blocks=4)
    pdt.assert_frame_equal(got, ref)
    # the derived B honors the memory bound: 2*n/B rows * rowbytes <= target
    B = int(max(8, -(-2 * n * rowbytes // target)))
    assert 2 * -(-n // B) * rowbytes <= target + 2 * rowbytes * B  # ceil slack
    assert B >= 31  # the forced target actually raised the block count


def test_hash_semi_join_filters_without_multiplying():
    """hash_semi_join keeps exactly the left rows whose key appears in
    the right side — duplicate right keys must NOT multiply rows, and
    int64 columns must come back exact (no float64 union-padding
    coercion, including above 2^53)."""
    import pyarrow as pa
    import ray.data

    from rayhist.ops.relational import hash_semi_join

    big = (1 << 53) + 1  # would round under a float64 round-trip
    left = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": np.array([1, 2, 3, 4], dtype=np.int64),
                "payload": np.array([big, big + 2, 7, 9], dtype=np.int64),
                "text": ["a", "b", "c", "d"],
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table({"doc_id": np.array([2, 2, 4, 99], dtype=np.int64)})
    )
    out = hash_semi_join(left, right, on="doc_id").to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [2, 4]
    assert out["payload"].tolist() == [big + 2, 9]  # exact int64 round-trip
    assert str(out["payload"].dtype) == "int64"


def test_exact_dedup_vector128_matches_md5_survivors():
    """The vectorized 128-bit content key (production default) must
    keep exactly the same keep-first survivors as the md5 key, and the
    vector128 fingerprint must induce the same equality classes as
    md5(text)."""
    import pandas.testing as pdt
    import ray.data

    from rayhist.ops.dedup import exact_dedup
    from rayhist.ops.text import fingerprint_stage

    import pyarrow as pa

    base = ray.data.read_parquet(
        "/root/testdata/sf0.01/documents.parquet", columns=["doc_id", "text"]
    )
    # force real duplicates: a shifted-id copy of the corpus
    dup = base.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("doc_id"),
            "doc_id",
            pa.array(b["doc_id"].to_numpy(zero_copy_only=False) + 10_000),
        ),
        batch_format="pyarrow",
    )
    ds = base.union(dup).materialize()
    a = exact_dedup(ds).to_pandas()[["doc_id"]].sort_values("doc_id").reset_index(drop=True)
    b = (
        exact_dedup(ds, hash_fn="md5")
        .to_pandas()[["doc_id"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pdt.assert_frame_equal(a, b)
    assert len(a) == ds.count() // 2  # every duplicate collapsed
    assert a["doc_id"].max() < 10_000  # keep-FIRST: original ids survive

    fp_v = ds.map_batches(fingerprint_stage, batch_format="pyarrow").to_pandas()
    fp_m = ds.map_batches(
        lambda t: fingerprint_stage(t, fp_algo="md5"), batch_format="pyarrow"
    ).to_pandas()
    fp_v = fp_v.sort_values("doc_id").reset_index(drop=True)
    fp_m = fp_m.sort_values("doc_id").reset_index(drop=True)
    # same equality classes: two docs share a vector128 fp iff they
    # share an md5 fp
    import pandas as pd

    cls_v = fp_v.groupby("fp")["doc_id"].apply(lambda s: tuple(sorted(s))).sort_values()
    cls_m = fp_m.groupby("fp")["doc_id"].apply(lambda s: tuple(sorted(s))).sort_values()
    assert sorted(cls_v.tolist()) == sorted(cls_m.tolist())
    assert (fp_v["fp"].str.len() == 32).all()  # md5-width hex


def test_hash_join_int64_exact_above_2_53():
    """hash_join must round-trip int64 values above 2^53 exactly (the
    union-padded nulls must not detour through float64), and genuinely
    null cells from non-inner joins must stay nullable integers."""
    import pyarrow as pa
    import ray.data

    from rayhist.ops.relational import hash_join

    big = (1 << 53) + 1
    left = ray.data.from_arrow(
        pa.table(
            {
                "k": np.array([1, 2, 3], dtype=np.int64),
                "v": np.array([big, big + 2, big + 4], dtype=np.int64),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table({"k": np.array([1, 3], dtype=np.int64), "w": np.array([7, 9], dtype=np.int64)})
    )
    inner = hash_join(left, right, on="k").to_pandas().sort_values("k")
    assert inner["v"].tolist() == [big, big + 4]  # exact above 2^53
    assert str(inner["v"].dtype) == "int64"
    outer = hash_join(left, right, on="k", how="left").to_pandas().sort_values("k")
    assert outer["v"].tolist() == [big, big + 2, big + 4]
    # the unmatched row's w is a true null on an INTEGER dtype
    assert outer["w"].isna().sum() == 1
    assert not str(outer["w"].dtype).startswith("float")


def test_media_decode_codec_probe_contract():
    """MediaDecodeStage probes PIL once per construction and falls back to the
    deterministic fake; the contract (schema, dims, determinism) holds
    in WHICHEVER mode the environment provides, and the real branch is
    additionally exercised when PIL is importable."""
    import importlib.util

    import ray.data

    from rayhist.ops.multimodal import FEATURE_DIM, MediaDecodeStage, synth_media_table

    has_pil = importlib.util.find_spec("PIL") is not None
    stage = MediaDecodeStage()
    assert stage.mode == ("pil" if has_pil else "fake")

    if has_pil:  # pragma: no cover - sandbox has no PIL
        import io

        from PIL import Image

        payloads = []
        for i in range(4):
            img = Image.new("L", (8, 8), color=i * 10)
            buf = io.BytesIO()
            img.save(buf, format="PNG")
            payloads.append(buf.getvalue())
        t = synth_media_table([f"img://{i}" for i in range(4)])
        t = t.set_column(t.schema.get_field_index("payload"), "payload",
                         pa.array(payloads, type=pa.binary()))
    else:
        t = synth_media_table([f"img://{i}" for i in range(4)])

    out1 = stage(t)
    out2 = MediaDecodeStage()(t)
    assert out1.schema.names == ["media_ref", "kind", "width", "height", "feature"]
    feats1 = out1["feature"].to_pylist()
    feats2 = out2["feature"].to_pylist()
    assert all(len(f) == FEATURE_DIM for f in feats1)
    assert feats1 == feats2  # deterministic across stage instances
    # forcing the fake always works, PIL or not
    import os

    os.environ["RAYHIST_FAKE_DECODE"] = "1"
    try:
        forced = MediaDecodeStage()
        assert forced.mode == "fake"
        assert len(forced(synth_media_table(["img://x"]))["feature"].to_pylist()[0]) == FEATURE_DIM
    finally:
        os.environ.pop("RAYHIST_FAKE_DECODE", None)


# ------------------------------------- review-fix regressions (round 5)


def test_embedding_dup_pairs_empty_and_strided_ids():
    """(a) Zero surviving pairs return the documented typed columns,
    not a schema-less KeyError; (b) strided vec_ids (all multiples of
    a factor of n_blocks) must still produce the exact dense pair set
    — the fmix64-finalized block assignment keeps blocks balanced
    where a raw `ids % n_blocks` would put the whole corpus in one."""
    import ray.data

    from rayhist.ops.dedup import embedding_dup_pairs

    rng = np.random.default_rng(11)
    vecs = rng.normal(size=(24, 8))
    ids = np.arange(24, dtype=np.int64) * 64  # all ids ≡ 0 (mod 64)
    rows = [{"vec_id": int(i), "embedding": v.tolist()} for i, v in zip(ids, vecs)]
    ds = ray.data.from_items(rows)
    # (a) tau above any achievable cosine -> empty, typed
    empty = embedding_dup_pairs(ds, tau=1.0 + 1e-9, n_blocks=4)
    assert list(empty.columns) == ["vec_a", "vec_b", "cos_sim"] and empty.empty
    # (b) strided ids: blocked equals dense
    got = embedding_dup_pairs(ds, tau=0.2, n_blocks=8)
    mat = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = mat @ mat.T
    ii, jj = np.nonzero(sims >= 0.2)
    keep = ids[ii] < ids[jj]
    exp = set(zip(ids[ii[keep]], ids[jj[keep]]))
    assert set(zip(got["vec_a"], got["vec_b"])) == exp


def test_exact_dedup_md5_survives_null_text():
    """The md5 path honors the nulls-behave-as-empty contract (it
    crashed on the first null row before)."""
    import ray.data

    from rayhist.ops.dedup import exact_dedup

    t = pa.table(
        {"doc_id": [3, 1, 2, 4], "text": ["x y z", None, "x y z", None]}
    )
    out = (
        exact_dedup(ray.data.from_arrow(t), hash_fn="md5")
        .to_pandas()
        .sort_values("doc_id")
    )
    # null == "" content: the two nulls dedup together (keep doc 1)
    assert out["doc_id"].tolist() == [1, 2]


def test_simhash_rejects_unguaranteed_hamming():
    import ray.data

    from rayhist.ops.dedup import simhash_pairs

    docs = ray.data.from_items([{"doc_id": 0, "text": "a b c d"}])
    with pytest.raises(ValueError, match="hamming"):
        simhash_pairs(docs, max_hamming=4)


def test_minhash_string_doc_ids_schema_safe():
    """String doc ids through the full LSH chain: empty pair-bucket
    groups must emit string-typed doc columns (an int64 placeholder
    fails block-schema unification against hit groups)."""
    import ray.data

    from rayhist.ops.dedup import minhash_lsh_pairs

    txt = "alpha beta gamma delta epsilon zeta eta theta"
    docs = ray.data.from_items(
        [{"doc_id": f"doc-{i:03d}", "text": txt} for i in range(4)]
        + [{"doc_id": f"uniq-{i}", "text": f"u{i} v{i} w{i} x{i} y{i}"} for i in range(4)]
    )
    got = minhash_lsh_pairs(docs, 1, 2)
    # the 4 identical docs form all 6 pairs; ids stay strings
    assert len(got) == 6 and got["doc_a"].map(type).eq(str).all()


def test_lsh_bands_follow_threshold():
    """Band count derives from the verification threshold via the
    S-curve midpoint rule (midpoint <= threshold)."""
    from rayhist.ops.dedup import lsh_bands_for_threshold

    assert lsh_bands_for_threshold(1, 2) == 32   # midpoint 0.42
    assert lsh_bands_for_threshold(9, 10) == 8   # 4's midpoint 0.957 > 0.9
    assert lsh_bands_for_threshold(7, 10) == 32  # 16's midpoint 0.7071 > 0.7
    assert lsh_bands_for_threshold(71, 100) == 16  # 0.7071 <= 0.71
    assert lsh_bands_for_threshold(1, 10) == 64  # no midpoint <= 0.1 -> floor


def test_joins_follow_sql_null_key_semantics():
    """SQL joins never match NULL keys: inner hash_join drops null-key
    rows on both sides; LEFT keeps left nulls unmatched; semi/anti
    drop null-key left rows (IN/NOT IN evaluate unknown)."""
    import ray.data

    from rayhist.ops.relational import hash_join, hash_semi_join

    left = pa.table({"k": pa.array([1, None, 3], type=pa.int64()),
                     "lv": [10, 20, 30]})
    right = pa.table({"k": pa.array([1, None], type=pa.int64()),
                      "rv": [100, 200]})
    inner = hash_join(
        ray.data.from_arrow([left.slice(0, 2), left.slice(2)]), ray.data.from_arrow(right), on="k"
    ).to_pandas()
    # pandas merge alone would emit a (None, None) match row
    assert inner["k"].tolist() == [1] and inner["rv"].tolist() == [100]
    lj = (
        hash_join(ray.data.from_arrow([left.slice(0, 2), left.slice(2)]),
                  ray.data.from_arrow(right), on="k", how="left")
        .to_pandas().sort_values("lv")
    )
    assert lj["lv"].tolist() == [10, 20, 30]
    assert lj["rv"].tolist()[0] == 100 and pd.isna(lj["rv"].tolist()[1])
    semi = hash_semi_join(
        ray.data.from_arrow([left.slice(0, 2), left.slice(2)]), ray.data.from_arrow(right), on="k"
    ).to_pandas()
    assert semi["lv"].tolist() == [10]  # the null-key left row drops
    anti = hash_semi_join(
        ray.data.from_arrow([left.slice(0, 2), left.slice(2)]), ray.data.from_arrow(right), on="k",
        anti=True,
    ).to_pandas()
    assert anti["lv"].tolist() == [30]


def test_hash_join_full_outer():
    """FULL OUTER: unmatched rows from BOTH sides survive with the
    other side's columns null; null keys match nothing but still
    survive unmatched (SQL semantics — pandas merge alone would pair
    NaN==NaN across sides); int values above 2^53 stay exact in
    unmatched rows (nullable Int64, never float64)."""
    import ray.data

    from rayhist.ops.relational import hash_join

    big = 2**55 + 3
    left = pa.table(
        {
            "k": pa.array([1, 2, None], type=pa.int64()),
            "lv": pa.array([10, big, 30], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([2, 4, None], type=pa.int64()),
            "rv": pa.array([200, big, 600], type=pa.int64()),
        }
    )
    out = (
        hash_join(
            ray.data.from_arrow([left.slice(0, 2), left.slice(2)]),
            ray.data.from_arrow([right.slice(0, 2), right.slice(2)]),
            on="k", how="outer",
        )
        .to_pandas()
        .sort_values(["lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    # 1 match (k=2) + left-only k=1 + right-only k=4 + one null-key
    # row per side, unmatched
    assert len(out) == 5
    m = out[out["k"] == 2]
    assert m["lv"].tolist() == [big] and m["rv"].tolist() == [200]
    lonly = out[out["k"] == 1]
    assert lonly["lv"].tolist() == [10] and lonly["rv"].isna().all()
    ronly = out[out["k"] == 4]
    assert int(ronly["rv"].iloc[0]) == big and ronly["lv"].isna().all()
    nullk = out[out["k"].isna()]
    assert len(nullk) == 2  # never merged with each other
    assert sorted(
        int(x) for x in pd.concat([nullk["lv"], nullk["rv"]]).dropna()
    ) == [30, 600]
    # exactness: the big values survived the padded union + merge
    assert str(out["lv"].dtype) == "Int64" or out["lv"].dtype == np.int64


def test_hash_join_outer_matches_duckdb_randomized():
    """Randomized differential: hash_join(how='outer') over overlapping
    key sets equals DuckDB FULL OUTER JOIN (match cardinality includes
    duplicate keys on both sides)."""
    import duckdb
    import ray.data

    from rayhist.ops.relational import hash_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 40, 300).astype(np.int64),
            "lv": rng.integers(0, 10**6, 300).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(20, 60, 250).astype(np.int64),
            "rv": rng.integers(0, 10**6, 250).astype(np.int64),
        }
    )
    got = (
        hash_join(
            ray.data.from_pandas(left).repartition(5),
            ray.data.from_pandas(right).repartition(4),
            on="k", how="outer",
        )
        .to_pandas()
        .astype({"k": "float64", "lv": "float64", "rv": "float64"})
        .sort_values(["k", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = (
        con.execute(
            "SELECT coalesce(l.k, r.k) AS k, lv, rv FROM l FULL OUTER JOIN r ON l.k = r.k"
        )
        .df()
        .astype({"k": "float64", "lv": "float64", "rv": "float64"})
        .sort_values(["k", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "lv", "rv"]], want)


def test_join_guards_raise_loudly():
    import ray.data

    from rayhist.ops.relational import broadcast_join, hash_join

    l = ray.data.from_arrow(pa.table({"k": [1], "v": [2]}))
    r = ray.data.from_arrow(pa.table({"k": [1], "v": [3]}))
    with pytest.raises(ValueError, match="non-key columns"):
        hash_join(l, r, on="k")
    with pytest.raises(ValueError, match="unsupported"):
        hash_join(l, ray.data.from_arrow(pa.table({"k": [1], "w": [3]})),
                  on="k", how="right")
    with pytest.raises(ValueError, match="unsupported"):
        broadcast_join(l, pd.DataFrame({"k": [1], "w": [2]}), on="k", how="outer")


def test_cents_rejects_null_money():
    from rayhist.ops.relational import cents

    t = pa.table({"p": pa.array([1.5, None], type=pa.float64())})
    with pytest.raises(ValueError, match="null"):
        cents(t, "p", "c")


def test_topk_per_group_keeps_null_groups():
    """row_number() over (partition by g ...) partitions NULLs together
    and emits up to k of them."""
    import ray.data

    from rayhist.ops.relational import topk_per_group

    df = pd.DataFrame(
        {"g": pd.array(["a", "a", None, None, None], dtype="string"),
         "v": [5, 3, 9, 8, 7], "id": [0, 1, 2, 3, 4]}
    )
    got = (
        topk_per_group(ray.data.from_pandas(df), "g", "v", k=2, tiebreak="id")
        .to_pandas()
    )
    null_rows = got[got["g"].isna()]
    assert sorted(null_rows["v"].tolist()) == [8, 9]


def test_deterministic_sample_hash_is_block_layout_invariant():
    """A key's keep/drop decision must not depend on whether a null
    co-resides in its block (bool/timestamp keys format differently
    under str() vs the arrow cast)."""
    import ray.data

    from rayhist.ops.relational import deterministic_sample

    ts = pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03"] * 40)
    clean = pd.DataFrame({"k": ts})
    dirty = pd.DataFrame({"k": pd.Series(list(ts) + [pd.NaT])})
    kept_clean = set(
        deterministic_sample(ray.data.from_pandas(clean), 1, 2, "k")
        .to_pandas()["k"].astype(str)
    )
    kept_dirty = set(
        deterministic_sample(ray.data.from_pandas(dirty), 1, 2, "k")
        .to_pandas()["k"].dropna().astype(str)
    )
    assert kept_clean == kept_dirty


def test_aggregate_null_and_naming_semantics():
    """aggregate.py null/naming fixes: combine_partials keeps null-key
    groups (SQL GROUP BY), uniq tolerates a null distinct value,
    heavy hitters preserve the value type and ignore nulls, quantile
    column names round and refuse collisions, floor_bin handles an
    empty grid, rollup rejects null keys loudly."""
    import ray.data

    from rayhist.aggregate import (
        approx_heavy_hitters,
        combine_partials,
        floor_bin,
        grouped_estimated_quantiles,
        rollup_sums,
        uniq,
    )

    parts = ray.data.from_arrow(
        pa.table({"k": pa.array(["a", None, "a"]), "n_part": [1, 2, 3]})
    )
    got = combine_partials(rio.blocks_table(parts), ["k"], {"n_part": "n"})
    as_map = {(-1 if pd.isna(k) else k): n for k, n in zip(got["k"], got["n"])}
    assert as_map == {"a": 4, -1: 2}  # the null group survives

    u = uniq(ray.data.from_arrow(pa.table({"v": pa.array(["b", None, "a"])})), "v")
    assert u == ["a", "b", None]  # nulls sort last, no crash

    hh = approx_heavy_hitters(
        ray.data.from_arrow(
            pa.table({"x": pa.array([7, 7, 7, 3, None], type=pa.int64())})
        ),
        "x", k=4, top_n=2,
    )
    assert hh["x"].tolist() == [7, 3] and hh["n"].tolist() == [3, 1]

    ds = ray.data.from_arrow(pa.table({"g": ["a"] * 10, "v": list(range(10))}))
    q = grouped_estimated_quantiles(ds, "g", "v", [0.29])
    assert "p29_est" in q.columns  # int() would truncate to p28
    with pytest.raises(ValueError, match="collide"):
        grouped_estimated_quantiles(ds, "g", "v", [0.99, 0.994])  # both p99

    assert floor_bin(np.array([5, 10]), np.array([], dtype=np.int64)).tolist() == [-1, -1]

    with pytest.raises(Exception, match="nulls"):
        rollup_sums(
            ray.data.from_arrow(pa.table({"k": pa.array(["a", None]), "v": [1, 2]})),
            ["k"], {"v": "sv"},
        )


# ------------------------------------------ driver combine: pandas reference
#
# The pandas bodies combine_partials and zerofill had before they moved
# to Arrow and numpy, kept verbatim as the differential reference.


def _pandas_combine_partials(ds, keys, sums):
    df = ds.to_pandas()
    if df.empty and not set(keys) | set(sums) <= set(df.columns):
        if not keys:
            return pd.DataFrame([{out: 0 for out in sums.values()}]).astype("int64")
        cols = {k: pd.Series([], dtype="object") for k in keys}
        cols.update({out: pd.Series([], dtype="int64") for out in sums.values()})
        return pd.DataFrame(cols)
    if not keys:
        row = pd.DataFrame([{out: df[src].sum() for src, out in sums.items()}])
        for src, out in sums.items():  # ints stay exact int64; floats stay float
            if pd.api.types.is_integer_dtype(df[src].dtype):
                row[out] = row[out].astype("int64")
        return row
    g = df.groupby(keys, as_index=False, dropna=False, observed=False).agg(
        **{out: (src, "sum") for src, out in sums.items()}
    )
    for k in keys:  # pandas names a null object key NaN; Arrow's to_pandas, None
        if g[k].dtype == object:
            g[k] = g[k].where(g[k].notna(), None)
    return g


def _pandas_zerofill(df, expected, fill):
    keys = list(expected.keys())
    if len(keys) == 1:
        idx = pd.Index(list(expected[keys[0]]), name=keys[0])
    else:
        idx = pd.MultiIndex.from_product([list(expected[k]) for k in keys], names=keys)
    out = df.set_index(keys).reindex(idx)
    for col, val in fill.items():
        out[col] = out[col].fillna(val)
        if isinstance(val, int):
            out[col] = out[col].astype("int64")
    return out.reset_index().sort_values(keys, kind="mergesort").reset_index(drop=True)


_KEY_VALUES = {
    "s": st.sampled_from(["a", "b", "cc", "é", None]),
    "i": st.sampled_from([-3, 0, 7, 2**40, None]),
    "f": st.sampled_from([0.5, -1.5, float("nan"), None]),
    "c": st.sampled_from(["x", "y", "z", None]),
}


def _key_array(kind, values):
    if kind == "c":  # a pandas categorical, as a pandas partial stage emits it
        # string categories even when every value is null
        cats = pd.Index(sorted({v for v in values if v is not None}), dtype=object)
        return pa.array(pd.Categorical(values, categories=cats), pa.dictionary(pa.int8(), pa.string()))
    return pa.array(values, type={"s": pa.string(), "i": pa.int64(), "f": pa.float64()}[kind])


@st.composite
def _partials(draw):
    """(table, keys, sums): a few typed key columns (null keys
    included), int64/int32/bool partials, as one or several chunks."""
    n = draw(st.integers(0, 24))
    kinds = draw(st.lists(st.sampled_from("sifc"), min_size=0, max_size=3, unique=True))
    if "c" in kinds:
        # pandas' observed=False grouping adds every unseen (category,
        # other key) cell; SQL GROUP BY, and the Arrow combine, keep the
        # observed groups only, so a categorical key is tested alone
        kinds = ["c"]
    cols = {f"k{kind}": _key_array(kind, draw(st.lists(_KEY_VALUES[kind], min_size=n, max_size=n)))
            for kind in kinds}
    ints = st.lists(st.integers(-(2**31), 2**31 - 1), min_size=n, max_size=n)
    cols["n_part"] = pa.array(draw(ints), pa.int64())
    cols["m_part"] = pa.array(draw(ints), pa.int32())
    cols["b_part"] = pa.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), pa.bool_())
    t = pa.table(cols)
    cut = draw(st.integers(0, n))
    if draw(st.booleans()):
        t = pa.concat_tables([t.slice(0, cut), t.slice(cut)])
    outs = draw(st.permutations(["n_part", "m_part", "b_part"]))
    sums = {src: src.replace("_part", "") for src in outs[: draw(st.integers(1, 3))]}
    return t, list(cols)[: len(kinds)], sums


def _widened(want: pd.DataFrame, sums) -> pd.DataFrame:
    """The reference frame with integer sums as int64: pandas keeps an
    int32 partial's sum int32; the Arrow combine widens every integer
    sum (no int32 overflow)."""
    for out in sums.values():
        if want[out].dtype.kind in "iu":
            want[out] = want[out].astype("int64")
    return want


@settings(max_examples=300, deadline=None)
@given(_partials())
def test_combine_partials_equals_pandas_reference(case):
    from rayhist.aggregate import combine_partials

    t, keys, sums = case
    want = _widened(_pandas_combine_partials(t, keys, sums), sums)
    pd.testing.assert_frame_equal(combine_partials(t, keys, sums), want)


def test_combine_partials_dataset_and_empty_inputs_equal_pandas_reference():
    """A partials Dataset (Arrow and pandas blocks) read through
    io.blocks_table, a schema-less empty table, a typed empty one and
    keyless totals: the frames of the pandas reference; a float sum
    column raises, and so does a Dataset (combine_partials takes a
    table)."""
    import ray.data

    from rayhist.aggregate import combine_partials

    t = pa.table({"k": pa.array(["b", None, "a", "b"]), "n_part": [1, 2, 3, 4],
                  "f_part": pa.array([True, False, True, True])})
    sums = {"n_part": "n", "f_part": "f"}
    cases = [
        (ray.data.from_arrow([t.slice(0, 2), t.slice(2)]).materialize(), ["k"]),
        (ray.data.from_pandas([t.to_pandas().iloc[:0], t.to_pandas()]), ["k"]),
        (ray.data.from_arrow(t).filter(lambda r: False), ["k"]),
        (pa.table({}), ["k"]),
        (pa.table({}), []),
        (t.slice(0, 0), ["k"]),
        (t.slice(0, 0), []),
        (t, []),
    ]
    for ds, keys in cases:
        want = _pandas_combine_partials(ds, keys, sums)
        t_in = rio.blocks_table(ds) if isinstance(ds, ray.data.Dataset) else ds
        pd.testing.assert_frame_equal(combine_partials(t_in, keys, sums), want)
    with pytest.raises(TypeError, match="pa.Table"):
        combine_partials(cases[0][0], ["k"], sums)
    floats = t.append_column("x_part", pa.array([0.5, 1.0, 1.5, 2.0]))
    for keys in (["k"], []):
        with pytest.raises(TypeError, match="x_part"):
            combine_partials(floats, keys, {"x_part": "x"})


_TS = [10, 20, 30, 40]
_ETYPES = ["view", "click", "buy"]


@st.composite
def _aggregated(draw):
    """(frame, expected, fill): a combined frame over int and string
    keys, with rows outside the levels (null keys too), NaN-able float,
    bool and string columns outside ``fill``, and levels in any order,
    repeats included."""
    multi = draw(st.booleans())
    ts = st.sampled_from(_TS + [5, 99])
    et = st.sampled_from(_ETYPES + ["other"])
    cells = draw(st.lists(st.tuples(ts, et), max_size=12, unique=not draw(st.booleans())))
    if not multi:
        cells = list(dict.fromkeys((c[0], None) for c in cells))
    df = pd.DataFrame({
        "ts_q": pd.array([c[0] for c in cells], dtype="int64"),
        "etype": [c[1] for c in cells],
        "n": np.arange(len(cells), dtype=np.int64) + 1,
        "x": np.linspace(0.5, 3.0, len(cells)),
        "flag": np.arange(len(cells)) % 2 == 0,
        "note": [f"r{i}" for i in range(len(cells))],
    })
    if draw(st.booleans()) and len(df):  # a null key: float keys, outside every level
        df["ts_q"] = df["ts_q"].astype("float64")
        df.loc[0, "ts_q"] = np.nan
    levels = st.lists(st.sampled_from(_TS), min_size=0, max_size=5)
    expected = {"ts_q": draw(levels)}
    if multi:
        expected["etype"] = draw(st.lists(st.sampled_from(_ETYPES), min_size=1, max_size=4))
    else:
        df = df.drop(columns=["etype"])
    fill = {"n": 0} if draw(st.booleans()) else {"n": 0, "flag": 0}
    return df, expected, fill


@pytest.mark.filterwarnings("ignore::FutureWarning")  # the reference's fillna downcast
@settings(max_examples=300, deadline=None)
@given(_aggregated())
def test_zerofill_equals_pandas_reference(case):
    from rayhist.aggregate import zerofill

    df, expected, fill = case
    try:
        want = _pandas_zerofill(df, expected, fill)
    except ValueError:  # duplicate keys: both raise
        with pytest.raises(ValueError):
            zerofill(df, expected, fill)
        return
    got = zerofill(df, expected, fill)
    if got.empty and df.empty and len(expected) > 1:
        # nothing to place and nothing to fill: pandas' reindex kept the
        # empty frame's own key dtypes here (object for an empty level
        # otherwise); zerofill's keys always take their level's dtype
        want = want.astype({k: got[k].dtype for k in expected})
    pd.testing.assert_frame_equal(got, want)


def test_text_stages_survive_nan_and_exact_quality_boundary():
    """(a) pandas NaN (not just None) is a legal missing-text marker
    for quality/langid stages; (b) quality_ok thresholds on the EXACT
    integers, not the 4-dp rounded ratio (a doc with true mean word
    length 1.99998 must FAIL the >=2 gate even though it rounds to
    2.0)."""
    from rayhist.ops.text import langid_stage, quality_stage

    df = pd.DataFrame({"doc_id": [0, 1], "text": ["the quick brown fox", np.nan]})
    q = quality_stage(df.copy())
    assert q["n_chars_m"].iloc[1] == 0 and not q["quality_ok"].iloc[1]
    lid = langid_stage(df.copy())
    assert lid["lang_pred"].iloc[1] == "en"

    # 50k words of 2 chars minus one 1-char word: nsl = 2*nw - 1
    words = ["ab"] * 49_999 + ["a"]
    boundary = pd.DataFrame({"text": [" ".join(words)]})
    qb = quality_stage(boundary.copy())
    assert round(float(qb["mean_word_len"].iloc[0]), 4) == 2.0  # rounds UP to the gate
    assert not qb["quality_ok"].iloc[0]  # exact integers say 99999 < 2*50000


def test_fnv1a_batch_skewed_lengths_exact_and_fast():
    """Length-sorted active-prefix + scalar tail: hash values stay
    bit-identical to the scalar definition in every regime, including
    one huge doc among many short ones (previously O(n x max_len))."""
    import time

    from rayhist.ops.text import fnv1a_batch

    def scalar(s):
        h = 14695981039346656037
        for b in s.encode():
            h = ((h ^ b) * 1099511628211) % (1 << 64)
        return h

    skew = ["short doc here"] * 5000 + ["x" * 300_000]
    t0 = time.perf_counter()
    h = fnv1a_batch(skew)
    assert time.perf_counter() - t0 < 2.0  # was ~seconds per MB before
    assert h[0] == scalar("short doc here") and h[-1] == scalar("x" * 300_000)


def test_explode_windows_skewed_lengths():
    """Sorted-suffix window explode: same distinct (doc, window) set
    as the definition, with one long doc among short ones."""
    from rayhist.ops.text import WINDOW_LEN, WINDOW_STRIDE, explode_windows

    long = "abcdefgh" * 40  # 320 chars
    t = pa.table({"doc_id": [1, 2, 3], "text": ["tiny", long, "abcdefgh" * 5]})
    out = explode_windows(t)
    got = set(zip(out["doc_id"].to_pylist(), out["window"].to_pylist()))
    exp = set()
    for did, txt in [(1, "tiny"), (2, long), (3, "abcdefgh" * 5)]:
        i = 0
        while i * WINDOW_STRIDE + WINDOW_LEN <= len(txt):
            s = i * WINDOW_STRIDE
            exp.add((did, txt[s : s + WINDOW_LEN]))
            i += 1
    assert got == exp


def test_bloom_tolerates_null_keys():
    from rayhist.functions.bloom import BloomFilter, bloom_params

    m, k = bloom_params(100)
    bf = BloomFilter(m, k).add(pa.array([1, 2, None], type=pa.int64()))
    mask = bf.contains(pa.array([1, 99, None], type=pa.int64()))
    assert mask[0]  # present
    assert mask[2]  # null hashed as "" -> conservative True is fine


def test_tdigest_compression_travels_and_mismatch_raises():
    d = TDigest.of(np.arange(100.0), compression=100)
    r = TDigest.from_bytes(d.to_bytes())
    assert r.compression == 100  # carried in the serialization
    with pytest.raises(ValueError, match="compression"):
        d.merge(TDigest.of(np.arange(100.0), compression=1000))
    with pytest.raises(ValueError, match="compression"):
        TDigest.from_bytes(d.to_bytes(), compression=1000)


def test_timeutil_exactness_and_period_validation():
    from rayhist.functions.timeutil import parse_iso, timestamps

    # fractional-second instants are EXACT int64 microseconds (the
    # float64 truncation path was 1us low for ~1% of inputs)
    assert parse_iso("2005-03-28T19:42:50.536110") == 1112038970536110
    for bad in ("P-1M", "P-1Y", "PT1M", "P1DT12H", "PT0H"):
        with pytest.raises(ValueError):
            timestamps("2024-01-01", "2024-02-01", bad)


@pytest.mark.parametrize("how", ["inner", "left", "outer"])
def test_hash_join_multikey_matches_duckdb(how):
    """Composite-key join (on=[k1,k2]) vs DuckDB at every supported
    how; mixed int+string key columns exercise the mixed bucket hash."""
    import duckdb
    import ray.data

    from rayhist.ops.relational import hash_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "k1": rng.integers(0, 12, 200).astype(np.int64),
            "k2": np.array(["a", "b", "c"])[rng.integers(0, 3, 200)],
            "lv": rng.integers(0, 10**6, 200).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "k1": rng.integers(6, 18, 160).astype(np.int64),
            "k2": np.array(["b", "c", "d"])[rng.integers(0, 3, 160)],
            "rv": rng.integers(0, 10**6, 160).astype(np.int64),
        }
    )
    got = (
        hash_join(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(3),
            on=["k1", "k2"], how=how,
        )
        .to_pandas()
        .astype({"k1": "float64", "lv": "float64", "rv": "float64"})
    )
    got = got.sort_values(["k1", "k2", "lv", "rv"], na_position="last").reset_index(
        drop=True
    )
    sqlhow = {"inner": "JOIN", "left": "LEFT JOIN", "outer": "FULL OUTER JOIN"}[how]
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = (
        con.execute(
            f"""SELECT coalesce(l.k1, r.k1) AS k1, coalesce(l.k2, r.k2) AS k2,
                       lv, rv
                FROM l {sqlhow} r ON l.k1 = r.k1 AND l.k2 = r.k2"""
        )
        .df()
        .astype({"k1": "float64", "lv": "float64", "rv": "float64"})
        .sort_values(["k1", "k2", "lv", "rv"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k1", "k2", "lv", "rv"]], want)


def test_hash_join_multikey_null_component_matches_nothing():
    """A row with ANY null key component never matches (SQL); under
    outer it survives unmatched exactly once."""
    import ray.data

    from rayhist.ops.relational import hash_join

    left = pa.table(
        {
            "k1": pa.array([1, 1], type=pa.int64()),
            "k2": pa.array([None, 7], type=pa.int64()),
            "lv": pa.array([10, 20], type=pa.int64()),
        }
    )
    right = pa.table(
        {
            "k1": pa.array([1, 1], type=pa.int64()),
            "k2": pa.array([None, 7], type=pa.int64()),
            "rv": pa.array([100, 200], type=pa.int64()),
        }
    )
    out = hash_join(
        ray.data.from_arrow([left.slice(0, 1), left.slice(1)]),
        ray.data.from_arrow([right.slice(0, 1), right.slice(1)]),
        on=["k1", "k2"], how="outer",
    ).to_pandas()
    # (1,7) matches; each (1,NULL) row survives alone
    assert len(out) == 3
    matched = out[out["k2"].notna()]
    assert matched["lv"].tolist() == [20] and matched["rv"].tolist() == [200]
    nullrows = out[out["k2"].isna()]
    assert sorted(
        int(x) for x in pd.concat([nullrows["lv"], nullrows["rv"]]).dropna()
    ) == [10, 100]
    with pytest.raises(ValueError, match="missing"):
        hash_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            on=["k1", "nope"],
        )


def test_minhash_driver_gate_paths_identical(monkeypatch):
    """The gated driver pass and the forced distributed path
    (DRIVER_GATE 0) produce byte-identical pairs, dtypes included, on
    a randomized corpus with planted near-dups."""
    import ray.data

    from rayhist.ops import dedup
    from rayhist.ops.dedup import minhash_lsh_pairs

    rng = np.random.default_rng(3)
    vocab = np.array([f"w{i}" for i in range(60)])
    texts = [" ".join(vocab[rng.integers(0, 60, 30)]) for _ in range(70)]
    for i in range(0, 20, 2):  # planted near-dups: one-word edits
        words = texts[i].split()
        words[5] = "zz"
        texts[i + 1] = " ".join(words)
    tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    ds = ray.data.from_arrow(tbl)  # MaterializedDataset -> gate engages
    local = minhash_lsh_pairs(ds, 1, 2)
    monkeypatch.setattr(dedup, "DRIVER_GATE", 0)
    dist = minhash_lsh_pairs(ds, 1, 2)
    assert len(local) > 0  # the planted dups must be found
    pd.testing.assert_frame_equal(
        local.reset_index(drop=True),
        dist.sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
    )


def test_minhash_fold_mod_is_exact_mod():
    """The shift-add Mersenne fold in MinHashStage.__call__ equals %
    over the full uint64 range (2^61 === 1 mod 2^61-1), including the
    wrap edges."""
    from rayhist.ops.dedup import MERSENNE

    M = np.uint64(MERSENNE)
    rng = np.random.default_rng(2)
    x = np.r_[
        rng.integers(0, 2**64, 100_000, dtype=np.uint64),
        np.array([0, 1, MERSENNE - 1, MERSENNE, MERSENNE + 1, 2**64 - 1],
                 dtype=np.uint64),
    ]
    q = (x >> np.uint64(61)) + (x & M)
    np.subtract(q, M, out=q, where=q >= M)
    assert np.array_equal(q, x % M)


def test_minhash_batch_matches_reference_signature():
    """The chunked unique+fold batch path equals the per-doc %-based
    reference signature() on varied texts."""
    from rayhist.ops.dedup import MinHashStage, shingle_set

    texts = [
        "a b c d e f g h i j",
        "a b c d e f g h i x",
        "one two three four five six",
        "a b c a b c a b c a b c",
    ]
    stage = MinHashStage(bands=32)
    tbl = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = stage(tbl)
    # recompute band keys from the reference signatures
    ref_sigs = np.stack([stage.signature(shingle_set(t)) for t in texts])
    ref_keys = stage._band_keys(ref_sigs)
    got = out.to_pandas().sort_values(["doc_id", "band"])
    assert got["key"].to_numpy().reshape(len(texts), 32).tolist() == ref_keys.tolist()


# ----------------------------------------------------------- unpivot


def test_unpivot_matches_pandas_melt():
    """Randomized differential: unpivot == pandas.melt (row set
    equality — the operator is order-free by contract)."""
    import ray

    from rayhist.ops.relational import unpivot

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "id": np.arange(50, dtype=np.int64),
            "g": rng.integers(0, 3, 50).astype(np.int64),
            "a": rng.integers(-5, 5, 50).astype(np.int64),
            "b": rng.integers(0, 100, 50).astype(np.int64),
            "c": rng.integers(10, 20, 50).astype(np.int64),
        }
    )
    got = (
        unpivot(
            ray.data.from_pandas(df).repartition(4),
            id_cols=["id", "g"],
            value_cols=["a", "b", "c"],
            var_name="m",
            value_name="v",
        )
        .to_pandas()
        .astype({"m": "str"})
        .sort_values(["id", "m"])
        .reset_index(drop=True)
    )
    want = (
        df.melt(id_vars=["id", "g"], value_vars=["a", "b", "c"],
                var_name="m", value_name="v")
        .sort_values(["id", "m"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["id", "g", "m", "v"]], want[["id", "g", "m", "v"]])


def test_unpivot_rejects_mixed_types_and_empty():
    import ray

    from rayhist.ops.relational import unpivot

    df = pd.DataFrame({"id": [1], "a": [1], "b": [1.5]})
    with pytest.raises(Exception, match="share one type"):
        unpivot(
            ray.data.from_pandas(df), id_cols=["id"], value_cols=["a", "b"]
        ).to_pandas()
    with pytest.raises(ValueError, match="non-empty"):
        unpivot(ray.data.from_pandas(df), id_cols=["id"], value_cols=[])


# --- connected components (ops/cc.py) ---


def _cc_brute(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Reference union-find: node -> min reachable id."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {n: find(n) for n in parent}


def test_connected_components_basic():
    import ray

    from rayhist.ops.cc import connected_components

    edges = [(1, 2), (2, 3), (10, 11), (20, 20)]
    ds = _blocks(pd.DataFrame({"src": [e[0] for e in edges], "dst": [e[1] for e in edges]}), 4)
    got = (
        connected_components(ds)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = _cc_brute(edges)
    assert dict(zip(got["node"], got["component"])) == want
    assert list(got.columns) == ["node", "component"]


def test_connected_components_long_chain_needs_rounds():
    """A descending-id path graph: the min label must walk the whole
    chain, exercising the multi-round fixpoint (and the max_rounds
    guard when starved)."""
    import ray

    from rayhist.ops.cc import connected_components

    ids = list(range(12, 0, -1))  # path 12-11-...-1
    edges = list(zip(ids, ids[1:]))
    ds = _blocks(pd.DataFrame({"src": [e[0] for e in edges], "dst": [e[1] for e in edges]}), 4)
    got = connected_components(ds).to_pandas()
    assert set(got["component"]) == {1}
    assert len(got) == 12

    with pytest.raises(RuntimeError, match="no fixpoint"):
        connected_components(ds, max_rounds=2)


def test_connected_components_random_vs_union_find():
    import ray

    from rayhist.ops.cc import connected_components

    rng = np.random.default_rng(11)
    u = rng.integers(0, 300, 400)
    v = rng.integers(0, 300, 400)
    edges = list(zip(u.tolist(), v.tolist()))
    ds = _blocks(pd.DataFrame({"src": u, "dst": v}), 8)
    got = connected_components(ds).to_pandas()
    want = _cc_brute(edges)
    assert dict(zip(got["node"], got["component"])) == want


def test_connected_components_rejects_null_ids():
    import ray

    from rayhist.ops.cc import connected_components

    ds = _blocks(pd.DataFrame({"src": pd.array([1, None], dtype="Int64"), "dst": [2, 3]}), 2)
    with pytest.raises(Exception, match="null node ids"):
        connected_components(ds).to_pandas()


def test_value_moments_overflow_guard(tmp_path):
    """Out-of-range cents must fail LOUDLY before int64 squares wrap."""
    import pyarrow.parquet as pq

    from rayhist.pipelines import q_value_moments_by_type

    t = pa.table(
        {
            "event_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array([1704067200000000, 1704067201000000]).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([1, 2], pa.int64()),
            "event_type": ["click", "click"],
            "value": [1e9, 1e9],  # 10^11 cents -> x*x would wrap int64
            "props": ["{}", "{}"],
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    with pytest.raises(Exception, match="safety bound"):
        q_value_moments_by_type(str(tmp_path))


def test_value_moments_match_brute_force():
    from rayhist.pipelines import q_value_moments_by_type

    got = q_value_moments_by_type("/root/testdata/sf0.001")
    df = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    x = np.round(df["value"].to_numpy() * 100).astype(object)  # python ints
    y = (df["ts"].astype("int64").to_numpy() // 3_600_000_000 % 24).astype(object)
    for _, r in got.iterrows():
        m = (df["event_type"] == r["event_type"]).to_numpy()
        n, sx, sx2 = int(m.sum()), sum(x[m]), sum(x[m] * x[m])
        sy, sxy = sum(y[m]), sum(x[m] * y[m])
        assert r["n"] == n and r["sum_vc"] == sx
        assert r["var_num"] == n * sx2 - sx * sx
        assert r["covh_num"] == n * sxy - sx * sy
        assert r["mean_cents"] == float(sx) / float(n)


def test_grouped_mode_vs_pandas_with_ties_and_nulls():
    import ray.data

    from rayhist.aggregate import grouped_mode

    rng = np.random.default_rng(3)
    k = rng.choice(["a", "b", "c"], 2000)
    v = rng.integers(0, 25, 2000).astype(float)
    v[::97] = np.nan  # null values are not countable
    df = pd.DataFrame({"k": k, "v": v})
    for nb in (4, 16):
        ds = ray.data.from_pandas([df.iloc[i::nb] for i in range(nb)])
        got = grouped_mode(ds, "k", "v")
        want = (
            df.dropna(subset=["v"])
            .groupby(["k", "v"], as_index=False)
            .size()
            .sort_values(["k", "size", "v"], ascending=[True, False, True])
            .groupby("k", as_index=False)
            .first()
        )
        assert list(got["k"]) == list(want["k"])
        assert list(got["modal_v"]) == list(want["v"])
        assert list(got["n_modal"]) == list(want["size"])


def test_grouped_mode_tie_breaks_to_smallest_value():
    import ray.data

    from rayhist.aggregate import grouped_mode

    df = pd.DataFrame({"k": ["x"] * 4, "v": [9, 9, 2, 2]})
    got = grouped_mode(ray.data.from_pandas([df.iloc[i::8] for i in range(8)]), "k", "v")
    assert got.iloc[0]["modal_v"] == 2 and got.iloc[0]["n_modal"] == 2

    empty = grouped_mode(
        ray.data.from_pandas([pd.DataFrame({"k": [], "v": []})] * 2), "k", "v"
    )
    assert len(empty) == 0 and list(empty.columns) == ["k", "modal_v", "n_modal"]


def test_grouped_median_mad_vs_numpy():
    import ray.data

    from rayhist.ops.relational import grouped_median_mad_int

    rng = np.random.default_rng(11)
    k = rng.choice(["a", "b", "c"], 3000)
    v = rng.integers(-500, 500, 3000)
    df = pd.DataFrame({"k": k, "v": v})
    got = grouped_median_mad_int(ray.data.from_pandas(df), "k", "v")

    def disc_median(x: np.ndarray) -> int:
        s = np.sort(x)
        return int(s[(len(s) - 1) // 2])

    for _, r in got.iterrows():
        x = df.loc[df["k"] == r["k"], "v"].to_numpy()
        med = disc_median(x)
        assert r["med"] == med
        assert r["mad"] == disc_median(np.abs(x - med))


def test_grouped_median_mad_null_and_empty():
    import ray.data

    from rayhist.ops.relational import grouped_median_mad_int

    df = pd.DataFrame({"k": ["a"] * 3, "v": pd.array([1, None, 5], dtype="Int64")})
    got = grouped_median_mad_int(ray.data.from_pandas(df), "k", "v")
    # nulls are ignored like SQL: values {1,5}, median = 1 (rank (2-1)//2)
    assert got.iloc[0]["med"] == 1 and got.iloc[0]["mad"] == 0


def test_top_words_matches_duckdb_wordcount():
    import duckdb

    from rayhist.pipelines import TOP_WORDS_K, q_top_words

    sf = "/root/testdata/sf0.001"
    got = q_top_words(sf)
    want = duckdb.sql(
        f"""WITH w AS (SELECT unnest(string_split_regex(lower(text), '[^a-z]+')) AS word
                       FROM '{sf}/documents.parquet')
            SELECT word, CAST(count(*) AS BIGINT) AS n FROM w WHERE word <> ''
            GROUP BY 1 ORDER BY n DESC, word LIMIT {TOP_WORDS_K}"""
    ).df()
    assert list(got["word"]) == list(want["word"])
    assert list(got["n"]) == list(want["n"])


def test_revenue_star_join_matches_duckdb():
    import duckdb

    from rayhist.pipelines import q_revenue_by_nation_month

    sf = "/root/testdata/sf0.001"
    got = q_revenue_by_nation_month(sf)
    want = duckdb.sql(
        f"""SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(month(o_orderdate) AS BIGINT) AS o_month,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                            * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_cbp
            FROM '{sf}/lineitem.parquet'
            JOIN '{sf}/orders.parquet' ON l_orderkey = o_orderkey
            JOIN '{sf}/customer.parquet' ON o_custkey = c_custkey
            JOIN '{sf}/nation.parquet' ON c_nationkey = n_nationkey
            GROUP BY 1,2,3 ORDER BY 1,2,3"""
    ).df()
    assert len(got) == len(want)
    for c in ["n_name", "o_year", "o_month", "n_items", "revenue_cbp"]:
        assert list(got[c]) == list(want[c]), c


@pytest.mark.parametrize("n_parts", [1, 5])
def test_pareto_front_2d_brute_force(n_parts):
    """Distributed skyline vs the O(n^2) strict-dominance reference,
    including duplicate points (which must all survive) and several
    partition counts (the block-local prefilter must be a sound
    combiner)."""
    import ray.data

    from rayhist.ops.relational import pareto_front_2d

    rng = np.random.default_rng(3)
    n = 600
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 3, n),
            "hi": rng.integers(0, 40, n).astype(np.int64),
            "lo": rng.integers(0, 40, n).astype(np.int64),
            "rid": np.arange(n, dtype=np.int64),
        }
    )
    got = (
        pareto_front_2d(
            ray.data.from_pandas(df).repartition(n_parts), "g", "hi", "lo"
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    keep = []
    for _, r in df.iterrows():
        grp = df[df["g"] == r["g"]]
        dom = (
            (grp["hi"] >= r["hi"])
            & (grp["lo"] <= r["lo"])
            & ((grp["hi"] > r["hi"]) | (grp["lo"] < r["lo"]))
        )
        if not dom.any():
            keep.append(r["rid"])
    assert got["rid"].tolist() == sorted(keep)
    # the 40x40 grid with 200 points/group guarantees duplicates exist
    assert df.duplicated(["g", "hi", "lo"]).any()


def test_grouped_weighted_median_brute_force():
    """Lower weighted median vs an explicit expansion: repeating each
    value `weight` times and taking the (n-1)//2-free lower median of
    the cumulative rule 2*cw >= tw."""
    import ray.data

    from rayhist.ops.relational import grouped_weighted_median_int

    rng = np.random.default_rng(9)
    n = 400
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 4, n),
            "v": rng.integers(-100, 100, n).astype(np.int64),
            "w": rng.integers(1, 9, n).astype(np.int64),
        }
    )
    got = grouped_weighted_median_int(
        ray.data.from_pandas(df).repartition(4), ["g"], "v", "w"
    ).sort_values("g")
    for _, r in got.iterrows():
        grp = df[df["g"] == r["g"]].sort_values("v")
        cw = grp["w"].cumsum().to_numpy()
        want = int(grp["v"].to_numpy()[np.searchsorted(2 * cw, cw[-1], side="left")])
        assert int(r["wmedian"]) == want


def test_grouped_weighted_median_rejects_nonpositive_weight():
    import ray.data

    from rayhist.ops.relational import grouped_weighted_median_int

    df = pd.DataFrame({"g": [1, 1], "v": [5, 6], "w": [0, 2]})
    with pytest.raises(Exception, match="non-positive"):
        grouped_weighted_median_int(ray.data.from_pandas(df), ["g"], "v", "w")


def test_edit1_pairs_brute_force():
    """PassJoin d=1 fuzzy join vs the O(n^2) brute-force edit<=1
    reference over a randomly mutated corpus (substitutions,
    insertions, deletions, exact dups, and far strings)."""
    import ray.data

    from rayhist.ops.fuzzy import edit1_pairs

    def ref_edit1(a: str, b: str) -> bool:
        la, lb = len(a), len(b)
        if abs(la - lb) > 1:
            return False
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) <= 1
        s, t = (a, b) if la < lb else (b, a)
        i = 0
        while i < len(s) and s[i] == t[i]:
            i += 1
        return s[i:] == t[i + 1:]

    rng = np.random.default_rng(17)
    alpha = list("abcd")
    strs = []
    for _ in range(60):
        base = "".join(rng.choice(alpha, size=rng.integers(1, 9)))
        strs.append(base)
        kind = rng.integers(0, 4)
        m = list(base)
        p = int(rng.integers(0, len(m)))
        if kind == 0:
            m[p] = str(rng.choice(alpha))  # substitution
        elif kind == 1:
            m.insert(p, str(rng.choice(alpha)))  # insertion
        elif kind == 2 and len(m) > 1:
            del m[p]  # deletion
        strs.append("".join(m))  # kind==3: exact duplicate
    df = pd.DataFrame({"id": np.arange(len(strs), dtype=np.int64), "s": strs})
    got = (
        edit1_pairs(ray.data.from_pandas(df).repartition(4), "id", "s")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    want = sorted(
        (i, j)
        for i in range(len(strs))
        for j in range(i + 1, len(strs))
        if ref_edit1(strs[i], strs[j])
    )
    assert list(map(tuple, got[["id_a", "id_b"]].to_numpy())) == want
    assert len(want) >= 60  # mutations guarantee plenty of true pairs


def test_edit1_pairs_rejects_empty_strings():
    import ray.data

    from rayhist.ops.fuzzy import edit1_pairs

    df = pd.DataFrame({"id": [1, 2], "s": ["", "a"]})
    with pytest.raises(Exception, match="empty strings"):
        edit1_pairs(ray.data.from_pandas(df), "id", "s").to_pandas()


def _tri_brute(edges: list[tuple[int, int]]) -> tuple[int, int]:
    E = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    adj: dict[int, set] = {}
    for u, v in E:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # count each triangle once: for edge (u,v) u<v, third vertex w > v
    tri = sum(1 for (u, v) in E for w in (adj[u] & adj[v]) if w > v)
    return len(E), tri


def test_triangle_count_brute_force(monkeypatch):
    """Randomized differential: degree-oriented wedge join vs the
    O(E * V) adjacency-intersection brute force, including duplicate
    and self-loop inputs."""
    import ray

    from rayhist.ops.triangles import triangle_count

    rng = np.random.RandomState(7)
    for n, m in [(8, 20), (20, 80), (40, 300)]:
        u = rng.randint(0, n, size=m)
        v = rng.randint(0, n, size=m)
        edges = list(zip(u.tolist(), v.tolist()))
        ds = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)
        got = triangle_count(ds)  # broadcast fast path
        assert got == _tri_brute(edges), (n, m)
        # distributed wedge-join path pinned equal (gate 0 forces it)
        with monkeypatch.context() as mp:
            mp.setattr(cc, "BROADCAST_GATE", 0)
            assert triangle_count(ds) == got, (n, m)


def test_triangle_count_empty_and_triangle():
    import ray

    from rayhist.ops.triangles import triangle_count

    only_loops = _blocks(pd.DataFrame({"src": [3, 4], "dst": [3, 4]}), 2)
    assert triangle_count(only_loops) == (0, 0)
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    ds = _blocks(pd.DataFrame({"src": [e[0] for e in k4], "dst": [e[1] for e in k4]}), 2)
    assert triangle_count(ds) == (6, 4)


def test_ordered_string_agg_brute_force():
    import ray

    from rayhist.ops.relational import ordered_string_agg

    rng = np.random.RandomState(9)
    n = 300
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 7, n).astype(np.int64),
            "v": rng.choice(list("abcdef"), n),
            "o1": rng.randint(0, 10, n).astype(np.int64),  # deliberate ties
            "o2": np.arange(n, dtype=np.int64),  # unique tiebreaker
        }
    )
    got = (
        ordered_string_agg(
            ray.data.from_pandas(df).repartition(4), "k", "v", ["o1", "o2"], sep="-"
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["k", "o1", "o2"])
        .groupby("k")
        .agg(agg=("v", "-".join), n=("v", "size"))
        .reset_index()
        .astype({"k": "int64", "n": "int64"})
    )
    pd.testing.assert_frame_equal(got.astype({"k": "int64", "n": "int64"}), want)


def test_pagerank_int_reference_and_bucket_invariance():
    """Random graphs vs a Python big-int reference of the identical
    fixed-point recurrence; results must be invariant to the bucket
    count, which is the input block count (the determinism claim —
    integer sums have no order sensitivity)."""
    import ray

    from rayhist.ops.pagerank import pagerank_int
    from rayhist.ops.triangles import dedupe_edges

    rng = np.random.RandomState(21)
    for n, m in [(10, 25), (30, 120)]:
        u = rng.randint(0, n, m)
        v = rng.randint(0, n, m)
        raw = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)
        epd = dedupe_edges(raw).to_pandas().rename(columns={"u": "src", "v": "dst"})
        E = list(zip(epd["src"].tolist(), epd["dst"].tolist()))
        if not E:
            continue
        adj: dict[int, list] = {}
        for a, b in E:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        pr = {x: 1_000_000 for x in adj}
        for _ in range(3):
            nxt = {x: 150_000 for x in adj}
            for x, nbrs in adj.items():
                share = (pr[x] * 85) // (100 * len(nbrs))
                for y in nbrs:
                    nxt[y] += share
            pr = nxt
        for nb in (2, 16):
            got = (
                pagerank_int(_blocks(epd, nb), iters=3)
                .to_pandas()
                .sort_values("node")
                .reset_index(drop=True)
            )
            assert dict(zip(got["node"], got["pr"])) == pr, (n, m, nb)


def test_deterministic_split_nests_with_sample():
    """Split invariants on both hash paths: labels cover the corpus,
    are a pure function of the key (repartition-invariant), the split
    proportions respect the cuts, and deterministic_sample at the
    first cut's rate equals the first split (samples and splits
    nest)."""
    import ray

    from rayhist.ops.relational import deterministic_sample, deterministic_split

    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64)})
    for hash_fn in ("fnv1a", "md5"):
        ds = ray.data.from_pandas(df)
        out = (
            deterministic_split(ds, "k", [("train", 8, 10), ("val", 9, 10)], "test", hash_fn)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert len(out) == len(df)
        frac = out["split"].value_counts(normalize=True)
        assert 0.75 < frac["train"] < 0.85, hash_fn
        # nesting: sample at 8/10 == the train split
        samp = (
            deterministic_sample(ray.data.from_pandas(df), 8, 10, "k", hash_fn)
            .to_pandas()["k"]
            .sort_values()
            .to_numpy()
        )
        train = out.loc[out["split"] == "train", "k"].to_numpy()
        assert np.array_equal(samp, train), hash_fn
        # partitioning invariance
        out2 = (
            deterministic_split(
                ray.data.from_pandas(df).repartition(7),
                "k", [("train", 8, 10), ("val", 9, 10)], "test", hash_fn,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, out2)


def test_deterministic_split_rejects_nonincreasing_cuts():
    import ray

    from rayhist.ops.relational import deterministic_split

    ds = ray.data.from_pandas(pd.DataFrame({"k": [1]}))
    with pytest.raises(ValueError):
        deterministic_split(ds, "k", [("a", 9, 10), ("b", 8, 10)], "c")


def test_profile_columns_nulls_floats_duckdb():
    """Profile op vs DuckDB on a frame WITH nulls and near-identical
    floats (shortest-repr injectivity) across repartitionings."""
    import duckdb
    import ray

    from rayhist.ops.profile import profile_columns

    rng = np.random.RandomState(31)
    n = 2000
    f = rng.choice([0.1, 0.1 + 2**-52, 1.5, -0.0], n)
    df = pd.DataFrame(
        {
            "a": rng.randint(0, 50, n).astype(np.int64),
            "b": pd.array(
                [None if i % 7 == 0 else int(i % 13) for i in range(n)], dtype="Int64"
            ),
            "c": f,
            "d": rng.choice(["x", "y", "zz"], n),
        }
    )
    want = duckdb.sql(
        """SELECT 'a' AS "column", count(*) AS n,
                  sum(CASE WHEN a IS NULL THEN 1 ELSE 0 END) AS n_null,
                  count(DISTINCT a) AS n_distinct FROM df
           UNION ALL SELECT 'b', count(*),
                  sum(CASE WHEN b IS NULL THEN 1 ELSE 0 END), count(DISTINCT b) FROM df
           UNION ALL SELECT 'c', count(*),
                  sum(CASE WHEN c IS NULL THEN 1 ELSE 0 END), count(DISTINCT c) FROM df
           UNION ALL SELECT 'd', count(*),
                  sum(CASE WHEN d IS NULL THEN 1 ELSE 0 END), count(DISTINCT d) FROM df
           ORDER BY 1"""
    ).df().astype({"n": "int64", "n_null": "int64", "n_distinct": "int64"})
    for parts in (1, 9):
        got = profile_columns(
            ray.data.from_pandas(df).repartition(parts), ["a", "b", "c", "d"]
        )
        pd.testing.assert_frame_equal(got, want)


def test_percentile_cont_int_matches_numpy():
    """percentile_cont rational vs numpy's linear interpolation on
    random int data (numpy's float result must equal num/den to 1 ulp
    -- we assert exact equality of the rational against a Fraction
    reference instead, plus the r==0 exact-index case)."""
    from fractions import Fraction

    import ray

    from rayhist.ops.relational import percentile_cont_int

    rng = np.random.RandomState(17)
    v = rng.randint(0, 10_000, 501).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"x": v}))
    fracs = [(1, 4), (1, 2), (3, 4), (1, 3)]
    got = percentile_cont_int(ds, "x", fracs)
    sv = np.sort(v)
    n = len(sv)
    for (num, den), (pnum, pden, gn) in zip(fracs, got):
        assert gn == n
        k, r = divmod((n - 1) * num, den)
        want = Fraction(int(sv[k]) * (den - r) + int(sv[k + 1] if r else sv[k]) * r, den)
        assert Fraction(pnum, pden) == want, (num, den)
    # exact index: p=1/2 over odd count hits a single order stat
    (pnum, pden, _), = percentile_cont_int(ds, "x", [(1, 2)])
    assert pnum % pden == 0 and pnum // pden == int(sv[(n - 1) // 2])


def _kcore_brute(edges, k):
    import collections

    adj = collections.defaultdict(set)
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    nodes = set(adj)
    rounds = 0
    while True:
        drop = {n for n in nodes if sum((m in nodes) for m in adj[n]) < k}
        if not drop:
            return sorted(nodes), rounds
        nodes -= drop
        rounds += 1
        if not nodes:
            return [], rounds


def test_k_core_brute_force_and_path_equality(monkeypatch):
    """Random graphs vs the Python peel, broadcast and distributed
    paths pinned equal (gate 0 forces the message rounds)."""
    import ray

    from rayhist.ops.kcore import k_core
    from rayhist.ops.triangles import dedupe_edges

    rng = np.random.RandomState(23)
    for n, m, k in [(15, 40, 3), (30, 200, 6)]:
        u = rng.randint(0, n, m)
        v = rng.randint(0, n, m)
        raw = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)
        edges = rio.materialize_blocks(
            dedupe_edges(raw), lambda b: b.rename_columns(["src", "dst"])
        )
        want_nodes, want_rounds = _kcore_brute(list(zip(u.tolist(), v.tolist())), k)
        for gate in (DEFAULT_GATE, 0):
            monkeypatch.setattr(cc, "BROADCAST_GATE", gate)
            core, rounds = k_core(edges, k)
            got = sorted(core.to_pandas()["node"].tolist())
            assert got == want_nodes, (n, m, k, gate)
            assert rounds == want_rounds, (n, m, k, gate)


def test_grouped_ewma_brute_force():
    """Vectorized-across-keys fold vs the per-row Python recurrence,
    with ragged key lengths and order ties broken by the tiebreaker."""
    import ray

    from rayhist.ops.scan import grouped_recurrence_ewma_int

    rng = np.random.RandomState(41)
    n = 500
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 9, n).astype(np.int64),
            "o1": rng.randint(0, 20, n).astype(np.int64),
            "o2": np.arange(n, dtype=np.int64),
            "v": rng.randint(0, 10_000, n).astype(np.int64),
        }
    )
    got = (
        grouped_recurrence_ewma_int(
            ray.data.from_pandas(df).repartition(4), "k", ["o1", "o2"], "v"
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    rows = []
    for k, g in df.sort_values(["k", "o1", "o2"]).groupby("k"):
        s = None
        for v in g["v"]:
            s = int(v) if s is None else (s + int(v)) // 2
        rows.append({"k": int(k), "n": len(g), "ewma_c": s})
    want = pd.DataFrame(rows).astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), want)


def test_bfs_hops_brute_force_and_path_equality(monkeypatch):
    """Random graphs vs a Python BFS; broadcast and distributed
    message-round paths pinned equal (gate 0 forces the rounds)."""
    import collections

    import ray

    from rayhist.ops.bfs import bfs_hops
    from rayhist.ops.triangles import dedupe_edges

    rng = np.random.RandomState(29)
    for n, m in [(20, 50), (40, 160)]:
        u = rng.randint(0, n, m)
        v = rng.randint(0, n, m)
        raw = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)
        edges = rio.materialize_blocks(
            dedupe_edges(raw), lambda b: b.rename_columns(["src", "dst"])
        )
        adj = collections.defaultdict(set)
        for a, b in zip(edges.to_pandas()["src"], edges.to_pandas()["dst"]):
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
        seeds = sorted(x for x in adj if x % 5 == 0)
        dist = {s: 0 for s in seeds}
        frontier = list(seeds)
        want = [(0, len(seeds))]
        for h in range(1, 4):
            nxt = sorted(
                {y for x in frontier for y in adj[x] if y not in dist}
            )
            for y in nxt:
                dist[y] = h
            want.append((h, len(nxt)))
            frontier = nxt
        want_df = pd.DataFrame(want, columns=["hop", "n"]).astype("int64")
        for gate in (DEFAULT_GATE, 0):
            monkeypatch.setattr(cc, "BROADCAST_GATE", gate)
            got = bfs_hops(edges, lambda a: a % 5 == 0, 3)
            pd.testing.assert_frame_equal(got, want_df), (n, m, gate)


def test_triangle_counts_per_node_brute_force():
    import ray

    from rayhist.ops.triangles import triangle_counts_per_node

    rng = np.random.RandomState(37)
    n, m = 25, 120
    u = rng.randint(0, n, m)
    v = rng.randint(0, n, m)
    ds = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)
    got = triangle_counts_per_node(ds)
    E = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist()) if a != b}
    adj: dict[int, set] = {}
    for a, b in E:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {x: 0 for x in adj}
    for a, b in E:
        for c in adj[a] & adj[b]:
            if c > b:
                tri[a] += 1
                tri[b] += 1
                tri[c] += 1
    want = pd.DataFrame(
        sorted((x, len(adj[x]), tri[x]) for x in adj),
        columns=["node", "deg", "n_triangles"],
    ).astype("int64")
    pd.testing.assert_frame_equal(got.astype("int64"), want)


def test_sssp_int_brute_force_and_path_equality(monkeypatch):
    """Random weighted graphs vs a Python Bellman-Ford; broadcast and
    distributed message-round paths pinned equal (gate 0 forces the
    rounds)."""
    import ray

    from rayhist.ops.sssp import INF, sssp_int

    rng = np.random.RandomState(31)
    for n, m, rounds in [(20, 50, 3), (40, 160, 4)]:
        u = rng.randint(0, n, m).astype(np.int64)
        v = rng.randint(0, n, m).astype(np.int64)
        w = rng.randint(1, 9, m).astype(np.int64)
        # canonical distinct pairs, min weight per pair, no self-loops
        df = pd.DataFrame(
            {"src": np.minimum(u, v), "dst": np.maximum(u, v), "w": w}
        )
        df = df[df["src"] != df["dst"]]
        df = df.groupby(["src", "dst"], as_index=False)["w"].min()
        edges = _blocks(df, 4)
        dist = {
            x: (0 if x % 5 == 0 else INF)
            for x in set(df["src"]).union(df["dst"])
        }
        for _ in range(rounds):
            nd = dict(dist)
            for a, b, ww in zip(df["src"], df["dst"], df["w"]):
                if dist[a] < INF:
                    nd[b] = min(nd[b], dist[a] + int(ww))
                if dist[b] < INF:
                    nd[a] = min(nd[a], dist[b] + int(ww))
            dist = nd
        want = pd.DataFrame(
            sorted((x, d) for x, d in dist.items() if d < INF),
            columns=["node", "dist"],
        ).astype("int64")
        for gate in (DEFAULT_GATE, 0):
            monkeypatch.setattr(cc, "BROADCAST_GATE", gate)
            got = sssp_int(edges, lambda a: a % 5 == 0, rounds)
            pd.testing.assert_frame_equal(got, want), (n, m, gate)


def test_sssp_int_weight_validation():
    import pytest
    import ray

    from rayhist.ops.sssp import sssp_int

    bad = ray.data.from_pandas(
        pd.DataFrame({"src": [1], "dst": [2], "w": [0]})
    )
    with pytest.raises(Exception, match="weights"):
        sssp_int(bad, lambda a: a % 2 == 0, 2)


def test_kmeans_int_brute_force():
    """Random point sets vs a pure-Python exact Lloyd reference:
    centroids, counts and coordinate sums bit-identical, including
    the emptied-cluster carry and lowest-cluster tie-break."""
    import ray

    from rayhist.ops.kmeans import kmeans_int

    rng = np.random.RandomState(47)
    for n, k, iters, nblk in [(30, 3, 2, 2), (120, 5, 4, 3)]:
        pid = rng.permutation(n * 7)[:n].astype(np.int64)
        gx = rng.randint(0, 1 << 20, n).astype(np.int64)
        gy = rng.randint(0, 1 << 20, n).astype(np.int64)
        df = pd.DataFrame({"pid": pid, "gx": gx, "gy": gy})
        order = np.argsort(pid, kind="stable")
        cx = [int(gx[order[j]]) for j in range(k)]
        cy = [int(gy[order[j]]) for j in range(k)]

        def assign():
            a = []
            for x, y in zip(gx.tolist(), gy.tolist()):
                best, bd = 0, None
                for j in range(k):
                    d = (x - cx[j]) ** 2 + (y - cy[j]) ** 2
                    if bd is None or d < bd:
                        best, bd = j, d
                a.append(best)
            return a

        for _ in range(iters):
            a = assign()
            for j in range(k):
                pts = [i for i, c in enumerate(a) if c == j]
                if pts:
                    cx[j] = sum(int(gx[i]) for i in pts) // len(pts)
                    cy[j] = sum(int(gy[i]) for i in pts) // len(pts)
        a = assign()
        want = pd.DataFrame(
            {
                "cluster": np.arange(k, dtype=np.int64),
                "cx": np.array(cx, dtype=np.int64),
                "cy": np.array(cy, dtype=np.int64),
                "n": np.array(
                    [sum(1 for c in a if c == j) for j in range(k)], dtype=np.int64
                ),
                "sum_gx": np.array(
                    [sum(int(gx[i]) for i, c in enumerate(a) if c == j) for j in range(k)],
                    dtype=np.int64,
                ),
                "sum_gy": np.array(
                    [sum(int(gy[i]) for i, c in enumerate(a) if c == j) for j in range(k)],
                    dtype=np.int64,
                ),
            }
        )
        # split into several blocks so the partial-combine path is real
        ds = ray.data.from_pandas(
            [df.iloc[i::nblk].reset_index(drop=True) for i in range(nblk)]
        )
        got = kmeans_int(ds, k=k, iters=iters)
        pd.testing.assert_frame_equal(got, want)


def test_kmeans_int_validation():
    import pytest
    import ray

    from rayhist.ops.kmeans import kmeans_int

    few = ray.data.from_pandas(pd.DataFrame({"pid": [1, 2], "gx": [0, 1], "gy": [0, 1]}))
    with pytest.raises(ValueError, match="at least k"):
        kmeans_int(few, k=3, iters=1)
    neg = ray.data.from_pandas(pd.DataFrame({"pid": [1], "gx": [-1], "gy": [0]}))
    with pytest.raises(Exception, match="coordinates"):
        kmeans_int(neg, k=1, iters=1)
    with pytest.raises(ValueError, match="k must be"):
        kmeans_int(few, k=0, iters=1)


def test_rect_self_join_brute_force():
    """Random box sets (including touching edges, containment, and
    boxes straddling many cell borders, negative coords) vs an O(n^2)
    brute force — every intersecting pair exactly once with the exact
    corner and area."""
    import ray

    from rayhist.spatial.rectjoin import rect_self_join

    rng = np.random.RandomState(53)
    for n, cell in [(60, 100), (200, 64)]:
        cx = rng.randint(-500, 500, n).astype(np.int64)
        cy = rng.randint(-500, 500, n).astype(np.int64)
        rx = rng.randint(0, cell // 2 + 1, n).astype(np.int64)
        ry = rng.randint(0, cell // 2 + 1, n).astype(np.int64)
        df = pd.DataFrame(
            {
                "id": np.arange(n, dtype=np.int64) * 3 + 1,
                "lx": cx - rx,
                "ly": cy - ry,
                "hx": cx + rx,
                "hy": cy + ry,
            }
        )
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                ix = max(df.lx[i], df.lx[j])
                iy = max(df.ly[i], df.ly[j])
                jx = min(df.hx[i], df.hx[j])
                jy = min(df.hy[i], df.hy[j])
                if ix <= jx and iy <= jy:
                    rows.append(
                        (int(df.id[i]), int(df.id[j]), int(ix), int(iy),
                         int((jx - ix) * (jy - iy)))
                    )
        want = pd.DataFrame(
            sorted(rows), columns=["id_a", "id_b", "ix", "iy", "area"]
        ).astype("int64")
        ds = ray.data.from_pandas(
            [df.iloc[i::3].reset_index(drop=True) for i in range(3)]
        )
        got = (
            rect_self_join(ds, cell)
            .to_pandas()
            .astype("int64")
            .sort_values(["id_a", "id_b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)


def test_rect_self_join_validation():
    import pytest
    import ray

    from rayhist.spatial.rectjoin import rect_self_join

    wide = ray.data.from_pandas(
        pd.DataFrame({"id": [1, 2], "lx": [0, 0], "ly": [0, 0], "hx": [200, 1], "hy": [1, 1]})
    )
    with pytest.raises(Exception, match="side exceeds cell"):
        rect_self_join(wide, 100).to_pandas()
    flipped = ray.data.from_pandas(
        pd.DataFrame({"id": [1], "lx": [5], "ly": [0], "hx": [0], "hy": [1]})
    )
    with pytest.raises(Exception, match="low > high"):
        rect_self_join(flipped, 100).to_pandas()
    with pytest.raises(ValueError, match="area budget"):
        rect_self_join(wide, 1 << 32)


def test_repetition_stage_edge_cases():
    """Within-doc repetition kernel on adversarial docs: empty doc
    (dropped), single token (bigram 0), a dominant repeated bigram,
    and separator-only text (dropped)."""
    import pyarrow as pa

    from rayhist.pipelines import _repetition_stage

    b = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "text": pa.array(
                [
                    "",                       # dropped: zero tokens
                    "Solo",                   # 1 token, bigram 0
                    "a b a b a b c",          # top tok a=3, bigram (a,b)=3
                    "x x x x",                # top tok 4, bigram (x,x)=3
                    "123 ,,, 456",            # alpha-only split -> dropped
                ]
            ),
        }
    )
    out = _repetition_stage(b).to_pandas().set_index("doc_id")
    assert list(out.index) == [11, 12, 13]
    assert out.loc[11].tolist() == [1, 1, 1, 0]
    assert out.loc[12].tolist() == [7, 3, 3, 3]
    assert out.loc[13].tolist() == [4, 1, 4, 3]


def test_inverted_index_postings_prefix():
    """Posting lists: df counts distinct docs, tf total occurrences,
    prefix keeps the first POSTINGS_K ascending doc ids even when a
    word spans more docs than the prefix."""
    import pandas as pd

    from rayhist.pipelines import POSTINGS_K, q_inverted_index

    got = q_inverted_index("/root/testdata/sf0.001").set_index("word")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    import re
    rows = []
    for did, text in zip(docs["doc_id"], docs["text"]):
        for w in re.split("[^a-z]+", text.lower()):
            if w:
                rows.append((w, did))
    t = pd.DataFrame(rows, columns=["word", "doc_id"])
    c = t.groupby(["word", "doc_id"]).size().rename("c").reset_index()
    for w, g in c.groupby("word"):
        ids = g["doc_id"].sort_values().tolist()
        assert got.loc[w, "df"] == len(ids)
        assert got.loc[w, "tf"] == g["c"].sum()
        assert got.loc[w, "postings"] == ",".join(map(str, ids[:POSTINGS_K]))
    assert (got["df"] > POSTINGS_K).any()  # prefixes actually truncate


def test_edge_triangle_support_brute_force_and_paths_pinned(monkeypatch):
    """Per-edge support vs an adjacency-intersection brute force on
    random multigraph inputs (dupes + self-loops tolerated), with the
    driver-final and distributed (gate 0) paths pinned equal —
    including zero-support edges, which must survive with cn=0."""
    import ray

    from rayhist.ops.triangles import edge_triangle_support

    rng = np.random.RandomState(11)
    for n, m in [(8, 14), (24, 90), (50, 260)]:
        u = rng.randint(0, n, size=m)
        v = rng.randint(0, n, size=m)
        ds = _blocks(pd.DataFrame({"src": u.astype(np.int64), "dst": v.astype(np.int64)}), 4)

        E = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist()) if a != b}
        adj: dict[int, set] = {}
        for a, b in E:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        want = (
            pd.DataFrame(
                [
                    (a, b, len(adj[a]), len(adj[b]), len(adj[a] & adj[b]))
                    for a, b in sorted(E)
                ],
                columns=["u", "v", "deg_u", "deg_v", "cn"],
            )
            .astype("int64")
            .reset_index(drop=True)
        )

        for gate in (DEFAULT_GATE, 0):
            monkeypatch.setattr(cc, "BROADCAST_GATE", gate)
            got = (
                edge_triangle_support(ds)
                .to_pandas()
                .astype("int64")
                .sort_values(["u", "v"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert (want["cn"] == 0).any()  # zero-support edges exercised


def test_trimmed_mean_brute_force():
    """Histogram rank-trim vs a literal sort-and-slice reference,
    including the boundary case where a single value straddles the
    trim cut (partial multiplicity must be kept)."""
    from rayhist.pipelines import TRIM_FRAC, q_trimmed_mean_by_type

    got = q_trimmed_mean_by_type("/root/testdata/sf0.001").set_index("etype")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_type", "value"])
    ev["c"] = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    num, den = TRIM_FRAC
    for et, g in ev.groupby("event_type"):
        c = np.sort(g["c"].to_numpy())
        t = len(c) * num // den
        kept = c[t: len(c) - t]
        assert got.loc[et, "n_kept"] == len(kept)
        assert got.loc[et, "sum_kept_c"] == int(kept.sum())
        assert got.loc[et, "trimmed_mean_c"] == np.float64(int(kept.sum())) / np.float64(len(kept))
        # the trim actually removed rows and changed the mean
        assert len(kept) < len(c)


def test_etype_rank_delta_properties():
    """Ranks are a permutation of 1..k within every day; deltas sum to
    zero per day after the first (rank moves are conservative when the
    type set is stable); the corpus has real movement."""
    from rayhist.pipelines import q_etype_rank_delta

    got = q_etype_rank_delta("/root/testdata/sf0.001")
    for day, g in got.groupby("day"):
        assert sorted(g["rnk"]) == list(range(1, len(g) + 1))
    first_day = got["day"].min()
    later = got[got["day"] > first_day]
    assert (later.groupby("day")["rank_delta"].sum() == 0).all()
    assert (got["rank_delta"] != 0).any()
    assert (got[got["day"] == first_day]["rank_delta"] == 0).all()


def test_etype_daily_autocorr_brute_force():
    """Exact-sufficient-statistics Pearson r vs numpy corrcoef on the
    same (x_t, x_{t+1}) pairs (agreement to float ulps; the pipeline's
    own value is additionally bit-pinned by the SQL oracle)."""
    from rayhist.pipelines import DAY_US, T0, q_etype_daily_autocorr

    got = q_etype_daily_autocorr("/root/testdata/sf0.001").set_index("etype")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["ts", "event_type"])
    ev["day"] = (ev["ts"].astype("int64") - T0) // DAY_US
    c = ev.groupby(["event_type", "day"]).size()
    for et in got.index:
        s = c.loc[et].sort_index().to_numpy(dtype=np.float64)
        r = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert abs(got.loc[et, "autocorr"] - r) < 1e-12
        assert got.loc[et, "n_pairs"] == len(s) - 1
    assert (got["autocorr"].abs() < 1).all()


def test_doc_compressibility_exact():
    """Pipeline sums equal direct zlib over the same corpus (deflate
    is deterministic at a fixed level), and the signal separates:
    ratios fall strictly inside (0, 1) for the synthetic corpus."""
    import zlib

    from rayhist.pipelines import q_doc_compressibility

    got = q_doc_compressibility("/root/testdata/sf0.001").set_index("source")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["source", "text"])
    for src, g in docs.groupby("source"):
        raw = sum(len(t.encode()) for t in g["text"])
        comp = sum(len(zlib.compress(t.encode(), 6)) for t in g["text"])
        assert got.loc[src, "n_docs"] == len(g)
        assert got.loc[src, "sum_raw_bytes"] == raw
        assert got.loc[src, "sum_zlib_bytes"] == comp
        assert got.loc[src, "zlib_ratio"] == np.float64(comp) / np.float64(raw)
    assert ((got["zlib_ratio"] > 0) & (got["zlib_ratio"] < 1)).all()


def test_value_percentile_mass_invariants():
    """Global rank-transform: total strictly-below mass equals the
    sorted-array pair count minus tie corrections; per-type means lie
    in (0, 1)."""
    from rayhist.pipelines import q_value_percentile_mass_by_type

    got = q_value_percentile_mass_by_type("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["value"])
    c = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    order = np.sort(c)
    # sum over values of strictly-below counts, computed independently
    uniq, cnt = np.unique(order, return_counts=True)
    below = np.r_[0, np.cumsum(cnt)[:-1]]
    assert got["sum_below"].sum() == int((below * cnt).sum())
    assert got["n"].sum() == len(c)
    assert ((got["mean_below_frac"] > 0) & (got["mean_below_frac"] < 1)).all()


def test_anomalous_days_integer_zscore():
    """The integer cross-multiplied flag equals the literal float
    z-test on the same grid (strict inequality, population variance)."""
    from rayhist.pipelines import ZSCORE_K, _etype_day_grid, q_anomalous_days_by_type

    got = q_anomalous_days_by_type("/root/testdata/sf0.001")
    grid = _etype_day_grid("/root/testdata/sf0.001")
    want = []
    for et, g in grid.groupby("etype"):
        x = g["n"].to_numpy(dtype=np.float64)
        mu, var = x.mean(), x.var()
        for day, n in zip(g["day"], g["n"]):
            if (n - mu) ** 2 > ZSCORE_K**2 * var + 1e-9:
                want.append((et, int(day), int(n)))
    assert list(map(tuple, got.to_numpy())) == want
    assert len(want) > 0


def test_knn_majority_label_votes():
    """Votes per query sum to k, and the winner's count is the max."""
    from rayhist.pipelines import q_knn_majority_label

    got = q_knn_majority_label("/root/testdata/sf0.001")
    assert (got["n_votes"] >= 1).all() and (got["n_votes"] <= 3).all()
    assert got["query_id"].is_unique and len(got) >= 1


def test_near_dup_source_matrix_conservation():
    """Matrix cells sum to the near-dup pair count; source pairs are
    canonical (lo <= hi)."""
    from rayhist.pipelines import q_near_dup_pairs, q_near_dup_source_matrix

    got = q_near_dup_source_matrix("/root/testdata/sf0.001")
    pairs = q_near_dup_pairs("/root/testdata/sf0.001")
    assert got["n_pairs"].sum() == len(pairs)
    assert (got["src_lo"] <= got["src_hi"]).all()


def test_doc_lm_surprisal_brute_force():
    """Pipeline vs a literal Python bigram-LM reference on the real
    sf0.001 corpus: same split, add-one smoothing, milli-nat
    quantization BEFORE summation."""
    import math
    import re

    from rayhist.ops.relational import round_half_away
    from rayhist.pipelines import q_doc_lm_surprisal

    got = q_doc_lm_surprisal("/root/testdata/sf0.001").set_index("doc_id")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    toks = {d: [w for w in re.split("[^a-z]+", t.lower()) if w]
            for d, t in zip(docs["doc_id"], docs["text"])}
    from collections import Counter
    c2: Counter = Counter()
    vocab = set()
    for ws in toks.values():
        vocab.update(ws)
        c2.update(zip(ws, ws[1:]))
    c1: Counter = Counter()
    for (w1, _), c in c2.items():
        c1[w1] += c
    V = len(vocab)
    for d, ws in list(toks.items())[:60]:  # spot-check 60 docs
        bgs = list(zip(ws, ws[1:]))
        if not bgs:
            assert d not in got.index
            continue
        sm = sum(
            int(round_half_away(np.array([1000.0 * (math.log(c1[w1] + V)
                                                    - math.log(c2[(w1, w2)] + 1))]))[0])
            for w1, w2 in bgs
        )
        assert got.loc[d, "n_bigrams"] == len(bgs)
        assert got.loc[d, "surprisal_milli"] == sm


def test_label_centroid_cosine_brute_force():
    """Quantized-centroid cosine vs a literal numpy reference (exact
    equality: the reference reproduces the quantize-sum-divide op
    order); 10 labels -> 45 pairs with |cos| < 1."""
    from rayhist.ops.relational import round_half_away
    from rayhist.pipelines import EMB_QUANT, q_label_centroid_cosine

    got = q_label_centroid_cosine("/root/testdata/sf0.001")
    emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["label", "embedding"])
    sums: dict = {}
    for lab, e in zip(emb["label"], emb["embedding"]):
        q = round_half_away(np.asarray(e, dtype=np.float64) * EMB_QUANT).astype(object)
        sums[lab] = q if lab not in sums else sums[lab] + q
    labs = sorted(sums)
    k = 0
    for i, a in enumerate(labs):
        for b in labs[i + 1:]:
            va, vb = sums[a], sums[b]
            dot = int(sum(x * y for x, y in zip(va, vb)))
            na2 = int(sum(x * x for x in va))
            nb2 = int(sum(x * x for x in vb))
            row = got.iloc[k]; k += 1
            assert (row["label_lo"], row["label_hi"]) == (a, b)
            assert row["dot"] == dot
            assert row["cosine"] == np.float64(dot) / (
                np.sqrt(np.float64(na2)) * np.sqrt(np.float64(nb2))
            )
    assert k == len(got) and (got["cosine"].abs() < 1).all()


def test_customer_rfm_segments_conservation():
    """Cells sum to distinct customers; per-axis quartile masses are
    balanced within the tie-granularity bound (each marginal code
    holds >= 1 customer and the axis codes span 0..3)."""
    from rayhist.pipelines import q_customer_rfm_segments

    got = q_customer_rfm_segments("/root/testdata/sf0.001")
    orders = pd.read_parquet("/root/testdata/sf0.001/orders.parquet",
                             columns=["o_custkey"])
    assert got["n_customers"].sum() == orders["o_custkey"].nunique()
    for axis in ("r_code", "f_code", "m_code"):
        marg = got.groupby(axis)["n_customers"].sum()
        assert set(marg.index) <= {0, 1, 2, 3}
        assert marg.max() <= got["n_customers"].sum()  # sanity
        assert len(marg) >= 2  # the axis actually separates customers


def test_etype_day_entropy_bounds_and_recompute():
    """num matches a direct per-day recompute from raw events; the
    milli-nat entropy lies in [0, 1000*ln(#types present)]."""
    import math

    from rayhist.pipelines import DAY_US, T0, _q_mnat, q_etype_day_entropy

    got = q_etype_day_entropy("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["ts", "event_type"])
    day = (ev["ts"].astype("int64") - T0) // DAY_US
    for _, row in got.iterrows():
        cnt = ev.loc[day == row["day"], "event_type"].value_counts()
        t = int(cnt.sum())
        num = t * _q_mnat(t) - sum(int(c) * _q_mnat(int(c)) for c in cnt)
        assert row["n_events"] == t and row["num"] == num
        assert -1 <= row["entropy_mnat"] <= 1000.0 * math.log(len(cnt)) + 1


def test_etype_daily_crosscorr_pinned_to_numpy():
    """Every pair's r equals numpy's corrcoef to 1e-12 and sits in
    [-1, 1]; pairs are strictly ordered."""
    from rayhist.pipelines import DAY_US, T0, q_etype_daily_crosscorr

    got = q_etype_daily_crosscorr("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["ts", "event_type"])
    g = pd.DataFrame({"day": (ev["ts"].astype("int64") - T0) // DAY_US,
                      "etype": ev["event_type"]})
    grid = g.groupby(["day", "etype"]).size().unstack()
    assert (got["etype_a"] < got["etype_b"]).all()
    assert got["crosscorr"].abs().max() <= 1.0
    for _, row in got.iterrows():
        sub = grid[[row["etype_a"], row["etype_b"]]].dropna()
        r = np.corrcoef(sub.iloc[:, 0], sub.iloc[:, 1])[0, 1]
        assert abs(row["crosscorr"] - r) < 1e-12
        assert row["n_days"] == len(sub)


def test_etype_cusum_changepoint_direct():
    """chg_day equals the argmax of |prefix sum of (T*x - S)| with
    earliest-day ties, recomputed directly per type."""
    from rayhist.pipelines import DAY_US, T0, q_etype_cusum_changepoint

    got = q_etype_cusum_changepoint("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["ts", "event_type"])
    g = pd.DataFrame({"day": (ev["ts"].astype("int64") - T0) // DAY_US,
                      "etype": ev["event_type"]})
    for _, row in got.iterrows():
        s = g[g["etype"] == row["etype"]].groupby("day").size().sort_index()
        dev = s.to_numpy(dtype=object) * len(s) - int(s.sum())
        cus = np.cumsum(dev)
        best = int(np.argmax(np.abs(cus)))  # first occurrence = earliest day
        assert row["chg_day"] == int(s.index[best])
        assert row["cusum_abs"] == abs(int(cus[best]))
        assert row["n_days"] == len(s)


def test_user_gini_by_etype_matches_sorted_rank_formula():
    """Histogram-walk Gini equals the textbook sorted-rank formula on
    the raw per-user counts, and lies in [0, 1)."""
    from rayhist.pipelines import q_user_gini_by_etype

    got = q_user_gini_by_etype("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "event_type"])
    for _, row in got.iterrows():
        c = np.sort(
            ev[ev["event_type"] == row["etype"]]
            .groupby("user_id").size().to_numpy(dtype=np.int64)
        )
        n, s = len(c), int(c.sum())
        rank_sum = int(np.dot(np.arange(1, n + 1, dtype=object), c.astype(object)))
        num = 2 * rank_sum - (n + 1) * s
        assert row["n_users"] == n and row["total"] == s
        assert row["gini_num"] == num
        assert 0.0 <= row["gini"] < 1.0


def test_doc_pattern_counts_matches_python_re():
    """Arrow's RE2 counts equal Python re.findall on every doc (same
    leftmost non-overlapping contract), and totals conserve."""
    import re

    from rayhist.pipelines import (PAT_E_END, PAT_S_WORD, PAT_TA,
                                   q_doc_pattern_counts)

    got = q_doc_pattern_counts("/root/testdata/sf0.001")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["source", "text"])
    assert got["n_docs"].sum() == len(docs)
    pats = {"s_words": PAT_S_WORD, "e_ends": PAT_E_END, "ta_hits": PAT_TA}
    for col, pat in pats.items():
        rx = re.compile(pat)
        exp = docs.assign(n=[len(rx.findall(t)) for t in docs["text"]]) \
                  .groupby("source")["n"].sum()
        for _, row in got.iterrows():
            assert row[col] == int(exp[row["source"]])
    assert (got["docs_with_s"] <= got["n_docs"]).all()
    assert (got["s_words"] >= got["docs_with_s"]).all()


def test_weighted_sample_docs_race_and_bias():
    """Every selected race key recomputes exactly from md5(doc_id) and
    n_chars; the k selected keys are the global k smallest; and the
    draw is length-biased (selected mean n_chars > corpus mean)."""
    import hashlib
    import math

    from rayhist.pipelines import WSAMPLE_K, q_weighted_sample_docs

    got = q_weighted_sample_docs("/root/testdata/sf0.001")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "n_chars"])

    def race(doc_id, w):
        u = (int(hashlib.md5(str(doc_id).encode()).hexdigest()[:8], 16) + 1) \
            / 4294967296.0
        return -math.log(u) / w

    allk = docs.assign(r=[race(d, w) for d, w in
                          zip(docs["doc_id"], docs["n_chars"])])
    k = min(WSAMPLE_K, len(docs))
    assert len(got) == k
    exp = allk.sort_values(["r", "doc_id"]).head(k)
    assert set(got["doc_id"]) == set(exp["doc_id"])
    for row in got.itertuples():  # iterrows would upcast doc_id to float
        assert row.race_key == race(int(row.doc_id), int(row.n_chars))
    if len(docs) > 2 * k:
        assert got["n_chars"].mean() > docs["n_chars"].mean()


def test_weighted_sample_topk_partition_invariance():
    """The draw is a pure function of the keys: 1 block vs many blocks
    select identical rows with identical race keys (fnv1a path)."""
    import ray

    from rayhist.ops.relational import weighted_sample_topk

    df = pd.DataFrame({"k": np.arange(1000, dtype=np.int64),
                       "w": (np.arange(1000) % 17 + 1).astype(np.int64)})
    a = weighted_sample_topk(ray.data.from_pandas(df), 50, "w", "k")
    b = weighted_sample_topk(
        ray.data.from_pandas(df).repartition(16), 50, "w", "k")
    pd.testing.assert_frame_equal(
        a.sort_values("k").reset_index(drop=True),
        b.sort_values("k").reset_index(drop=True))
    assert len(a) == 50 and (a["race_key"] >= 0).all()


def test_embedding_covariance_pinned_to_numpy():
    """The exact-integer covariance equals numpy's population cov of
    the quantized matrix to 1e-9, diagonals are non-negative, and the
    Cauchy-Schwarz bound holds pairwise."""
    from rayhist.ops.relational import round_half_away
    from rayhist.pipelines import EMB_QUANT, q_embedding_covariance

    got = q_embedding_covariance("/root/testdata/sf0.001")
    emb = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                          columns=["embedding"])
    q = round_half_away(
        np.stack(emb["embedding"].to_numpy()).astype(np.float64) * EMB_QUANT
    ).astype(np.int64)
    n, d = q.shape
    assert len(got) == d * (d + 1) // 2 and (got["n"] == n).all()
    c = np.cov(q, rowvar=False, bias=True)
    for _, row in got.iterrows():
        i, j = int(row["dim_i"]) - 1, int(row["dim_j"]) - 1
        assert abs(row["cov"] - c[i, j]) < 1e-9
        if i == j:
            assert row["cov_num"] >= 0
    diag = {int(r["dim_i"]): r["cov_num"] for _, r in got.iterrows()
            if r["dim_i"] == r["dim_j"]}
    assert all(r["cov_num"] ** 2 <= diag[int(r["dim_i"])] * diag[int(r["dim_j"])]
               for _, r in got.iterrows())


def test_embedding_pca_top_matches_numpy_eigvec():
    """PCA_ITERS (96) fixed-point power-iteration rounds land on numpy's dominant
    eigenvector of the exact integer covariance numerators (|cos| >
    0.999), and the renormalization invariant max|v_fp| == SCALE
    holds exactly."""
    from rayhist.pipelines import PCA_SCALE, _emb_moment_pivot, q_embedding_pca_top

    got = q_embedding_pca_top("/root/testdata/sf0.001")
    piv = _emb_moment_pivot("/root/testdata/sf0.001")
    n = piv[(0, 0)]
    d = max(i for i, _ in piv)
    assert list(got["dim"]) == list(range(1, d + 1))
    assert int(got["v_fp"].abs().max()) == PCA_SCALE
    cmat = np.array(
        [
            [
                float(n * piv[(min(i, j), max(i, j))] - piv[(i, 0)] * piv[(j, 0)])
                for j in range(1, d + 1)
            ]
            for i in range(1, d + 1)
        ]
    )
    w, v = np.linalg.eigh(cmat)
    top = v[:, np.argmax(w)]
    g = got["loading"].to_numpy()
    cos = abs(g @ top) / (np.linalg.norm(g) * np.linalg.norm(top))
    assert cos > 0.9999


def test_user_entropy_bounds_and_recompute():
    """Per-user entropy is within [0, 1000*ln(k_user)] and equals the
    direct pandas recomputation of the integer numerator."""
    import math

    from rayhist.pipelines import _q_mnat, q_user_entropy

    got = q_user_entropy("/root/testdata/sf0.001")
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet", columns=["user_id", "event_type"]
    )
    c = ev.groupby(["user_id", "event_type"]).size()
    for _, row in got.iterrows():
        cu = c[int(row["user_id"])]
        t = int(cu.sum())
        num = t * _q_mnat(t) - sum(int(x) * _q_mnat(int(x)) for x in cu)
        assert row["n_events"] == t and row["num"] == num
        assert -1.0 <= row["entropy_mnat"] <= 1000.0 * math.log(len(cu)) + 1.0
    assert len(got) == ev["user_id"].nunique()


def test_doc_redaction_parity_and_invariants():
    """The RE2 redaction matches Python re word-by-word (same
    leftmost non-overlapping semantics for this alternation), the
    token count in the output equals n_redacted (the token cannot
    occur in the lowercase source), and unredacted docs pass through
    byte-identical."""
    import re as _re

    from rayhist.pipelines import RED_PAT, RED_TOKEN, q_doc_redaction

    got = q_doc_redaction("/root/testdata/sf0.001")
    docs = pd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).set_index("doc_id")
    assert 0 < len(got) < len(docs)
    rx = _re.compile(RED_PAT)
    for _, row in got.iterrows():
        src = docs.loc[int(row["doc_id"]), "text"]
        assert row["len_before"] == len(src)
        assert row["text_redacted"] == rx.sub(RED_TOKEN, src)
        assert row["text_redacted"].count(RED_TOKEN) == row["n_redacted"]
        assert row["len_after"] == len(row["text_redacted"])
        if row["n_redacted"] == 0:
            assert row["text_redacted"] == src


def test_island_length_histogram_brute_force():
    """Distributed gaps-and-islands equals the brute-force run-length
    histogram on adversarial id sets: chains spanning 3+ range
    buckets, fully-saturated buckets, singletons at bucket edges."""
    import ray.data

    from rayhist.ops.relational import island_length_histogram

    rng = np.random.default_rng(5)
    ids = set()
    ids.update(range(1000, 1000 + 3000))  # spans ~3 buckets of 1024
    ids.update(range(5120, 6144))  # exactly one saturated bucket
    ids.update({8191, 8192, 8193})  # straddles an edge
    ids.update(int(x) for x in rng.choice(50_000, 4000, replace=False) + 10_000)
    arr = np.array(sorted(ids), dtype=np.int64)
    got = island_length_histogram(
        ray.data.from_arrow(pa.table({"osm_id": arr})), "osm_id", range_size=1024
    )
    brk = np.nonzero(np.diff(arr) > 1)[0]
    lens = np.diff(np.r_[-1, brk, len(arr) - 1])
    ul, uc = np.unique(lens, return_counts=True)
    want = dict(zip(ul.tolist(), uc.tolist()))
    assert dict(zip(got["length"], got["n_chains"])) == want


def test_mannwhitney_identity_and_scipy_free_check():
    """2U_even + 2U_odd == 2*A*B per etype, and the doubled U equals
    a direct pairwise-count recomputation on one etype."""
    from rayhist.pipelines import q_mannwhitney_value
    from rayhist.ops.relational import round_half_away

    got = q_mannwhitney_value("/root/testdata/sf0.001")
    assert (
        got["u2_even"] + got["u2_odd"] == 2 * got["n_even"] * got["n_odd"]
    ).all()
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet",
        columns=["user_id", "event_type", "value"],
    )
    ev = ev[ev["event_type"] == "click"]
    v = round_half_away(ev["value"].to_numpy() * 100).astype(np.int64)
    grp = ev["user_id"].to_numpy() % 2
    a, b = v[grp == 0], v[grp == 1]
    u2 = int(
        2 * (a[:, None] > b[None, :]).sum() + (a[:, None] == b[None, :]).sum()
    )
    row = got[got["etype"] == "click"].iloc[0]
    assert row["u2_even"] == u2


# ---------------------------------------------------------------- HITS
def test_hits_bipartite_matches_bruteforce(monkeypatch):
    """Distributed integer HITS equals the single-process fixed-point
    reference (exact Python ints) on a random bipartite graph, at two
    bucket counts (partitioning invariance), and so does the driver
    pass under the default gate."""
    import numpy as np
    import pandas as pd
    import ray.data

    from rayhist.ops.hits import hits_bipartite

    rng = np.random.default_rng(11)
    n_edges = 400
    src = rng.integers(0, 40, n_edges)
    dst = rng.integers(1000, 1030, n_edges)
    edges = pd.DataFrame({"s": src, "d": dst}).drop_duplicates()
    scale, iters = 1_000_000, 2

    # exact integer reference
    h = {int(c): scale for c in edges["s"].unique()}
    a = {}
    pairs = list(zip(edges["s"].astype(int), edges["d"].astype(int)))
    for i in range(iters):
        a = {}
        for c, p in pairs:
            a[p] = a.get(p, 0) + h[c]
        s = sum(a.values())
        a = {p: (v * scale) // s for p, v in a.items()}
        if i < iters - 1:
            h = {}
            for c, p in pairs:
                h[c] = h.get(c, 0) + a[p]
            s = sum(h.values())
            h = {c: (v * scale) // s for c, v in h.items()}

    # duplicated edge rows must dedupe in the routing pass
    dup = pd.concat([edges, edges.head(50)], ignore_index=True)
    for nb, gate in ((4, 0), (17, 0), (8, DEFAULT_GATE)):
        monkeypatch.setattr(cc, "BROADCAST_GATE", gate)
        got = hits_bipartite(_blocks(dup, nb), src="s", dst="d", iters=iters, scale=scale)
        assert dict(zip(got["node"], got["val"])) == a


def test_bench_graph_family_runs_over_the_floor_graph(tmp_path, monkeypatch):
    """Every op of ``bench.py --family graph`` runs once over the floor
    graph with the size gate lowered to 0 around its own call, and the
    gate is back at its default after each."""
    import bench

    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path))
    res = {}
    for name, op in bench._graph_ops(bench.ensure_floor_graph(), 3).items():
        res[name] = op()
        assert cc.BROADCAST_GATE == DEFAULT_GATE, name
    n_edges = res["triangles"][0]
    assert n_edges > 0 and res["edge_support"] == n_edges  # a support row per edge


def test_hits_distributed_overflow_guard(monkeypatch):
    """Above the gate (forced with a gate of 0) the message sums
    are guarded like the local rounds: a scale that would wrap int64
    raises OverflowError (unguarded, the wrapped total surfaced as a
    misleading 'non-positive score total')."""
    import pandas as pd
    import pytest
    import ray.data

    from rayhist.ops.hits import hits_bipartite

    edges = pd.DataFrame({"s": [1, 2, 3, 1], "d": [10, 10, 11, 11]})
    monkeypatch.setattr(cc, "BROADCAST_GATE", 0)
    with pytest.raises(OverflowError, match="int64 bound"):
        hits_bipartite(_blocks(edges, 4), src="s", dst="d", iters=2, scale=2**61)


def test_linreg_matches_numpy_lstsq():
    """The Cramer's-rule exact-int OLS equals numpy's float solver to
    float tolerance on the real corpus (the PCA-convergence
    convention: the exact fixed-point path is the contract, the float
    library is the sanity bound)."""
    import numpy as np
    import pandas as pd

    from rayhist.pipelines import DAY_US, T0, q_linreg_value_day_parity

    sf = "/root/testdata/sf0.001"
    got = q_linreg_value_day_parity(sf)
    ev = pd.read_parquet(sf + "/events.parquet")
    x1 = (ev["ts"].astype("int64").to_numpy() - T0) // DAY_US
    x2 = (ev["user_id"].to_numpy() % 2).astype(np.int64)
    y = np.round(ev["value"].to_numpy() * 100)
    X = np.stack([np.ones(len(y)), x1, x2], axis=1).astype(np.float64)
    ref, *_ = np.linalg.lstsq(X, y.astype(np.float64), rcond=None)
    assert np.allclose(
        [got["beta0"][0], got["beta1"][0], got["beta2"][0]], ref, rtol=1e-9
    )


def test_rolling_median_brute_force(ray_session):
    """q_rolling_median_value equals a direct pandas recomputation of
    the 7-day lower median from the raw events (independent of both
    the engine's histogram fan-out AND the SQL mirror)."""
    import numpy as np
    import pandas as pd

    from rayhist.ops.relational import round_half_away
    from rayhist.pipelines import DAY_US, T0, q_rolling_median_value

    sf = "/root/testdata/sf0.001"
    got = q_rolling_median_value(sf)
    ev = pd.read_parquet(sf + "/events.parquet")
    ev["day"] = (ev["ts"].astype("int64") - T0) // DAY_US
    ev["c"] = round_half_away(ev["value"].to_numpy() * 100).astype(np.int64)
    rows = []
    for et, g in ev.groupby("event_type"):
        for wend in range(31):
            w = g[(g["day"] >= wend - 6) & (g["day"] <= wend)]
            if w.empty:
                continue
            v = np.sort(w["c"].to_numpy())
            rows.append((et, wend, len(v), int(v[(len(v) + 1) // 2 - 1])))
    want = pd.DataFrame(
        rows, columns=["etype", "wend", "n_events", "median_cents"]
    ).astype({"wend": "int64", "n_events": "int64", "median_cents": "int64"})
    want = want.sort_values(["etype", "wend"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_event_debounce_brute_force(ray_session):
    """q_event_debounce equals a direct pandas lag recomputation."""
    import pandas as pd

    from rayhist.pipelines import DEBOUNCE_GAP_US, q_event_debounce

    sf = "/root/testdata/sf0.001"
    got = q_event_debounce(sf)
    ev = pd.read_parquet(sf + "/events.parquet").sort_values(
        ["user_id", "event_type", "ts", "event_id"]
    )
    ts = ev["ts"].astype("int64")
    gap = ts - ts.groupby([ev["user_id"], ev["event_type"]]).shift(1)
    noise = gap < DEBOUNCE_GAP_US
    want = (
        pd.DataFrame({"etype": ev["event_type"], "noise": noise.fillna(False)})
        .groupby("etype")["noise"]
        .agg(n_dropped="sum", n_total="size")
        .reset_index()
    )
    want["n_kept"] = want["n_total"] - want["n_dropped"]
    want = want[["etype", "n_kept", "n_dropped"]].astype(
        {"n_kept": "int64", "n_dropped": "int64"}
    )
    pd.testing.assert_frame_equal(
        got, want.sort_values("etype").reset_index(drop=True)
    )


def test_theil_index_counts_a_zero_value_as_a_zero_term(tmp_path):
    """theil_index_by_type over events holding 0.00 values: a zero
    value's term is 0 (the x*ln(x) -> 0 limit) in the pipeline and in
    its SQL twin alike, and it still counts in n_events; a negative
    value raises."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from rayhist.pipelines import q_theil_index_by_type
    from tests.test_ingest import SF
    from tools.check_queries import compare

    ev = pq.read_table(f"{SF}/events.parquet")
    value = ev["value"].to_numpy().copy()
    value[::7] = 0.0
    pq.write_table(ev.set_column(ev.schema.get_field_index("value"), "value", pa.array(value)),
                   tmp_path / "events.parquet")
    got = q_theil_index_by_type(str(tmp_path))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    want = con.sql(entry.oracle_sql()["theil_index_by_type"]).df()
    assert compare("theil_index_by_type", got, want)
    assert got["n_events"].sum() == len(value)
    value[3] = -0.5
    pq.write_table(ev.set_column(ev.schema.get_field_index("value"), "value", pa.array(value)),
                   tmp_path / "events.parquet")
    with pytest.raises(ValueError, match="negative cents"):
        q_theil_index_by_type(str(tmp_path))
