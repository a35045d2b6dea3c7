"""Bloom filter: no false negatives, bounded false positives, merge
laws, distributed build, and semi-join-with-bloom == semi-join-without."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from rayhist.functions.bloom import BloomFilter, bloom_params, build_bloom
from rayhist.ops.relational import hash_semi_join


def test_no_false_negatives():
    keys = [str(i) for i in range(5_000)]
    m, k = bloom_params(5_000, 0.01)
    bf = BloomFilter(m, k).add(keys)
    assert bf.contains(keys).all()


def test_false_positive_rate_near_target():
    n = 20_000
    m, k = bloom_params(n, 0.01)
    bf = BloomFilter(m, k).add([str(i) for i in range(n)])
    probe = [str(i) for i in range(n, n + 50_000)]  # disjoint
    fp = bf.contains(probe).mean()
    assert fp < 0.03, fp  # 3x slack over the 1% design point


def test_merge_equals_bulk_and_is_idempotent():
    a_keys = [str(i) for i in range(0, 3_000)]
    b_keys = [str(i) for i in range(2_000, 6_000)]
    m, k = bloom_params(6_000, 0.01)
    a = BloomFilter(m, k).add(a_keys)
    b = BloomFilter(m, k).add(b_keys)
    merged = a.merge(b)
    bulk = BloomFilter(m, k).add(a_keys + b_keys)
    assert np.array_equal(merged.bits, bulk.bits)
    assert np.array_equal(merged.merge(a).bits, merged.bits)


def test_build_bloom_distributed_equals_local():
    df = pd.DataFrame({"k": np.arange(9_000, dtype=np.int64)})
    got = build_bloom(ray.data.from_pandas(df).repartition(7), "k", expected_n=9_000)
    m, k = bloom_params(9_000, 0.01)
    exp = BloomFilter(m, k).add([str(i) for i in range(9_000)])
    assert (got.m, got.k) == (exp.m, exp.k)
    assert np.array_equal(got.bits, exp.bits)


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        BloomFilter(1000, 3)  # not a power of two
    m, k = bloom_params(100, 0.01)
    with pytest.raises(ValueError):
        BloomFilter(m, k).merge(BloomFilter(m * 2, k))


def test_semi_join_with_bloom_identical_and_pruning():
    rng = np.random.default_rng(23)
    left = pd.DataFrame(
        {
            "key": rng.integers(0, 10_000, 4_000).astype(np.int64),
            "payload": np.arange(4_000, dtype=np.int64),
        }
    )
    right = pd.DataFrame({"key": np.arange(0, 500, dtype=np.int64)})  # 5% match band
    lds = ray.data.from_pandas(left).repartition(5)
    rds = ray.data.from_pandas(right).repartition(2)
    bloom = build_bloom(rds, "key", expected_n=500)
    plain = (
        hash_semi_join(lds, rds, on="key")
        .to_pandas()
        .sort_values("payload")
        .reset_index(drop=True)
    )
    pruned = (
        hash_semi_join(lds, rds, on="key", bloom=bloom)
        .to_pandas()
        .sort_values("payload")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(plain, pruned, check_dtype=False)
    # the pre-filter genuinely prunes: most non-members drop in the scan
    kept = bloom.contains(left["key"].tolist()).mean()
    assert kept < 0.15, kept  # ~5% true + ~1% fp on this distribution


def test_anti_join_complements_semi_and_rejects_bloom():
    rng = np.random.default_rng(31)
    left = pd.DataFrame(
        {
            "key": rng.integers(0, 1_000, 2_000).astype(np.int64),
            "payload": np.arange(2_000, dtype=np.int64),
        }
    )
    right = pd.DataFrame({"key": np.arange(0, 300, dtype=np.int64)})
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(2)
    semi = hash_semi_join(lds, rds, on="key").to_pandas()
    anti = hash_semi_join(lds, rds, on="key", anti=True).to_pandas()
    assert len(semi) + len(anti) == len(left)  # exact partition of left
    assert set(semi["payload"]).isdisjoint(set(anti["payload"]))
    assert (anti["key"] >= 300).all()
    bloom = build_bloom(rds, "key", expected_n=300)
    with pytest.raises(ValueError):
        hash_semi_join(lds, rds, on="key", anti=True, bloom=bloom)
