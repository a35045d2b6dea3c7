"""ops/scan.ordered_prefix_sum — the global exclusive scan."""

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pytest
import ray
import ray.data

from rayhist.ops.scan import ordered_prefix_sum


@pytest.mark.parametrize("n_parts", [1, 4, 9])
def test_prefix_sum_matches_numpy(n_parts):
    """Randomized differential: the exclusive global prefix sum in key
    order equals numpy's, at several partition counts (the offsets
    must stitch blocks seamlessly)."""
    rng = np.random.default_rng(11)
    n = 500
    df = pd.DataFrame(
        {
            "k": rng.permutation(n).astype(np.int64),
            "v": rng.integers(0, 1000, n).astype(np.int64),
        }
    )
    out = (
        ordered_prefix_sum(
            ray.data.from_pandas(df).repartition(n_parts),
            order_cols=["k"],
            value_col="v",
            out_col="cum",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.sort_values("k").reset_index(drop=True)
    exclusive = np.concatenate([[0], np.cumsum(want["v"].to_numpy())[:-1]])
    assert out["cum"].to_numpy().tolist() == exclusive.tolist()
    assert out["v"].tolist() == want["v"].tolist()


def test_prefix_sum_empty_and_single_row():
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                          "v": pd.Series([], dtype="int64")})
    out = ordered_prefix_sum(
        ray.data.from_pandas(empty), ["k"], "v", "cum"
    ).to_pandas()
    assert len(out) == 0
    one = pd.DataFrame({"k": [7], "v": [42]})
    out = ordered_prefix_sum(
        ray.data.from_pandas(one), ["k"], "v", "cum"
    ).to_pandas()
    assert out["cum"].tolist() == [0]


def test_prefix_sum_overflow_guard():
    big = (1 << 62) + 1
    df = pd.DataFrame({"k": [1, 2, 3], "v": [big, big, big]})
    with pytest.raises(OverflowError, match="int64"):
        ordered_prefix_sum(ray.data.from_pandas(df), ["k"], "v")


def test_prefix_sum_boundary_monotonicity_guard(monkeypatch):
    """The bin-boundary assert catches a broken global order: stub
    out the range binning (bin = key parity) so out-of-order bins
    reach phase 1, and the real guard must fire."""
    from rayhist.ops import scan

    def parity_bins(col, splitters):
        return lambda t: t.append_column("_bin", pc.bit_wise_and(t[col], 1))

    monkeypatch.setattr(scan, "_bin_stage", parity_bins)
    b1 = pd.DataFrame({"k": [5, 6], "v": [1, 1]})
    b2 = pd.DataFrame({"k": [2, 9], "v": [1, 1]})  # bin 1 starts at 5 < 6
    ds = ray.data.from_pandas([b1, b2])
    with pytest.raises(ValueError, match="total order"):
        ordered_prefix_sum(ds, ["k"], "v")

def test_prefix_sum_signed_deltas():
    """signed=True admits negative deltas (sweep-line counters) and the
    exclusive scan still matches numpy; signed=False keeps rejecting."""
    rng = np.random.default_rng(5)
    n = 400
    df = pd.DataFrame(
        {
            "k": rng.permutation(n).astype(np.int64),
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )
    out = (
        ordered_prefix_sum(
            ray.data.from_pandas(df).repartition(5),
            order_cols=["k"],
            value_col="v",
            out_col="cum",
            signed=True,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = df.sort_values("k").reset_index(drop=True)
    exclusive = np.concatenate([[0], np.cumsum(want["v"].to_numpy())[:-1]])
    assert out["cum"].to_numpy().tolist() == exclusive.tolist()
    with pytest.raises(ValueError, match="non-negative"):
        ordered_prefix_sum(ray.data.from_pandas(df), ["k"], "v")


def test_prefix_sum_signed_underflow_guard():
    big = (1 << 62) + 1
    df = pd.DataFrame({"k": [1, 2, 3], "v": [-big, -big, -big]})
    with pytest.raises(OverflowError, match="int64"):
        ordered_prefix_sum(ray.data.from_pandas(df), ["k"], "v", signed=True)


def test_jsonl_fixture_cold_cache_rebuild(ray_session, monkeypatch, tmp_path):
    """A cold rebuild of the JSONL events fixture (fresh
    RAYHIST_CACHE) reproduces the warm-cache aggregate exactly, and
    the JSONL row count matches the parquet source — the wire-path
    regression guard (same convention as the osmpbf fixture test)."""
    import pandas as pd

    from rayhist.pipelines import q_jsonl_events_by_type
    from rayhist.sources.jsonl import ensure_jsonl_events, read_jsonl

    sf = "/root/testdata/sf0.001"
    warm = q_jsonl_events_by_type(sf)
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cold"))
    cold = q_jsonl_events_by_type(sf)
    pd.testing.assert_frame_equal(warm, cold)
    import duckdb

    n_parquet = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    assert read_jsonl(ensure_jsonl_events(sf)).count() == n_parquet


def test_csv_fixture_cold_cache_rebuild(ray_session, monkeypatch, tmp_path):
    """CSV twin of the JSONL cold-cache guard: fresh-cache rebuild
    reproduces the warm aggregate; row count matches the parquet."""
    import pandas as pd

    from rayhist.pipelines import q_csv_events_daily
    from rayhist.sources.csvlog import ensure_csv_events, read_csv_log

    sf = "/root/testdata/sf0.001"
    warm = q_csv_events_daily(sf)
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cold"))
    cold = q_csv_events_daily(sf)
    pd.testing.assert_frame_equal(warm, cold)
    import duckdb

    n_parquet = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    assert read_csv_log(ensure_csv_events(sf)).count() == n_parquet


def test_arrow_ipc_fixture_cold_cache_rebuild(ray_session, monkeypatch, tmp_path):
    """Arrow-IPC twin of the JSONL cold-cache guard: fresh-cache
    rebuild reproduces the warm aggregate; row count matches the
    parquet; shards are content-addressed .arrow files."""
    import pandas as pd

    from rayhist.pipelines import q_arrow_events_by_type
    from rayhist.sources.arrowipc import ensure_arrow_events, read_arrow_ipc

    sf = "/root/testdata/sf0.001"
    warm = q_arrow_events_by_type(sf)
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cold"))
    cold = q_arrow_events_by_type(sf)
    pd.testing.assert_frame_equal(warm, cold)
    import duckdb

    n_parquet = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    shards = ensure_arrow_events(sf)
    assert read_arrow_ipc(shards).count() == n_parquet
    from pathlib import Path

    names = [f.name for f in Path(shards).iterdir()]
    assert names and all(n.startswith("part-") and n.endswith(".arrow") for n in names)


@pytest.mark.parametrize("module", ["hivepart", "csvlog", "jsonl", "arrowipc"])
def test_source_key_covers_cents_module(tmp_path, monkeypatch, module):
    """Each events-twin cache key fingerprints ops.relational too: the
    build rounds every value through its cents(), so an edit there
    must change the key (cold rebuild) instead of serving bytes rounded
    by the old code."""
    import importlib
    import importlib.util
    import os
    import shutil

    import rayhist.io as rio
    from rayhist.ops import relational

    source = importlib.import_module(f"rayhist.sources.{module}")
    copy = tmp_path / "relational_copy.py"
    shutil.copy(relational.__file__, copy)
    # backdated: the edited-after-import guard must not fire for the copy
    os.utime(copy, (0, 0))
    spec = importlib.util.spec_from_file_location("relational_copy", copy)
    monkeypatch.setattr(source, "relational", importlib.util.module_from_spec(spec))
    rio.code_fingerprint.cache_clear()
    before = source._fp()
    copy.write_text(copy.read_text() + "\n# edited\n")
    os.utime(copy, (0, 0))
    rio.code_fingerprint.cache_clear()
    after = source._fp()
    rio.code_fingerprint.cache_clear()
    assert before != after, f"a cents() edit must re-key the {module} cache"


def test_hivepart_fixture_cold_cache_rebuild(ray_session, monkeypatch, tmp_path):
    """Hive-partition twin of the JSONL cold-cache guard: a fresh
    RAYHIST_CACHE rebuild reproduces the pruned-scan aggregate
    exactly; the pruned read only opens the requested day dirs (a
    missing partition raises loudly); the partition tree covers every
    January day."""
    import pandas as pd
    import pytest

    from rayhist.pipelines import DAY_US, T0, q_partitioned_day_scan
    from rayhist.sources.hivepart import (
        ensure_partitioned_events,
        read_partition_days,
    )

    sf = "/root/testdata/sf0.001"
    warm = q_partitioned_day_scan(sf)
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cold"))
    cold = q_partitioned_day_scan(sf)
    pd.testing.assert_frame_equal(warm, cold)
    root = ensure_partitioned_events(sf, T0, DAY_US)
    from pathlib import Path

    days = sorted(
        int(p.name.split("=")[1]) for p in Path(root).iterdir() if p.is_dir()
    )
    import duckdb

    want_days = [
        int(r[0])
        for r in duckdb.sql(
            f"SELECT DISTINCT (epoch_us(ts) - {T0}) // {DAY_US} AS d "
            f"FROM read_parquet('{sf}/events.parquet') ORDER BY 1"
        ).fetchall()
    ]
    assert days == want_days
    with pytest.raises(FileNotFoundError, match="day_k=99"):
        read_partition_days(root, [99])


def test_hits_empty_graph_raises(ray_session):
    """An empty edge set must fail LOUDLY (non-positive score total),
    not emit garbage — both the local and distributed paths."""
    import pandas as pd
    import pytest
    import ray.data

    from rayhist.ops.hits import hits_bipartite

    empty = ray.data.from_pandas(
        pd.DataFrame({"s": pd.Series(dtype="int64"), "d": pd.Series(dtype="int64")})
    )
    with pytest.raises(ValueError, match="empty graph|non-positive"):
        hits_bipartite(empty, src="s", dst="d", iters=1)


def test_holt_recurrence_property(ray_session):
    """Hypothesis property: the vectorized-across-keys Holt fold
    equals the pure-Python coupled recurrence (truncating halving) for
    arbitrary signed value sequences, at two bucket counts."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from rayhist.ops.scan import grouped_recurrence_holt_int

    def tdiv2(x: int) -> int:
        s = -1 if x < 0 else 1
        return s * (abs(x) // 2)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),  # key
                st.integers(-(10**6), 10**6),  # value
            ),
            min_size=1,
            max_size=60,
        )
    )
    def run(rows):
        df = pd.DataFrame(
            {
                "k": [r[0] for r in rows],
                "v": [r[1] for r in rows],
                "o": range(len(rows)),
            }
        )
        want = {}
        for k, g in df.groupby("k"):
            lvl = trd = None
            for v in g.sort_values("o")["v"]:
                if lvl is None:
                    lvl, trd = int(v), 0
                else:
                    newl = tdiv2(lvl + trd + int(v))
                    trd = tdiv2(trd + (newl - lvl))
                    lvl = newl
            want[int(k)] = (len(g), lvl, trd)
        for nb in (3, 16):
            got = (
                grouped_recurrence_holt_int(
                    ray.data.from_pandas(df).repartition(nb),
                    key_col="k", order_cols=["o"], value_col="v",
                )
                .to_pandas()
            )
            res = {
                int(r["k"]): (int(r["n"]), int(r["level_c"]), int(r["trend_c"]))
                for _, r in got.iterrows()
            }
            assert res == want

    run()
