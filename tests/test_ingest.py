"""Ingest pipeline: events -> span documents, determinism + invariants."""

from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from rayhist import io as rio
from rayhist.ingest import build_documents, ensure_documents, read_documents, sig_keytable
from rayhist.model import DECODE_COLUMNS, DOCUMENTS_SCHEMA, decode_spans, tag_lookup
from tests.reference_decode import decode_text

SF = "/root/testdata/sf0.001"


def test_build_documents_schema_and_counts():
    docs = build_documents(SF).materialize()
    tbl = pa.Table.from_pandas(docs.to_pandas(), schema=DOCUMENTS_SCHEMA)
    con = duckdb.connect()
    n_users, n_events = con.sql(
        f"select count(distinct user_id), count(*) from '{SF}/events.parquet'"
    ).fetchone()
    assert tbl.num_rows == n_users
    assert int(pa.compute.sum(tbl["n_versions"]).as_py()) == n_events


def test_decode_matches_sql_derivation():
    """The decoded flat version table must equal the SQL derivation the
    DuckDB oracles use — this is the contract that makes the
    correctness gate meaningful."""
    path = ensure_documents(SF)
    docs = rio.dataset(read_documents(SF, columns=DECODE_COLUMNS))
    lookup = tag_lookup(sig_keytable(SF))
    flat = pa.concat_tables(
        [
            decode_spans(b, lookup)
            for b in docs.iter_batches(batch_size=10_000, batch_format="pyarrow")
        ]
    )
    got = (
        flat.to_pandas()
        .sort_values(["osm_id", "v"])
        .reset_index(drop=True)[
            ["osm_id", "v", "ts", "cs", "uid", "visible", "lon_e7", "lat_e7", "etype", "kk"]
        ]
    )
    con = duckdb.connect()
    want = con.sql(
        f"""
        WITH v AS (
          SELECT user_id AS osm_id,
                 row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS v,
                 epoch_us(ts) AS ts,
                 event_type <> 'error' AS visible,
                 event_type AS etype,
                 CAST(json_extract_string(props, '$.k') AS BIGINT) AS kk,
                 CAST(round(value*100) AS BIGINT) % 37 AS uid
          FROM '{SF}/events.parquet'
        )
        SELECT osm_id, v, ts, cs, uid, visible,
               CASE WHEN visible THEN lon_e7 ELSE 0 END AS lon_e7,
               CASE WHEN visible THEN lat_e7 ELSE 0 END AS lat_e7,
               etype, kk
        FROM (
          SELECT *, osm_id*1000000 + (v-1)//3 AS cs,
             (osm_id*982451653 + ((v+1)//2)*373587883 + kk*15485863) % 3600000000 - 1800000000 AS lon_e7,
             (osm_id*472882027 + ((v+1)//2)*198491317 + kk*32452843) % 1800000000 - 900000000 AS lat_e7
          FROM v
        )
        ORDER BY osm_id, v
        """
    ).df()
    assert len(got) == len(want)
    for col in got.columns:
        assert np.array_equal(got[col].to_numpy(), want[col].to_numpy()), col
    assert path == ensure_documents(SF)  # cache hit, deterministic


def test_span_stream_invariant():
    """Per-row invariant: spans are a valid interleaved stream —
    offsets are 0..n-1, each version span followed by its tag spans and
    (iff visible) one geom span, versions oldest->newest."""
    docs = rio.blocks_table(read_documents(SF)).slice(0, 20).to_pylist()
    for d in docs:
        spans = d["spans"]
        assert [s["offset"] for s in spans] == list(range(len(spans)))
        last_ts = -1
        i = 0
        while i < len(spans):
            s = spans[i]
            assert s["kind"] == "version", (d["doc_id"], i)
            vis = s["text"].endswith("vis=1")
            ts = int(s["text"].split(";")[1].split("=")[1])
            assert ts > last_ts
            last_ts = ts
            i += 1
            tags = 0
            while i < len(spans) and spans[i]["kind"] == "tag":
                tags += 1
                i += 1
            assert tags == 2
            if vis:
                assert spans[i]["kind"] == "geom" and spans[i]["media_ref"].startswith("geom:")
                i += 1


def test_document_shard_is_one_row_group_and_one_stage_call():
    """Each cached shard file is ONE row group, so a map_batches stage
    over the disk read runs once per shard — not once per pack bucket
    of the ingest groupby (one per document at this scale). Over the
    resident table it runs once per resident block, and there are as
    many blocks as read_table picks read tasks."""
    path = ensure_documents(SF)
    files = sorted(Path(path).glob("*.parquet"))
    metas = [pq.ParquetFile(f).metadata for f in files]
    assert len(files) >= 8
    assert [m.num_row_groups for m in metas] == [1] * len(files)

    def per_call(ds):
        return ds.map_batches(
            lambda b: pa.table({"rows": [b.num_rows]}), batch_format="pyarrow"
        ).to_pandas()

    calls = per_call(rio.read_table(path))
    assert len(calls) == len(files)
    assert int(calls["rows"].sum()) == sum(m.num_rows for m in metas)
    resident = read_documents(SF)
    calls = per_call(rio.dataset(resident))
    assert len(calls) == len(resident) == rio.auto_num_blocks(path)
    assert int(calls["rows"].sum()) == sum(m.num_rows for m in metas)


def test_int_keytable_matches_string_path():
    """Int-keytable tag storage (osm/OSMEntity.java:29,97-152): the
    per-version tag_ids must be bijective with the tag signatures of
    the span text, and every TagFilter variant must give an identical
    mask through the sig-LUT gather as over the span text's
    signatures."""
    from rayhist.temporal import TagFilter

    kt = sig_keytable(SF)
    assert len(kt) == len(set(kt))  # ids are a bijection
    docs = pq.read_table(ensure_documents(SF))
    flat_str = decode_text(docs)
    flat_ids = decode_spans(docs, geom=False)
    # same row order (same batches), ids decode back to the signature
    tid = flat_ids["tag_id"].to_numpy(zero_copy_only=False)
    sig = flat_str["tag_sig"].to_numpy(zero_copy_only=False)
    assert (tid >= 0).all()
    kt_arr = np.asarray(kt, dtype=object)
    assert np.array_equal(kt_arr[tid], sig)

    for f in (
        TagFilter("etype", "click"),
        TagFilter("etype", values=("click", "view")),
        TagFilter("k", value_regex="1|3"),
        TagFilter("k", exclude_values=("0", "2", "5")),
        TagFilter("etype", exclude=True),
        TagFilter("nosuchkey"),
    ):
        lut = f.sig_lut(kt)
        got = lut[tid]  # -1 wraps to the trailing empty-sig slot
        want = f._match_sigs(flat_str["tag_sig"])
        assert np.array_equal(got, want), f


def test_auto_num_blocks_policy(tmp_path):
    """Read-task sizing (the mechanism behind the headline 3-5x and a
    CLAUDE.md hard rule): one task per target-size chunk, floored at
    the cluster CPU count — never Ray's 200-block minimum."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from rayhist.io import _local_file_stats, auto_num_blocks

    d = tmp_path / "tbl"
    d.mkdir()
    for i in range(6):
        pq.write_table(pa.table({"x": np.arange(1000)}), d / f"f{i}.parquet")
    n_files, total = _local_file_stats(str(d), ".parquet")
    assert n_files == 6 and total > 0
    blocks = auto_num_blocks(str(d))
    ncpu = int(ray.cluster_resources().get("CPU", 0))
    # tiny table: the CPU floor wins; and never the 200-block heuristic
    assert blocks == max(ncpu, 1) and blocks < 200
    # remote/missing paths defer to Ray's heuristic
    assert auto_num_blocks("s3://nope/x") is None
    assert auto_num_blocks(str(tmp_path / "missing")) is None


def test_is_lance_path_shapes():
    from pathlib import Path

    from rayhist.io import _is_lance

    assert _is_lance("t.lance") and _is_lance(Path("t.lance"))
    assert _is_lance(["a.lance", "b.lance"])
    assert not _is_lance("t.parquet")
    assert not _is_lance(["a.lance", "b.parquet"])  # mixed: parquet path
    assert not _is_lance([])


def test_write_table_row_group_size_is_parquet_only(monkeypatch):
    """row_group_size reaches write_parquet only; the Lance branch gets
    the caller's other kwargs and never the parquet-only one."""
    import rayhist.io as rio

    calls = {}

    class FakeDataset:
        def write_lance(self, path, **kwargs):
            calls["lance"] = kwargs

        def write_parquet(self, path, **kwargs):
            calls["parquet"] = kwargs

    monkeypatch.setattr(rio, "HAVE_LANCE", True)
    rio.write_table(FakeDataset(), "t.lance", row_group_size=128, mode="create")
    rio.write_table(FakeDataset(), "t_dir", row_group_size=128)
    assert calls == {"lance": {"mode": "create"}, "parquet": {"row_group_size": 128}}


def test_code_fingerprint_rejects_post_import_edit(tmp_path, monkeypatch):
    """A source file younger than the process's rayhist import must
    raise instead of keying old-code output under a new fingerprint
    (the stale-serve direction the mechanism exists to kill)."""
    import types

    import pytest

    import rayhist.io as rio

    mod_file = tmp_path / "fake_mod.py"
    mod_file.write_text("X = 1\n")
    mod = types.ModuleType("fake_mod")
    mod.__file__ = str(mod_file)
    # the file is NEWER than the recorded import time -> loud error
    monkeypatch.setattr(rio, "_IMPORT_TIME_NS", 0)
    rio.code_fingerprint.cache_clear()
    with pytest.raises(RuntimeError, match="modified after"):
        rio.code_fingerprint(mod)
    rio.code_fingerprint.cache_clear()
