"""Checkpointed sharded execution: resume skips completed partitions,
outputs identical; salted aggregation equals unsalted."""

import json
import shutil
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rayhist.state.checkpoint import run_sharded, salted_count_by


@pytest.fixture
def shard_inputs(tmp_path):
    ins = {}
    for i in range(4):
        p = tmp_path / f"in_{i}.parquet"
        pq.write_table(pa.table({"x": list(range(i * 10, i * 10 + 10))}), p)
        ins[f"part_{i}"] = [str(p)]
    return ins


def _process(paths):
    import ray.data

    ds = ray.data.read_parquet(paths)
    return ds.map_batches(
        lambda b: b.append_column("y", pc.multiply(b["x"], 2)), batch_format="pyarrow"
    )


def _read_all(out_dir):
    parts = sorted(Path(out_dir).glob("part_*/**/*.parquet"))
    return pa.concat_tables([pq.read_table(p) for p in parts]).sort_by("x")


def test_run_resume_and_identical_output(shard_inputs, tmp_path):
    out = tmp_path / "out"
    manifest1 = run_sharded(shard_inputs, _process, str(out))
    assert set(manifest1) == set(shard_inputs)
    full1 = _read_all(out)

    # simulate a failed run: delete two partitions' outputs and their
    # manifest lines are kept stale-free by the output-exists check
    shutil.rmtree(out / "part_1")
    shutil.rmtree(out / "part_3")
    manifest2 = run_sharded(shard_inputs, _process, str(out))
    full2 = _read_all(out)
    assert full1.equals(full2)
    # the redone partitions have fresh manifest lines; checksums match
    lines = [json.loads(ln) for ln in (out / "manifest.jsonl").read_text().splitlines()]
    by_part = {}
    for rec in lines:
        by_part.setdefault(rec["partition"], []).append(rec)
    assert len(by_part["part_1"]) == 2  # original + redo
    assert by_part["part_1"][0]["checksum"] == by_part["part_1"][1]["checksum"]
    assert len(by_part["part_0"]) == 1  # untouched partition not redone
    assert manifest2["part_0"]["wall_s"] == manifest1["part_0"]["wall_s"]


def test_resume_invalidates_changed_lineage(shard_inputs, tmp_path):
    """A shard whose INPUTS changed under the same partition id is
    redone, not skipped — resume keys on lineage fingerprints. (This
    bit: a cache-layout change reshuffled which files each shard id
    covered and a stale checkpoint silently double-counted.)"""
    out = tmp_path / "out_lineage"
    run_sharded(shard_inputs, _process, str(out))
    stale = _read_all(out)

    # same partition ids, different input files (rewrite part_1's input
    # with different content)
    p1 = Path(shard_inputs["part_1"][0])
    pq.write_table(pa.table({"x": [1000, 1001]}), p1)
    manifest = run_sharded(shard_inputs, _process, str(out))
    fresh = _read_all(out)
    assert not stale.equals(fresh)
    assert 2000 in fresh["y"].to_pylist()  # recomputed from new input
    assert manifest["part_1"]["rows_out"] == 2
    # untouched shards were skipped (single manifest line each)
    lines = [json.loads(ln) for ln in (out / "manifest.jsonl").read_text().splitlines()]
    n_by_part = {}
    for rec in lines:
        n_by_part[rec["partition"]] = n_by_part.get(rec["partition"], 0) + 1
    assert n_by_part["part_0"] == 1 and n_by_part["part_1"] == 2


def test_resume_redoes_an_input_rewritten_with_its_stat_restored(shard_inputs, tmp_path):
    """Lineage is the input's stat identity: an input rewritten in
    place with the same size and its mtime restored is redone, not
    skipped (a (path, size, mtime) key would serve the stale shard)."""
    import os

    out = tmp_path / "out_inplace"
    run_sharded(shard_inputs, _process, str(out))
    p1 = Path(shard_inputs["part_1"][0])
    st = p1.stat()
    pq.write_table(pa.table({"x": list(range(1010, 1020))}), p1)
    os.utime(p1, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (p1.stat().st_size, p1.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    manifest = run_sharded(shard_inputs, _process, str(out))
    assert 2020 in _read_all(out)["y"].to_pylist()
    assert manifest["part_1"]["rows_out"] == 10


def test_resume_serves_a_completed_shard_whose_input_vanished(shard_inputs, tmp_path):
    """An input removed after its shard completed (cache GC) leaves the
    output and manifest as the only record: resume serves them rather
    than dropping the output and failing on the missing file."""
    out = tmp_path / "out_vanished"
    manifest1 = run_sharded(shard_inputs, _process, str(out))
    before = _read_all(out)
    Path(shard_inputs["part_2"][0]).unlink()
    manifest2 = run_sharded(shard_inputs, _process, str(out))
    assert manifest2["part_2"] == manifest1["part_2"]
    assert (out / "part_2").exists()
    assert _read_all(out).equals(before)


def test_manifest_lineage_and_metrics(shard_inputs, tmp_path):
    out = tmp_path / "out2"
    manifest = run_sharded(shard_inputs, _process, str(out))
    rec = manifest["part_0"]
    assert rec["rows_out"] == 10
    assert rec["engine"].startswith("rayhist")
    assert list(rec["lineage"]) == shard_inputs["part_0"]
    assert rec["wall_s"] >= 0


def test_salted_count_matches_unsalted():
    import numpy as np
    import ray.data

    rng = np.random.default_rng(2)
    # skewed key distribution: one mega-key
    keys = np.where(rng.random(20_000) < 0.6, 7, rng.integers(0, 50, 20_000))
    ds = ray.data.from_arrow(pa.table({"cell": keys.astype(np.int64), "osm_id": np.arange(20_000)}))
    salted = (
        salted_count_by(ds, ["cell"], salt_col="osm_id", n_salt=8)
        .to_pandas()
        .sort_values("cell")
        .reset_index(drop=True)
    )
    plain = (
        ds.groupby("cell").count().to_pandas()
        .rename(columns={"count()": "n"})
        .sort_values("cell")
        .reset_index(drop=True)
    )
    assert salted.equals(plain)


def test_parallelism_invariance():
    """The same query over different block layouts / batch sizes gives
    identical results — the Ray analog of the reference's backend-
    equivalence suite (TestMapReduceOSHDB_*.java)."""
    import numpy as np

    from tests.fixtures import scenario_corpus, versions_to_documents
    from rayhist.model import decode_spans
    from rayhist.temporal import snapshots
    from rayhist import io as rio
    from rayhist.views import snapshot_counts_stage
    import ray.data

    docs_tbl, _kt = versions_to_documents(scenario_corpus()[0])
    T = [1199145600000000 + i * 31536000000000 for i in range(8)]
    results = []
    for nblocks in (1, 3, 9):
        ds = ray.data.from_arrow(docs_tbl).repartition(nblocks)
        stage, _keys = snapshot_counts_stage(T)
        df = rio.map_blocks(ds, stage).to_pandas().groupby("ts_q", as_index=False)["n_part"].sum()
        results.append(df.sort_values("ts_q").reset_index(drop=True))
    assert results[0].equals(results[1])
    assert results[0].equals(results[2])


def test_sharded_snapshot_job_resume(tmp_path):
    """Integration: the snapshot-count job run shard-by-shard over the
    real span-table fragments with per-partition checkpoints; a
    killed-and-resumed run redoes only missing partitions and the
    combined result equals the single-pass pipeline."""
    import numpy as np
    import ray.data

    from rayhist.ingest import ensure_documents
    from rayhist.model import decode_spans
    from rayhist.pipelines import SNAP_WEEKLY
    from rayhist.state.checkpoint import run_sharded
    from rayhist.temporal import snapshots
    from rayhist import io as rio
    from rayhist.views import snapshot_counts_stage

    path = ensure_documents("/root/testdata/sf0.001")
    frags = sorted(str(p) for p in Path(path).glob("*.parquet"))
    shards = {f"shard_{i:02d}": [f] for i, f in enumerate(frags[:6])}
    T = np.asarray(SNAP_WEEKLY, dtype=np.int64)

    def process(paths):
        ds = ray.data.read_parquet(paths)

        def stage(batch: pa.Table) -> pa.Table:
            s = snapshots(decode_spans(batch), T)
            g = pa.TableGroupBy(s.select(["ts_q"]), "ts_q").aggregate([([], "count_all")])
            return g.rename_columns(["ts_q", "n_part"])

        return ds.map_batches(stage, batch_format="pyarrow")

    out = tmp_path / "job"
    run_sharded(shards, process, str(out))
    # simulate failure + resume
    shutil.rmtree(out / "shard_03")
    manifest = run_sharded(shards, process, str(out))
    assert set(manifest) == set(shards)

    # combined shard outputs == single-pass pipeline over the same frags
    import pyarrow.parquet as pq

    parts = [pq.read_table(f) for f in (out).glob("shard_*/**/*.parquet")]
    combined = (
        pa.concat_tables(parts).to_pandas().groupby("ts_q", as_index=False)["n_part"].sum()
    )
    docs = ray.data.read_parquet(frags[:6])
    stage, _keys = snapshot_counts_stage(SNAP_WEEKLY)
    single = rio.map_blocks(docs, stage).to_pandas().groupby("ts_q", as_index=False)["n_part"].sum()
    assert combined.sort_values("ts_q").reset_index(drop=True).equals(
        single.sort_values("ts_q").reset_index(drop=True)
    )


def test_latest_state_write_terminated_matches_oracle():
    """The write-terminated big-result path (sharded parquet + manifest,
    no driver collect) must produce exactly the rows of the
    driver-collected twin, and a second run must skip every shard
    (resume from checkpoint)."""
    import glob
    import shutil

    import pandas.testing as pdt
    import pyarrow.parquet as pq

    from rayhist import pipelines as p

    sf = "/root/testdata/sf0.001"
    out = "/tmp/rayhist_test_latest_state_write"
    shutil.rmtree(out, ignore_errors=True)
    manifest = p.snapshot_latest_state_write(sf, out)
    assert manifest and all("checksum" in r for r in manifest.values())
    written = pd.concat(
        [
            pq.read_table(f).to_pandas()
            for pid in manifest
            for f in sorted(glob.glob(f"{out}/{pid}/*.parquet"))
        ],
        ignore_index=True,
    ).sort_values("osm_id").reset_index(drop=True)
    direct = p.q_snapshot_latest_state(sf)
    pdt.assert_frame_equal(written[direct.columns.tolist()], direct)
    # resume: second run re-serves every shard from the manifest
    again = p.snapshot_latest_state_write(sf, out)
    assert {k: r["checksum"] for k, r in again.items()} == {
        k: r["checksum"] for k, r in manifest.items()
    }
    shutil.rmtree(out, ignore_errors=True)


def test_shards_are_filters_of_the_resident_table(tmp_path):
    """Each shard's rows are a filter of the one resident document
    table (checkpoint.shard_rows): the rows of the shard's own files,
    no other. The write path keeps no other table resident, and its
    read-back equals the driver-collected twin."""
    import glob

    from rayhist import io as rio
    from rayhist import pipelines as p
    from rayhist.ingest import ensure_documents
    from rayhist.state.checkpoint import read_outputs, shard_rows

    sf = "/root/testdata/sf0.001"
    path = ensure_documents(sf)
    files = sorted(glob.glob(f"{path}/*.parquet"))
    seen = []
    for shard in (files[i::4] for i in range(4)):
        got = rio.blocks_table(rio.read_resident(path, filter=shard_rows(shard)))
        want = pa.concat_tables([pq.read_table(f) for f in shard])
        assert got.sort_by("doc_id").equals(want.sort_by("doc_id").combine_chunks())
        seen += got["doc_id"].to_pylist()
    assert sorted(seen) == sorted(pq.read_table(path, columns=["doc_id"])["doc_id"].to_pylist())
    before = {r["path"] for r in rio.resident_tables()}
    manifest = p.snapshot_latest_state_write(sf, str(tmp_path / "out"))
    assert {r["path"] for r in rio.resident_tables()} == before
    written = read_outputs(manifest, str(tmp_path / "out")).to_pandas()
    direct = p.q_snapshot_latest_state(sf)
    written = written.sort_values("osm_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(written[direct.columns.tolist()], direct)


def test_run_sharded_survives_stale_tmp_and_torn_manifest(tmp_path):
    """(a) A leftover tmp dir from a killed same-pid attempt must not
    merge its partial files into the new output; (b) a torn trailing
    manifest line (SIGKILL mid-append) must not prevent resuming."""
    import os

    import ray.data

    from rayhist.state.checkpoint import run_sharded

    src = tmp_path / "in.parquet"
    pa.parquet.write_table(pa.table({"x": list(range(10))}), src)
    out = tmp_path / "out"
    out.mkdir()
    # (a) plant a stale tmp dir with junk for this very pid
    stale = out / f".tmp_s0_{os.getpid()}"
    stale.mkdir(parents=True)
    pa.parquet.write_table(pa.table({"x": [999, 998]}), stale / "junk.parquet")

    def process(paths):
        return ray.data.read_parquet(paths)

    rec = run_sharded({"s0": [str(src)]}, process, str(out))
    assert rec["s0"]["rows_out"] == 10  # junk rows NOT merged in

    # (b) torn manifest line: resume still serves the completed shard
    with open(out / "manifest.jsonl", "a") as f:
        f.write('{"partition": "s1", "lineage"')  # truncated
    rec2 = run_sharded({"s0": [str(src)]}, process, str(out))
    assert rec2["s0"]["rows_out"] == 10


def test_run_sharded_nested_column_checksum(tmp_path):
    """A checkpointed pipeline keeping a nested (list) column must not
    crash the checksum after the distributed work completed."""
    import ray.data

    from rayhist.state.checkpoint import run_sharded

    src = tmp_path / "in.parquet"
    pa.parquet.write_table(pa.table({"x": [1, 2]}), src)

    def process(paths):
        def add_list(b: pa.Table) -> pa.Table:
            return b.append_column(
                "tags",
                pa.array([[i, i + 1] for i in range(len(b))], type=pa.list_(pa.int64())),
            )

        return ray.data.read_parquet(paths).map_batches(add_list, batch_format="pyarrow")

    rec = run_sharded({"s0": [str(src)]}, process, str(tmp_path / "out"))
    assert rec["s0"]["rows_out"] == 2 and len(rec["s0"]["checksum"]) == 16
