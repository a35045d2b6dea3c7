"""io.ensure: the one fixture-cache protocol behind every ensure_*
builder (key, staging, publish), and the read-task sizing rule the
cached tables are read back with."""

import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pcsv
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from rayhist import ingest
from rayhist import io as rio
from rayhist.pipelines import DAY_US, T0
from rayhist.sources.arrowipc import ensure_arrow_events, read_arrow_ipc
from rayhist.sources.csvlog import ensure_csv_events, read_csv_log
from rayhist.sources.hivepart import ensure_partitioned_events
from rayhist.sources.jsonl import ensure_jsonl_events, read_jsonl
from rayhist.sources.pbfish import ensure_pbfish, read_pbfish
from rayhist.spatial.knn import ensure_ivf_layout, ensure_lsh_layout
from tests.test_ingest import SF

EVENTS = pq.read_table(f"{SF}/events.parquet")
N_EVENTS = EVENTS.num_rows
N_USERS = pc.count_distinct(EVENTS["user_id"]).as_py()


@pytest.fixture
def cache(monkeypatch, tmp_path):
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_ensure_builds_once_and_publishes_whole(cache):
    """A miss builds in a cleared staging directory and renames it to
    the returned path; a hit returns that path without building."""
    calls = []

    def build(staging):
        calls.append(staging)
        assert os.listdir(staging) == []  # a stale staging dir was cleared
        Path(staging, "t.txt").write_text("x")

    src = cache.parent / "in.txt"
    src.write_text("a")
    out = Path(rio.ensure("t", [src], [1], build))
    stale = rio._staging(out)
    stale.mkdir()
    (stale / "stale.txt").write_text("old")
    assert rio.ensure("t", [src], [1], build) == str(out)  # a hit
    assert len(calls) == 1 and os.listdir(out) == ["t.txt"]

    shutil.rmtree(out)
    assert rio.ensure("t", [src], [1], build) == str(out)
    assert len(calls) == 2 and os.listdir(out) == ["t.txt"]
    assert not stale.exists()
    # other key parts, another table
    assert rio.ensure("t", [src], [2], build) != str(out)
    with pytest.raises(FileNotFoundError):
        rio.ensure("t", [cache.parent / "missing"], [1], build)


def test_ensure_race_loser_drops_its_copy(cache):
    """A process whose rename loses to another's publish removes its
    own staging copy and returns the published table."""
    src = cache.parent / "in.txt"
    src.write_text("a")

    def build(staging):
        Path(staging, "mine.txt").write_text("x")
        # another process publishes while this one builds
        other = cache / Path(staging).parent.name / "t"
        other.mkdir()
        (other / "theirs.txt").write_text("y")

    out = rio.ensure("t", [src], [], build)
    assert os.listdir(out) == ["theirs.txt"]
    assert os.listdir(Path(out).parent) == ["t"]


def _count_docs(path):
    return pds.dataset(path).count_rows()


def _count_hive(path):
    return pds.dataset(path, partitioning="hive").count_rows()


# builder -> (build the table, count the rows its reader sees, exact count)
BUILDERS = {
    "csv": (ensure_csv_events, lambda p: read_csv_log(p).count(), N_EVENTS),
    "jsonl": (ensure_jsonl_events, lambda p: read_jsonl(p).count(), N_EVENTS),
    "arrow": (ensure_arrow_events, lambda p: read_arrow_ipc(p).count(), N_EVENTS),
    "hive": (lambda sf: ensure_partitioned_events(sf, T0, DAY_US), _count_hive, N_EVENTS),
    "ensure_documents": (ingest.ensure_documents, _count_docs, N_USERS),
    "pbfish": (ensure_pbfish, lambda p: read_pbfish(p).count(), N_USERS),
}


@pytest.mark.parametrize("builder", list(BUILDERS))
def test_crashed_build_never_unions(cache, builder):
    """A killed build leaves its staging directory behind; when its pid
    is reused the rebuild must replace those files, not publish them
    with its own. The planted shard is a copy of a real one, so a union
    would read its rows twice."""
    ensure, count, want = BUILDERS[builder]
    out = Path(ensure(SF))
    assert count(str(out)) == want
    shard = next(f for f in sorted(out.rglob("*")) if f.is_file() and f.name[0] not in "._")
    bogus = rio._staging(out) / shard.parent.relative_to(out) / f"bogus-{shard.name}"
    bogus.parent.mkdir(parents=True)
    shutil.copy(shard, bogus)
    shutil.rmtree(out)

    rebuilt = ensure(SF)
    assert rebuilt == str(out)
    assert count(rebuilt) == want
    assert not list(Path(rebuilt).rglob("bogus-*"))
    assert not rio._staging(out).exists()


def _rewrite_in_place(path, table):
    """Rewrite ``path`` with ``table``, then restore its mtime."""
    st = os.stat(path)
    pq.write_table(table, path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == st.st_mtime_ns


def _ids(path, col):
    return pds.dataset(path, partitioning="hive").to_table(columns=[col])[col]


NEW_UID = 100_000  # rewritten events: user ids shifted by this, all 'view'

# builder -> (source file, build it, check that a result is of the
# rewritten source)
REWRITES = {
    "ensure_documents": (
        "events.parquet", lambda p: ingest.ensure_documents(str(p.parent)),
        lambda out: pc.min(_ids(out, "osm_id")).as_py() >= NEW_UID,
    ),
    "ensure_way_documents": (
        "events.parquet", lambda p: ingest.ensure_way_documents(str(p.parent)),
        lambda out: pc.min(_ids(out, "osm_id")).as_py() >= NEW_UID // ingest.WAY_BLOCK,
    ),
    "ensure_multizoom_layout": (
        "events.parquet", lambda p: ingest.ensure_multizoom_layout(str(p.parent)),
        lambda out: pc.min(_ids(out, "osm_id")).as_py() >= NEW_UID,
    ),
    "sig_keytable": (
        "events.parquet", lambda p: ingest.sig_keytable(str(p.parent)),
        lambda sigs: all(s.startswith("etype=view|") for s in sigs),
    ),
    "ivf_layout": (
        "embeddings.parquet", lambda p: ensure_ivf_layout(str(p), nlist=8)[0],
        lambda out: pc.min(_ids(out, "vec_id")).as_py() >= NEW_UID,
    ),
    "lsh_layout": (
        "embeddings.parquet", lambda p: ensure_lsh_layout(str(p), n_bits=3)[0],
        lambda out: pc.min(_ids(out, "vec_id")).as_py() >= NEW_UID,
    ),
}


@pytest.mark.parametrize("builder", list(REWRITES))
def test_in_place_rewrite_rekeys(cache, tmp_path, builder):
    """Every builder is keyed on its source file's identity (size,
    mtime, ctime, inode): a source rewritten in place with its mtime
    restored gets a new table, not the stale one."""
    name, ensure, rewritten = REWRITES[builder]
    path = tmp_path / "sf" / name
    path.parent.mkdir()
    shutil.copy(f"{SF}/{name}", path)
    before = ensure(path)
    assert ensure(path) == before  # cached
    assert not rewritten(before)

    t = pq.read_table(path)
    if name == "events.parquet":
        t = t.set_column(t.schema.get_field_index("user_id"), "user_id",
                         pc.add(t["user_id"], NEW_UID))
        t = t.set_column(t.schema.get_field_index("event_type"), "event_type",
                         pa.array(["view"] * t.num_rows))
    else:
        t = t.set_column(t.schema.get_field_index("vec_id"), "vec_id",
                         pc.add(t["vec_id"], NEW_UID))
    _rewrite_in_place(path, t)

    after = ensure(path)
    assert after != before
    assert rewritten(after)


def _sizes(d, suffix):
    return sum(f.stat().st_size for f in Path(d).iterdir() if f.name.endswith(suffix))


@pytest.mark.parametrize("fmt", ["parquet", "csv", "jsonl"])
def test_reads_follow_one_block_count_rule(monkeypatch, tmp_path, fmt):
    """Parquet, CSV and JSONL reads all ask for max(cluster CPUs,
    bytes / target block size) read tasks (io.auto_num_blocks)."""
    suffix = {"parquet": ".parquet", "csv": ".csv", "jsonl": ".json"}[fmt]
    d = tmp_path / fmt
    d.mkdir()
    t = EVENTS.select(["event_id", "user_id", "event_type"])
    for i in range(3):
        part = t.slice(i * 300, 300)
        if fmt == "parquet":
            pq.write_table(part, d / f"p{i}{suffix}")
        elif fmt == "csv":
            pcsv.write_csv(part, d / f"p{i}{suffix}")
        else:
            part.to_pandas().to_json(d / f"p{i}{suffix}", orient="records", lines=True)
    target = 1024
    monkeypatch.setattr(ray.data.DataContext.get_current(), "target_max_block_size", target)
    asked = []

    class Asked(Exception):
        pass

    def recording(path, **kwargs):
        asked.append(kwargs["override_num_blocks"])
        raise Asked

    reader = {"parquet": "read_parquet", "csv": "read_csv", "jsonl": "read_json"}[fmt]
    monkeypatch.setattr(ray.data, reader, recording)
    read = {"parquet": rio.read_table, "csv": read_csv_log, "jsonl": read_jsonl}[fmt]
    with pytest.raises(Asked):
        read(str(d))
    ncpu = int(ray.cluster_resources()["CPU"])
    want = max(ncpu, -(-_sizes(d, suffix) // target))
    assert want > ncpu  # the byte term decides, not the CPU floor
    assert asked == [want]
