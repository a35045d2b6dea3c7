"""Resident tables: io.read_resident keeps each cached history table in
the object store, and serves exactly what a disk read would."""

import gc
import os
import shutil
import weakref
from collections import OrderedDict

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from rayhist import io as rio
from rayhist.api import OSMEntitySnapshotView
from rayhist.ingest import (
    ensure_documents,
    ensure_oldstyle_documents,
    ensure_relation_documents,
    ensure_way_documents,
    read_documents,
    read_oldstyle_documents,
    read_relation_documents,
    read_way_documents,
)
from rayhist.model import DECODE_COLUMNS
from tests.test_ingest import SF


@pytest.fixture
def fresh(monkeypatch):
    """An empty resident set, so a test neither sees nor evicts the
    tables other tests keep, and ordered execution, so blocks come back
    in file order and two reads compare row for row."""
    monkeypatch.setattr(rio, "_resident", OrderedDict())
    opts = ray.data.DataContext.get_current().execution_options
    monkeypatch.setattr(opts, "preserve_order", True)


def _rows(ds) -> pa.Table | None:
    """Every row of ``ds`` (blocks or a Dataset) in block order (None
    when there is none)."""
    t = rio.blocks_table(ds)
    return t.combine_chunks() if t.num_rows else None


def _same(a, b) -> bool:
    ta, tb = _rows(a), _rows(b)
    return ta is None and tb is None or (ta is not None and tb is not None and ta.equals(tb))


def _entry(path, columns=None) -> dict:
    cols = None if columns is None else tuple(columns)
    (rec,) = [r for r in rio.resident_tables() if r["path"] == str(path) and r["columns"] == cols]
    return rec


def _nbytes(read, ensure) -> float:
    """In-memory bytes of the resident copy of every column of ``read``'s
    table."""
    read(SF)
    return _entry(ensure(SF))["mb"] * (1 << 20)


@pytest.mark.parametrize(
    "read, ensure, columns",
    [
        (read_documents, ensure_documents, DECODE_COLUMNS),
        (read_documents, ensure_documents, None),
        (read_way_documents, ensure_way_documents, None),
        (read_relation_documents, ensure_relation_documents, None),
        (read_oldstyle_documents, ensure_oldstyle_documents, None),
    ],
    ids=["nodes-decode-columns", "nodes-all", "ways", "relations", "oldstyle"],
)
def test_resident_equals_disk_read(fresh, read, ensure, columns):
    path = ensure(SF)
    first = read(SF, columns=columns)
    again = read(SF, columns=columns)
    assert again is first  # the kept blocks, no new read
    assert first.kept and len(first) == rio.auto_num_blocks(path)
    assert _same(first, rio.read_table(path, columns=columns))
    rec = _entry(path, columns)
    assert (rec["hits"], rec["misses"], rec["resident"]) == (1, 1, True)


def test_in_place_rewrite_reloads(fresh, tmp_path):
    """A shard rewritten in place with its mtime restored still changes
    the file identity (ctime), so the next read returns the new bytes."""
    table = tmp_path / "docs"
    shutil.copytree(ensure_documents(SF), table)
    before = rio.read_resident(table)
    shard = sorted(table.glob("*.parquet"))[0]
    st = os.stat(shard)
    old = pq.read_table(shard)
    new = old.slice(1)  # drop the shard's first document
    pq.write_table(new, shard)
    os.utime(shard, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(shard).st_mtime_ns == st.st_mtime_ns
    after = rio.read_resident(table)
    assert after is not before
    assert rio.num_rows(after) == rio.num_rows(before) - 1
    assert _same(after, rio.read_table(table))
    assert _entry(table)["misses"] == 2  # the stale entry was replaced


def test_plain_input_rewritten_in_place_reloads(fresh, tmp_path):
    """A plain input file rewritten in place at the same size, with its
    mtime restored, keeps its name, size, mtime and inode; its ctime
    moves, so the next read returns the new rows."""
    plain = dict(compression="none", use_dictionary=False, write_statistics=False)
    events = pq.read_table(f"{SF}/events.parquet")
    changed = events.set_column(
        events.schema.get_field_index("value"), "value", pc.add(events["value"], 1.0)
    )
    path, staged = tmp_path / "events.parquet", tmp_path / "staged.parquet"
    pq.write_table(events, path, **plain)
    pq.write_table(changed, staged, **plain)
    cols = ["event_id", "value"]
    before = rio.blocks_table(rio.read_resident(path, columns=cols)).sort_by("event_id")
    assert before.equals(events.select(cols).sort_by("event_id"))
    st = os.stat(path)
    assert os.stat(staged).st_size == st.st_size
    with open(path, "r+b") as fh:
        fh.write(staged.read_bytes())
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    now = os.stat(path)
    assert (now.st_size, now.st_mtime_ns, now.st_ino) == (st.st_size, st.st_mtime_ns, st.st_ino)
    after = rio.blocks_table(rio.read_resident(path, columns=cols)).sort_by("event_id")
    assert after.equals(changed.select(cols).sort_by("event_id"))
    assert not after.equals(before)
    assert _entry(path, cols)["misses"] == 2  # the stale entry was replaced


def test_one_copy_per_table(fresh):
    """Reads of a file under different column lists (a permutation, a
    subset, a new column, a filter) share one resident copy holding the
    union of their columns, and each read returns exactly the columns,
    order and rows a disk read of its own columns would."""
    path = f"{SF}/events.parquet"
    flt = pc.field("value") > 50
    reads = [
        (["event_type", "ts", "value"], None),
        (["ts", "event_type", "value"], None),
        (["user_id", "ts"], None),
        (["ts"], None),
        (["value", "event_id"], flt),
        (["event_type", "ts", "value"], None),
    ]
    for cols, f in reads:
        got = rio.blocks_table(rio.read_resident(path, columns=cols, filter=f))
        want = pq.read_table(path, columns=cols, filters=f)
        assert got.combine_chunks().equals(want.combine_chunks()), cols
    (rec,) = rio.resident_tables()
    assert rec["columns"] == ("event_type", "ts", "value", "user_id", "event_id")
    assert (rec["hits"], rec["misses"]) == (3, 3)  # the three reads that added columns
    again = rio.read_resident(path, columns=["user_id", "ts"])
    assert again.refs is rio.read_resident(path, columns=["ts"]).refs  # views of one copy
    n = pq.ParquetFile(path).metadata.num_rows
    assert rio.num_rows(again) == rio.num_rows(rio.read_resident(path, columns=["ts"])) == n
    filtered = rio.read_resident(path, columns=["value"], filter=flt)
    assert rio.num_rows(filtered) == pq.read_table(path, filters=flt).num_rows


def test_same_size_rewrite_changes_identity(tmp_path):
    f = tmp_path / "shard.parquet"
    f.write_bytes(b"abcd")
    st = os.stat(f)
    ident = rio._stat_identity(tmp_path)
    with open(f, "r+b") as fh:
        fh.write(b"x")
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(f).st_size == st.st_size
    assert rio._stat_identity(tmp_path) != ident


def test_over_budget_table_reads_from_disk(fresh, monkeypatch):
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", 1e-12)
    path = ensure_documents(SF)
    first = read_documents(SF, columns=DECODE_COLUMNS)
    again = read_documents(SF, columns=DECODE_COLUMNS)
    assert again is not first
    assert not again.kept  # read from disk
    assert _same(first, rio.read_table(path, columns=DECODE_COLUMNS))
    assert _same(again, first)
    rec = _entry(path, DECODE_COLUMNS)
    assert (rec["hits"], rec["misses"], rec["resident"]) == (0, 2, False)


def test_lru_evicts_the_older_table(fresh, monkeypatch):
    nodes, ways = ensure_documents(SF), ensure_way_documents(SF)
    a = _nbytes(read_documents, ensure_documents)
    b = _nbytes(read_way_documents, ensure_way_documents)
    rio._resident.clear()
    store = ray.cluster_resources()["object_store_memory"]
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", (max(a, b) + min(a, b) / 2) / store)
    read_documents(SF)
    read_way_documents(SF)
    assert [r["path"] for r in rio.resident_tables()] == [ways]
    read_documents(SF)
    assert [r["path"] for r in rio.resident_tables()] == [nodes]


def test_other_session_is_never_served(fresh, monkeypatch):
    first = read_documents(SF)
    monkeypatch.setattr(rio, "_session", lambda: ("another-node", "another-job"))
    again = read_documents(SF)
    assert again is not first
    assert [r["misses"] for r in rio.resident_tables()] == [1]  # old session purged


@pytest.mark.parametrize(
    "read", [read_documents, read_way_documents, read_relation_documents],
    ids=["nodes", "ways", "relations"],
)
def test_resident_blocks_hold_one_chunk_per_column(fresh, read):
    """Admission compacts each block: a parquet read leaves one chunk
    per shard file in every column, and a block fetch rebuilds each."""
    blocks = ray.get(list(read(SF).refs))
    assert blocks and all(c.num_chunks == 1 for b in blocks for c in b.columns)


def test_node_read_is_chunked_per_shard(fresh):
    """The node table has several shards, so the compaction above is
    not vacuous there."""
    disk = ray.get(rio.read_table(ensure_documents(SF)).materialize().to_arrow_refs())
    assert any(c.num_chunks > 1 for b in disk for c in b.columns)


def test_block_refs_are_taken_once_per_table(fresh, monkeypatch):
    """map_blocks, reduce_by_key and blocks_table take the resident
    table's kept block refs: the blocks of one Dataset are taken once,
    at admission."""
    calls = []
    dataset_blocks = rio._dataset_blocks

    def counting(ds):
        calls.append(ds)
        return dataset_blocks(ds)

    monkeypatch.setattr(rio, "_dataset_blocks", counting)
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    for _ in range(3):
        again = read_documents(SF, columns=DECODE_COLUMNS)
        assert rio.map_blocks(again, lambda b: b.slice(0, 1)).num_rows == len(again)
    flt = pa.compute.field("osm_id") >= 0
    filtered = rio.read_resident(ensure_documents(SF), DECODE_COLUMNS, filter=flt)
    n = rio.blocks_table(docs).num_rows
    assert rio.map_blocks(filtered, lambda b: b.select(["osm_id"])).num_rows == n
    refs = rio.reduce_by_key(docs, ["osm_id"], lambda t: t.select(["osm_id"]))
    assert rio.blocks_table(refs).num_rows == n
    assert len(calls) == 1


def test_kept_refs_die_with_their_entry(fresh, monkeypatch):
    """A table evicted by the LRU, or purged by a session change, takes
    its kept block refs with it."""
    a = _nbytes(read_documents, ensure_documents)
    b = _nbytes(read_way_documents, ensure_way_documents)
    rio._resident.clear()
    store = ray.cluster_resources()["object_store_memory"]
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", (max(a, b) + min(a, b) / 2) / store)
    gc.collect()
    nodes = weakref.ref(read_documents(SF))
    assert nodes().kept
    ways = weakref.ref(read_way_documents(SF))  # evicts the node table
    gc.collect()
    assert nodes() is None and ways().kept
    monkeypatch.setattr(rio, "_session", lambda: ("another-node", "another-job"))
    read_documents(SF)
    gc.collect()
    assert ways() is None


def _block_seen(b: pa.Table) -> pa.Table:
    """The stage's worker pid and block object, and whether that object
    is the worker's kept copy."""
    from rayhist import io as worker_io

    kept = any(b is t for t in worker_io._worker_blocks.values())
    return pa.table({"pid": [os.getpid()], "block": [id(b)], "kept": [kept]})


def test_worker_keeps_resident_blocks(fresh, monkeypatch):
    """Every block task over a resident table hands its stage the
    worker's kept copy of the block, and a later map_blocks in the same
    worker hands it the same object."""
    monkeypatch.setattr(rio, "auto_num_blocks", lambda path: 1)
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    seen: dict[int, set] = {}
    for _ in range(8):
        (row,) = rio.map_blocks(docs, _block_seen).to_pylist()
        assert row["kept"]
        seen.setdefault(row["pid"], set()).add(row["block"])
    assert len(seen) < 8  # some worker ran more than one of the tasks
    assert all(len(blocks) == 1 for blocks in seen.values())


def _held(b: pa.Table) -> pa.Table:
    """The object ids of the blocks the stage's worker keeps."""
    from rayhist import io as worker_io

    return pa.table({"block": pa.array(list(worker_io._worker_blocks), pa.binary())})


def _same_through_tasks(resident, disk) -> bool:
    """map_blocks over ``resident`` (block tasks over the worker-kept
    blocks) gives the rows of ``disk``."""
    got, want = rio.map_blocks(resident, lambda b: b), _rows(disk)
    return got.num_rows == 0 if want is None else got.equals(want)


def test_worker_kept_blocks_never_outlive_their_table(fresh, monkeypatch, tmp_path):
    """After an eviction, an in-place rewrite and under a filter, block
    tasks over the resident table give the disk read's rows: no worker
    serves a block of a table the driver dropped. Each drop starts a
    new generation, whose first task in a worker clears the blocks
    that worker kept."""
    nodes, ways = ensure_documents(SF), ensure_way_documents(SF)
    a = _nbytes(read_documents, ensure_documents)
    b = _nbytes(read_way_documents, ensure_way_documents)
    rio._resident.clear()
    store = ray.cluster_resources()["object_store_memory"]
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", (max(a, b) + min(a, b) / 2) / store)
    for path, read in [(nodes, read_documents), (ways, read_way_documents)] * 2:
        generation = rio._generation
        assert _same_through_tasks(read(SF), rio.read_table(path))
        assert [r["path"] for r in rio.resident_tables()] == [path]
        assert _same_through_tasks(read(SF), rio.read_table(path))
    assert rio._generation > generation  # the last read evicted a table
    docs = read_way_documents(SF)
    held = rio.map_blocks(docs, _held)["block"].to_pylist()
    assert set(held) <= {ref.binary() for ref in docs.refs}

    table = tmp_path / "docs"
    shutil.copytree(nodes, table)
    assert _same_through_tasks(rio.read_resident(table), rio.read_table(table))
    shard = sorted(table.glob("*.parquet"))[0]
    pq.write_table(pq.read_table(shard).slice(1), shard)
    generation = rio._generation
    assert _same_through_tasks(rio.read_resident(table), rio.read_table(table))
    assert rio._generation > generation  # the stale entry was dropped
    ids = pq.read_table(table, columns=["osm_id"])["osm_id"]
    flt = pa.compute.field("osm_id") < pa.compute.approximate_median(ids).as_py()
    assert _same_through_tasks(
        rio.read_resident(table, filter=flt), rio.read_table(table, filter=flt)
    )


# every sf0.001 history spans nearly the whole world: an edge strip
# keeps the few documents that reach it
BBOX = (1_790_000_000, 0, 1_800_000_000, 10_000_000)


@pytest.mark.parametrize(
    "chain",
    [
        lambda v: v.areaOfInterest(bbox=BBOX),
        lambda v: v.osmType("node"),
        lambda v: v.osmType("way"),
        lambda v: v.areaOfInterest(bbox=BBOX).osmType("node"),
    ],
    ids=["bbox", "node", "way", "bbox-node"],
)
@pytest.mark.parametrize("spans", [False, True], ids=["decode-columns", "all"])
def test_facade_filter_equals_parquet_filter(fresh, chain, spans):
    """The AOI/type pre-filter over the resident table keeps the rows a
    parquet filter= read keeps, in its order: as a Table.filter stage,
    and inside io.map_blocks' block tasks. The facade reads
    DECODE_COLUMNS; a read of every column takes the same filter."""
    mr = chain(OSMEntitySnapshotView.on(SF))
    flt = mr._aoi_prefilter()
    cols = None if spans else DECODE_COLUMNS
    disk = rio.read_table(ensure_documents(SF), columns=cols, filter=flt)
    resident = rio.read_resident(ensure_documents(SF), columns=cols, filter=flt)
    if not spans:
        assert _same(mr._docs(), disk)
    assert _same(resident, disk)
    tasks = rio.map_blocks(resident, lambda b: b)
    rows = _rows(disk)
    assert tasks.num_rows == 0 if rows is None else tasks.equals(rows)


def test_bbox_filter_drops_documents(fresh):
    mr = OSMEntitySnapshotView.on(SF).areaOfInterest(bbox=BBOX)
    kept = rio.num_rows(mr._docs())
    assert 0 < kept < rio.num_rows(read_documents(SF, columns=DECODE_COLUMNS))


def test_concurrent_first_reads_load_once(fresh):
    """Threads racing on a cold table share one load: one miss, and
    every caller gets the same resident dataset."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futs = [pool.submit(read_documents, SF) for _ in range(16)]
            got = [f.result(timeout=120) for f in futs]
    finally:
        sys.setswitchinterval(interval)
    assert all(ds is got[0] for ds in got)
    assert [(r["hits"], r["misses"]) for r in rio.resident_tables()] == [(15, 1)]
