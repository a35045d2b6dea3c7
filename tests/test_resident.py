"""Resident tables: io.read_resident keeps each cached history table in
the object store, and serves exactly what a disk read would."""

import gc
import os
import shutil
import weakref
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
from ray.data.dataset import MaterializedDataset

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
    """Every row of ``ds`` in block order (None when there is none)."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables).combine_chunks() if tables else None


def _same(a, b) -> bool:
    ta, tb = _rows(a), _rows(b)
    return ta is None and tb is None or (ta is not None and tb is not None and ta.equals(tb))


def _entry(path, columns=None) -> dict:
    cols = None if columns is None else tuple(columns)
    (rec,) = [r for r in rio.resident_tables() if r["path"] == str(path) and r["columns"] == cols]
    return rec


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
    assert again is first  # the kept MaterializedDataset, no new read
    assert first.num_blocks() == rio.auto_num_blocks(path)
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
    assert after.count() == before.count() - 1
    assert _same(after, rio.read_table(table))
    assert _entry(table)["misses"] == 2  # the stale entry was replaced


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
    assert not isinstance(again, MaterializedDataset)  # a lazy disk read
    assert _same(first, rio.read_table(path, columns=DECODE_COLUMNS))
    assert _same(again, first)
    rec = _entry(path, DECODE_COLUMNS)
    assert (rec["hits"], rec["misses"], rec["resident"]) == (0, 2, False)


def test_lru_evicts_the_older_table(fresh, monkeypatch):
    nodes, ways = ensure_documents(SF), ensure_way_documents(SF)
    a = read_documents(SF).size_bytes()
    b = read_way_documents(SF).size_bytes()
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
    blocks = ray.get(read(SF).to_arrow_refs())
    assert blocks and all(c.num_chunks == 1 for b in blocks for c in b.columns)


def test_node_read_is_chunked_per_shard(fresh):
    """The node table has several shards, so the compaction above is
    not vacuous there."""
    disk = ray.get(rio.read_table(ensure_documents(SF)).materialize().to_arrow_refs())
    assert any(c.num_chunks > 1 for b in disk for c in b.columns)


def test_block_refs_are_taken_once_per_table(fresh, monkeypatch):
    """map_blocks, reduce_by_key and blocks_table take the resident
    table's kept block refs: one to_arrow_refs() call, at admission."""
    calls = []
    to_refs = ray.data.Dataset.to_arrow_refs

    def counting(self):
        calls.append(self)
        return to_refs(self)

    monkeypatch.setattr(ray.data.Dataset, "to_arrow_refs", counting)
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    for _ in range(3):
        again = read_documents(SF, columns=DECODE_COLUMNS)
        assert rio.map_blocks(again, lambda b: b.slice(0, 1)).num_rows == again.num_blocks()
    flt = pa.compute.field("osm_id") >= 0
    filtered = rio.read_resident(ensure_documents(SF), DECODE_COLUMNS, filter=flt)
    n = rio.blocks_table(docs).num_rows
    assert rio.map_blocks(filtered, lambda b: b.select(["osm_id"])).num_rows == n
    refs = rio.reduce_by_key(docs, ["osm_id"], lambda t: t.select(["osm_id"]))
    assert rio.blocks_table(refs).num_rows == n
    assert sum(ds is docs for ds in calls) == 1


def test_kept_refs_die_with_their_entry(fresh, monkeypatch):
    """A table evicted by the LRU, or purged by a session change, takes
    its kept block refs with it."""
    a = read_documents(SF).size_bytes()
    b = read_way_documents(SF).size_bytes()
    rio._resident.clear()
    store = ray.cluster_resources()["object_store_memory"]
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", (max(a, b) + min(a, b) / 2) / store)
    gc.collect()
    nodes = weakref.ref(read_documents(SF))
    assert nodes() in rio._kept
    ways = weakref.ref(read_way_documents(SF))  # evicts the node table
    gc.collect()
    assert nodes() is None and ways() in rio._kept
    monkeypatch.setattr(rio, "_session", lambda: ("another-node", "another-job"))
    read_documents(SF)
    gc.collect()
    assert ways() is None


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
    and inside io.map_blocks' block tasks."""
    mr = chain(OSMEntitySnapshotView.on(SF))
    flt = mr._aoi_prefilter()
    disk = rio.read_table(
        ensure_documents(SF), columns=None if spans else DECODE_COLUMNS, filter=flt
    )
    assert _same(mr._docs(spans=spans), disk)
    tasks = rio.map_blocks(mr._docs(spans=spans), lambda b: b)
    rows = _rows(disk)
    assert tasks.num_rows == 0 if rows is None else tasks.equals(rows)


def test_bbox_filter_drops_documents(fresh):
    mr = OSMEntitySnapshotView.on(SF).areaOfInterest(bbox=BBOX)
    kept = mr._docs().count()
    assert 0 < kept < read_documents(SF, columns=DECODE_COLUMNS).count()


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
