"""Block tasks: io.map_blocks runs a driver-combined stage as one Ray
task per resident block, and must give what the Ray Data path gives.

The reference runs one test suite against every backend; here the two
backends are the block tasks over a resident table and the same tasks
over a table over the resident budget, read from disk and materialized
once per query."""

import functools
import pickle
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from ray.data._internal.execution.operators.actor_pool_map_operator import ActorPoolMapOperator

from perfbench.workloads import WORKLOADS
from rayhist import aggregate
from rayhist import io as rio
from rayhist import pipelines
from rayhist.aggregate import combine_partials
from rayhist.api import OSMContributionView, OSMEntitySnapshotView
from rayhist.functions.deadline import Deadline, RayhistTimeoutError
from rayhist.ingest import ensure_documents, read_documents, sig_keytable
from rayhist.model import DECODE_COLUMNS
from rayhist.ops.multimodal import decode_media, resize_media, sample_frames, synth_media_table
from rayhist.pipelines import CONTRIB_BINS, CONTRIB_FROM, CONTRIB_TO, SNAP_DAILY, SNAP_WEEKLY
from rayhist.spatial.grid import cell_id
from rayhist.spatial.knn import ensure_ivf_layout, ensure_lsh_layout
from rayhist.temporal import TagFilter
from rayhist.views import (
    KeyedPartials, contribution_stage, contribution_stats_stage, snapshot_counts_stage,
    snapshot_stage,
)
from tests.test_ingest import SF

WORKLOAD_QUERIES = sorted({q for w in WORKLOADS.values() for q in w.queries})

# (stage, combine keys, sums) for every view; None keys: raw view rows
VIEWS = {
    "snapshot_counts": lambda: (*snapshot_counts_stage(SNAP_DAILY), {"n_part": "n"}),
    "snapshot_counts_cells": lambda: (
        *snapshot_counts_stage(SNAP_WEEKLY, cell=functools.partial(cell_id, zoom=4)),
        {"n_part": "n"},
    ),
    "snapshot_counts_ids": lambda: (
        *snapshot_counts_stage(
            SNAP_DAILY, TagFilter("etype", "click"), keytable=sig_keytable(SF)
        ),
        {"n_part": "n"},
    ),
    "contribution_stats": lambda: (
        *contribution_stats_stage(CONTRIB_FROM, CONTRIB_TO, keytable=sig_keytable(SF)),
        {"n_part": "n", "is_creation_part": "c", "is_tag_change_part": "t"},
    ),
    "contribution_stats_bins": lambda: (
        *contribution_stats_stage(
            CONTRIB_FROM, CONTRIB_TO, bins=CONTRIB_BINS, flag_cols=["is_creation"]
        ),
        {"n_part": "n", "is_creation_part": "c"},
    ),
    "snapshot": lambda: (snapshot_stage([SNAP_WEEKLY[2]], sig_keytable(SF)), None, None),
    "contribution": lambda: (
        contribution_stage(CONTRIB_FROM, CONTRIB_TO, sig_keytable(SF)), None, None
    ),
}


@pytest.fixture
def fresh(monkeypatch):
    """An empty resident set, so a test neither sees nor evicts the
    tables other tests keep."""
    monkeypatch.setattr(rio, "_resident", OrderedDict())


class Submitted(list):
    """The arguments of every block task map_blocks submits, and the
    driver's ``ray.put`` calls (``puts``)."""

    puts: list


@pytest.fixture
def block_tasks(monkeypatch):
    """Records the block tasks map_blocks submits and the ray.put calls
    made on the driver meanwhile."""
    calls = Submitted()
    calls.puts = []
    task, put = rio._block_task, ray.put

    class Counting:
        @staticmethod
        def remote(*args):
            calls.append(args)
            return task.remote(*args)

    def counting_put(*args, **kwargs):
        calls.puts.append(args)
        return put(*args, **kwargs)

    monkeypatch.setattr(rio, "_block_task", Counting)
    monkeypatch.setattr(ray, "put", counting_put)
    return calls


@pytest.fixture
def actor_pools(monkeypatch):
    """Counts the actor-pool operators Ray Data builds on the driver."""
    built = []
    init = ActorPoolMapOperator.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(ActorPoolMapOperator, "__init__", counting)
    return built


def _finish(table, keys, sums) -> pd.DataFrame:
    if keys is None:  # raw view rows: order-free comparison
        df = table.to_pandas()
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return combine_partials(table, keys, sums).sort_values(keys).reset_index(drop=True)


def _view_frame(name, docs) -> pd.DataFrame:
    stage, keys, sums = VIEWS[name]()
    return _finish(rio.map_blocks(docs, stage), keys, sums)


def _read():
    return read_documents(SF, columns=DECODE_COLUMNS)


def _over_budget(monkeypatch):
    """Every table over the resident budget: after one read per table
    (which registers it as not resident), reads come from disk."""
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", 1e-12)
    monkeypatch.setattr(rio, "_resident", OrderedDict())


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_fallback_equals_block_tasks(fresh, monkeypatch, block_tasks, executions, name):
    docs = _read()
    assert isinstance(docs, rio.Blocks) and docs.kept
    block_tasks.clear()  # the admission's compaction tasks
    tasks = _view_frame(name, docs)
    assert len(block_tasks) == len(docs)
    assert len(tasks)

    _over_budget(monkeypatch)
    _read()
    block_tasks.clear()
    executions.clear()
    disk = _read()
    assert not disk.kept
    got = _view_frame(name, disk)
    assert block_tasks and len(executions) == 1  # one materialize, then block tasks
    pd.testing.assert_frame_equal(got, tasks)


@pytest.mark.parametrize("n_blocks", [1, 3, 9])
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_views_at_any_block_count(block_tasks, name, n_blocks):
    """Resident tables of 1, 3 and 9 blocks: one task per block, the
    same frame as the disk read, and two runs give the same partial
    table row for row (block order, without preserve_order)."""
    path = ensure_documents(SF)
    disk = rio.read_table(path, columns=DECODE_COLUMNS)
    mat = disk.repartition(n_blocks).materialize()
    assert mat.num_blocks() == n_blocks
    stage, keys, sums = VIEWS[name]()
    first = rio.map_blocks(mat, stage)
    assert len(block_tasks) == n_blocks
    assert rio.map_blocks(mat, stage).equals(first)
    pd.testing.assert_frame_equal(
        _finish(first, keys, sums), _view_frame(name, disk)
    )


@pytest.mark.parametrize("query", WORKLOAD_QUERIES)
def test_workload_query_fallback_equals_block_tasks(fresh, monkeypatch, query):
    """Every benchmark workload query: over the resident budget (each
    table read from disk and materialized once per query) it equals the
    resident path frame for frame — values, dtypes and column names."""
    fn = pipelines.QUERIES[query][0]
    tasks = fn(SF)
    _over_budget(monkeypatch)
    fn(SF)
    assert not any(r["resident"] for r in rio.resident_tables())
    pd.testing.assert_frame_equal(fn(SF), tasks)


def test_block_task_partials_are_row_identical():
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    stage, _keys = snapshot_counts_stage(SNAP_DAILY)
    runs = [rio.map_blocks(docs, stage) for _ in range(2)]
    assert runs[0].num_rows and runs[0].equals(runs[1])


def test_lazy_partials_combine_in_one_execution(executions):
    """blocks_table over a lazy partials Dataset materializes it once,
    one execution: no limit=1 run of the plan before the full one."""
    def partials(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(b.select(["event_type"]), ["event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "n_part"])

    ds = rio.read_table(f"{SF}/events.parquet", columns=["event_type"]).map_batches(
        partials, batch_format="pyarrow"
    )
    executions.clear()
    got = combine_partials(rio.blocks_table(ds), ["event_type"], {"n_part": "n"})
    assert len(executions) == 1
    want = pd.read_parquet(f"{SF}/events.parquet").groupby("event_type").size()
    assert dict(zip(got["event_type"], got["n"])) == want.to_dict()


def test_materialize_blocks_equals_map_batches(fresh, monkeypatch, block_tasks, executions):
    """An output that stays distributed (the kNN positions): one block
    task per resident block and no Ray Data execution, the same rows in
    block order as map_batches + materialize; over the resident budget
    the same tasks over the once-materialized read give the same rows."""
    stage, _keys, _sums = VIEWS["snapshot"]()
    docs = _read()
    executions.clear()
    block_tasks.clear()  # the admission's compaction tasks
    got = rio.materialize_blocks(docs, stage)
    assert isinstance(got, rio.Blocks)
    assert not executions
    assert len(block_tasks) == len(docs) == len(got)
    mapped = rio.dataset(docs).map_batches(stage, batch_format="pyarrow")
    want = rio.blocks_table(mapped.materialize())
    assert want.num_rows and rio.blocks_table(got).equals(want)

    _over_budget(monkeypatch)
    _read()
    disk = _read()
    block_tasks.clear()
    fell = rio.materialize_blocks(disk, stage)
    assert isinstance(fell, rio.Blocks) and block_tasks
    pd.testing.assert_frame_equal(
        _finish(rio.blocks_table(fell), None, None), _finish(want, None, None)
    )


@pytest.mark.parametrize("resident", [True, False], ids=["resident", "over-budget"])
@pytest.mark.parametrize("filtered", [False, True], ids=["whole", "filtered"])
@pytest.mark.parametrize("n", [1, 4])
def test_materialize_blocks_returns_blocks_in_block_order(
    monkeypatch, executions, block_tasks, n, filtered, resident
):
    """materialize_blocks hands on io.Blocks: one block per input block
    and, over a resident table of 1 or 4 blocks, whole or behind a
    filtered view, the rows map_batches(stage).materialize() gives over
    the same blocks, in block order, with no Ray Data execution. Over
    the resident budget the read is materialized once (one execution)
    and the same tasks give the same rows."""
    opts = ray.data.DataContext.get_current().execution_options
    monkeypatch.setattr(opts, "preserve_order", True)
    _blocks(monkeypatch, n)
    path = ensure_documents(SF)
    ids = pq.read_table(path, columns=["osm_id"])["osm_id"]
    flt = pc.field("osm_id") < pc.approximate_median(ids).as_py() if filtered else None
    stage = VIEWS["snapshot"]()[0]
    read = rio.read_resident(path, DECODE_COLUMNS, filter=flt)
    mapped = rio.dataset(read).map_batches(stage, batch_format="pyarrow")
    want = rio.blocks_table(mapped.materialize())
    if not resident:
        _over_budget(monkeypatch)
        rio.read_resident(path, DECODE_COLUMNS)
    executions.clear()
    block_tasks.clear()
    docs = rio.read_resident(path, DECODE_COLUMNS, filter=flt)
    got = rio.materialize_blocks(docs, stage)
    assert isinstance(got, rio.Blocks) and not got.kept and got.view is None
    assert len(got) == len(docs) == len(block_tasks)
    assert len(executions) == (0 if resident else 1)
    assert want.num_rows and rio.blocks_table(got).equals(want)
    assert rio.num_rows(got) == want.num_rows


def test_num_rows_of_blocks_runs_nothing(executions, block_tasks):
    """io.num_rows of a resident table, a view of fewer columns, a
    materialize_blocks output and a reduce_by_key output is the sum of
    the row counts kept with their blocks: no Ray Data execution and no
    block task."""
    docs = _read()
    outputs = [
        docs,
        rio.read_resident(ensure_documents(SF), columns=["osm_id"]),
        rio.materialize_blocks(docs, VIEWS["snapshot"]()[0]),
        rio.reduce_by_key(docs, ["osm_id"], lambda t: t.select(["osm_id"])),
    ]
    want = [rio.blocks_table(b).num_rows for b in outputs]
    executions.clear()
    block_tasks.clear()
    assert [rio.num_rows(b) for b in outputs] == want
    assert all(want) and not executions and not block_tasks


# ---------------------------------------------- what a block task carries

def _blocks(monkeypatch, n):
    """Resident tables read from now on hold ``n`` blocks."""
    monkeypatch.setattr(rio, "_resident", OrderedDict())
    monkeypatch.setattr(rio, "auto_num_blocks", lambda path: n)


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_stages_pickle_by_reference(name):
    """Every view stage is an instance of a module-level class: stdlib
    pickle (which cannot pickle a closure) round-trips it, and the copy
    gives the same output."""
    stage = VIEWS[name]()[0]
    block = rio.blocks_table(_read()).combine_chunks()
    copy = pickle.loads(pickle.dumps(stage))
    assert type(copy) is type(stage)
    assert copy(block).equals(stage(block))


@pytest.mark.parametrize("query", WORKLOADS["history_scan"].queries)
def test_one_block_query_ships_its_stage_inline(monkeypatch, block_tasks, query):
    """Over a one-block resident table a history_scan query runs one
    task that carries its stage in its arguments: no ray.put on the
    driver, and the block goes as its kept ref, wrapped so that the
    worker, not Ray, resolves it."""
    _blocks(monkeypatch, 1)
    fn = pipelines.QUERIES[query][0]
    fn(SF)
    fn(SF)
    block_tasks.clear()
    block_tasks.puts.clear()
    fn(SF)
    (args,) = block_tasks
    stage, block = args[:2]
    assert callable(stage) and not isinstance(stage, ray.ObjectRef)
    assert isinstance(block, list) and isinstance(block[0], ray.ObjectRef)
    assert block_tasks.puts == []


# every query whose per-batch stage is "view rows -> per-key partial
# count and sums" (hexcell_weekly through pipelines._hex_snapshot_cube)
KEYED_PARTIALS_QUERIES = (
    "snapshot_count_by_s2cell", "contrib_daily_by_etype", "snapshot_count_bbox",
    "snapshot_count_bbox_multizoom", "contrib_type_counts_bbox", "contrib_type_counts_poly",
    "snapshot_count_daily_checkpointed", "snapshot_count_even_uid", "snapshot_pip_poly",
    "hexcell_weekly", "snapshot_count_by_hexcell", "snapshot_count_by_geohash",
    "snapshot_count_by_geohash_multiprec", "snapshot_count_daily", "snapshot_cells",
    "contrib_type_counts", "contrib_daily", "pbf_snapshot_count_daily",
)


@pytest.mark.parametrize("query", KEYED_PARTIALS_QUERIES)
def test_keyed_count_queries_ship_the_views_stage(monkeypatch, block_tasks, query):
    """Each of these queries ships the one ``views.KeyedPartials`` stage
    to its block tasks (pickled by reference to its class), never a
    function closure (pickled by value on every call)."""
    run_sharded = pipelines.run_sharded

    def run_each_shard(shards, process, out_dir):
        # a completed checkpoint runs no task: run every shard first
        for inputs in shards.values():
            process(inputs)
        return run_sharded(shards, process, out_dir)

    monkeypatch.setattr(pipelines, "run_sharded", run_each_shard)
    fn = pipelines.QUERIES[query][0]
    fn(SF)  # warm-up: the resident admission runs its own block tasks
    block_tasks.clear()
    fn(SF)
    stages = [ray.get(a[0]) if isinstance(a[0], ray.ObjectRef) else a[0] for a in block_tasks]
    assert stages and {type(s) for s in stages} == {KeyedPartials}, stages


@pytest.mark.parametrize(
    "chain",
    [
        lambda: OSMEntitySnapshotView.on(SF).timestamps(SNAP_WEEKLY).sum("visible"),
        lambda: OSMEntitySnapshotView.on(SF).timestamps(SNAP_WEEKLY).sum("tag_id"),
        lambda: OSMEntitySnapshotView.on(SF).timestamps(SNAP_WEEKLY).aggregateBy("tag_id").count(),
        lambda: OSMEntitySnapshotView.on(SF).timestamps(SNAP_WEEKLY).estimatedMedian("tag_id"),
        lambda: (
            OSMContributionView.on(SF).timestamps([CONTRIB_FROM, CONTRIB_TO])
            .aggregateBy("ts_q").countUniq("uid")
        ),
        lambda: (
            OSMContributionView.on(SF).timestamps([CONTRIB_FROM, CONTRIB_TO])
            .weightedAverage("v", "visible")
        ),
    ],
    ids=["sum_visible", "sum_tag_id", "by_tag_id", "median_tag_id", "contribution_by_ts_q",
         "weighted_by_visible"],
)
def test_a_facade_read_of_a_missing_column_raises_before_any_task(block_tasks, chain):
    """A terminal or aggregateBy naming a column the view rows do not
    carry raises ValueError on the driver, naming the view's columns,
    before any block task runs."""
    with pytest.raises(ValueError, match="lon_e7"):
        chain()
    assert not block_tasks


def test_stage_capturing_a_ref_gives_the_same_rows_at_any_block_count(monkeypatch, block_tasks):
    """A stage that captures a ray.put ref, inline in the one task of a
    one-block table and put once for the four tasks of a four-block
    table: the same rows through map_blocks and reduce_by_key."""
    ids = rio.blocks_table(read_documents(SF, columns=DECODE_COLUMNS))["osm_id"]
    ids_ref = ray.put(np.unique(ids.to_numpy())[::3])

    def stage(b):
        keep = pc.is_in(b["osm_id"], pa.array(ray.get(ids_ref)))
        return b.filter(keep).select(["osm_id", "doc_id"])

    def reduce(t):
        return t.group_by("osm_id").aggregate([([], "count_all")])

    got = {}
    for n in (1, 4):
        _blocks(monkeypatch, n)
        docs = read_documents(SF, columns=DECODE_COLUMNS)
        assert len(docs) == n
        block_tasks.clear()
        block_tasks.puts.clear()
        mapped = rio.map_blocks(docs, stage)
        assert len(block_tasks) == n
        assert isinstance(block_tasks[0][0], ray.ObjectRef) == (n > 1)
        assert len(block_tasks.puts) == (n > 1)
        reduced = rio.blocks_table(rio.reduce_by_key(docs, ["osm_id"], reduce, stage=stage))
        got[n] = (
            mapped.sort_by("doc_id"),
            reduced.sort_by("osm_id").select(["osm_id", "count_all"]),
        )
    assert got[1][0].num_rows
    assert got[1][0].equals(got[4][0]) and got[1][1].equals(got[4][1])


# ------------------------------------------------ failure and empty results

def test_tripped_deadline_raises_the_typed_error():
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    with pytest.raises(RayhistTimeoutError, match="deadline exceeded"):
        rio.map_blocks(docs, snapshot_stage(SNAP_WEEKLY, None, deadline=Deadline(-1.0)))
    stage, _ = snapshot_counts_stage(SNAP_WEEKLY, deadline=Deadline(-1.0))
    with pytest.raises(RayhistTimeoutError):
        rio.map_blocks(docs, stage)
    mr = OSMEntitySnapshotView.on(SF).timestamps(SNAP_WEEKLY).timeout(-1.0)
    with pytest.raises(RayhistTimeoutError):
        mr.aggregateByTimestamp().count()


def test_idw_guard_raises_on_block_tasks(tmp_path, monkeypatch):
    """q_idw_snapshot_field maps its materialized positions with block
    tasks; its int64 headroom guard still raises OverflowError."""
    ev = pd.read_parquet(f"{SF}/events.parquet").head(200)
    ev.to_parquet(tmp_path / "events.parquet", index=False)
    got = pipelines.q_idw_snapshot_field(str(tmp_path))
    monkeypatch.setattr(pipelines, "IDW_W0", 2**62)
    assert len(got)
    with pytest.raises(OverflowError, match="int64 headroom"):
        pipelines.q_idw_snapshot_field(str(tmp_path))


# an AOI beyond the poles: no document history overlaps it
NOWHERE = (0, 950_000_000, 10_000_000, 960_000_000)
NOWHERE_FILTER = (
    (pc.field("max_lon_e7") >= NOWHERE[0]) & (pc.field("min_lon_e7") <= NOWHERE[2])
    & (pc.field("max_lat_e7") >= NOWHERE[1]) & (pc.field("min_lat_e7") <= NOWHERE[3])
)


def test_empty_filter_keeps_the_stage_schema(fresh):
    """A filter that keeps no document still runs the stage once per
    block, so the combine sees the stage's typed empty partials."""
    docs = rio.read_resident(ensure_documents(SF), DECODE_COLUMNS, filter=NOWHERE_FILTER)
    stage, keys = snapshot_counts_stage(SNAP_WEEKLY)
    t = rio.map_blocks(docs, stage)
    assert t.num_rows == 0
    assert t.schema == pa.schema([("ts_q", pa.int64()), ("n_part", pa.int64())])
    stage, keys = contribution_stats_stage(CONTRIB_FROM, CONTRIB_TO, flag_cols=["is_creation"])
    t = rio.map_blocks(docs, stage)
    assert t["n_part"].to_pylist() == [0] * len(read_documents(SF))


def test_empty_aoi_frames_match_the_dataset_path(fresh, monkeypatch):
    """The facade over an AOI that overlaps no document: typed zerofilled
    frames, with the combine fed the stage's own empty partials."""
    seen = []
    combine = aggregate.combine_partials

    def spy(ds, keys, sums):
        seen.append(ds)
        return combine(ds, keys, sums)

    monkeypatch.setattr(aggregate, "combine_partials", spy)
    snap = OSMEntitySnapshotView.on(SF).areaOfInterest(bbox=NOWHERE).timestamps(SNAP_WEEKLY)
    by_ts = snap.aggregateByTimestamp().count(alias="n")
    pd.testing.assert_frame_equal(
        by_ts,
        pd.DataFrame({"ts_q": np.asarray(SNAP_WEEKLY, np.int64), "n": np.zeros(5, np.int64)}),
    )
    assert isinstance(seen[-1], pa.Table) and seen[-1].num_rows == 0
    assert seen[-1].column_names == ["ts_q", "_n_part"]
    assert snap.count() == 0 and snap.sum("v") == 0
    by_etype = snap.aggregateBy("etype").count()
    assert list(by_etype.columns) == ["etype", "count"] and len(by_etype) == 0
    assert by_etype["count"].dtype == np.int64
    contrib = (
        OSMContributionView.on(SF).areaOfInterest(bbox=NOWHERE)
        .timestamps(list(CONTRIB_BINS) + [CONTRIB_TO]).aggregateByTimestamp()
        .sum("is_creation", alias="n_creations")
    )
    assert contrib["ts_q"].tolist() == CONTRIB_BINS
    assert contrib["n_creations"].dtype == np.int64 and not contrib["n_creations"].any()


def test_snapshot_count_bbox_reads_the_resident_table(fresh, monkeypatch):
    """q_snapshot_count_bbox filters the resident table inside its block
    tasks: no disk read, the same rows as the parquet filter= read."""
    reads, read = [], rio.read_table
    monkeypatch.setattr(rio, "read_table", lambda *a, **k: reads.append(a) or read(*a, **k))
    pipelines.q_snapshot_count_bbox(SF)
    reads.clear()
    got = pipelines.q_snapshot_count_bbox(SF)
    assert not reads
    _over_budget(monkeypatch)
    pipelines.q_snapshot_count_bbox(SF)
    pd.testing.assert_frame_equal(pipelines.q_snapshot_count_bbox(SF), got)
    assert reads  # over budget: every call reads from disk


# --------------------------------------------------------- hot-path guard

def _runs_no_execution(executions, query):
    fn = pipelines.QUERIES[query][0]
    fn(SF)  # warm-up: builds and loads the table
    executions.clear()
    fn(SF)
    assert len(executions) == 0


# the queries whose warm call still starts a Ray Data execution, and why
STARTS_AN_EXECUTION = {
    "pbf_snapshot_count_daily": "the pbfish blob decode (read_binary_files + decode)",
    "osmpbf_snapshot_count_daily": "the osmpbf blob decode (blob index -> range read + decode)",
    "osmpbf_way_version_counts": "the osmpbf blob decode",
    "osmpbf_relation_member_sums": "the osmpbf blob decode",
    "jsonl_events_by_type": "read_json, a Dataset source with no block-task form",
    "arrow_events_by_type": "read_binary_files + Arrow IPC decode, a Dataset source",
    "csv_events_daily": "read_csv, a Dataset source with no block-task form",
}


@pytest.mark.parametrize("query", sorted(pipelines.QUERIES))
def test_every_query_runs_as_block_tasks(executions, query):
    """After a warm-up call every input of a query is resident and each
    of its steps is a block task: no Ray Data execution, except in the
    listed queries, each of which must still start one (so the list
    cannot go stale)."""
    fn = pipelines.QUERIES[query][0]
    fn(SF)
    executions.clear()
    fn(SF)
    assert bool(executions) == (query in STARTS_AN_EXECUTION), executions


@pytest.mark.parametrize("query", WORKLOADS["history_scan"].queries)
def test_history_scan_runs_no_ray_data_execution(executions, query):
    _runs_no_execution(executions, query)


@pytest.mark.parametrize(
    "query", sorted(set(WORKLOAD_QUERIES) - set(WORKLOADS["history_scan"].queries))
)
def test_spatial_join_and_interactive_run_no_ray_data_execution(executions, query):
    """The other two workloads, shuffles included: kNN positions and the
    (ts_q, uid) distinct run as block tasks (materialize_blocks,
    reduce_by_key), never as a Ray Data execution."""
    _runs_no_execution(executions, query)


INDEX_QUERIES = [
    "media_features", "snapshot_pip_many_regions", "snapshot_pip_many_regions_strtree",
    "snapshot_pip_poly",
]


@pytest.mark.parametrize(
    "query",
    ["contributor_territory", "hexcell_dominant_uid", "lifespan_overlap_pairs",
     "snapshot_incremental_merge", "way_areas", "way_centroids", "way_compactness",
     *INDEX_QUERIES],
)
def test_resident_shuffle_queries_run_no_ray_data_execution(executions, query):
    """Queries whose only inputs are resident tables run as block tasks
    (io.map_blocks, io.reduce_by_key's shuffle; an index built on the
    driver rides in the stage): no Ray Data execution after warm-up."""
    _runs_no_execution(executions, query)


def test_region_indexes_are_built_once_per_process(monkeypatch):
    """The many-regions stage builds its constant index (RegionIndex
    alone takes ~1 s) once per process that runs it, not once per call:
    here both backends' stages run twice in this process."""
    built = []
    for name in ("RegionIndex", "STRtreeRegionIndex"):
        cls = getattr(pipelines, name)
        monkeypatch.setattr(
            pipelines, name, lambda *a, _cls=cls, **k: built.append(_cls.__name__) or _cls(*a, **k)
        )
    pipelines._many_regions_index.cache_clear()
    batch = pq.read_table(ensure_documents(SF))
    for strtree in (False, True):
        stage = pipelines._RegionCountsStage(strtree)
        assert stage(batch).equals(stage(batch))
    assert sorted(built) == ["RegionIndex", "STRtreeRegionIndex"]
    pipelines._many_regions_index.cache_clear()


def test_region_counts_stage_ships_no_index():
    """A many-regions call ships its stage without the index (the worker
    looks it up in its own cache): the pickled stage is under 1 kB, and
    both backends still give the DuckDB oracle's frame."""
    import cloudpickle
    import duckdb

    import __ray_entry__ as entry
    from tools.check_queries import compare

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    want = con.sql(entry.oracle_sql()["snapshot_pip_many_regions"]).df()
    for query, strtree in (
        ("snapshot_pip_many_regions", False), ("snapshot_pip_many_regions_strtree", True)
    ):
        assert len(cloudpickle.dumps(pipelines._RegionCountsStage(strtree))) < 1024
        assert compare(query, pipelines.QUERIES[query][0](SF), want)


def _media(kind="image"):
    t = synth_media_table([f"{kind}://{i}" for i in range(6)], kind)
    return ray.data.from_arrow(t)


TASK_STAGES = {
    "decode_media": lambda: decode_media(_media()),
    "resize_media": lambda: resize_media(_media()),
    "sample_frames": lambda: sample_frames(_media("video")),
}


@pytest.mark.parametrize("name", [*sorted(TASK_STAGES), *INDEX_QUERIES])
def test_stateful_stages_run_without_an_actor_pool(actor_pools, name):
    """Stateful stages (codec probes, region indexes) are built once on
    the driver and shipped with a plain stage function: Ray Data builds
    no actor pool for them."""
    if name in TASK_STAGES:
        assert TASK_STAGES[name]().materialize().count()
    else:
        assert len(pipelines.QUERIES[name][0](SF))
    assert actor_pools == []


@pytest.mark.parametrize("ensure", [ensure_ivf_layout, ensure_lsh_layout])
def test_cold_layout_builds_run_without_an_actor_pool(actor_pools, tmp_path, monkeypatch, ensure):
    """A cold IVF/LSH layout build assigns buckets in one task-pool
    map_batches function."""
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path))
    layout, _ = ensure(f"{SF}/embeddings.parquet")
    assert layout.startswith(str(tmp_path))  # built now, not read from a cache
    assert actor_pools == []


@pytest.fixture
def pandas_in_combine(monkeypatch):
    """Counts pandas groupby/reindex calls made inside the driver
    combine (aggregate.combine_partials and zerofill), and the combine
    calls themselves."""
    seen = {"combine": 0, "pandas": 0}
    inside = []

    def watch(name, fn):
        def wrapped(*args, **kwargs):
            seen["combine"] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapped

    for name in ("combine_partials", "zerofill"):
        fn = watch(name, getattr(aggregate, name))
        monkeypatch.setattr(aggregate, name, fn)
        monkeypatch.setattr(pipelines, name, fn)

    def count(cls, name):
        fn = getattr(cls, name)

        def counting(*args, **kwargs):
            seen["pandas"] += bool(inside)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    for cls in (pd.DataFrame, pd.Series):
        count(cls, "groupby")
        count(cls, "reindex")
    return seen


@pytest.mark.parametrize("query", WORKLOAD_QUERIES)
def test_driver_combine_runs_without_pandas_groupby(pandas_in_combine, query):
    """The benchmark workload queries combine their partials in Arrow
    and zerofill with index arithmetic: no pandas groupby or reindex
    inside the driver combine."""
    pipelines.QUERIES[query][0](SF)
    assert pandas_in_combine["pandas"] == 0


def test_workload_queries_reach_the_driver_combine(pandas_in_combine):
    """The guard above is not vacuous: most workload queries call the
    driver combine."""
    reached = 0
    for query in WORKLOAD_QUERIES:
        before = pandas_in_combine["combine"]
        pipelines.QUERIES[query][0](SF)
        reached += pandas_in_combine["combine"] > before
    assert reached >= len(WORKLOAD_QUERIES) // 2


def test_fine_cells_stay_distributed(monkeypatch, executions):
    """The fine-cell final is high-cardinality: it combines per cell
    bucket in io.reduce_by_key (routing tasks over the resident
    blocks), never on the driver, and starts no Ray Data execution."""
    pipelines.q_snapshot_cells_fine(SF)
    routed = []
    task = rio._route_task

    class Counting:
        @staticmethod
        def options(**kw):
            routed.append(kw["num_returns"])
            return task.options(**kw)

    monkeypatch.setattr(rio, "_route_task", Counting)
    executions.clear()
    pipelines.q_snapshot_cells_fine(SF)
    assert routed and not executions


def test_operator_outputs_are_read_without_an_execution(executions):
    """hash_join's co-group and k_core's gated (driver) result come
    back materialized: io.map_blocks over them runs block tasks and
    starts no Ray Data execution (a bare from_arrow_refs / from_arrow
    Dataset would start one on its first to_arrow_refs)."""
    from rayhist.ops.kcore import k_core
    from rayhist.ops.relational import hash_join

    def blocks(*tables):
        return ray.data.from_arrow_refs([ray.put(t) for t in tables]).materialize()

    left = blocks(pa.table({"k": [1, 2, 3], "a": [4, 5, 6]}), pa.table({"k": [4], "a": [7]}))
    right = blocks(pa.table({"k": [2, 3, 4, 5], "b": [8, 9, 10, 11]}))
    # a 4-clique plus a pendant node: the 3-core is the clique
    edges = blocks(pa.table({"src": [0, 0, 0, 1, 1, 2, 3], "dst": [1, 2, 3, 2, 3, 3, 4]}))
    joined = hash_join(left, right, on="k")
    core, _ = k_core(edges, 3)
    executions.clear()
    assert rio.map_blocks(joined, lambda t: t).num_rows == 3
    assert sorted(rio.map_blocks(core, lambda t: t)["node"].to_pylist()) == [0, 1, 2, 3]
    assert not executions


def test_graph_operators_run_no_ray_data_execution(executions):
    """The graph operators over a from_arrow_refs input: every message
    round is one io.reduce_by_key and every driver read one
    io.map_blocks, on both sides of the size gate, so no Ray Data
    execution starts."""
    from rayhist.ops.bfs import bfs_hops
    from rayhist.ops.cc import connected_components
    from rayhist.ops.kcore import k_core

    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(4):
        u, v = rng.integers(0, 40, 60), rng.integers(0, 40, 60)
        keep = u < v
        blocks.append(pa.table({"src": u[keep], "dst": v[keep]}))
    edges = ray.data.from_arrow_refs([ray.put(b) for b in blocks]).materialize()
    executions.clear()
    for gate in (2_000_000, 0):
        hops = bfs_hops(edges, lambda n: n % 7 == 0, 3, broadcast_gate=gate)
        core, _ = k_core(edges, 3, broadcast_gate=gate)
        assert hops["n"].sum() and rio.num_rows(core)
    assert rio.blocks_table(connected_components(edges)).num_rows
    assert not executions
