"""Block tasks: io.map_blocks runs a driver-combined stage as one Ray
task per resident block, and must give what the Ray Data path gives.

The reference runs one test suite against every backend; here the two
backends are the block-task path over a resident table and the
``map_batches`` path over a table read from disk (a table over the
resident budget)."""

from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from ray.data._internal.execution.streaming_executor import StreamingExecutor
from ray.data.dataset import MaterializedDataset

from perfbench.workloads import WORKLOADS
from rayhist import aggregate
from rayhist import io as rio
from rayhist import pipelines
from rayhist.aggregate import combine_partials
from rayhist.api import OSMContributionView, OSMEntitySnapshotView
from rayhist.functions.deadline import Deadline, RayhistTimeoutError
from rayhist.ingest import ensure_documents, read_documents, sig_keytable
from rayhist.model import DECODE_COLUMNS
from rayhist.pipelines import CONTRIB_BINS, CONTRIB_FROM, CONTRIB_TO, SNAP_DAILY, SNAP_WEEKLY
from rayhist.temporal import TagFilter
from rayhist.views import (
    contribution_stage, contribution_stats_stage, snapshot_counts_stage, snapshot_stage,
)
from tests.test_ingest import SF

WORKLOAD_QUERIES = sorted({q for w in WORKLOADS.values() for q in w.queries})

# (stage, combine keys, sums) for every view; None keys: raw view rows
VIEWS = {
    "snapshot_counts": lambda: (*snapshot_counts_stage(SNAP_DAILY), {"n_part": "n"}),
    "snapshot_counts_cells": lambda: (
        *snapshot_counts_stage(SNAP_WEEKLY, cell_zoom=4), {"n_part": "n"}
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
    "snapshot": lambda: (snapshot_stage([SNAP_WEEKLY[2]]), None, None),
    "contribution": lambda: (contribution_stage(CONTRIB_FROM, CONTRIB_TO), None, None),
}
COLUMNS = {"snapshot": None, "contribution": None}  # stages decoding tag strings


@pytest.fixture
def fresh(monkeypatch):
    """An empty resident set, so a test neither sees nor evicts the
    tables other tests keep."""
    monkeypatch.setattr(rio, "_resident", OrderedDict())


@pytest.fixture
def block_tasks(monkeypatch):
    """Counts the block tasks map_blocks submits."""
    calls = []
    task = rio._block_task

    class Counting:
        @staticmethod
        def remote(*args):
            calls.append(1)
            return task.remote(*args)

    monkeypatch.setattr(rio, "_block_task", Counting)
    return calls


@pytest.fixture
def executions(monkeypatch):
    """Counts Ray Data executions started on the driver."""
    started = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        started.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return started


def _finish(table, keys, sums) -> pd.DataFrame:
    if keys is None:  # raw view rows: order-free comparison
        df = table.to_pandas()
        return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return combine_partials(table, keys, sums).sort_values(keys).reset_index(drop=True)


def _view_frame(name, docs) -> pd.DataFrame:
    stage, keys, sums = VIEWS[name]()
    return _finish(rio.map_blocks(docs, stage), keys, sums)


def _read(name):
    return read_documents(SF, columns=COLUMNS.get(name, DECODE_COLUMNS))


def _over_budget(monkeypatch):
    """Every table over the resident budget: after one read per table
    (which registers it as not resident), reads come from disk."""
    monkeypatch.setattr(rio, "RESIDENT_FRACTION", 1e-12)
    monkeypatch.setattr(rio, "_resident", OrderedDict())


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_fallback_equals_block_tasks(fresh, monkeypatch, block_tasks, name):
    docs = _read(name)
    assert isinstance(docs, MaterializedDataset)
    block_tasks.clear()  # the admission's compaction tasks
    tasks = _view_frame(name, docs)
    assert len(block_tasks) == docs.num_blocks()
    assert len(tasks)

    _over_budget(monkeypatch)
    _read(name)
    disk = _read(name)
    assert not isinstance(disk, MaterializedDataset)
    block_tasks.clear()
    got = _view_frame(name, disk)
    assert not block_tasks
    pd.testing.assert_frame_equal(got, tasks)


@pytest.mark.parametrize("n_blocks", [1, 3, 9])
@pytest.mark.parametrize("name", sorted(VIEWS))
def test_views_at_any_block_count(block_tasks, name, n_blocks):
    """Resident tables of 1, 3 and 9 blocks: one task per block, the
    same frame as the disk read, and two runs give the same partial
    table row for row (block order, without preserve_order)."""
    path = ensure_documents(SF)
    cols = COLUMNS.get(name, DECODE_COLUMNS)
    disk = rio.read_table(path, columns=cols)
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
    """Every benchmark workload query: the Dataset fallback (all tables
    over the resident budget) equals the block-task path frame for
    frame — values, dtypes and column names."""
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


def test_materialize_blocks_equals_map_batches(fresh, monkeypatch, block_tasks, executions):
    """An output that stays distributed (the kNN positions): one block
    task per resident block and no Ray Data execution, the same rows in
    block order as map_batches + materialize; over the resident budget
    the fallback gives the same rows."""
    stage, _keys, _sums = VIEWS["snapshot"]()
    docs = _read("snapshot")
    executions.clear()
    block_tasks.clear()  # the admission's compaction tasks
    got = rio.materialize_blocks(docs, stage)
    assert isinstance(got, MaterializedDataset)
    assert not executions
    assert len(block_tasks) == docs.num_blocks() == got.num_blocks()
    want = rio.blocks_table(docs.map_batches(stage, batch_format="pyarrow").materialize())
    assert want.num_rows and rio.blocks_table(got).equals(want)

    _over_budget(monkeypatch)
    _read("snapshot")
    disk = _read("snapshot")
    block_tasks.clear()
    fell = rio.materialize_blocks(disk, stage)
    assert isinstance(fell, MaterializedDataset) and not block_tasks
    pd.testing.assert_frame_equal(
        _finish(rio.blocks_table(fell), None, None), _finish(want, None, None)
    )


# ------------------------------------------------ failure and empty results

def test_tripped_deadline_raises_the_typed_error():
    docs = read_documents(SF, columns=DECODE_COLUMNS)
    with pytest.raises(RayhistTimeoutError, match="deadline exceeded"):
        rio.map_blocks(docs, snapshot_stage(SNAP_WEEKLY, deadline=Deadline(-1.0)))
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
    assert t["n_part"].to_pylist() == [0] * read_documents(SF).num_blocks()


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


@pytest.mark.parametrize(
    "query",
    ["contributor_territory", "hexcell_dominant_uid", "lifespan_overlap_pairs",
     "snapshot_incremental_merge", "way_areas", "way_centroids", "way_compactness"],
)
def test_resident_shuffle_queries_run_no_ray_data_execution(executions, query):
    """Queries whose only inputs are resident tables shuffle through
    io.reduce_by_key's block tasks: no Ray Data execution after
    warm-up."""
    _runs_no_execution(executions, query)


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
    import ray

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
    import ray

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
        assert hops["n"].sum() and core.count()
    assert rio.blocks_table(connected_components(edges)).num_rows
    assert not executions
