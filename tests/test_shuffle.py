"""io.reduce_by_key: the block-task shuffle must give what Ray Data's
``ds.map_batches(stage).groupby(keys).map_groups(reduce)`` gives,
whatever the key types, block count or emptiness of the input."""

import ast
import dataclasses
import inspect
import re
import textwrap
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from ray.data.dataset import MaterializedDataset

from rayhist import ingest, pipelines
from rayhist import io as rio
from rayhist.functions.deadline import Deadline, RayhistTimeoutError
from rayhist.sources import osmpbf
from tests.test_ingest import SF

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]

# key columns -> how a random table fills them
KEYS = {
    "int": ["k"],
    "two_columns": ["k", "s"],
    "string": ["s"],
    "null": ["kn"],
}


def _tables(seed: int, n_blocks: int, rows: int = 60) -> list[pa.Table]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_blocks):
        n = int(rng.integers(0, rows))
        k = rng.integers(-5, 15, n)
        kn = pa.array(k, mask=rng.random(n) < 0.3)  # int keys with nulls
        # no null strings: Ray's sort shuffle (the reference below)
        # cannot place None among str across blocks
        # (test_null_keys_route_alike covers them)
        s = pa.array([WORDS[i] for i in rng.integers(0, len(WORDS), n)])
        out.append(pa.table({"k": k, "kn": kn, "s": s, "v": rng.integers(0, 100, n)}))
    return out


def _blocks(tables: list[pa.Table]) -> MaterializedDataset:
    ds = ray.data.from_arrow_refs([ray.put(t) for t in tables]).materialize()
    assert ds.num_blocks() == len(tables)
    return ds


def _sums(keys):
    """A reduce per the contract: correct on any table holding all rows
    of its keys (sum, count and distinct values per key)."""

    def reduce(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, keys).aggregate(
            [("v", "sum"), ([], "count_all"), ("v", "count_distinct")]
        )
        return g.rename_columns([*keys, "v_sum", "n", "v_distinct"])

    return reduce


def _stage(t: pa.Table) -> pa.Table:
    return t.set_column(t.schema.get_field_index("v"), "v", pc.multiply(t["v"], 2))


def _frame(refs: list) -> pd.DataFrame:
    return rio.blocks_table(refs).to_pandas()


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys, kind="mergesort", na_position="last").reset_index(drop=True)


def _ray_groupby(ds, keys, reduce, stage=None) -> pd.DataFrame:
    if stage is not None:
        ds = ds.map_batches(stage, batch_format="pyarrow")
    return _sorted(ds.groupby(keys).map_groups(reduce, batch_format="pyarrow").to_pandas(), keys)


@pytest.mark.parametrize("n_blocks", [1, 3, 9])
@pytest.mark.parametrize("kind", sorted(KEYS))
def test_reduce_by_key_equals_ray_groupby(executions, kind, n_blocks):
    keys = KEYS[kind]
    tables = _tables(seed=len(kind) * 10 + n_blocks, n_blocks=n_blocks)
    ds = _blocks(tables)
    reduce = _sums(keys)
    got = rio.reduce_by_key(ds, keys, reduce, stage=_stage)
    assert len(got) == n_blocks
    df = _frame(got)
    assert not df.duplicated(keys).any()  # every key reduced in one bucket
    want = _ray_groupby(ds, keys, reduce, _stage)
    assert len(want)
    pd.testing.assert_frame_equal(_sorted(df, keys), want)
    # any other Dataset is materialized once (one execution), then
    # takes the same tasks, with the same result
    lazy = ds.map_batches(lambda b: b, batch_format="pyarrow")
    executions.clear()
    fell = _frame(rio.reduce_by_key(lazy, keys, reduce, _stage))
    assert len(executions) == 1
    pd.testing.assert_frame_equal(_sorted(fell, keys), want)


def test_null_keys_route_alike_in_every_block():
    """An int key hashes the same in a block that holds nulls (numpy
    would widen that column to float) as in one that does not, and a
    null key lands with the other null keys, also from a column of null
    type: the result equals the reduce of the whole table, also when
    the input is not materialized (it is materialized once, then takes
    the same tasks)."""
    tables = [
        pa.table({"k": pa.array([5, None, 7]), "s": ["a", None, "b"], "v": [1, 2, 3]}),
        pa.table({"k": pa.array([5, 7, 8]), "s": ["a", "b", None], "v": [4, 5, 6]}),
        pa.table({"k": pa.array([None, None]), "s": [None, "c"], "v": [7, 8]}),
    ]
    whole_table = pa.concat_tables(tables, promote_options="default")
    ds = _blocks(tables)
    lazy = ds.map_batches(lambda b: b, batch_format="pyarrow")
    for keys in (["k"], ["s"], ["k", "s"]):
        whole = _sorted(_sums(keys)(whole_table).to_pandas(), keys)
        for d in (ds, lazy):
            got = _frame(rio.reduce_by_key(d, keys, _sums(keys)))
            pd.testing.assert_frame_equal(_sorted(got, keys), whole)


def test_filtered_block_and_empty_buckets():
    """A block the in-task filter empties still runs the stage, and a
    bucket that receives no rows still runs the reduce: both yield
    their typed empty outputs, so the result keeps its schema."""
    tables = _tables(seed=3, n_blocks=9)
    tables[4] = tables[4].set_column(0, "k", pa.array(np.full(len(tables[4]), 99)))
    base = _blocks(tables)
    flt = pc.field("k") != 99
    # as read_resident(filter=) returns it, and the Dataset it stands for
    filtered = dataclasses.replace(rio.as_blocks(base), view=rio._View(flt, None))
    filtered_ds = base.map_batches(lambda b: b.filter(flt), batch_format="pyarrow")
    # two distinct keys over nine buckets: at least seven buckets are empty
    few = pa.table({"k": pa.array([1, 2], pa.int64()), "v": [0, 0]})

    def stage(t: pa.Table) -> pa.Table:
        assert not pc.any(pc.equal(t["k"], 99)).as_py()
        return pa.table({"k": pc.add(pc.bit_wise_and(t["k"], 1), 1), "v": t["v"]})

    got = rio.reduce_by_key(filtered, ["k"], _sums(["k"]), stage=stage)
    sizes = [ray.get(r).num_rows for r in got.refs]
    assert len(sizes) == 9 and sizes.count(0) >= 7
    assert rio.blocks_table(got).schema == _sums(["k"])(few).schema
    want = _ray_groupby(filtered_ds, ["k"], _sums(["k"]), stage)
    pd.testing.assert_frame_equal(_sorted(_frame(got), ["k"]), want)

    nothing = pc.field("k") > 1000
    empty = dataclasses.replace(rio.as_blocks(base), view=rio._View(nothing, None))
    out = rio.blocks_table(rio.reduce_by_key(empty, ["k"], _sums(["k"]), stage=stage))
    assert out.num_rows == 0 and out.schema == _sums(["k"])(few).schema


def test_two_runs_are_row_identical():
    ds = _blocks(_tables(seed=5, n_blocks=3))
    runs = [rio.blocks_table(rio.reduce_by_key(ds, ["s"], _sums(["s"]), _stage)) for _ in (1, 2)]
    assert runs[0].num_rows and runs[0].equals(runs[1])


@pytest.mark.parametrize("where", ["stage", "reduce"])
def test_tripped_deadline_raises_the_typed_error(where):
    ds = _blocks(_tables(seed=7, n_blocks=3))

    def tripped(t: pa.Table) -> pa.Table:
        Deadline(-1.0).check()
        return t

    reduce = tripped if where == "reduce" else _sums(["k"])
    stage = tripped if where == "stage" else None
    with pytest.raises(RayhistTimeoutError, match="deadline exceeded"):
        rio.blocks_table(rio.reduce_by_key(ds, ["k"], reduce, stage=stage))


# ------------------------------------------------- the queries it carries

# every query whose wide step is an io.reduce_by_key shuffle over
# tables read at io.auto_num_blocks (osmpbf_snapshot_count_daily
# shuffles the decoded blob blocks, one per blob, so its block count
# does not follow auto_num_blocks; tests/test_osmpbf.py pins it)
SHUFFLE_QUERIES = [
    "above_user_mean", "ann_cosine", "anti_join_orders", "asof_attribution",
    "bloom_fpr_users", "bloom_semi_join_orders", "bm25_top_docs", "clipped_way_lengths",
    "clipped_way_lengths_daily", "clipped_way_lengths_poly", "cluster_dedup_summary",
    "cohort_odds_ratio", "cohort_retention", "contributor_territory",
    "conversion_latency_median", "copurchase_assortativity", "copurchase_bfs_hops",
    "copurchase_cheapest_paths", "copurchase_clustering", "copurchase_edge_jaccard",
    "copurchase_kcore", "copurchase_lcc", "copurchase_pagerank",
    "copurchase_recommendations", "copurchase_triangles", "corpus_curation",
    "customer_rfm_segments", "dedup_docs", "doc_lm_surprisal", "doc_token_packing",
    "dup_clusters", "embedding_dup_pairs", "etype_audience_overlap", "etype_transitions",
    "event_debounce", "events_by_type", "frequent_part_triples", "funnel3_users",
    "funnel_attribution_daily", "hapax_rate_by_source", "hexcell_dominant_uid",
    "interarrival_median", "inverted_index", "keytable_freqs", "knn_all", "knox_pairs",
    "lifespan_overlap_pairs", "mad_value_by_type", "modal_value_by_type", "near_dup_pairs",
    "near_dup_source_matrix", "nearest_road_distance", "oov_rate_by_source",
    "order_price_ntiles", "orders_by_nation", "outer_join_user_day", "pareto_orders",
    "part_hits_authority", "peak_concurrency", "price_percentiles_cont", "price_quantiles",
    "profile_orders", "range_error_click_daily", "revenue_by_nation_month", "ripley_k",
    "road_buffer_count", "rolling_active_users", "rolling_median_value", "semivariogram",
    "sessions", "shared_windows", "simhash_pairs", "snapshot_bbox_overlaps",
    "snapshot_cells_fine", "snapshot_cells_salted", "snapshot_colocation_pairs",
    "snapshot_hotspot_clusters", "snapshot_incremental_merge", "source_vocab_jaccard",
    "split_contamination", "supplier_fuzzy_pairs", "tfidf_top_terms", "time_window_bursts",
    "token_zipf_slope", "top_words", "topk_orders_by_priority", "trimmed_mean_by_type",
    "user_active_coverage", "user_burstiness", "user_distinct_etypes", "user_entropy",
    "user_event_ranks", "user_first_events", "user_gini_by_etype", "user_journeys",
    "user_recency_scores", "user_streaks", "user_value_dist", "user_value_ewma",
    "user_value_holt", "users_click_not_purchase", "value_equidepth_bins",
    "value_percentile_mass_by_type", "value_quantiles_by_type", "vocab_growth", "way_areas",
    "way_bearing_rose", "way_boundary_crossings", "way_centroids", "way_chain_lengths",
    "way_compactness", "way_lengths", "weighted_median_price", "window_rolling_spikes",
]

# queries whose low-cardinality final combines on the driver: no shuffle
DRIVER_COMBINE_QUERIES = ["doc_stats", "doc_tokens", "stratified_sample_docs"]


def _at_blocks(monkeypatch, query: str, n: int) -> pd.DataFrame:
    """``query`` with every table read as ``n`` blocks (resident tables
    reloaded)."""
    monkeypatch.setattr(rio, "auto_num_blocks", lambda path: n)
    monkeypatch.setattr(rio, "_resident", OrderedDict())
    return pipelines.QUERIES[query][0](SF)


@pytest.mark.parametrize("query", SHUFFLE_QUERIES)
def test_query_is_block_count_invariant(monkeypatch, executions, query):
    """One input block is one hash bucket. At 16 blocks every shuffle
    has at least four buckets, and one keyed by user (15 users in this
    table) leaves some of them empty, so each reduce body sees the
    complete groups of keys split over blocks, and empty tables. Both
    runs give the same frame, and neither starts Ray Data's own
    shuffle."""
    routed = []  # block count of every reduce_by_key input
    task = rio._route_task

    class Counting:
        @staticmethod
        def options(**kw):
            routed.append(kw["num_returns"])
            return task.options(**kw)

    monkeypatch.setattr(rio, "_route_task", Counting)
    one = _at_blocks(monkeypatch, query, 1)
    routed.clear()
    many = _at_blocks(monkeypatch, query, 16)
    assert routed and min(routed) >= 4
    pd.testing.assert_frame_equal(one, many)
    assert not executions.all_to_all


@pytest.mark.parametrize("query", DRIVER_COMBINE_QUERIES)
def test_driver_combine_query_is_block_count_invariant(monkeypatch, executions, query):
    """A low-cardinality final is per-block partials combined on the
    driver: the same frame at 1 and 16 blocks, no shuffle at all."""
    one = _at_blocks(monkeypatch, query, 1)
    many = _at_blocks(monkeypatch, query, 16)
    pd.testing.assert_frame_equal(one, many)
    assert not executions.all_to_all


@pytest.mark.parametrize(
    "query, setting, columns",
    [
        ("frequent_part_triples", ("TRIPLE_MIN_SUP", 10**9), ["p1", "p2", "p3", "support"]),
        ("copurchase_recommendations", ("RECO_TOP", 0), ["part_a", "part_b", "common"]),
    ],
)
def test_query_with_no_result_row_keeps_its_schema(monkeypatch, query, setting, columns):
    """No triple reaches the support bar / no candidate pair survives:
    every bucket returns its typed empty output, so the frame keeps
    its int64 columns with no repair on the driver."""
    monkeypatch.setattr(pipelines, *setting)
    out = pipelines.QUERIES[query][0](SF)
    assert out.empty and list(out.columns) == columns
    assert (out.dtypes == "int64").all()


def test_no_hand_rolled_bucket_shuffle():
    """Every complete-key shuffle in ``rayhist/`` goes through
    io.reduce_by_key, the cached-table builds included: no hash-bucket
    column feeding a Dataset groupby, no map_groups or repartition, no
    Ray Data aggregate, and no hand-rolled bucket routing, in any
    file."""
    root = Path(rio.__file__).parent
    patterns = (
        "ray.data.aggregate", ".map_groups(", ".repartition(", '"_bucket"', '"_pb"', '"_hb"',
        '"_kb"', '"_qb"', '"_tcell"', "_shingle_buckets", "_pair_bucket", "_bucket_of",
        "_resolve_buckets",
    )
    checked = 0
    for path in root.rglob("*.py"):
        src = path.read_text()
        for pattern in patterns:
            assert pattern not in src, (path, pattern)
        checked += 1
    assert checked > 40


def _body(fn) -> str:
    """The source of ``fn``'s statements, its docstring left out."""
    (node,) = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
    stmts = node.body[1:] if ast.get_docstring(node) else node.body
    return "\n".join(ast.unparse(st) for st in stmts)


def test_query_path_is_resident_block_tasks():
    """Every query-time read goes through io.read_resident: no
    read_table in the query surface. The block-task entry points share
    one input rule (io.as_blocks: Blocks as they are, a Dataset
    materialized once), with no map_batches or iter_batches branch of
    their own."""
    root = Path(rio.__file__).parent
    surface = [root / "pipelines.py", root / "api.py", *sorted((root / "ops").rglob("*.py"))]
    for path in surface:
        assert "read_table(" not in path.read_text(), path
    assert len(surface) >= 20
    for fn in (rio.map_blocks, rio.materialize_blocks, rio.reduce_by_key, rio.blocks_table):
        body = _body(fn)
        assert "map_batches" not in body and "iter_batches" not in body, fn.__name__
        assert "as_blocks(" in body or "_block_refs(" in body, fn.__name__
    assert "as_blocks(" in _body(rio._block_refs)


# the Dataset edges of the query surface, by (file, function): the facade's
# view() and its stream() iterator, the checkpoint write sink and the kNN
# layout build inside io.ensure; every other step hands on io.Blocks
DATASET_EDGES = {
    ("api.py", "view"): {"dataset"},
    ("api.py", "stream"): {"iter_batches"},
    ("state/checkpoint.py", "run_sharded"): {"dataset", "write_parquet"},
    ("spatial/knn.py", "_ensure_layout"): {"map_batches", "write_parquet"},
}
DATASET_METHODS = {"materialize", "map_batches", "iter_batches", "to_arrow_refs", "write_parquet"}
DATASET_SOURCES = {"from_arrow_refs", "from_arrow", "from_pandas", "from_items", "from_numpy"}


def _dataset_call(call: ast.Call) -> str | None:
    """The Dataset-building or Dataset-reading name ``call`` makes, if
    any (``pa.Table.from_pandas`` builds an Arrow table and
    ``pyarrow.dataset.dataset`` opens files: neither is one)."""
    f = call.func
    if isinstance(f, ast.Name):
        name, receiver = f.id, None
    elif isinstance(f, ast.Attribute):
        name, receiver = f.attr, ast.unparse(f.value)
    else:
        return None
    if name in DATASET_SOURCES:
        return name if receiver in (None, "ray.data") else None
    if name == "dataset":  # io.dataset, the Blocks -> Dataset edge
        return name if receiver in (None, "rio") else None
    return name if name in DATASET_METHODS else None


def test_query_path_hands_on_blocks():
    """No step of the query surface builds or reads a Dataset between
    its block tasks: no from_arrow_refs / from_arrow / from_pandas /
    materialize() / map_batches / to_arrow_refs in pipelines.py,
    api.py, views.py, ops/, spatial/ or state/, except at the named
    edges (DATASET_EDGES, which must all still exist)."""
    root = Path(rio.__file__).parent
    surface = [
        root / "pipelines.py", root / "api.py", root / "views.py",
        *(p for d in ("ops", "spatial", "state") for p in sorted((root / d).rglob("*.py"))),
    ]
    found: dict[tuple, set] = {}
    for path in surface:
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for st in tree.body:  # methods count by their own name
            for unit in st.body if isinstance(st, ast.ClassDef) else [st]:
                fn = isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(unit):
                    kind = isinstance(node, ast.Call) and _dataset_call(node)
                    if kind:
                        found.setdefault((rel, unit.name if fn else "<module>"), set()).add(kind)
    assert len(surface) >= 35
    assert found == DATASET_EDGES


def test_query_path_reads_no_span_text():
    """Node tags are keytable ids on every query: the query surface
    asks for no span text (no ``spans=`` read flag, no ``["spans"]``
    column access, no ``tags=True`` decode)."""
    root = Path(rio.__file__).parent
    surface = [
        root / "pipelines.py", root / "api.py", root / "views.py",
        *sorted((root / "ops").rglob("*.py")), *sorted((root / "spatial").rglob("*.py")),
    ]
    for path in surface:
        text = path.read_text()
        for needle in (r"\bspans=", r'\["spans"\]', r"\btags=True"):
            assert not re.search(needle, text), (path, needle)
    assert len(surface) >= 30


VIEW_KERNELS = {"snapshots", "contributions"}


def _view_kernel_uses(tree: ast.Module) -> list[str]:
    """Every import of ``temporal.snapshots``/``contributions`` (under
    any alias) and every attribute read of them off an imported
    ``temporal`` module."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if (node.module or "").split(".")[-1] == "temporal" and a.name in VIEW_KERNELS:
                    found.append(f"import {a.name} as {a.asname or a.name}")
                if a.name == "temporal":
                    modules.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name.endswith(".temporal"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr in VIEW_KERNELS
            and ast.unparse(node.value) in modules
        ):
            found.append(ast.unparse(node))
    return found


def test_view_rows_come_from_the_views_entry():
    """Only views.py hands decoded versions to the view kernels: every
    other module takes snapshot and contribution rows from
    ``views.snapshot_rows``/``contribution_rows``, which prune the
    decode to the columns read and pass the document codes."""
    root = Path(rio.__file__).parent
    modules = sorted(root.rglob("*.py"))
    found = {
        path.relative_to(root).as_posix(): uses
        for path in modules
        if path.name not in ("views.py", "temporal.py")
        and (uses := _view_kernel_uses(ast.parse(path.read_text())))
    }
    assert len(modules) >= 50
    assert found == {}
    assert _view_kernel_uses(ast.parse(
        "from .temporal import snapshots as s\nfrom . import temporal as t\nt.contributions(x)"
    )) == ["import snapshots as s", "t.contributions"]


# every cached table whose build packs or encodes through a shuffle
COLD_BUILDS = [
    ingest.ensure_documents, ingest.ensure_way_documents, ingest.ensure_relation_documents,
    ingest.ensure_oldstyle_documents, osmpbf.ensure_osmpbf_ways, osmpbf.ensure_osmpbf_relations,
]


def test_cold_builds_run_no_ray_data_shuffle(monkeypatch, tmp_path, executions):
    """The cached-table packs run through io.reduce_by_key: a cold
    build of every table starts Ray Data executions (the reads and
    their stages), but no all-to-all operator among them."""
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path))
    for ensure in COLD_BUILDS:
        ensure(SF)
    assert executions and not executions.all_to_all


def _built_at_blocks(monkeypatch, root, n: int) -> dict:
    """Every COLD_BUILDS table built with every input read as ``n``
    blocks under a fresh cache ``root``: a parquet table as its shard
    files in name order, a pbf fixture as its decoded rows, sorted."""
    monkeypatch.setenv("RAYHIST_CACHE", str(root))
    monkeypatch.setattr(rio, "auto_num_blocks", lambda *args: n)
    out = {}
    for ensure in COLD_BUILDS:
        path = ensure(SF)
        if ensure.__module__ == ingest.__name__:
            out[ensure.__name__] = [pq.read_table(f) for f in sorted(Path(path).glob("*.parquet"))]
        else:
            rows = osmpbf.read_osmpbf(path).to_pandas()
            out[ensure.__name__] = rows.sort_values(["etype", "osm_id", "v"], ignore_index=True)
    return out


def test_cached_tables_are_block_count_invariant(monkeypatch, tmp_path):
    """One pack bucket per input block: the tables read back the same
    at 1 and 4 blocks, row for row, in the same shard files."""
    one = _built_at_blocks(monkeypatch, tmp_path / "one", 1)
    four = _built_at_blocks(monkeypatch, tmp_path / "four", 4)
    for name, got in four.items():
        if isinstance(got, pd.DataFrame):
            pd.testing.assert_frame_equal(one[name], got)
            continue
        assert [t.num_rows for t in one[name]] == [t.num_rows for t in got], name
        assert pa.concat_tables(one[name]).equals(pa.concat_tables(got)), name
