"""Named query pipelines — the ``queries()`` surface of the engine.

Each function takes ``sf_dir`` and returns a small pandas DataFrame
with EXACTLY the column names its DuckDB oracle (rayhist.oracles)
produces. All history pipelines read the span-document table (built
once per sf_dir by rayhist.ingest) and run the fused
decode+interpolate view stages. Grouped-aggregate results are tiny by
construction, so their terminal ``to_pandas`` is driver-safe at any
scale; queries that return one row PER ENTITY/WAY (latest-state,
per-entity counts, way lengths) use the driver collect only as the
ORACLE-COMPARE convention — at production scale those pipelines
terminate in ``write_parquet`` (the computation itself is streaming;
see q_sample_docs' docstring for the pattern).

Canonical query constants: the synthetic testdata spans January 2024
(all scale factors), so snapshot timestamps are daily
2024-01-01..2024-02-01 and the contribution interval is
[2024-01-05, 2024-01-25).
"""

from __future__ import annotations

import dataclasses
import functools
import glob
import hashlib
import math
import os
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset  # noqa: F401 (registers pc.field filter expressions)
import ray

from . import io as rio
from .aggregate import (
    KeyedPartials, approx_heavy_hitters, combine_partials, cube_levels, estimated_quantiles,
    floor_bin, grouped_approx_count_distinct, grouped_estimated_quantiles, grouped_mode,
    pivot_counts, rollup_sums, zerofill,
)
from .api import OSMContributionView, OSMEntitySnapshotView
from .functions.bloom import build_bloom
from .functions.geo import EARTH_RADIUS, distance_equirectangular
from .geometry import clip_segments_convex, clip_segments_even_odd
from .ingest import (
    compound_keytable, ensure_documents, ensure_multizoom_layout, ensure_oldstyle_documents,
    ensure_way_documents, read_documents, read_oldstyle_documents, read_relation_documents,
    read_way_documents, sig_keytable,
)
from .members import COMPOUND_BATCH
from .members_vec import (
    contribution_stats_batch_vec, old_style_tags, role_id, snapshot_geoms_batch_vec,
    snapshots_old_style_batch_vec, tag_match,
)
from .model import (
    COMPOUND_READ_COLUMNS, DECODE_COLUMNS, decode_spans, doc_codes, reverse_version_runs,
    tag_lookup,
)
from .ops.bfs import bfs_hops
from .ops.cc import connected_components
from .ops.dedup import (
    embedding_dup_pairs, exact_dedup, exact_jaccard_pairs, minhash_lsh_pairs,
    simhash_pairs,
)
from .ops.fuzzy import edit1_pairs
from .ops.hits import hits_bipartite
from .ops.kcore import k_core
from .ops.kmeans import kmeans_int
from .ops.multimodal import MediaDecodeStage, synth_media_table
from .ops.pagerank import pagerank_int
from .ops.profile import profile_columns
from .ops.relational import (
    _weighted_pick, broadcast_join, cents, combine_by_key, deterministic_sample,
    deterministic_split, exact_quantiles_int, grouped_exact_quantiles_int,
    grouped_median_mad_int, grouped_weighted_median_int, hash_join, hash_semi_join,
    island_length_histogram, ordered_string_agg, pareto_front_2d, percentile_cont_int,
    round_half_away, stratified_sample, topk, topk_per_group, unpivot, value_histogram,
    weighted_sample_topk,
)
from .ops.scan import (
    grouped_recurrence_ewma_int, grouped_recurrence_holt_int, ordered_prefix_sum,
)
from .ops.sessions import interval_union_length, sessionize, user_session_stats
from .ops.sssp import sssp_int
from .ops.text import (
    STOPWORDS, add_bpe_token_count, add_token_count, explode_windows, fingerprint_stage,
    langid_stage, quality_stage,
)
from .ops.triangles import (
    dedupe_edges, edge_triangle_support, triangle_count, triangle_counts_per_node,
)
from .ops.window import (
    asof_join, distinct_set_op, interval_coverage_counts, per_key_interarrival,
    with_prior_window, with_ranked_window, with_time_window,
)
from .sources.arrowipc import ensure_arrow_events, read_arrow_ipc
from .sources.csvlog import ensure_csv_events, read_csv_log
from .sources.hivepart import ensure_partitioned_events, read_partition_days
from .sources.jsonl import ensure_jsonl_events, read_jsonl
from .sources.osmpbf import (
    ensure_osmpbf, ensure_osmpbf_relations, ensure_osmpbf_ways, osmpbf_documents,
    read_osmpbf,
)
from .sources.pbfish import ensure_pbfish, read_pbfish
from .spatial.fip import contains_convex
from .spatial.geohash import PRECISION, geohash_bits, geohash_str
from .spatial.grid import cell_id, multizoom_query_cells
from .spatial.hexgrid import HEX_H, HEX_W, hex_cell, hex_id, unpack_hex
from .spatial.hull import grouped_convex_hull
from .spatial.join import RegionIndex
from .spatial.knn import (
    ann_cosine_ivf_pruned, ann_cosine_lsh_pruned, ann_cosine_topk, knn_all, knn_queries,
)
from .spatial.polyfile import load_poly
from .spatial.predicates import point_segment_d2, segments_cross
from .spatial.radius import radius_self_join
from .spatial.raster import raster_value_for
from .spatial.rectjoin import rect_self_join
from .spatial.s2 import cell_to_face_ij, s2_cell
from .spatial.strtree import STRtreeRegionIndex
from .state.checkpoint import read_outputs, run_sharded, salted_count_by, shard_rows
from .temporal import TagFilter, _sorted_versions
from .views import (
    AOI, ViewRows, contribution_rows, contribution_stats_stage, snapshot_counts_stage,
    snapshot_rows, snapshot_stage,
)

# name -> (pipeline, oracle). Every q_<name> below registers itself with
# @query; __ray_entry__.queries() and oracle_sql() are views of this dict.
QUERIES: dict[str, tuple[Callable[[str], pd.DataFrame], Callable[[Any], str] | None]] = {}


def query(oracle: Callable[[Any], str] | None):
    """Register the decorated ``q_<name>`` as query ``<name>``.

    ``oracle`` maps the ``rayhist.oracles`` module to the DuckDB SQL twin
    whose result must equal the pipeline's, column names included (the
    module is passed in because oracles imports this module's constants,
    so a top-level import the other way would be circular). ``None``
    marks a rows-only query: its output has no SQL mirror and its
    contract is pinned in pytest, as the reason at each site says. The
    function is returned unchanged."""

    def register(fn):
        name = fn.__name__.removeprefix("q_")
        if name in QUERIES:
            raise ValueError(f"query {name!r} registered twice")
        QUERIES[name] = (fn, oracle)
        return fn

    return register


DAY_US = 86_400_000_000
T0 = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in unix us
SNAP_DAILY = [T0 + i * DAY_US for i in range(33)]  # Jan 1 .. Feb 2
SNAP_WEEKLY = [T0 + i * DAY_US for i in (0, 7, 14, 21, 28)]
T_MID = T0 + 14 * DAY_US  # 2024-01-15
CONTRIB_FROM = T0 + 4 * DAY_US  # 2024-01-05
CONTRIB_TO = T0 + 24 * DAY_US  # 2024-01-25
CONTRIB_BINS = [T0 + i * DAY_US for i in range(4, 24)]  # daily bins in interval

CELL_ZOOM = 4
RASTER_ZOOM = 6
DEBOUNCE_GAP_US = 300 * 1_000_000  # debounce suppression window
CHI2_SCALE = 1_000_000  # chi-square micro-unit quantization

# convex CCW region polygons in e7 coordinates (mirrored literally in SQL)
REGIONS: dict[str, list[tuple[float, float]]] = {
    "west_rect": [(-1.2e9, -6e8), (-2e8, -6e8), (-2e8, 6e8), (-1.2e9, 6e8)],
    "east_rect": [(2e8, -6e8), (1.2e9, -6e8), (1.2e9, 6e8), (2e8, 6e8)],
    "north_pentagon": [(-4e8, 6.2e8), (4e8, 6.2e8), (6e8, 7.5e8), (0.0, 8.8e8), (-6e8, 7.5e8)],
}


def _docs(sf_dir: str):
    # RAYHIST_REP > 1 deterministically amplifies the corpus — set only
    # by bench.py; correctness queries always run at rep=1. No query
    # reads the span text: decode_spans gathers the typed per-version
    # columns (model.DECODE_COLUMNS), tags as keytable ids.
    return read_documents(
        sf_dir, columns=DECODE_COLUMNS, rep=int(os.environ.get("RAYHIST_REP", "1"))
    )


def _tag_lookup(sf_dir: str) -> pa.Table:
    """The tag strings of the node table's keytable ids, for a stage
    that reads ``etype``/``kk``/``tag_sig`` (views.snapshot_rows)."""
    return tag_lookup(sig_keytable(sf_dir))


def _positions(batch: pa.Table) -> pa.Table:
    """(osm_id, lon_e7, lat_e7) of every entity visible at T_MID: the
    position stage of the join, kNN and point-pattern queries."""
    return snapshot_rows(batch, [T_MID], ["osm_id", "lon_e7", "lat_e7"])


# Row functions of the plain-input partials: each query's keyed count
# and sums is an aggregate.KeyedPartials over a module-level row
# function (or a functools.partial of one), which pickles by reference.
def _as_is(b: pa.Table) -> pa.Table:
    """The block itself, for an input that carries its key and sum
    columns."""
    return b


def _value_cents(b: pa.Table) -> pa.ChunkedArray:
    """The events' ``value`` in integer cents (``cents``)."""
    return cents(b, "value", "value_c")["value_c"]


def _squared(v: np.ndarray) -> np.ndarray:
    """The squares of integer cents. numpy int64 wraps silently, so the
    batch's sum of squares (a float estimate) is bounded before the
    product, with headroom for the int64 combine over thousands of
    batches: an out-of-range corpus raises."""
    if v.size and float(np.sum(v.astype(np.float64) ** 2)) > 1e15:
        raise OverflowError("batch sum of squared cents exceeds the int64 safety bound")
    return v * v


def _value_c2(b: pa.Table) -> np.ndarray:
    """The squared cents of the events' values."""
    return _squared(_value_cents(b).to_numpy())


def _event_day(b: pa.Table) -> np.ndarray:
    return (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US


# the derived event columns a partial groups or sums by
_EVENT_COLUMNS = {
    "etype": lambda b: b["event_type"],
    "day": _event_day,
    "weekday": lambda b: _event_day(b) % 7,  # 0 = Monday (T0's weekday)
    "grp": lambda b: b["user_id"].to_numpy(zero_copy_only=False) % 2,  # the A/B cohort
    "value_c": _value_cents,
    "value_c2": _value_c2,
    "click": lambda b: pc.equal(b["event_type"], "click"),
}


def _events(b: pa.Table, columns: tuple[str, ...]) -> pa.Table:
    """The ``columns`` of ``_EVENT_COLUMNS`` over an events block."""
    return pa.table({c: _EVENT_COLUMNS[c](b) for c in columns})


def _event_partials(keys: tuple[str, ...], sums: tuple[str, ...] = ()) -> KeyedPartials:
    """The count and sums per ``keys`` of derived event columns."""
    return KeyedPartials(functools.partial(_events, columns=(*keys, *sums)), keys=keys, sums=sums)


# ---------------------------------------------------------------- snapshots
@query(lambda o: o.snapshot_count_daily())
def q_snapshot_count_daily(sf_dir: str) -> pd.DataFrame:
    """Snapshot count per daily timestamp, zerofilled (the
    TestHelpersOSMEntitySnapshotView.java:46-87 shape). Fused
    view+partial-count stage: the shuffle sees |timestamps| rows per
    batch, not every snapshot."""
    stage, keys = snapshot_counts_stage(SNAP_DAILY)
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


@query(lambda o: o.snapshot_count_daily("visible AND etype = 'click'"))
def q_snapshot_count_daily_click(sf_dir: str) -> pd.DataFrame:
    """Same, filtered to tag etype=click (osmTag key+value filter).

    Runs on the int-keytable path (osm/OSMEntity.java:29,97-152): the
    filter is a LUT gather over per-version sig ids — no tag-string
    decode at all in the hot stage."""
    stage, keys = snapshot_counts_stage(
        SNAP_DAILY, TagFilter("etype", "click"), keytable=sig_keytable(sf_dir)
    )
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


def _reversed_rows(batch: pa.Table, rows: ViewRows) -> pa.Table:
    """The view ``rows`` of the batch with every document's version runs
    reversed (``model.reverse_version_runs``)."""
    return rows(reverse_version_runs(batch))


@query(lambda o: o.snapshot_count_daily("visible AND etype = 'click'"))
def q_snapshot_count_daily_unsorted(sf_dir: str) -> pd.DataFrame:
    """Out-of-order version runs (the reference's
    HEADER_TIMESTAMPS_NOT_IN_ORDER tolerance, OSHNodeImpl.java:30):
    the same corpus and oracle as snapshot_count_daily_click, but every
    document's version runs — and its per-version tag_ids — are
    REVERSED (model.reverse_version_runs) before the fused stage. The
    interpolators realign per doc, so the result must be identical to
    the sorted corpus; the oracle (order-free SQL) pins that."""
    stage, keys = snapshot_counts_stage(
        SNAP_DAILY, TagFilter("etype", "click"), keytable=sig_keytable(sf_dir)
    )
    stage = dataclasses.replace(stage, rows=functools.partial(_reversed_rows, rows=stage.rows))
    partials = rio.map_blocks(_docs(sf_dir), stage)
    df = combine_partials(partials, keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


# kk <> -1 encodes KEY PRESENCE (hasTagKeyExcluding = key present
# AND value outside the set): the sandbox corpus happens to carry
# tag k on every event, but the oracle must mirror the engine
# predicate, not a corpus invariant
@query(lambda o: o.snapshot_count_daily("visible AND kk <> -1 AND kk NOT IN (0, 2, 5)"))
def q_snapshot_count_key_excluding(sf_dir: str) -> pd.DataFrame:
    """hasTagKeyExcluding exact semantics (OSMEntity.java:123-137): key
    PRESENT with value NOT in the excluded set — a different predicate
    from key-absent (TagFilter.exclude). Daily snapshot counts where
    tag 'k' is present with value outside {'0','2','5'}."""
    stage, keys = snapshot_counts_stage(
        SNAP_DAILY, TagFilter("k", exclude_values=("0", "2", "5")),
        keytable=sig_keytable(sf_dir),
    )
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


@query(lambda o: o.snapshot_cells())
def q_snapshot_cells(sf_dir: str) -> pd.DataFrame:
    """Snapshots at weekly timestamps grouped by grid cell (zoom 4) —
    the aggregateBy(cell, timestamp) shuffle over pre-aggregated
    partials."""
    stage, keys = snapshot_counts_stage(
        SNAP_WEEKLY, cell=functools.partial(cell_id, zoom=CELL_ZOOM)
    )
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n"})
    return df.sort_values(["ts_q", "cell"]).reset_index(drop=True)


S2_LEVEL = 5  # 6*32*32 = 6144 possible cells -> low-card combine OK


# S2-style spherical cells: SQL mirrors the float layers 1:1;
# the Hilbert id layer is a tested bijection of (face,i,j)
@query(lambda o: o.snapshot_count_by_s2cell())
def q_snapshot_count_by_s2cell(sf_dir: str) -> pd.DataFrame:
    """Snapshot count at T_MID grouped by S2-STYLE SPHERICAL CELL
    (spatial/s2.py: cube-face gnomonic projection + quadratic ST +
    Hilbert-curve ids — the north-star H3/S2 partition key, vs the
    equal-degree XYGrid the other cell queries use).

    The engine groups by the PACKED HILBERT ID (the partition key a
    cluster would shuffle on) and decodes (face, i, j) back from the
    id for output — so the oracle, which replicates the float layers
    (cos/sin/div/sqrt/floor are single IEEE ops, mirrored literally in
    SQL), also value-checks the id layer through the bijection."""
    stage, _ = snapshot_counts_stage([T_MID], cell=functools.partial(s2_cell, level=S2_LEVEL))
    partials = rio.map_blocks(_docs(sf_dir), stage)
    df = combine_partials(partials, ["cell"], {"n_part": "n_snapshots"})
    face, i, j, _lvl = cell_to_face_ij(df["cell"].to_numpy(dtype=np.int64))
    out = pd.DataFrame(
        {"face": face, "i": i, "j": j, "n_snapshots": df["n_snapshots"].astype("int64")}
    )
    return out.sort_values(["face", "i", "j"]).reset_index(drop=True)


@query(lambda o: o.snapshot_latest_state())
def q_snapshot_latest_state(sf_dir: str) -> pd.DataFrame:
    """Full reconstructed state of every visible entity at T_MID."""
    snaps = rio.map_blocks(_docs(sf_dir), snapshot_stage([T_MID], sig_keytable(sf_dir)))
    df = snaps.to_pandas()[["doc_id", "osm_id", "v", "lon_e7", "lat_e7", "etype", "uid"]]
    return df.sort_values("osm_id").reset_index(drop=True)


DWELL_END = T0 + 31 * DAY_US  # 2024-02-01: dwell-time window close


def _dwell_stage(b: pa.Table, lookup: pa.Table) -> pa.Table:
    """Fused dwell-time partial: decode (geom pruned) -> per-doc
    version realign (_sorted_versions, the HEADER_TIMESTAMPS_NOT_IN_
    ORDER tolerance) -> half-open [ts_i, ts_{i+1}) intervals, last
    version clipped at DWELL_END -> per-etype partial sums. Module-
    level so the unsorted-fixture invariance test can drive it on a
    reversed corpus."""
    tbl, codes, ts, v, _ = _sorted_versions(decode_spans(b, lookup, geom=False), doc_codes(b))
    if not len(ts):
        return pa.table(
            {"etype": pa.array([], pa.string()),
             "dwell_p": pa.array([], pa.int64())}
        )
    last_of_doc = np.r_[codes[1:] != codes[:-1], True]
    nxt = np.where(last_of_doc, DWELL_END, np.r_[ts[1:], DWELL_END])
    dur = np.clip(np.minimum(nxt, DWELL_END) - np.maximum(ts, T0), 0, None)
    vis = tbl["visible"].to_numpy(zero_copy_only=False)
    et = tbl["etype"].to_numpy(zero_copy_only=False)
    df = pd.DataFrame({"etype": et[vis], "dwell_p": dur[vis]})
    g = df.groupby("etype", as_index=False)["dwell_p"].sum()
    return pa.Table.from_pandas(g, preserve_index=False)


@query(lambda o: o.etype_dwell_time(T0, DWELL_END))
def q_etype_dwell_time(sf_dir: str) -> pd.DataFrame:
    """Time-INTEGRATED state: total visible validity microseconds per
    etype inside [T0, DWELL_END) — 'how long did each tag state exist',
    the temporal-integral semantics underneath the reference's
    snapshot sampling (a snapshot count is this integral sampled on a
    grid; OSHDBTimestamps vs validTo in
    oshdb-api/.../OSMEntitySnapshot.java). One fused map_batches:
    decode (geom pruned) -> per-doc version sort (the
    HEADER_TIMESTAMPS_NOT_IN_ORDER realignment, shared with the
    interpolators) -> half-open interval [ts_i, ts_{i+1}) per version,
    last version clipped at the window close -> per-batch partial
    sums; |etype| rows per block to the driver. Exact int64
    microseconds end to end."""
    partials = rio.map_blocks(
        _docs(sf_dir), functools.partial(_dwell_stage, lookup=_tag_lookup(sf_dir))
    )
    df = combine_partials(partials, ["etype"], {"dwell_p": "dwell_us"})
    df["dwell_us"] = df["dwell_us"].astype("int64")
    return df.sort_values("etype").reset_index(drop=True)


_REVERT_EMPTY = pa.table(
    {
        "day": pa.array([], pa.int64()),
        "n_reverts_p": pa.array([], pa.int64()),
        "n_entities_p": pa.array([], pa.int64()),
    }
)


def _revert_stage(b: pa.Table) -> pa.Table:
    """Fused tag-revert partial: decode with keytable tag ids (a revert
    test is tag-SIGNATURE equality, and sig ids are bijective with
    signatures) -> per-doc version realign
    (_sorted_versions) -> vectorized lag-2 compare -> per-(day)
    partial counts. A version REVERTS when its tags equal the
    before-previous version's tags while differing from the previous
    version's (the A->B->A edit-war shape; OSHDB users detect
    vandalism this way over OSMContributionView, reference semantics
    per contribution TAG_CHANGE classification,
    CellIterator.java:578-595 — the revert predicate itself is a
    target-side analysis). Distinct-entity partials are exact because
    every document's versions decode inside one batch, so (day, doc)
    pairs never repeat across blocks."""
    tbl, codes, ts, _v, _ = _sorted_versions(decode_spans(b, geom=False), doc_codes(b))
    n = len(ts)
    if n < 3:
        return _REVERT_EMPTY
    tid = tbl["tag_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    rev = np.zeros(n, dtype=bool)
    rev[2:] = (
        (codes[2:] == codes[:-2])
        & (tid[2:] == tid[:-2])
        & (tid[2:] != tid[1:-1])
    )
    if not rev.any():
        return _REVERT_EMPTY
    day = (ts[rev] - T0) // DAY_US
    df = pd.DataFrame({"day": day, "doc": codes[rev]})
    g = df.groupby("day").agg(
        n_reverts_p=("doc", "size"), n_entities_p=("doc", "nunique")
    ).reset_index()
    return pa.table(
        {
            "day": pa.array(g["day"].to_numpy(), pa.int64()),
            "n_reverts_p": pa.array(g["n_reverts_p"].to_numpy(), pa.int64()),
            "n_entities_p": pa.array(g["n_entities_p"].to_numpy(), pa.int64()),
        }
    )


@query(lambda o: o.tag_reverts(T0, DAY_US))
def q_tag_reverts(sf_dir: str) -> pd.DataFrame:
    """Edit-war detection: per day, how many versions REVERT their
    entity's tags to the state two versions back (A -> B -> A), and
    how many distinct entities did so — the OSM vandalism-analysis
    primitive. One fused map_batches (pruned int-keytable decode +
    lag-2 compare + per-batch partials); the driver combines |days|
    rows. SQL mirror: lag(tag_sig, 2) window over the derivation."""
    partials = rio.map_blocks(_docs(sf_dir), _revert_stage)
    df = combine_partials(
        partials, ["day"], {"n_reverts_p": "n_reverts", "n_entities_p": "n_entities"}
    )
    df = df.astype({"day": "int64", "n_reverts": "int64", "n_entities": "int64"})
    return df.sort_values("day").reset_index(drop=True)


_PREDOM_EMPTY = pa.table(
    {
        "etype": pa.array([], pa.string()),
        "n_entities_p": pa.array([], pa.int64()),
        "sum_dwell_p": pa.array([], pa.int64()),
    }
)


def _predominant_stage(b: pa.Table, lookup: pa.Table) -> pa.Table:
    """Time-weighted modal tag partial: per doc, each etype's total
    visible validity microseconds inside [T0, DWELL_END); the doc's
    PREDOMINANT etype is the dwell argmax (tie -> min etype). The
    'what was this entity, weighted by time' analysis — a snapshot
    mode would overweight whatever happened to be true on the grid.
    Per-batch exact: docs decode whole-in-batch."""
    tbl, codes, ts, _v, _ = _sorted_versions(decode_spans(b, lookup, geom=False), doc_codes(b))
    if not len(ts):
        return _PREDOM_EMPTY
    last_of_doc = np.r_[codes[1:] != codes[:-1], True]
    nxt = np.where(last_of_doc, DWELL_END, np.r_[ts[1:], DWELL_END])
    dur = np.clip(np.minimum(nxt, DWELL_END) - np.maximum(ts, T0), 0, None)
    vis = tbl["visible"].to_numpy(zero_copy_only=False)
    et = tbl["etype"].to_numpy(zero_copy_only=False)
    df = pd.DataFrame({"doc": codes[vis], "etype": et[vis], "dwell": dur[vis]})
    dw = df.groupby(["doc", "etype"], as_index=False)["dwell"].sum()
    dw = dw[dw["dwell"] > 0]
    if not len(dw):
        return _PREDOM_EMPTY
    win = dw.sort_values(
        ["doc", "dwell", "etype"], ascending=[True, False, True], kind="mergesort"
    ).drop_duplicates("doc", keep="first")
    g = win.groupby("etype", as_index=False).agg(
        n_entities_p=("doc", "size"), sum_dwell_p=("dwell", "sum")
    )
    return pa.table(
        {
            "etype": pa.array(g["etype"].to_numpy(), pa.string()),
            "n_entities_p": pa.array(g["n_entities_p"].to_numpy(), pa.int64()),
            "sum_dwell_p": pa.array(g["sum_dwell_p"].to_numpy(), pa.int64()),
        }
    )


@query(lambda o: o.predominant_etype_dwell(T0, DWELL_END))
def q_predominant_etype_dwell(sf_dir: str) -> pd.DataFrame:
    """TIME-WEIGHTED MODE: how many entities have each etype as their
    longest-lived visible tag state over [T0, DWELL_END), and those
    winners' total dwell — the 'predominant land use' analysis (a
    plain snapshot mode would overweight the sampling grid; this is
    the integral argmax). Zero shuffle; |etypes| partials combine."""
    partials = rio.map_blocks(
        _docs(sf_dir), functools.partial(_predominant_stage, lookup=_tag_lookup(sf_dir))
    )
    df = combine_partials(
        partials,
        ["etype"],
        {"n_entities_p": "n_entities", "sum_dwell_p": "sum_dwell_us"},
    )
    df = df.astype({"n_entities": "int64", "sum_dwell_us": "int64"})
    return df.sort_values("etype").reset_index(drop=True)


def _lifespans(b: pa.Table) -> pa.Table:
    """Each entity's lifespan: decode (tags and geom both pruned — only
    ts/visible are read) -> per-doc realign -> creation (first version
    ts) to deletion (last version ts when the final state is a
    tombstone) or to the window close when still alive, floor-binned
    to whole days, and whether it was ``deleted`` (0/1). Every doc
    decodes inside one batch, so summed partials count each entity
    exactly once."""
    tbl, codes, ts, _v, _ = _sorted_versions(decode_spans(b, geom=False), doc_codes(b))
    if not len(ts):
        return pa.table(
            {"lifespan_days": pa.array([], pa.int64()), "deleted": pa.array([], pa.int64())}
        )
    first = np.r_[True, codes[1:] != codes[:-1]]
    last = np.r_[codes[1:] != codes[:-1], True]
    deleted = ~tbl["visible"].to_numpy(zero_copy_only=False)[last]  # a final tombstone
    end = np.where(deleted, ts[last], DWELL_END)
    return pa.table(
        {"lifespan_days": (end - ts[first]) // DAY_US, "deleted": deleted.astype(np.int64)}
    )


# per-(lifespan_days, deleted) entity counts per batch
_LIFESPAN_COUNTS = KeyedPartials(_lifespans, keys=("lifespan_days", "deleted"))


@query(lambda o: o.entity_lifespans(DWELL_END, DAY_US))
def q_entity_lifespans(sf_dir: str) -> pd.DataFrame:
    """Entity-age histogram: how long entities live from creation to
    deletion (or to the window close when still alive) — the OSM
    object-age / data-freshness analysis (the reference models the
    same creation->tombstone life cycle via version<=0 deletion
    markers, osm/OSMEntity.java:25). Zero shuffle: per-doc lifespans
    resolve inside the fused decode stage and only the
    |days x 2|-sized histogram partials leave each block."""
    partials = rio.map_blocks(_docs(sf_dir), _LIFESPAN_COUNTS)
    return combine_partials(partials, ["lifespan_days", "deleted"], {"n_part": "n_entities"})


_ACTIVITY_EMPTY = pa.table(
    {
        "uid": pa.array([], pa.int64()),
        "n_versions_p": pa.array([], pa.int64()),
        "n_entities_p": pa.array([], pa.int64()),
        "first_ts_p": pa.array([], pa.int64()),
        "last_ts_p": pa.array([], pa.int64()),
    }
)


def _activity_stage(b: pa.Table) -> pa.Table:
    """Contributor-leaderboard partial: versions, distinct entities
    touched, first/last edit timestamp per uid — all per-batch
    combinable (first/last as min/max witnesses; (uid, doc) distinct
    pairs are exact because docs decode whole-in-batch)."""
    tbl = decode_spans(b, geom=False)
    if not len(tbl):
        return _ACTIVITY_EMPTY
    codes = doc_codes(b)
    df = pd.DataFrame(
        {
            "uid": tbl["uid"].to_numpy(zero_copy_only=False),
            "doc": codes,
            "ts": tbl["ts"].to_numpy(zero_copy_only=False),
        }
    )
    g = df.groupby("uid")
    out = pd.DataFrame(
        {
            "n_versions_p": g["ts"].size(),
            "n_entities_p": g["doc"].nunique(),
            "first_ts_p": g["ts"].min(),
            "last_ts_p": g["ts"].max(),
        }
    ).reset_index()
    return pa.Table.from_pandas(out, preserve_index=False)


@query(lambda o: o.contributor_activity())
def q_contributor_activity(sf_dir: str) -> pd.DataFrame:
    """Contributor leaderboard — the OSM community-analysis staple
    (edits, objects touched, first/last activity per mapper;
    the reference exposes uid via OSMEntity.getUserId,
    osm/OSMEntity.java:60): one fused decode pass, |uids| combinable
    partials (min/max witnesses for the activity span; entity counts
    stay exact because a document's versions never split across
    batches)."""
    parts = rio.map_blocks(_docs(sf_dir), _activity_stage).to_pandas()
    g = parts.groupby("uid")
    df = pd.DataFrame(
        {
            "n_versions": g["n_versions_p"].sum(),
            "n_entities": g["n_entities_p"].sum(),
            "first_ts": g["first_ts_p"].min(),
            "last_ts": g["last_ts_p"].max(),
        }
    ).reset_index()
    df = df.astype(
        {
            "uid": "int64",
            "n_versions": "int64",
            "n_entities": "int64",
            "first_ts": "int64",
            "last_ts": "int64",
        }
    )
    return df.sort_values("uid").reset_index(drop=True)


def _version_and_sig_counts(b: pa.Table) -> pa.Table:
    """Each entity's version count and DISTINCT-signature count:
    int-keytable decode -> one integer-key unique over (doc, tag_id).
    Docs decode whole-in-batch, so summed partials count each entity
    once."""
    tbl = decode_spans(b, geom=False)
    if not len(tbl):
        return pa.table(
            {"n_versions": pa.array([], pa.int64()), "n_sigs": pa.array([], pa.int64())}
        )

    codes = doc_codes(b)
    tid = tbl["tag_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    if (tid < 0).any():
        # -1 marks a keytable miss or a compound doc with no packed
        # tag_ids; the integer pair key below would credit a phantom
        # signature to the PREVIOUS doc — fail loudly instead
        raise ValueError("entity_tag_churn: corpus carries tag_id=-1 versions")
    nver = np.bincount(codes)
    # distinct (doc, sig) pairs via one integer-key unique
    nt = np.int64(tid.max()) + 1
    pairs = np.unique(codes.astype(np.int64) * nt + tid)
    nsig = np.bincount((pairs // nt).astype(np.int64), minlength=len(nver))
    docs = np.flatnonzero(nver)
    return pa.table({"n_versions": nver[docs], "n_sigs": nsig[docs]})


@query(lambda o: o.entity_tag_churn())
def q_entity_tag_churn(sf_dir: str) -> pd.DataFrame:
    """Tag-stability grid: how many entities have V versions but only
    S distinct tag signatures — the churn profile separating stable
    entities (S=1 at any V) from edit-churned ones (S~V). Zero
    shuffle: per-doc counts resolve inside the fused int-keytable
    decode; the driver combines grid-bounded partials. SQL mirror:
    count(DISTINCT tag_sig) per osm_id."""
    keys = ("n_versions", "n_sigs")
    stage = KeyedPartials(_version_and_sig_counts, keys=keys)
    partials = rio.map_blocks(_docs(sf_dir), stage)
    return combine_partials(partials, list(keys), {"n_part": "n_entities"})


# ------------------------------------------------------------ contributions
def _contrib_totals(sf_dir: str, tag_filter=None, aoi=None) -> pd.DataFrame:
    # node docs carry per-version keytable ids, so the tag filter AND
    # the TAG_CHANGE compare both run on small ints (sig ids are
    # bijective with signatures; equality is identical)
    stage, _ = contribution_stats_stage(
        CONTRIB_FROM, CONTRIB_TO, tag_filter, keytable=sig_keytable(sf_dir), aoi=aoi
    )
    return combine_partials(
        rio.map_blocks(_docs(sf_dir), stage),
        [],
        {
            "n_part": "n_total",
            "is_creation_part": "n_creation",
            "is_deletion_part": "n_deletion",
            "is_tag_change_part": "n_tag_change",
            "is_geom_change_part": "n_geom_change",
        },
    )


@query(lambda o: o.contrib_type_counts())
def q_contrib_type_counts(sf_dir: str) -> pd.DataFrame:
    """Total contribution counts by type over the interval (fused
    view + per-batch partial sums)."""
    return _contrib_totals(sf_dir)


@query(lambda o: o.contrib_type_counts("visible AND etype = 'click'"))
def q_contrib_type_counts_click(sf_dir: str) -> pd.DataFrame:
    """Filter-relative contribution counts (tag etype=click): losing
    the tag is a DELETION, regaining it a CREATION
    (CellIterator.java:578-595)."""
    return _contrib_totals(sf_dir, TagFilter("etype", "click"))


@query(lambda o: o.contrib_daily())
def q_contrib_daily(sf_dir: str) -> pd.DataFrame:
    """aggregateByTimestamp for contributions: floor-binned daily
    counts, zerofilled over every bin (MapReducer.java:774-822,
    zerofill :1857-1866)."""
    stage, keys = contribution_stats_stage(
        CONTRIB_FROM, CONTRIB_TO, bins=CONTRIB_BINS,
        flag_cols=["is_creation"],  # prunes the geom decode
    )
    agg = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage),
        keys,
        {"n_part": "n_contribs", "is_creation_part": "n_creations"},
    )
    return zerofill(agg, {"ts_q": CONTRIB_BINS}, {"n_contribs": 0, "n_creations": 0})


@query(lambda o: o.contrib_uniq_uids_daily())
def q_contrib_uniq_uids_daily(sf_dir: str) -> pd.DataFrame:
    """countUniq of contributor uids per daily bin
    (MapReducer.countUniq, :1165-1168): per-batch distinct partials,
    then an exact distinct over (ts_q, uid) buckets."""
    bins = np.asarray(CONTRIB_BINS, dtype=np.int64)

    def pairs(batch: pa.Table) -> pa.Table:
        c = contribution_rows(batch, CONTRIB_FROM, CONTRIB_TO, ["ts", "uid"])
        b = floor_bin(c["ts"].to_numpy(zero_copy_only=False), bins)
        t = pa.table({"ts_q": pa.array(b), "uid": c["uid"]})
        # pre-dedup within batch so the shuffle sees fewer rows
        return pa.TableGroupBy(t, ["ts_q", "uid"]).aggregate([]).select(["ts_q", "uid"])

    # a bucket holds every row of its (ts_q, uid) pairs, so its distinct
    # pairs are globally distinct and counting them per bin is a partial
    # (no O(#distinct-uids) driver pull)
    def bin_counts(t: pa.Table) -> pa.Table:
        distinct = pa.TableGroupBy(t, ["ts_q", "uid"]).aggregate([])
        return pa.TableGroupBy(distinct.select(["ts_q"]), ["ts_q"]).aggregate(
            [([], "count_all")]
        ).rename_columns(["ts_q", "n_part"])

    counts = rio.reduce_by_key(_docs(sf_dir), ["ts_q", "uid"], bin_counts, stage=pairs)
    out = combine_partials(rio.blocks_table(counts), ["ts_q"], {"n_part": "n_uids"})
    return zerofill(out, {"ts_q": CONTRIB_BINS}, {"n_uids": 0})


# ----------------------------------------------------------------- spatial
@query(lambda o: o.snapshot_pip_regions())
def q_snapshot_pip_regions(sf_dir: str) -> pd.DataFrame:
    """Point-in-polygon semi-join: snapshot points at T_MID against
    the broadcast convex region polygons; count per region,
    zerofilled (the aggregateByGeometry shape,
    MapReducer.java:857-888)."""
    region_items = sorted(REGIONS.items())

    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["lon_e7", "lat_e7"])
        lon = s["lon_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = s["lat_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        rids, counts = [], []
        for rid, ring in region_items:
            inside = contains_convex(np.asarray(ring), lon, lat)
            rids.append(rid)
            counts.append(int(inside.sum()))
        return pa.table({"region_id": pa.array(rids), "n_part": pa.array(counts, type=pa.int64())})

    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), ["region_id"], {"n_part": "n"})
    return zerofill(df, {"region_id": [r for r, _ in region_items]}, {"n": 0})


def _raster_value(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """The raster band value of each point's zoom-RASTER_ZOOM cell (a
    cell indexer)."""
    return raster_value_for(cell_id(lon, lat, RASTER_ZOOM))


@query(lambda o: o.raster_join())
def q_raster_join(sf_dir: str) -> pd.DataFrame:
    """Raster<->vector join: snapshot points at T_MID keyed by zoom-6
    cell, joined with the synthetic raster band, grouped by band
    value."""
    stage, keys = snapshot_counts_stage([T_MID], cell=_raster_value, keys=())
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n_points"})
    return df.rename(columns={"cell": "raster_value"})


def _knn_positions_flagged(sf_dir: str, mod: int):
    """Entity positions at T_MID with the query subset FLAGGED IN-STAGE
    (``_is_query`` = osm_id % mod == 0) — queries stay a column; no
    driver-built query list (the round-3 scale-killer: the list was
    corpus/17 rows of driver state). Returns (blocks, count, zoom)
    with zoom derived so cells hold O(2000) points (cells = 2^(2z-1))."""
    def positions(batch: pa.Table) -> pa.Table:
        t = _positions(batch)
        ids = t["osm_id"].to_numpy(zero_copy_only=False)
        return t.append_column("_is_query", pa.array(ids % mod == 0))

    # MATERIALIZE the positions (one block task per resident block, the
    # outputs kept in the object store): the halo join's chained sort-groupbys
    # re-execute a lazy upstream (boundary sampling + shuffle passes),
    # which re-runs the 6.4M-version decode SEVERAL times — measured
    # 32s vs 6s at rep=128/8cpus. The materialized table is tiny
    # (5 int columns, one row per live entity) and also serves the
    # sparse-neighborhood brute fallback without another decode.
    # zoom derives from the DOC count (block metadata, no scan) —
    # live positions <= docs, and exactness is zoom-independent.
    docs = _docs(sf_dir)
    pos = rio.materialize_blocks(docs, positions)
    n = rio.num_rows(docs)
    zoom = max(1, min(12, int(np.ceil((np.log2(max(n, 1) / 2000.0) + 1) / 2))))
    return pos, n, zoom


@query(lambda o: o.knn())
def q_knn(sf_dir: str) -> pd.DataFrame:
    """kNN (k=3) among entity positions at T_MID; queries are the
    entities with osm_id % MOD == 0 (MOD=17 for the oracle check;
    bench raises RAYHIST_KNN_MOD). Distributed end-to-end via the
    asymmetric halo join (spatial.knn.knn_queries): corpus scattered
    once, queries replicated to a 3x3 halo, per-cell vectorized top-k
    partials, bucketed groupby resolve with guarantee radii — no
    driver query list, no driver candidate reduce."""
    mod = int(os.environ.get("RAYHIST_KNN_MOD", "17"))
    pos, _n, zoom = _knn_positions_flagged(sf_dir, mod)
    out = knn_queries(pos, k=3, id_col="osm_id", zoom=zoom, halo=1)
    return out[["query_id", "neighbor_id", "rank", "dist2"]].reset_index(drop=True)


@query(lambda o: o.knn_majority_label())
def q_knn_majority_label(sf_dir: str) -> pd.DataFrame:
    """kNN CLASSIFICATION: each query point takes the MAJORITY event
    type among its 3 nearest neighbors at T_MID (tie -> min etype) —
    the vote terminal on top of the distributed halo-join kNN. Two
    bounded passes: the oracle-checked knn_queries resolve (output-
    sized), then one fused snapshot pass that looks up ONLY the
    neighbor ids' labels (the id set rides ray.put into a pc.is_in
    filter — nq x k ids, never the corpus); the vote is a driver
    reduce over nq x k rows."""
    mod = int(os.environ.get("RAYHIST_KNN_MOD", "17"))
    pos, _n, zoom = _knn_positions_flagged(sf_dir, mod)
    nn = knn_queries(pos, k=3, id_col="osm_id", zoom=zoom, halo=1)

    ids = np.unique(nn["neighbor_id"].to_numpy(dtype=np.int64))
    ids_ref = ray.put(ids)
    lookup = _tag_lookup(sf_dir)

    def labels(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["osm_id", "etype"], lookup)
        return s.filter(pc.is_in(s["osm_id"], pa.array(ray.get(ids_ref), pa.int64())))

    lab = rio.map_blocks(_docs(sf_dir), labels).to_pandas()
    m = nn.merge(lab, left_on="neighbor_id", right_on="osm_id", how="left")
    if m["etype"].isna().any():
        raise ValueError("knn majority: neighbor without a visible T_MID label")
    v = m.groupby(["query_id", "etype"], as_index=False).size()
    v = v.sort_values(
        ["query_id", "size", "etype"], ascending=[True, False, True], kind="mergesort"
    )
    win = v.drop_duplicates("query_id", keep="first")
    out = pd.DataFrame(
        {
            "query_id": win["query_id"].to_numpy(dtype=np.int64),
            "pred_etype": win["etype"].to_numpy(),
            "n_votes": win["size"].to_numpy(dtype=np.int64),
        }
    )
    return out.sort_values("query_id").reset_index(drop=True)


# ------------------------------------------------------------- relational
def _lineitem_cents(b: pa.Table) -> pa.Table:
    """Lineitem rows with quantity, price and discount in integer cents
    and their discount x quantity product ``dq``."""
    b = cents(cents(cents(b, "l_quantity", "qty_c"), "l_extendedprice", "price_c"),
              "l_discount", "disc_c")
    dq = pc.multiply(b["disc_c"], b["qty_c"])
    return b.append_column("dq", dq)


@query(lambda o: o.lineitem_agg())
def q_lineitem_agg(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style grouped aggregate over lineitem; money summed as
    integer cents so sums are order-independent (exact vs oracle)."""
    ds = rio.read_resident(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    keys = ("l_returnflag", "l_linestatus")
    stage = KeyedPartials(_lineitem_cents, keys=keys, sums=("qty_c", "price_c", "disc_c"))
    return combine_partials(
        rio.map_blocks(ds, stage),
        list(keys),
        {"n_part": "n", "qty_c_part": "sum_qty_cents", "price_c_part": "sum_price_cents",
         "disc_c_part": "sum_disc_cents"},
    )


@query(lambda o: o.orders_by_nation())
def q_orders_by_nation(sf_dir: str) -> pd.DataFrame:
    """orders |x| customer (both corpus-scaled: partitioned HASH join)
    |x| nation (25 rows: broadcast), grouped by nation name. Customer
    grows with the corpus, so it must NOT ride the broadcast path — at
    cluster scale a broadcast customer frame is a driver OOM
    (broadcast_join's contract covers fixed-size dimensions only).
    Nation joins broadcast-side as a pre-merge into customer batches
    BEFORE the shuffle (n_name replaces c_nationkey, keeping the
    shuffled payload narrow)."""
    nat = rio.read_resident(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nat = rio.blocks_table(nat).to_pandas().rename(columns={"n_nationkey": "c_nationkey"})
    cust = rio.read_resident(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    def slim(b: pd.DataFrame) -> pa.Table:  # arrow out: hash_join reads
        # the side's Arrow schema to pad the union
        return pa.table(
            {
                "o_custkey": pa.array(b["c_custkey"].to_numpy(), type=pa.int64()),
                "n_name": pa.array(b["n_name"].astype(str), type=pa.string()),
            }
        )

    cust = rio.materialize_blocks(
        broadcast_join(cust, nat, on="c_nationkey"), lambda t: slim(t.to_pandas())
    )
    orders = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]),
        lambda b: cents(b, "o_totalprice", "price_c"),
    )
    joined = hash_join(orders, cust, on="o_custkey")

    # nation-name final is 25 keys — per-batch partials + driver
    # combine (the CLAUDE.md low-cardinality rule), not a third
    # Dataset shuffle
    stage = KeyedPartials(_as_is, keys=("n_name",), sums=("price_c",))
    return combine_partials(
        rio.map_blocks(joined, stage), ["n_name"],
        {"n_part": "n_orders", "price_c_part": "sum_price_cents"},
    )


@query(lambda o: o.topk_orders())
def q_topk_orders(sf_dir: str) -> pd.DataFrame:
    """Top-20 orders by totalprice (deterministic tiebreak on key) —
    per-batch candidates + tiny global reduce, no full sort shuffle."""
    ds = rio.read_resident(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    out = topk(ds, key="o_totalprice", k=20, tiebreak="o_orderkey")
    return out[["o_orderkey", "o_totalprice"]]


@query(lambda o: o.events_by_type())
def q_events_by_type(sf_dir: str) -> pd.DataFrame:
    """events grouped by type: row count, distinct users, cents sum."""
    ds = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"])

    def pair_partial(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        g = pa.TableGroupBy(b, ["event_type", "user_id"]).aggregate(
            [([], "count_all"), ("value_c", "sum")]
        )
        return g.rename_columns(["event_type", "user_id", "n", "v"])

    # count-distinct users per type WITHOUT an O(#users) driver pull:
    # a bucket holds every row of its (type, user) pairs, so each pair
    # counts once in its bucket's per-type partial (the
    # q_contrib_uniq_uids_daily pattern)
    def per_type(t: pa.Table) -> pa.Table:
        pairs = pa.TableGroupBy(t, ["event_type", "user_id"]).aggregate(
            [("n", "sum"), ("v", "sum")]
        )
        g = pa.TableGroupBy(pairs, ["event_type"]).aggregate(
            [("n_sum", "sum"), ("v_sum", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["event_type", "n", "v", "u"])

    parts = rio.reduce_by_key(ds, ["event_type", "user_id"], per_type, stage=pair_partial)
    out = combine_partials(
        rio.blocks_table(parts),
        ["event_type"],
        {"n": "n", "v": "sum_value_cents", "u": "n_users"},
    )
    return out.sort_values("event_type").reset_index(drop=True)


@query(lambda o: o.price_quantiles())
def q_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact discrete quartiles of extendedprice cents (value at sorted
    index ((n-1)*q), distributed via value-histogram + cumsum)."""
    ds = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]),
        lambda b: cents(b, "l_extendedprice", "price_c").select(["price_c"]),
    )
    p25, p50, p75 = exact_quantiles_int(ds, "price_c", [(1, 4), (1, 2), (3, 4)])
    return pd.DataFrame([{"p25": p25, "p50": p50, "p75": p75}])


@query(None)  # rows-only: t-digest estimate; accuracy pinned in tests/test_ops.py
def q_tdigest_price_quantiles(sf_dir: str) -> pd.DataFrame:
    """estimatedQuantiles via the from-scratch t-digest (rows-only
    check; accuracy vs exact asserted in tests)."""
    ds = rio.read_resident(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    est = estimated_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75])
    return pd.DataFrame([{"p25_est": est[0], "p50_est": est[1], "p75_est": est[2]}])


# ------------------------------------------------------- documents corpus
@query(lambda o: o.doc_stats())
def q_doc_stats(sf_dir: str) -> pd.DataFrame:
    """Per-source corpus stats: docs, chars, whitespace tokens."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text", "n_chars"])

    stage = KeyedPartials(add_token_count, keys=("source",), sums=("n_chars", "n_tokens"))
    return combine_partials(
        rio.map_blocks(ds, stage),
        ["source"],
        {"n_part": "n_docs", "n_chars_part": "sum_chars", "n_tokens_part": "sum_tokens"},
    )


def _token_counts(b: pa.Table) -> pa.Table:
    """Documents with their whitespace and BPE token counts."""
    return add_bpe_token_count(add_token_count(b))


@query(lambda o: o.doc_tokens())
def q_doc_tokens(sf_dir: str) -> pd.DataFrame:
    """BPE-ish token budget per source: pretokenizer-match counts
    (ops.text.BPE_PRETOKEN_RE) summed per source alongside the
    whitespace count — the two token-length estimates a training-data
    pipeline budgets with."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    stage = KeyedPartials(_token_counts, keys=("source",), sums=("n_tokens", "n_bpe_tokens"))
    return combine_partials(
        rio.map_blocks(ds, stage),
        ["source"],
        {"n_part": "n_docs", "n_tokens_part": "sum_ws_tokens",
         "n_bpe_tokens_part": "sum_bpe_tokens"},
    )


HOUR_US = 3_600_000_000


def _dow_hour(b: pa.Table) -> pa.Table:
    """Events by epoch day of week (Sunday = 0) and hour, with their
    value in cents."""
    t = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    return pa.table({
        "dow": (t // DAY_US + 4) % 7, "hour": (t // HOUR_US) % 24,
        "value_c": _value_cents(b),
    })


@query(lambda o: o.events_dow_hour())
def q_events_dow_hour(sf_dir: str) -> pd.DataFrame:
    """Date-part extraction (§2.10 scalar date functions) under the
    oracle: the (day-of-week x hour) activity heatmap. Parts come
    from pure integer arithmetic on epoch-us — dow = (days + 4) % 7
    (1970-01-01 was a Thursday; Sunday = 0 matching DuckDB's
    dayofweek), hour = (t // 1h) % 24 — so the grouping is exact and
    engine-independent. 168-key final on combine_partials."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    stage = KeyedPartials(_dow_hour, keys=("dow", "hour"), sums=("value_c",))
    return combine_partials(
        rio.map_blocks(ev, stage), ["dow", "hour"], {"n_part": "n", "value_c_part": "sum_cents"}
    )


NORM_STRIP_RE = "[^a-z0-9 ]+"  # normalization: lowercase, strip non-alnum
NORM_TOKEN_RE = "[a-z0-9]+"


def _normalized_counts(b: pa.Table) -> pa.Table:
    """Each document's source and the characters and tokens of its
    normalized text."""
    norm = pc.replace_substring_regex(pc.utf8_lower(b["text"]), NORM_STRIP_RE, "")
    return pa.table({
        "source": b["source"], "nchars": pc.utf8_length(norm),
        "ntok": pc.count_substring_regex(norm, NORM_TOKEN_RE),
    })


@query(lambda o: o.doc_normalized_stats(NORM_STRIP_RE, NORM_TOKEN_RE))
def q_doc_normalized_stats(sf_dir: str) -> pd.DataFrame:
    """String-function surface (§2.10: lower / regexp_replace /
    length / regexp token count) under the oracle: normalize each
    document (lowercase, strip everything but [a-z0-9 ]) and report
    per-source character and token budgets. Arrow's utf8_lower /
    replace_substring_regex / utf8_length / count_substring_regex and
    DuckDB's lower / regexp_replace(...,'g') / length /
    regexp_extract_all are both RE2 over UTF-8 code points, so the
    counts are identical engine-for-engine. Vectorized per batch; a
    |sources|-key combine_partials final."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    stage = KeyedPartials(_normalized_counts, keys=("source",), sums=("nchars", "ntok"))
    return combine_partials(
        rio.map_blocks(ds, stage),
        ["source"],
        {"n_part": "n_docs", "nchars_part": "sum_norm_chars", "ntok_part": "sum_norm_tokens"},
    )


PACK_BUDGET_TOKENS = 2048  # sequence-packing context budget


def _packs(b: pa.Table, budget: int) -> pa.Table:
    """Each document's pack (its exclusive token prefix sum over the
    ``budget``), token count, and whether it straddles into the next
    pack."""
    cumb = b["cum_before"].to_numpy(zero_copy_only=False)
    n_tok = b["n_bpe_tokens"].to_numpy(zero_copy_only=False)
    pack = cumb // budget
    straddle = (n_tok > 0) & ((cumb + n_tok - 1) // budget > pack)
    return pa.table({"pack_id": pack, "n_bpe_tokens": n_tok, "straddle": straddle})


@query(lambda o: o.doc_token_packing(PACK_BUDGET_TOKENS))
def q_doc_token_packing(sf_dir: str) -> pd.DataFrame:
    """Sequence packing (concat-and-chunk): concatenate the corpus in
    doc_id order and cut a pack every PACK_BUDGET_TOKENS BPE tokens —
    each document's pack is a pure function of the EXCLUSIVE global
    prefix sum of token counts before it (ops/scan.ordered_prefix_sum:
    sorted blocks, O(#blocks) driver scalars, per-block numpy cumsum).
    Output per pack: documents starting in it, their token mass, and
    how many straddle into the next pack — the packing-efficiency
    report a training-data pipeline reads before tokenizing 100 TB.
    Pack ids are corpus-cardinality, so the final sums per pack in one
    ``io.reduce_by_key`` (the CLAUDE.md high-cardinality rule)."""
    B = PACK_BUDGET_TOKENS
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    toks = rio.materialize_blocks(ds, lambda b: add_bpe_token_count(b).drop_columns(["text"]))
    scanned = ordered_prefix_sum(
        toks, order_cols=["doc_id"], value_col="n_bpe_tokens", out_col="cum_before"
    )

    stage = KeyedPartials(
        functools.partial(_packs, budget=B), keys=("pack_id",),
        sums=("n_bpe_tokens", "straddle"), count="n_docs",
    )
    sums = {"n_docs": "sum", "n_bpe_tokens_part": "sum", "straddle_part": "sum"}
    out = rio.blocks_table(combine_by_key(scanned, ["pack_id"], sums, stage=stage)).to_pandas()
    out = out.rename(columns={"n_bpe_tokens_part": "sum_tokens", "straddle_part": "n_straddlers"})
    return out.sort_values("pack_id").reset_index(drop=True)


@query(lambda o: o.sample_docs())
def q_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic 1/4 hash sample of the documents corpus
    (ops.relational.deterministic_sample): resume-stable,
    partitioning-invariant, SQL-mirrorable subsampling — the standard
    first stage of a training-data ablation. The driver to_pandas here
    is the oracle-compare convention for row-returning queries; at
    production scale the sample terminates in write_parquet, not a
    driver collect (the sampler itself is a streaming filter)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    df = deterministic_sample(ds, 1, 4, "doc_id", hash_fn="md5").to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


CURATION_MIN_TOKENS = 40  # quality gate: drop the short tail (~40% at sandbox SFs)


@query(lambda o: o.media_meta_exact())
def q_media_meta_exact(sf_dir: str) -> pd.DataFrame:
    """Multimodal METADATA layer under the value-exact oracle: the
    media table synthesis (ref -> md5-seeded payload bytes + derived
    width/height, ops.multimodal.synth_media_table) aggregated per
    kind — integer sums only, so the schema/plumbing layer is
    hash-exact in SQL while the codec itself stays the honest stub
    (media_features remains the rows-only decode query)."""
    def stage(b: pa.Table) -> pa.Table:
        refs = [f"media://{d}" for d in b["doc_id"].to_pylist()]
        m = synth_media_table(refs)
        nbytes = int(
            pa.compute.sum(pa.compute.binary_length(m["payload"])).as_py() or 0
        )
        return pa.table(
            {
                "kind": pa.array(["image"]),
                "n_media": pa.array([len(m)], type=pa.int64()),
                "sum_width": pa.array(
                    [int(m["width"].to_numpy(zero_copy_only=False).sum())], type=pa.int64()
                ),
                "sum_height": pa.array(
                    [int(m["height"].to_numpy(zero_copy_only=False).sum())], type=pa.int64()
                ),
                "sum_payload_bytes": pa.array([nbytes], type=pa.int64()),
            }
        )

    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    df = rio.map_blocks(ds, stage).to_pandas()
    out = df.groupby("kind", as_index=False).sum()
    return out.sort_values("kind").reset_index(drop=True)


@query(lambda o: o.langid_exact())
def q_langid_exact(sf_dir: str) -> pd.DataFrame:
    """Language-ID + quality gate, INTEGER-EXACT twin of q_langid's
    heuristics: the same marker-word voting (distinct markers present,
    ties to the lexicographically largest language, zero votes -> en,
    CJK-share override via the integer cross-multiplication
    5*cjk > chars), plus integer word/stopword counts and a
    cross-multiplied quality predicate (no float division, so every
    column is hash-exact in SQL). q_langid stays the rows-only
    float-ratio variant."""
    def stage(b: pd.DataFrame) -> pd.DataFrame:
        b = langid_stage(b)  # adds lang_pred (integer voting inside)
        arr = pc.fill_null(pa.array(b["text"].tolist(), type=pa.string()), "")
        parts = pc.split_pattern(arr, " ")
        lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False).astype(np.int64)
        n_chars = pc.utf8_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)
        nsl = n_chars - (lens - 1)
        nw = np.maximum(lens, 1)
        flat = pc.list_flatten(parts)
        doc_idx = np.repeat(np.arange(len(b)), lens)

        hits = pc.is_in(flat, value_set=pa.array(sorted(STOPWORDS))).to_numpy(
            zero_copy_only=False
        )
        out = pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "lang_pred": b["lang_pred"].to_numpy(),
                "n_words": lens,
                "stop_hits": np.bincount(doc_idx[hits], minlength=len(b)).astype(np.int64),
                "quality_ok": (
                    (lens >= 5) & (nsl >= 2 * nw) & (nsl <= 12 * nw)
                ).astype(np.int64),
            }
        )
        return out

    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df = rio.map_blocks(ds, rio.on_pandas(stage)).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


@query(lambda o: o.corpus_curation(CURATION_MIN_TOKENS))
def q_corpus_curation(sf_dir: str) -> pd.DataFrame:
    """END-TO-END training-data curation chain, ONE streaming pipeline:
    exact dedup (content keep-first) -> quality gate (whitespace token
    floor) -> deterministic 1/2 subsample -> per-source token budget.
    Each stage is an existing oracle-checked operator; this query pins
    their COMPOSITION value-exactly (operators that are each correct
    can still disagree after chaining if any stage reorders, drops
    columns, or double-counts). Dedup runs the production vector128
    key (survivors == md5 barring a 128-bit collision, A/B-pinned in
    tests); the sampler uses the md5 twin so the SQL mirror is
    bit-exact. Nothing corpus-sized lands on the driver: dedup is the
    bucketed keep-first shuffle, the gate and sample are streaming
    batch filters, the final is a 20-key groupby."""
    ds = rio.read_resident(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    ds = exact_dedup(ds)

    def quality_gate(b: pa.Table) -> pa.Table:
        t = add_token_count(b)
        return t.filter(pa.compute.greater_equal(t["n_tokens"], CURATION_MIN_TOKENS))

    ds = rio.materialize_blocks(ds, quality_gate)
    ds = deterministic_sample(ds, 1, 2, "doc_id", hash_fn="md5")

    stage = KeyedPartials(_as_is, keys=("source",), sums=("n_tokens",))
    return combine_partials(
        rio.map_blocks(ds, stage), ["source"], {"n_part": "n_docs", "n_tokens_part": "sum_tokens"}
    )


@query(lambda o: o.doc_fingerprints())
def q_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """md5 content fingerprint per document — the ORACLE TWIN pins
    fp_algo='md5' because the fp VALUE is compared against SQL
    md5(text); the production default is the vectorized vector128
    path (same equality classes, A/B-tested in test_ops)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df = rio.map_blocks(
        ds, lambda b: fingerprint_stage(b, fp_algo="md5").select(["doc_id", "fp"])
    ).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


@query(lambda o: o.near_dup_pairs())
def q_near_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact 3-shingle Jaccard >= 0.5 near-duplicate pairs."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_jaccard_pairs(ds, 1, 2)


@query(lambda o: o.near_dup_source_matrix())
def q_near_dup_source_matrix(sf_dir: str) -> pd.DataFrame:
    """Cross-source contamination matrix: near-duplicate pair counts
    per unordered SOURCE pair — 'which feeds duplicate each other',
    the question a corpus-mixing decision needs answered before
    weighting sources. Composition: the oracle-checked exact-Jaccard
    pair stage (O(near-dups) rows, never the corpus), then ONE fused
    documents pass that looks up only the participating doc ids'
    sources (broadcast id set -> pc.is_in, the knn-label pattern), and
    a driver reduce over the pair list."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = exact_jaccard_pairs(ds, 1, 2)
    if not len(pairs):
        return pd.DataFrame(
            {
                "src_lo": pd.Series(dtype=object),
                "src_hi": pd.Series(dtype=object),
                "n_pairs": pd.Series(dtype="int64"),
            }
        )
    ids = np.unique(
        np.r_[pairs["doc_a"].to_numpy(np.int64), pairs["doc_b"].to_numpy(np.int64)]
    )
    ids_ref = ray.put(ids)

    def src_lookup(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["doc_id"], pa.array(ray.get(ids_ref), b["doc_id"].type))
        s = b.filter(keep)
        return pa.table({"doc_id": s["doc_id"], "source": s["source"]})

    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    lab = rio.map_blocks(docs, src_lookup).to_pandas().set_index("doc_id")["source"]
    sa = lab.loc[pairs["doc_a"]].to_numpy()
    sb = lab.loc[pairs["doc_b"]].to_numpy()
    lo = np.minimum(sa, sb)
    hi = np.maximum(sa, sb)
    out = (
        pd.DataFrame({"src_lo": lo, "src_hi": hi})
        .groupby(["src_lo", "src_hi"], as_index=False)
        .size()
        .rename(columns={"size": "n_pairs"})
        .astype({"n_pairs": "int64"})
    )
    return out.sort_values(["src_lo", "src_hi"]).reset_index(drop=True)


@query(lambda o: o.dup_clusters())
def q_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-duplicate CLUSTERS: connected components of the exact
    3-shingle Jaccard >= 0.5 similarity graph, each document labeled
    with the MINIMUM doc_id reachable from it (the canonical cluster
    representative a keep-one dedup would retain). Pairs come from the
    thresholded distributed pair stage (only actual near-dups exist as
    edges — O(dups), not O(corpus)); components run as one keyed
    shuffle per round in ops/cc.py. The oracle is a recursive-CTE
    reachable-min over the identical pair set."""
    path = f"{sf_dir}/documents.parquet"
    pairs = exact_jaccard_pairs(rio.read_resident(path, columns=["doc_id", "text"]), 1, 2)
    if not len(pairs):
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype="int64"), "component": pd.Series(dtype="int64")}
        )
    # one component bucket per documents block, as a shuffle of them has
    n = rio.auto_num_blocks(path)
    ab = np.array_split(pairs[["doc_a", "doc_b"]].to_numpy(dtype=np.int64), n)
    edges = [ray.put(pa.table({"src": c[:, 0], "dst": c[:, 1]})) for c in ab]
    df = rio.blocks_table(connected_components(edges)).to_pandas()
    df = df.rename(columns={"node": "doc_id"}).astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def _kept_docs(b: pa.Table, drop_ref) -> pa.Table:
    """The documents whose ``doc_id`` is not in the dropped ids."""
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    return b.filter(pa.array(~np.isin(ids, ray.get(drop_ref))))


@query(lambda o: o.cluster_dedup_summary())
def q_cluster_dedup_summary(sf_dir: str) -> pd.DataFrame:
    """Keep-one-per-cluster dedup, summarized per source: drop every
    document whose near-dup component representative is a DIFFERENT
    (smaller) doc_id, keep the rest, and report exact per-source doc
    and char counts. The drop set is O(near-dups) by construction
    (only cluster non-representatives), so it broadcasts into the
    filter stage instead of shuffling the corpus — the keep-first
    semantics of ops/dedup.exact_dedup lifted from exact-content
    equality to similarity clusters."""
    clusters = q_dup_clusters(sf_dir)
    drop = set(
        clusters.loc[clusters["component"] != clusters["doc_id"], "doc_id"].tolist()
    )
    drop_ref = ray.put(np.fromiter(drop, dtype=np.int64, count=len(drop)))

    ds = rio.read_resident(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    stage = KeyedPartials(
        functools.partial(_kept_docs, drop_ref=drop_ref), keys=("source",), sums=("n_chars",)
    )
    return combine_partials(
        rio.map_blocks(ds, stage), ["source"], {"n_part": "n_docs", "n_chars_part": "sum_chars"}
    )


def _moment_terms(b: pa.Table) -> pa.Table:
    """Each event's type, value x in cents, x^2, hour of day y and x*y."""
    x = _value_cents(b).to_numpy()
    y = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // HOUR_US) % 24
    return pa.table({"event_type": b["event_type"], "x": x, "x2": _squared(x), "y": y, "xy": x * y})


@query(lambda o: o.value_moments_by_type())
def q_value_moments_by_type(sf_dir: str) -> pd.DataFrame:
    """Second-moment aggregates (variance / covariance) as EXACT
    INTEGER numerators: per event_type, n, sum of value cents, the
    population-variance numerator n*Sx2 - Sx^2, and the covariance
    numerator n*Sxy - Sx*Sy against y = UTC hour-of-day (an exact
    int). Floats never enter the aggregation — per-batch partials are
    int64 sums, the final combine runs in Python arbitrary-precision
    ints (overflow-guarded before the int64 cast), and the only float
    output is the single IEEE division sum/n. Extends the reference's
    exact-payload average/weightedAverage design
    (MapAggregator.java:760-815) to second moments."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    stage = KeyedPartials(_moment_terms, keys=("event_type",), sums=("x", "x2", "y", "xy"))
    df = combine_partials(
        rio.map_blocks(ev, stage),
        ["event_type"],
        {"n_part": "n", "x_part": "sx", "x2_part": "sx2", "y_part": "sy", "xy_part": "sxy"},
    )
    rows = []
    for r in df.itertuples(index=False):  # |event types| rows — tiny final
        n, sx, sx2, sy, sxy = int(r.n), int(r.sx), int(r.sx2), int(r.sy), int(r.sxy)
        var_num = n * sx2 - sx * sx
        covh_num = n * sxy - sx * sy
        for v in (var_num, covh_num):
            if not -(2**63) <= v < 2**63:
                raise OverflowError(
                    "value_moments_by_type: moment numerator exceeds int64 — "
                    "narrow the group (e.g. add a day key) so n*Sx2 fits"
                )
        rows.append(
            {
                "event_type": r.event_type,
                "n": n,
                "sum_vc": sx,
                "mean_cents": float(sx) / float(n),
                "var_num": var_num,
                "covh_num": covh_num,
            }
        )
    if not rows:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
                "sum_vc": pd.Series(dtype="int64"),
                "mean_cents": pd.Series(dtype="float64"),
                "var_num": pd.Series(dtype="int64"),
                "covh_num": pd.Series(dtype="int64"),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n": "int64", "sum_vc": "int64", "var_num": "int64", "covh_num": "int64"}
    )
    return out.sort_values("event_type").reset_index(drop=True)


@query(lambda o: o.modal_value_by_type())
def q_modal_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact grouped MODE: the most frequent value-cents per event
    type, ties broken to the smallest value (deterministic, engine-
    independent). Exercises aggregate.grouped_mode's pair-complete
    hash shuffle + associative argmax partials."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def to_cents(b: pa.Table) -> pa.Table:
        vc = round_half_away(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"event_type": b["event_type"], "vc": vc})

    df = grouped_mode(rio.materialize_blocks(ev, to_cents),
                      "event_type", "vc")
    df = df.rename(columns={"modal_v": "modal_vc"}).astype(
        {"modal_vc": "int64", "n_modal": "int64"}
    )
    return df[["event_type", "modal_vc", "n_modal"]]


@query(None)  # rows-only: LSH candidates; recall pinned in tests/test_ops.py
def q_minhash_lsh_pairs(sf_dir: str) -> pd.DataFrame:
    """MinHash-LSH candidates verified to Jaccard >= 0.5 (rows-only;
    recall vs the exact operator asserted in tests)."""
    # the resident (bounded) sandbox corpus engages the op's documented
    # small-input driver gate — the same kernels in one pass instead of
    # five shuffle stages of scheduling overhead; a corpus over the
    # gate gets the fully distributed path
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_pairs(ds, 1, 2)


@query(None)  # rows-only: SimHash estimator; pinned in tests/test_ops.py
def q_simhash_pairs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs, hamming <= 3 (rows-only)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_pairs(ds)


@query(None)  # rows-only: heuristic scores; pinned in tests/test_ops.py
def q_langid(sf_dir: str) -> pd.DataFrame:
    """Language-ID heuristic + quality scores (rows-only)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df = rio.map_blocks(ds, rio.on_pandas(lambda d: langid_stage(quality_stage(d)))).to_pandas()
    df = df[["doc_id", "lang_pred", "stop_ratio", "quality_ok"]]
    return df.sort_values("doc_id").reset_index(drop=True)


# the ANN queries' query vectors: vec_id % ANN_QUERY_MOD == 0 (the
# oracles select the same ids)
ANN_QUERY_MOD = 50


def _query_vec_ids(sf_dir: str) -> list[int]:
    """Query-id selection with the predicate INSIDE the scan stage: a
    distributed per-batch ``vec_id % ANN_QUERY_MOD == 0`` filter, so
    only the O(corpus/mod) selected ids ever reach the driver — never
    the whole id column (parquet expressions can't push modulo, so the
    filter runs as the first map stage instead)."""

    def pick(b: pa.Table) -> pa.Table:
        v = b["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table({"vec_id": pa.array(v[v % ANN_QUERY_MOD == 0])})

    ds = rio.read_resident(f"{sf_dir}/embeddings.parquet", columns=["vec_id"])
    sel = rio.map_blocks(ds, pick).to_pandas()["vec_id"]
    return sorted(int(i) for i in sel)


@query(lambda o: o.ann_cosine())
def q_ann_cosine(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-5 over the embeddings table; queries are
    vec_id % 50 == 0."""
    ds = rio.read_resident(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ann_cosine_topk(ds, _query_vec_ids(sf_dir), k=5)
    return out[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)


# --------------------------------------------- groupByEntity / keytables
@query(lambda o: o.contrib_per_entity())
def q_contrib_per_entity(sf_dir: str) -> pd.DataFrame:
    """groupByEntity (MapReducer.java:706-721): per-document
    contribution counts. Each document's history lives in one batch, so
    per-doc counts are final without any shuffle."""
    stage, _ = contribution_stats_stage(
        CONTRIB_FROM, CONTRIB_TO, flag_cols=["is_creation"], keys=("doc_id",)
    )
    df = rio.map_blocks(_docs(sf_dir), stage).to_pandas()
    df.columns = ["doc_id", "n_contribs", "n_creations"]
    return df.sort_values("doc_id").reset_index(drop=True)


def _tag_ids(batch: pa.Table) -> pa.Table:
    """The tag-signature id of every version; a version without one
    raises."""
    ids = decode_spans(batch, geom=False)["tag_id"]
    if len(ids) and pc.min(ids).as_py() < 0:
        raise ValueError("a version without a keytable tag id")
    return pa.table({"tag_id": ids})


@query(lambda o: o.keytable_freqs())
def q_keytable_freqs(sf_dir: str) -> pd.DataFrame:
    """The ETL 'extract' pass (Extract.java:58-409): frequency-ordered
    tag dictionary; small ids go to hot tags (rank = frequency order,
    deterministic tiebreak). Versions are counted per signature id, and
    each signature expands to its tags through the keytable on the
    driver; a version without an id has no tags to count and fails
    loudly."""

    # the signature vocabulary scales with the corpus — the final
    # combine runs per id bucket (combine_partials' contract forbids
    # corpus-cardinality keys)
    stage = KeyedPartials(_tag_ids, keys=("tag_id",))
    refs = combine_by_key(_docs(sf_dir), ["tag_id"], {"n_part": "sum"}, stage=stage)
    per_sig = rio.blocks_table(refs).to_pandas()
    kt = sig_keytable(sf_dir)
    per_tag = per_sig.assign(tag=[kt[i].split("|") for i in per_sig["tag_id"]]).explode("tag")
    df = per_tag.groupby("tag", as_index=False)["n_part"].sum().rename(columns={"n_part": "n"})
    df = df.sort_values(["n", "tag"], ascending=[False, True], kind="mergesort").reset_index(drop=True)
    df["tag_id"] = np.arange(len(df), dtype=np.int64)
    return df[["tag_id", "tag", "n"]]


@query(lambda o: o.contrib_daily_by_etype())
def q_contrib_daily_by_etype(sf_dir: str) -> pd.DataFrame:
    """Combined-index aggregation (OSHDBCombinedIndex, aggregation.md:54-84):
    contributions keyed by (daily bin x etype of the modification's
    version) with FULL cross-product zerofill
    (MapAggregator.completeZerofill, :956-988)."""
    etypes = ["click", "error", "purchase", "signup", "view"]
    stage, keys = contribution_stats_stage(
        CONTRIB_FROM, CONTRIB_TO, bins=CONTRIB_BINS, flag_cols=[], keys=("etype",),
        keytable=sig_keytable(sf_dir),
    )
    agg = combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n"})
    return zerofill(agg, {"ts_q": CONTRIB_BINS, "etype": etypes}, {"n": 0})


# ------------------------------------------------------- derived ways
@query(lambda o: o.way_lengths())
def q_way_lengths(sf_dir: str) -> pd.DataFrame:
    """Synthetic ways: way u connects node/u -> node/(u+1) when both
    exist at T_MID; reports the reference's equirectangular length
    (Geo.lengthOf, Geo.java:37-60) as floor(micrometers) so sums are
    integer-exact. Exercises the co-partitioned hash join (endpoints
    live in different ingest buckets) and the Geo formula parity
    (duckdb and numpy share libm bit-for-bit — verified)."""

    # MATERIALIZE: multiple join legs consume `pos`; a lazy upstream
    # re-runs the full decode+interpolate chain once PER LEG (the
    # multi-consumer hazard documented at _knn_positions_flagged). The
    # materialized table is small (int columns, one row per live
    # entity) and lives in the distributed object store, not the driver.
    pos = rio.materialize_blocks(_docs(sf_dir), _positions)

    def as_left(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "join_k": batch["osm_id"],
                "lon1": batch["lon_e7"],
                "lat1": batch["lat_e7"],
            }
        )

    def as_right(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "join_k": pa.compute.subtract(batch["osm_id"], 1),
                "lon2": batch["lon_e7"],
                "lat2": batch["lat_e7"],
            }
        )

    left = rio.materialize_blocks(pos, as_left)
    right = rio.materialize_blocks(pos, as_right)
    joined = hash_join(left, right, on="join_k")

    def lengths(batch: pa.Table) -> pa.Table:
        la1 = batch["lat1"].to_numpy(zero_copy_only=False) / 1e7
        lo1 = batch["lon1"].to_numpy(zero_copy_only=False) / 1e7
        la2 = batch["lat2"].to_numpy(zero_copy_only=False) / 1e7
        lo2 = batch["lon2"].to_numpy(zero_copy_only=False) / 1e7
        d = distance_equirectangular(la1, lo1, la2, lo2)
        return pa.table(
            {
                "way_id": batch["join_k"],
                "length_um": pa.array(np.floor(d * 1e6).astype(np.int64)),
            }
        )

    df = rio.map_blocks(joined, lengths).to_pandas()
    return df.sort_values("way_id").reset_index(drop=True)


@query(lambda o: o.way_areas())
def q_way_areas(sf_dir: str) -> pd.DataFrame:
    """Geo.areaOf under the oracle: synthetic triangles node/u ->
    node/(u+1) -> node/(u+2) at T_MID; reports the reference's
    spherical-excess polygon area (Geo.areaOf / Geo.ringArea,
    Geo.java:95-101,147-180) as floor(m^2) so rows are integer-exact.

    The 3-term excess sum is evaluated in ring_area's exact sequential
    order ``((t0 + t1) + t2)`` and the scale product in its exact
    left-assoc order ``((s * R) * R) / 2`` so duckdb and numpy share
    libm bit-for-bit (parity with functions.geo.area_of_polygon is
    pinned bit-exact in tests/test_spatial.py::
    test_way_areas_kernel_matches_area_of_polygon)."""

    # ONE shuffle, not two chained self-joins: every node position fans
    # out to the (at most 3) triangles it can close, routed by the
    # triangle's way_id bucket; a triangle's three corners then sit in
    # one group and assemble + evaluate in-stage — the same 3x row
    # fan-out a first join leg would ship, but the join OUTPUT never
    # re-shuffles. The positions are taken in the same routing task.
    def fan_out(batch: pa.Table) -> pa.Table:
        batch = _positions(batch)
        osm = batch["osm_id"].to_numpy(zero_copy_only=False)
        lon = batch["lon_e7"].to_numpy(zero_copy_only=False)
        lat = batch["lat_e7"].to_numpy(zero_copy_only=False)
        way = np.concatenate([osm - i for i in range(3)])
        corner = np.repeat(np.arange(3, dtype=np.int64), len(osm))
        return pa.table(
            {
                "way_id": way,
                "corner": corner,
                "lon_e7": np.tile(lon, 3),
                "lat_e7": np.tile(lat, 3),
            }
        )

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["way_id", "corner"], kind="mergesort")
        counts = g.groupby("way_id", sort=False)["corner"].transform("size")
        g = g[counts == 3]  # only complete triangles
        if g.empty:
            return pd.DataFrame(
                {"way_id": pd.Series(dtype="int64"),
                 "area_m2": pd.Series(dtype="int64")}
            )
        lon = g["lon_e7"].to_numpy().reshape(-1, 3)
        lat = g["lat_e7"].to_numpy().reshape(-1, 3)
        lo = [np.radians(lon[:, i] / 1e7) for i in range(3)]
        la = [np.radians(lat[:, i] / 1e7) for i in range(3)]
        # ring_area terms i=0..2 with p1=lo[i], p3=lo[i+2], mid=la[i+1]
        t0 = (lo[2] - lo[0]) * np.sin(la[1])
        t1 = (lo[0] - lo[1]) * np.sin(la[2])
        t2 = (lo[1] - lo[2]) * np.sin(la[0])
        s = (t0 + t1) + t2
        a = np.abs(s * EARTH_RADIUS * EARTH_RADIUS / 2)
        return pd.DataFrame(
            {
                "way_id": g["way_id"].to_numpy()[::3],
                "area_m2": np.floor(a).astype(np.int64),
            }
        )

    areas = rio.reduce_by_key(_docs(sf_dir), ["way_id"], rio.on_pandas(assemble), stage=fan_out)
    df = rio.blocks_table(areas).to_pandas()
    return df.sort_values("way_id").reset_index(drop=True)


@query(lambda o: o.lineitem_means())
def q_lineitem_means(sf_dir: str) -> pd.DataFrame:
    """average / weightedAverage reducers (MapReducer.java:1179-1214):
    integer-exact partial sums, one IEEE float division at the end —
    bit-identical to the SQL oracle."""
    ds = rio.read_resident(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice", "l_discount"],
    )

    stage = KeyedPartials(_lineitem_cents, keys=("l_returnflag",), sums=("price_c", "qty_c", "dq"))
    df = combine_partials(
        rio.map_blocks(ds, stage),
        ["l_returnflag"],
        {"n_part": "n", "price_c_part": "sum_price_cents", "qty_c_part": "sum_qty_cents",
         "dq_part": "sum_dq"},
    )
    df["avg_price_cents"] = df["sum_price_cents"] / df["n"]
    df["wavg_disc_cents"] = df["sum_dq"] / df["sum_qty_cents"]
    df = df.drop(columns=["sum_dq"])
    return df.sort_values("l_returnflag").reset_index(drop=True)


@query(lambda o: o.knn())
def q_knn_grid(sf_dir: str) -> pd.DataFrame:
    """Same result contract as q_knn under a DIFFERENT partitioning
    operating point — coarser grid (zoom-1) with a 5x5 halo (halo=2) —
    two distributed configurations, one oracle: exactness must be
    zoom/halo-independent (the guarantee radius adapts). The wider halo
    trades query replication (25x of the sparse query side only) for
    near-zero brute-force fallbacks on sparse neighborhoods."""
    mod = int(os.environ.get("RAYHIST_KNN_MOD", "17"))
    pos, _n, zoom = _knn_positions_flagged(sf_dir, mod)
    out = knn_queries(pos, k=3, id_col="osm_id", zoom=max(1, zoom - 1), halo=2)
    return out[["query_id", "neighbor_id", "rank", "dist2"]].reset_index(drop=True)


@query(lambda o: o.ann_cosine())
def q_ann_cosine_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF-bucketed ANN over the PARTITIONED-BY-BUCKET layout
    (ensure_ivf_layout) with full probing (nprobe == nlist), which is
    provably exact — the bucketing + scan-pruning machinery gets the
    same oracle as the brute-force path; the pruned operating point
    (nprobe < nlist, scan < corpus) is covered by the recall/pruning
    tests."""
    out = ann_cosine_ivf_pruned(
        f"{sf_dir}/embeddings.parquet", _query_vec_ids(sf_dir), k=5, nlist=8, nprobe=8
    )
    return out[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)


@query(lambda o: o.ann_cosine())
def q_ann_cosine_lsh(sf_dir: str) -> pd.DataFrame:
    """LSH-bucketed ANN (random-hyperplane signatures) over the
    PARTITIONED-BY-BUCKET layout with full probing (nprobe ==
    2**n_bits), which is provably exact — the signature + Hamming-probe
    + scan-pruning machinery gets the same oracle as the brute-force
    path; the pruned operating point (nprobe < all, scan < corpus) is
    covered by the recall/pruning tests."""
    out = ann_cosine_lsh_pruned(
        f"{sf_dir}/embeddings.parquet", _query_vec_ids(sf_dir), k=5, n_bits=3, nprobe=8
    )
    return out[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)


@query(lambda o: o.sessions())
def q_sessions(sf_dir: str) -> pd.DataFrame:
    """Sessionization (30-minute gap) over the events log, aggregated
    per user: session count, events, total session time. Stream-shaped
    semantics on the batch engine (ordered partitioned log); the
    per-user aggregate is FINAL inside the bucket stage (complete users
    per hash bucket), so only |users| small rows reach the driver."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    df = user_session_stats(ev, gap_us=30 * 60 * 1_000_000).to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.user_streaks(T0, DAY_US))
def q_user_streaks(sf_dir: str) -> pd.DataFrame:
    """Gaps-and-islands: per user, the count of DISTINCT active days,
    the number of maximal consecutive-day runs, and the longest run.
    Per-batch (user, day) pre-dedup bounds shuffle rows at distinct
    pairs per block; one complete-user hash-bucket shuffle; runs and
    their lengths resolve vectorized in-stage (boundary mask -> cumsum
    run ids -> bincount), so only |users| final rows leave the stage.
    The SQL mirror is the classic day - row_number() constant-group
    trick."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prededup(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        d = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US
        df = pd.DataFrame({"user_id": u, "day": d}).drop_duplicates()
        return pa.table({"user_id": df["user_id"].to_numpy(), "day": df["day"].to_numpy()})

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"]).sort_values(["user_id", "day"])
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy()
        new = np.ones(len(u), dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)
        sid = np.cumsum(new) - 1
        lens = np.bincount(sid)
        runs = pd.DataFrame({"user_id": u[new], "len": lens})
        out = runs.groupby("user_id", as_index=False).agg(
            n_active_days=("len", "sum"),
            n_streaks=("len", "size"),
            longest_streak=("len", "max"),
        )
        return out

    out = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(streaks), stage=prededup)
    df = rio.blocks_table(out).to_pandas()
    df = df.astype(
        {"n_active_days": "int64", "n_streaks": "int64", "longest_streak": "int64"}
    )
    return df.sort_values("user_id").reset_index(drop=True)


ROLL_WIN_DAYS = 7  # rolling-active window length (WAU-style)
DAY_GRID_N = 31  # testdata day grid 0..30 (January 2024)


@query(lambda o: o.rolling_active_users(T0, DAY_US, ROLL_WIN_DAYS, DAY_GRID_N))
def q_rolling_active_users(sf_dir: str) -> pd.DataFrame:
    """Sliding-window COUNT DISTINCT: per day W, the number of
    distinct users active in [W-6, W] (the rolling weekly-active
    metric). Distinct-over-a-sliding-window has NO mergeable partial
    per window, so the scale shape inverts it: per-batch (user, day)
    pre-dedup -> one complete-user bucket shuffle -> each user fans
    its active days out to the <= 7 windows each covers and dedupes
    IN-STAGE, so the driver combines |windows| count partials — never
    user sets. SQL mirror: count(DISTINCT user) per window over a
    BETWEEN join."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prededup(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        d = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US
        df = pd.DataFrame({"user_id": u, "day": d}).drop_duplicates()
        return pa.table({"user_id": df["user_id"].to_numpy(), "day": df["day"].to_numpy()})

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        u = np.repeat(g["user_id"].to_numpy(), ROLL_WIN_DAYS)
        w = (
            np.repeat(g["day"].to_numpy(), ROLL_WIN_DAYS)
            + np.tile(np.arange(ROLL_WIN_DAYS), len(g))
        )
        keep = w < DAY_GRID_N
        pairs = pd.DataFrame({"u": u[keep], "w": w[keep]}).drop_duplicates()
        p = pairs.groupby("w", as_index=False).size()
        return p.rename(columns={"w": "wday", "size": "n_active_p"})

    partials = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(cover), stage=prededup)
    df = combine_partials(rio.blocks_table(partials), ["wday"], {"n_active_p": "n_active"})
    df = df.astype({"wday": "int64", "n_active": "int64"})
    return df.sort_values("wday").reset_index(drop=True)


@query(lambda o: o.user_distinct_etypes())
def q_user_distinct_etypes(sf_dir: str) -> pd.DataFrame:
    """DISTINCT ordered collect (SQL string_agg(DISTINCT .. ORDER BY))
    per user: the sorted set of event types each user produced, plus
    its size — the collect_set terminal next to user_journeys' ordered
    collect. Per-batch (user, etype) pre-dedup bounds the shuffle at
    distinct pairs per block; one complete-user bucket shuffle; the
    per-user sorted join resolves in-stage."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def prededup(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(zero_copy_only=False),
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.table({"user_id": df["user_id"].to_numpy(), "etype": df["etype"].to_numpy()})

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "etype"]).sort_values(
            ["user_id", "etype"], kind="mergesort"
        )
        gb = g.groupby("user_id", sort=False)["etype"]
        return pd.DataFrame(
            {
                "user_id": gb.agg("first").index,
                "etypes": gb.agg(lambda s: ",".join(s)).to_numpy(),
                "n_etypes": gb.size().to_numpy(dtype=np.int64),
            }
        )

    out = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(collect), stage=prededup)
    df = rio.blocks_table(out).to_pandas()
    df = df.astype({"user_id": "int64", "n_etypes": "int64"})
    return df.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.cohort_retention(T0, DAY_US))
def q_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix: users cohorted by FIRST active day;
    for each (cohort_day, day_offset), the count of distinct users
    active that day. Same complete-user bucket shuffle as streaks —
    a user's first day and all its active days co-reside, so cohort
    assignment and the distinct-count partials both resolve in-stage;
    the driver combines |cohorts x offsets| rows (bounded by the
    window span squared, never the corpus)."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prededup(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        d = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US
        df = pd.DataFrame({"user_id": u, "day": d}).drop_duplicates()
        return pa.table({"user_id": df["user_id"].to_numpy(), "day": df["day"].to_numpy()})

    def cohortize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        first = g.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame(
            {"cohort_day": first, "day_offset": g["day"].to_numpy() - first}
        )
        # (user, day) rows are globally distinct, so a row count IS a
        # distinct-user count per (cohort, offset)
        p = out.groupby(["cohort_day", "day_offset"], as_index=False).size()
        return p.rename(columns={"size": "n_users_p"})

    partials = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(cohortize), stage=prededup)
    df = combine_partials(
        rio.blocks_table(partials), ["cohort_day", "day_offset"], {"n_users_p": "n_users"}
    )
    df = df.astype({"cohort_day": "int64", "day_offset": "int64", "n_users": "int64"})
    return df.sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)


@query(lambda o: o.etype_transitions())
def q_etype_transitions(sf_dir: str) -> pd.DataFrame:
    """Ordered sequence bigrams: counts of (previous event type ->
    event type) transitions within each user's (ts, event_id)-ordered
    stream — the n-gram transition-matrix primitive under sequence
    models. One complete-user bucket shuffle; the lag and the
    |etypes|^2 count partials resolve vectorized in-stage, so blocks
    emit at most the transition-matrix size. SQL mirror: lag() window
    + group-by."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same = np.zeros(len(u), dtype=bool)  # row has an in-user predecessor
        same[1:] = u[1:] == u[:-1]
        prev = np.roll(et, 1)  # prev[0] wraps around, but same[0] is False
        p = pd.DataFrame({"prev_etype": prev[same], "etype": et[same]})
        out = p.groupby(["prev_etype", "etype"], as_index=False).size()
        return out.rename(columns={"size": "n_p"})

    partials = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(transitions))
    df = combine_partials(rio.blocks_table(partials), ["prev_etype", "etype"], {"n_p": "n"})
    df["n"] = df["n"].astype("int64")
    return df.sort_values(["prev_etype", "etype"]).reset_index(drop=True)


# ------------------------------------------------------- AOI pruned read
AOI_BBOX = (-9e8, -4.5e8, 9e8, 4.5e8)  # (min_lon, min_lat, max_lon, max_lat) e7


@query(lambda o: o.snapshot_count_bbox())
def q_snapshot_count_bbox(sf_dir: str) -> pd.DataFrame:
    """areaOfInterest(bbox) snapshot count at T_MID with a document
    PRE-FILTER: the document table carries a whole-history bbox (the
    OSH getBoundingBox prefilter index); documents whose bbox misses
    the AOI are dropped before the decode, inside each block task over
    the resident table (io.read_resident; over the resident budget, a
    parquet filter= read pushes the test into the scan — the Ray
    analog of the reference's cell-range SQL BETWEEN,
    MapReducerJdbc.java:51-114 + MapReducer.getCellIdRanges). The
    exact per-state test runs after interpolation (CellIterator's
    per-entity bbox intersect + clip, :198-211)."""
    x0, y0, x1, y1 = (int(v) for v in AOI_BBOX)
    rep = int(os.environ.get("RAYHIST_REP", "1"))
    prefilter = (
        (pc.field("max_lon_e7") >= int(x0))
        & (pc.field("min_lon_e7") <= int(x1))
        & (pc.field("max_lat_e7") >= int(y0))
        & (pc.field("min_lat_e7") <= int(y1))
    )
    docs = rio.read_resident(
        ensure_documents(sf_dir, rep), columns=DECODE_COLUMNS, filter=prefilter
    )
    stage, _ = snapshot_counts_stage([T_MID], aoi=AOI(bbox=(x0, y0, x1, y1)), keys=())
    return combine_partials(rio.map_blocks(docs, stage), [], {"n_part": "n_snapshots"})


# asymmetric sub-bbox for the multi-zoom query (exercises the per-zoom
# floor + SW-enlargement arithmetic on both axes)
MZ_BBOX = (-4.0e8, -2.0e8, 2.0e8, 3.0e8)
MZ_MAX_ZOOM = 6


@query(lambda o: o.snapshot_count_bbox_multizoom())
def q_snapshot_count_bbox_multizoom(sf_dir: str) -> pd.DataFrame:
    """areaOfInterest(bbox) through the MULTI-ZOOM cell layout — the
    XYGridTree insert/query rule (``index/XYGridTree.java:89-97``,
    ``:219-248``): documents are stored partitioned by the packed
    (zoom, cell) of their history bbox; the query enumerates candidate
    cells at EVERY zoom (bbox enlarged one tile SW per zoom) and reads
    ONLY matching partitions, so large features stored at coarse zooms
    still surface (the coarse-cell fallback). Exactness comes from the
    per-version bbox test after interpolation (CellIterator.java:
    198-211); the enumeration is a sound prefilter, never a semantic.

    On this corpus multi-version histories are world-spanning (random
    walk) so they sit at zoom 1 and every partition matches — same as
    the reference would store them; the pruning regime is exercised by
    the synthetic mixed-size corpus in tests/test_spatial.py."""
    x0, y0, x1, y1 = (int(v) for v in MZ_BBOX)
    rep = int(os.environ.get("RAYHIST_REP", "1"))
    layout = ensure_multizoom_layout(sf_dir, rep, max_zoom=MZ_MAX_ZOOM)
    cand = multizoom_query_cells(x0, y0, x1, y1, max_zoom=MZ_MAX_ZOOM)
    paths = [
        str(f)
        for c in cand.tolist()
        for f in sorted(Path(f"{layout}/pmz={c}").glob("*.parquet"))
    ]
    if not paths:
        return pd.DataFrame({"n_snapshots": pd.array([0], dtype="int64")})

    docs = rio.read_resident(paths, columns=DECODE_COLUMNS)
    stage, _ = snapshot_counts_stage([T_MID], aoi=AOI(bbox=(x0, y0, x1, y1)), keys=())
    return combine_partials(rio.map_blocks(docs, stage), [], {"n_part": "n_snapshots"})


@query(None)  # rows-only: stubbed codec; determinism pinned in tests/test_ops.py
def q_media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal plumbing as a pipeline: synthesize media refs from
    the document ids, decode them (stubbed codec, real schema and
    batching), return per-media feature stats (rows-only check;
    determinism asserted in tests). Synthesis, decode and the feature
    mean run as one stage, so the doc-id column never rides the
    driver."""
    decode = MediaDecodeStage()

    def stage(b: pa.Table) -> pa.Table:
        media = synth_media_table(sorted(f"media://{d}" for d in b["doc_id"].to_pylist()))
        d = decode(media)
        f = d["feature"].combine_chunks()
        flat = f.flatten().to_numpy(zero_copy_only=False)
        offsets = f.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)
        sums = np.add.reduceat(flat, offsets[:-1])
        means = np.where(lens > 0, sums / np.maximum(lens, 1), np.nan)
        return pa.table(
            {
                "media_ref": d["media_ref"],
                "width": d["width"],
                "height": d["height"],
                "feat_mean": pa.array(means, type=pa.float64()),
            }
        )

    out = rio.map_blocks(_docs(sf_dir), stage, batch_size=128).to_pandas()
    return out.sort_values("media_ref").reset_index(drop=True)


@query(lambda o: o.contrib_type_counts_bbox())
def q_contrib_type_counts_bbox(sf_dir: str) -> pd.DataFrame:
    """areaOfInterest(bbox) contribution counts: a state outside the
    bbox behaves like the reference's clipped-to-empty geometry —
    DELETION on exit, CREATION on re-entry (CellIterator.java:625-642,
    the S1 scenario)."""
    return _contrib_totals(sf_dir, aoi=AOI(bbox=tuple(int(v) for v in AOI_BBOX)))


@query(lambda o: o.contrib_type_counts_poly())
def q_contrib_type_counts_poly(sf_dir: str) -> pd.DataFrame:
    """areaOfInterest(POLYGON) contribution counts: like the bbox
    variant but the membership test is point-in-convex-polygon
    (north_pentagon) — a state outside the polygon behaves like the
    reference's clipped-to-empty geometry (CellIterator.java:625-642),
    so crossing the boundary emits DELETION/CREATION pairs."""
    aoi = AOI(rings=(np.asarray(REGIONS["north_pentagon"]),), convex=True)
    return _contrib_totals(sf_dir, aoi=aoi)


@query(lambda o: o.embedding_dup_pairs())
def q_embedding_dup_pairs(sf_dir: str) -> pd.DataFrame:
    """Embedding-cosine near-duplicate pairs at cos >= 0.4."""
    ds = rio.read_resident(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = embedding_dup_pairs(ds, tau=0.4)
    # numpy (normalize-then-dot) and SQL (dot-over-norms) cosine differ
    # at the last ulp; round for value comparison (pair SET is checked
    # un-rounded by the row count)
    out["cos_sim"] = out["cos_sim"].round(6)
    return out[["vec_a", "vec_b", "cos_sim"]]


@query(None)  # rows-only: t-digest estimate; accuracy pinned in tests/test_ops.py
def q_tdigest_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped t-digest quantiles: event value p50/p90 per event_type
    (rows-only; sketch accuracy asserted against exact quantiles in
    tests)."""
    ds = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return grouped_estimated_quantiles(ds, "event_type", "value", [0.5, 0.9])


def snapshot_latest_state_write(sf_dir: str, out_dir: str) -> dict:
    """Write-terminated twin of q_snapshot_latest_state — the
    BIG-RESULT path: the reconstructed state is never collected on the
    driver; each input shard's rows (``checkpoint.shard_rows``, a
    filter over the resident document table) run through the snapshot
    stage and land as partitioned parquet via the checkpointed shard
    runner
    (state.checkpoint.run_sharded: atomic rename + manifest line with
    lineage fingerprints, row counts, content checksum, wall time).
    A re-run skips completed shards. Returns the manifest dict; the
    rows live under ``out_dir``/shard_*/*.parquet."""
    rep = int(os.environ.get("RAYHIST_REP", "1"))
    path = ensure_documents(sf_dir, rep)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    n_shards = min(4, len(files))
    shards = {f"shard_{i:02d}": files[i::n_shards] for i in range(n_shards)}

    snaps = snapshot_stage([T_MID], sig_keytable(sf_dir))
    cols = ["doc_id", "osm_id", "v", "lon_e7", "lat_e7", "etype", "uid"]

    def process(inputs: list[str]) -> rio.Blocks:
        docs = rio.read_resident(path, columns=DECODE_COLUMNS, filter=shard_rows(inputs))
        return rio.materialize_blocks(docs, lambda b: snaps(b).select(cols))

    return run_sharded(shards, process, out_dir)


@query(lambda o: o.snapshot_latest_state())  # same values, write-terminated path
def q_snapshot_latest_state_written(sf_dir: str) -> pd.DataFrame:
    """q_snapshot_latest_state THROUGH THE WRITE-TERMINATED PATH: the
    state table is written as sharded parquet + manifest (no driver
    collect inside the pipeline), then read back ONLY for the oracle
    comparison — proving the at-scale big-result route end to end under
    the row-returning query's value-exact oracle."""
    out_dir = os.path.join(
        rio.cache_root(),
        "state_" + hashlib.sha256(os.path.abspath(sf_dir).encode()).hexdigest()[:12],
        "latest_state",
    )
    manifest = snapshot_latest_state_write(sf_dir, out_dir)
    df = read_outputs(manifest, out_dir).to_pandas()
    return df.sort_values("osm_id").reset_index(drop=True)


@query(lambda o: o.snapshot_count_daily())  # same values, binary-block ingest path
def q_pbf_snapshot_count_daily(sf_dir: str) -> pd.DataFrame:
    """snapshot_count_daily INGESTED THROUGH THE BINARY BLOCK CODEC
    (sources.pbfish): the corpus is encoded once into .rosh block files
    (the .osh.pbf-shaped format: per-block string table + header/flag
    varint-delta histories, RxOshPbfReader.java:70-102 /
    OSHNodeImpl.java:145-275 analog), then the query runs
    read_binary_files -> map_batches(decode) -> fused snapshot counts —
    proving the §2.1 blob-decode ingest path end to end under the same
    value-exact oracle as the cached-parquet route."""
    kt = {s: i for i, s in enumerate(sig_keytable(sf_dir))}
    docs = read_pbfish(ensure_pbfish(sf_dir), keytable=kt)
    stage, keys = snapshot_counts_stage(SNAP_DAILY)
    df = combine_partials(rio.map_blocks(docs, stage), keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


# real .osh.pbf wire format: ms-truncated ts (the wire resolution)
@query(lambda o: o.snapshot_count_daily_ms())
def q_osmpbf_snapshot_count_daily(sf_dir: str) -> pd.DataFrame:
    """snapshot_count_daily INGESTED THROUGH THE REAL OSM PBF WIRE
    FORMAT (sources.osmpbf): the corpus is encoded once into genuine
    .osh.pbf files (protobuf wire encoding, zlib blobs, DenseNodes +
    DenseInfo delta streams, HistoricalInformation header — the format
    RxOshPbfReader.java:70-102 reads), then the query runs the full
    parallel ingest: header-only blob scan -> range-read + protobuf
    decode fan-out -> id-bucket regroup -> span documents -> fused
    snapshot counts. Values checked against the ms-truncated oracle
    (oracles.snapshot_count_daily_ms — PBF timestamps are whole ms)."""
    docs = osmpbf_documents(ensure_osmpbf(sf_dir))
    stage, keys = snapshot_counts_stage(SNAP_DAILY)
    df = combine_partials(rio.map_blocks(docs, stage), keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


def _tag_value_int(batch: pa.Table, key: str) -> np.ndarray:
    """Per-row int value of tag ``key`` from parallel ``tag_k`` /
    ``tag_v`` list<string> columns, -1 where absent — Arrow list
    kernels (flatten + parent-index scatter), no per-row Python loop.
    A duplicated key keeps the LAST occurrence (scatter order), same
    as the loop it replaces; values must parse as ints where matched."""
    pc = pa.compute
    tk = batch["tag_k"].combine_chunks()
    flat_k = pc.list_flatten(tk)
    mask = pc.equal(flat_k, key)
    par = pc.filter(pc.list_parent_indices(tk), mask).to_numpy(zero_copy_only=False)
    vals = pc.cast(
        pc.filter(pc.list_flatten(batch["tag_v"].combine_chunks()), mask), pa.int64()
    ).to_numpy(zero_copy_only=False)
    out = np.full(len(batch), -1, dtype=np.int64)
    out[par] = vals
    return out


def _list_match_counts(col: pa.ChunkedArray, value: str, n: int) -> np.ndarray:
    """Per-row count of list elements equal to ``value`` for a
    list<string> column — flatten + boolean scatter-add by parent
    index (vectorized analog of ``sum(x == value for x in row)``)."""
    pc = pa.compute
    arr = col.combine_chunks()
    out = np.zeros(n, dtype=np.int64)
    np.add.at(
        out,
        pc.list_parent_indices(arr).to_numpy(zero_copy_only=False),
        pc.equal(pc.list_flatten(arr), value).to_numpy(zero_copy_only=False).astype(np.int64),
    )
    return out


@query(lambda o: o.osmpbf_way_version_counts())
def q_osmpbf_way_version_counts(sf_dir: str) -> pd.DataFrame:
    """WAY histories through the real .osh.pbf wire format: the way
    corpus (ingest's documented way derivation) is encoded as genuine
    PBF Way messages (Info submessage, stringtable keys/vals, delta
    refs), then this query decodes them and aggregates per (version,
    visible, k-tag): count + ms-truncated ts range. Proves the Way/
    Info/keys-vals decode path under the value-exact oracle (nodes are
    covered by osmpbf_snapshot_count_daily; relations by the codec
    round-trip tests)."""
    rows = read_osmpbf(ensure_osmpbf_ways(sf_dir))

    def stage(b: pa.Table) -> pa.Table:
        keep = b.filter(pa.compute.equal(b["etype"], "way"))
        kk = _tag_value_int(keep, "k")
        df = pd.DataFrame(
            {
                "v": keep["v"].to_numpy(zero_copy_only=False).astype(np.int64),
                "visible": keep["visible"].to_numpy(zero_copy_only=False),
                "kk": kk,
                "ts": keep["ts"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["v", "visible", "kk"], as_index=False).agg(
            n_part=("ts", "size"), mn=("ts", "min"), mx=("ts", "max")
        )
        return pa.Table.from_pandas(g)

    # per-batch partials -> driver combine (the combine_partials
    # pattern; done inline because this final needs min/max too and
    # the key space is <= 2 x 2 x 9 rows)
    parts = rio.materialize_blocks(rows, stage)
    df = parts.to_pandas()
    df = df.groupby(["v", "visible", "kk"], as_index=False).agg(
        n_ways=("n_part", "sum"), min_ts=("mn", "min"), max_ts=("mx", "max")
    )
    out = df.astype({"v": "int64", "kk": "int64", "n_ways": "int64",
                     "min_ts": "int64", "max_ts": "int64"})
    return out.sort_values(["v", "visible", "kk"]).reset_index(drop=True)


@query(lambda o: o.osmpbf_relation_member_sums())
def q_osmpbf_relation_member_sums(sf_dir: str) -> pd.DataFrame:
    """RELATION histories through the real .osh.pbf wire format: the
    relation corpus (ingest's _pack_rel_bucket derivation — relation r
    = observed member ways {2r, 2r+1}) is encoded as genuine PBF
    Relation messages (delta-coded memids, roles_sid, member-type
    enum, Info), decoded with read_osmpbf, and aggregated per k-tag:
    relation count, ms-truncated ts range, member count and MEMBER-ID
    SUM — the id sum + per-row member count value-check the zigzag
    delta cumsum of memids; n_way_members checks the type enum; the
    empty-role count checks roles_sid index 0. Closes the last
    rows-only gap in the wire-format family (nodes:
    osmpbf_snapshot_count_daily, ways: osmpbf_way_version_counts)."""
    rows = read_osmpbf(ensure_osmpbf_relations(sf_dir))

    def stage(b: pa.Table) -> pa.Table:
        pc = pa.compute
        keep = b.filter(pc.equal(b["etype"], "relation"))
        kk = _tag_value_int(keep, "k")
        n = len(keep)
        mids = keep["member_ids"].combine_chunks()
        smid = np.zeros(n, dtype=np.int64)
        np.add.at(
            smid,
            pc.list_parent_indices(mids).to_numpy(zero_copy_only=False),
            pc.list_flatten(mids).to_numpy(zero_copy_only=False).astype(np.int64),
        )
        df = pd.DataFrame(
            {
                "kk": kk,
                "ts": keep["ts"].to_numpy(zero_copy_only=False),
                "nm": pc.list_value_length(mids).to_numpy(zero_copy_only=False).astype(np.int64),
                "smid": smid,
                "nway": _list_match_counts(keep["member_types"], "way", n),
                "nrole0": _list_match_counts(keep["member_roles"], "", n),
            }
        )
        g = df.groupby("kk", as_index=False).agg(
            n_part=("ts", "size"), mn=("ts", "min"), mx=("ts", "max"),
            nm=("nm", "sum"), smid=("smid", "sum"),
            nway=("nway", "sum"), nrole0=("nrole0", "sum"),
        )
        return pa.Table.from_pandas(g)

    # per-batch partials -> driver combine (<= 7 key rows)
    df = rio.map_blocks(rows, stage).to_pandas()
    df = df.groupby("kk", as_index=False).agg(
        n_rels=("n_part", "sum"), min_ts=("mn", "min"), max_ts=("mx", "max"),
        n_members=("nm", "sum"), sum_member_ids=("smid", "sum"),
        n_way_members=("nway", "sum"), n_empty_roles=("nrole0", "sum"),
    )
    out = df.astype("int64")
    return out.sort_values("kk").reset_index(drop=True)


@query(lambda o: o.snapshot_count_daily())  # same values, sharded+resumable plan
def q_snapshot_count_daily_checkpointed(sf_dir: str) -> pd.DataFrame:
    """snapshot_count_daily EXECUTED THROUGH THE CHECKPOINTED SHARD
    RUNNER (state.checkpoint.run_sharded): the span table's parquet
    fragments are split into 4 independent shards, each processed as
    its own Ray pipeline with an atomically-renamed output directory +
    manifest line (lineage fingerprints, row counts, content checksum,
    wall time); a re-run — including this function called twice —
    skips completed shards and combines the SAME values. This is the
    north rule's 'resumable from checkpoint with per-partition
    lineage + metrics' path under the value-exact oracle."""
    rep = int(os.environ.get("RAYHIST_REP", "1"))
    path = ensure_documents(sf_dir, rep)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    n_shards = min(4, len(files))
    shards = {
        f"shard_{i:02d}": files[i::n_shards] for i in range(n_shards)
    }
    out_dir = os.path.join(
        rio.cache_root(),
        "ckpt_" + hashlib.sha256(path.encode()).hexdigest()[:12],
        "snap_daily",
    )
    stage, _ = snapshot_counts_stage(SNAP_DAILY)

    def process(inputs: list[str]) -> rio.Blocks:
        docs = rio.read_resident(path, columns=DECODE_COLUMNS, filter=shard_rows(inputs))
        return rio.materialize_blocks(docs, stage)

    manifest = run_sharded(shards, process, out_dir)
    df = read_outputs(manifest, out_dir).to_pandas()
    agg = df.groupby("ts_q", as_index=False)["n_part"].sum().rename(columns={"n_part": "n_snapshots"})
    return zerofill(agg, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


@query(lambda o: o.snapshot_cells())  # same values, salted plan
def q_snapshot_cells_salted(sf_dir: str) -> pd.DataFrame:
    """snapshot_cells computed through the SALTED two-stage aggregation
    (state.checkpoint.salted_count_by): snapshot rows keyed by (cell,
    ts) with a deterministic salt spreading each mega-cell over 16
    reducers — the skew path of the north rule ('skewed mega-cells
    split via salted repartitioning'), sharing snapshot_cells'
    oracle (same values, different physical plan)."""
    ts = np.asarray(SNAP_WEEKLY, dtype=np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, ts, ["ts_q", "osm_id", "lon_e7", "lat_e7"])
        cell = cell_id(
            s["lon_e7"].to_numpy(zero_copy_only=False),
            s["lat_e7"].to_numpy(zero_copy_only=False),
            CELL_ZOOM,
        )
        return pa.table(
            {"ts_q": s["ts_q"], "cell": pa.array(cell), "osm_id": s["osm_id"]}
        )

    rows = rio.materialize_blocks(_docs(sf_dir), stage)
    df = salted_count_by(rows, ["ts_q", "cell"], salt_col="osm_id", n_salt=16, alias="n").to_pandas()
    return df.sort_values(["ts_q", "cell"]).reset_index(drop=True)


@query(lambda o: o.shared_windows(32, 16))
def q_shared_windows(sf_dir: str) -> pd.DataFrame:
    """Windowed (substring) dedup: 32-char windows at stride 16 shared
    by >= 2 documents — the cross-document duplicate-span detector
    (Lee et al.-style substring dedup) over the rolling-window unit.
    Per-batch distinct (doc, window) pairs, then one ``io.reduce_by_key``
    on the window counting distinct docs."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    # The >=2 filter runs in each window bucket, after the complete
    # count — only shared windows (a tiny fraction of the ~chars/16
    # distinct windows) ever reach the driver.
    def shared_only(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["window"]).aggregate([([], "count_all")])
        return g.filter(pc.greater_equal(g["count_all"], 2)).rename_columns(["window", "n_docs"])

    df = rio.blocks_table(rio.reduce_by_key(ds, ["window"], shared_only, stage=explode_windows))
    return df.to_pandas().sort_values("window").reset_index(drop=True)


@query(lambda o: o.knn("TRUE"))
def q_knn_all(sf_dir: str) -> pd.DataFrame:
    """kNN for EVERY entity position at T_MID (kNN-all) via the
    halo-replicated cell join (spatial.knn.knn_all): one 9x-replication
    shuffle + per-cell vectorized kNN with guarantee-radius resolution,
    brute-force fallback only for sparse-cell stragglers — no per-query
    driver loop, the all-pairs workload the per-query kernels cap on."""

    pos = rio.materialize_blocks(_docs(sf_dir), _positions)
    # derive zoom from the corpus size so cells hold O(100-10k) points
    # (cells = 2^(2z-1)); a constant zoom would make per-group candidate
    # matrices O((n/cells)^2) — quadratic blow-up at larger scale factors
    n = rio.num_rows(pos)
    zoom = max(1, min(12, int(np.ceil((np.log2(max(n, 1) / 2000.0) + 1) / 2))))
    out = knn_all(pos, k=3, zoom=zoom)
    return out[["query_id", "neighbor_id", "rank", "dist2"]].reset_index(drop=True)


HOP_US = 6 * 3600 * 1_000_000  # hop: 6h
WIN_US = 24 * 3600 * 1_000_000  # window: 24h -> 4 overlapping windows/event


def _hop_windows(batch: pa.Table, k: int) -> pa.Table:
    """The start ``ws`` of each of the ``k`` hopping windows every
    event lands in."""
    t = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
    base = t // HOP_US
    return pa.table({"ws": ((base[:, None] - np.arange(k)[None, :]) * HOP_US).ravel()})


@query(lambda o: o.hopping_window_counts(HOP_US, WIN_US))
def q_hopping_window_counts(sf_dir: str) -> pd.DataFrame:
    """HOPPING-window event counts (window 24h, hop 6h): every event
    lands in window/hop = 4 overlapping windows — the stream-shaped
    windowed aggregate beyond tumbling floor-bins (SURVEY.md §2.11).
    Implemented as a per-batch fan-out + partial counts; the shuffle
    sees |windows| rows per batch, not |events| x 4."""
    stage = KeyedPartials(functools.partial(_hop_windows, k=WIN_US // HOP_US), keys=("ws",))
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts"])
    return combine_partials(rio.map_blocks(ev, stage), ["ws"], {"n_part": "n"})


@query(lambda o: o.snapshot_count_daily("visible AND uid % 2 = 0"))
def q_snapshot_count_even_uid(sf_dir: str) -> pd.DataFrame:
    """osmEntityFilter with an ARBITRARY (non-tag) predicate — the
    reference's osmEntityFilter(Predicate<OSMEntity>)
    (MapReducer.java:642-660): here "last editor uid is even", passed
    as a raw per-version mask into the snapshot interpolation."""
    stage, keys = snapshot_counts_stage(SNAP_DAILY, match=_even_uid)
    partials = rio.map_blocks(_docs(sf_dir), stage)
    df = combine_partials(partials, keys, {"n_part": "n_snapshots"})
    return zerofill(df, {"ts_q": SNAP_DAILY}, {"n_snapshots": 0})


def _even_uid(versions: pa.Table) -> np.ndarray:
    """The versions whose editor uid is even."""
    return versions["uid"].to_numpy(zero_copy_only=False) % 2 == 0


@query(lambda o: o.dedup_docs())
def q_dedup_docs(sf_dir: str) -> pd.DataFrame:
    """Exact deduplication as a pipeline result: surviving doc_ids
    after hash-partitioned keep-first dedup over the documents corpus.
    Runs the PRODUCTION vector128 content key (survivors are identical
    to the md5 key barring a 128-bit collision — the oracle validates
    the production path directly; the md5 twin is A/B-pinned in
    tests)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup(ds).to_pandas()[["doc_id"]]
    return out.sort_values("doc_id").reset_index(drop=True)


# ----------------------------------------------- .poly boundary file
POLY_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "aoi_l_with_hole.poly")


def _poly_oracle(o) -> str:
    name, rings = load_poly(POLY_FILE)
    return o.snapshot_pip_poly(name, rings)


@query(_poly_oracle)
def q_snapshot_pip_poly(sf_dir: str) -> pd.DataFrame:
    """areaOfInterest from a user-supplied osmosis ``.poly`` boundary
    file (PolyFileReader.java) — a NON-CONVEX outer ring with a HOLE,
    classified through the GENERAL even-odd banded-crossing-number path
    (fip.Polygon.contains / FastInPolygon.java:21-150) as the snapshot
    AOI (``views.AOI``) of the keyed count stage. Oracle mirrors the
    crossing test edge by edge in SQL."""
    name, rings = load_poly(POLY_FILE)
    stage, _ = snapshot_counts_stage([T_MID], aoi=AOI(rings=tuple(rings)), keys=())
    df = combine_partials(rio.map_blocks(_docs(sf_dir), stage), [], {"n_part": "n_inside"})
    return df.assign(region_id=name)[["region_id", "n_inside"]]


# --------------------------------------- clipped aggregateByGeometry
# A convex CCW pentagon split by the chord x=0 into two convex parts:
# pent == pent_left U pent_right, so clipped lengths satisfy the
# reference's split invariant (TestMapAggregateByGeometry.java:73-121:
# len(total) == len(left) + len(right)), asserted in pytest; the
# per-(region, way) clipped lengths themselves are oracle-hashed.
CLIP_REGIONS: dict[str, list[tuple[float, float]]] = {
    "pent": [(-8e8, -5e8), (8e8, -5e8), (9e8, 3e8), (0.0, 7e8), (-9e8, 3e8)],
    "pent_left": [(-8e8, -5e8), (0.0, -5e8), (0.0, 7e8), (-9e8, 3e8)],
    "pent_right": [(0.0, -5e8), (8e8, -5e8), (9e8, 3e8), (0.0, 7e8)],
}


@query(lambda o: o.clipped_way_lengths(CLIP_REGIONS))
def q_clipped_way_lengths(sf_dir: str) -> pd.DataFrame:
    """aggregateByGeometry with CLIPPED geometries over OVERLAPPING
    regions (MapAggregator.aggregateByGeometry + FastPolygonOperations
    clip, MapReducer.java:857-888): each synthetic way u->u+1 at T_MID
    is clipped against every region polygon (Cyrus-Beck, convex) and
    its clipped length emitted per (region, way) — a way crossing the
    chord contributes to pent, pent_left AND pent_right."""

    # MATERIALIZE: multiple join legs consume `pos`; a lazy upstream
    # re-runs the full decode+interpolate chain once PER LEG (the
    # multi-consumer hazard documented at _knn_positions_flagged). The
    # materialized table is small (int columns, one row per live
    # entity) and lives in the distributed object store, not the driver.
    pos = rio.materialize_blocks(_docs(sf_dir), _positions)
    left = rio.materialize_blocks(
        pos, lambda b: pa.table({"join_k": b["osm_id"], "lon1": b["lon_e7"], "lat1": b["lat_e7"]})
    )
    right = rio.materialize_blocks(
        pos,
        lambda b: pa.table(
            {"join_k": pc.subtract(b["osm_id"], 1), "lon2": b["lon_e7"], "lat2": b["lat_e7"]}
        ),
    )
    joined = hash_join(left, right, on="join_k")
    regions = sorted(CLIP_REGIONS.items())

    def clip_stage(batch: pa.Table) -> pa.Table:
        ax = batch["lon1"].to_numpy(zero_copy_only=False).astype(np.float64)
        ay = batch["lat1"].to_numpy(zero_copy_only=False).astype(np.float64)
        bx = batch["lon2"].to_numpy(zero_copy_only=False).astype(np.float64)
        by = batch["lat2"].to_numpy(zero_copy_only=False).astype(np.float64)
        wid = batch["join_k"].to_numpy(zero_copy_only=False)
        rid_out, wid_out, um_out = [], [], []
        for rid, poly in regions:
            t0, t1, ok = clip_segments_convex(ax, ay, bx, by, poly)
            dx, dy = bx - ax, by - ay
            cax, cay = ax + t0 * dx, ay + t0 * dy
            cbx, cby = ax + t1 * dx, ay + t1 * dy
            d = distance_equirectangular(cay / 1e7, cax / 1e7, cby / 1e7, cbx / 1e7)
            um = np.floor(d * 1e6).astype(np.int64)
            rid_out.extend([rid] * int(ok.sum()))
            wid_out.append(wid[ok])
            um_out.append(um[ok])
        return pa.table(
            {
                "region_id": pa.array(rid_out, type=pa.string()),
                "way_id": pa.array(np.concatenate(wid_out) if wid_out else np.array([], dtype=np.int64)),
                "clip_um": pa.array(np.concatenate(um_out) if um_out else np.array([], dtype=np.int64)),
            }
        )

    df = rio.map_blocks(joined, clip_stage).to_pandas()
    return df.sort_values(["region_id", "way_id"]).reset_index(drop=True)


@query(lambda o: o.clipped_way_lengths_daily(CLIP_REGIONS, SNAP_WEEKLY))
def q_clipped_way_lengths_daily(sf_dir: str) -> pd.DataFrame:
    """Chained aggregateByGeometry().aggregateByTimestamp() — the
    reference's NESTED combined index (MapAggregator.java:172-200
    called on an aggregateByGeometry result, MapReducer.java:857-888):
    total clipped way length and way count per (region, weekly
    timestamp), zerofilled over the full region x timestamp cross
    product (OSHDBCombinedIndex zerofill). The clip floats are the
    same bit-identical Cyrus-Beck kernel as q_clipped_way_lengths;
    the per-cell sums are exact integer micrometers accumulated with
    np.add.at (order-independent), and each batch emits only
    |regions| x |timestamps| partial rows — the final combine is
    driver-tiny regardless of corpus size."""
    ts_arr = np.array(SNAP_WEEKLY, dtype=np.int64)
    n_ts = len(SNAP_WEEKLY)

    def positions(batch: pa.Table) -> pa.Table:
        return snapshot_rows(batch, ts_arr, ["osm_id", "lon_e7", "lat_e7", "ts_q"])

    # MATERIALIZE: multiple join legs consume `pos`; a lazy upstream
    # re-runs the full decode+interpolate chain once PER LEG (the
    # multi-consumer hazard documented at _knn_positions_flagged). The
    # materialized table is small (int columns, one row per live
    # entity) and lives in the distributed object store, not the driver.
    pos = rio.materialize_blocks(_docs(sf_dir), positions)

    # composite (osm_id, ts) equi-join key: way u at timestamp index i
    # joins node u with node u+1 AT THE SAME timestamp
    def left_side(b: pa.Table) -> pa.Table:
        oid = b["osm_id"].to_numpy(zero_copy_only=False)
        ti = np.searchsorted(ts_arr, b["ts_q"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "join_k": pa.array(oid * n_ts + ti),
                "ts_q": b["ts_q"],
                "lon1": b["lon_e7"],
                "lat1": b["lat_e7"],
            }
        )

    def right_side(b: pa.Table) -> pa.Table:
        oid = b["osm_id"].to_numpy(zero_copy_only=False)
        ti = np.searchsorted(ts_arr, b["ts_q"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "join_k": pa.array((oid - 1) * n_ts + ti),
                "lon2": b["lon_e7"],
                "lat2": b["lat_e7"],
            }
        )

    joined = hash_join(
        rio.materialize_blocks(pos, left_side),
        rio.materialize_blocks(pos, right_side),
        on="join_k",
    )
    regions = sorted(CLIP_REGIONS.items())

    def clip_partials(batch: pa.Table) -> pa.Table:
        ax = batch["lon1"].to_numpy(zero_copy_only=False).astype(np.float64)
        ay = batch["lat1"].to_numpy(zero_copy_only=False).astype(np.float64)
        bx = batch["lon2"].to_numpy(zero_copy_only=False).astype(np.float64)
        by = batch["lat2"].to_numpy(zero_copy_only=False).astype(np.float64)
        ti = np.searchsorted(ts_arr, batch["ts_q"].to_numpy(zero_copy_only=False))
        rid_out, ts_out, um_out, n_out = [], [], [], []
        for rid, poly in regions:
            t0, t1, ok = clip_segments_convex(ax, ay, bx, by, poly)
            dx, dy = bx - ax, by - ay
            cax, cay = ax + t0 * dx, ay + t0 * dy
            cbx, cby = ax + t1 * dx, ay + t1 * dy
            d = distance_equirectangular(cay / 1e7, cax / 1e7, cby / 1e7, cbx / 1e7)
            um = np.floor(d * 1e6).astype(np.int64)
            acc = np.zeros(n_ts, dtype=np.int64)
            np.add.at(acc, ti[ok], um[ok])  # exact int sum (no float weights)
            cnt = np.bincount(ti[ok], minlength=n_ts).astype(np.int64)
            rid_out.extend([rid] * n_ts)
            ts_out.append(ts_arr)
            um_out.append(acc)
            n_out.append(cnt)
        return pa.table(
            {
                "region_id": pa.array(rid_out, type=pa.string()),
                "ts_q": pa.array(np.concatenate(ts_out)),
                "um_part": pa.array(np.concatenate(um_out)),
                "n_part": pa.array(np.concatenate(n_out)),
            }
        )

    partials = rio.map_blocks(joined, clip_partials)
    df = combine_partials(
        partials, ["region_id", "ts_q"], {"um_part": "total_um", "n_part": "n_ways"}
    )
    return zerofill(
        df,
        {"region_id": sorted(CLIP_REGIONS), "ts_q": SNAP_WEEKLY},
        {"total_um": 0, "n_ways": 0},
    )


# A NON-CONVEX comb (two slots cut from the top edge) and the same comb
# with a rectangular hole in its solid base — the arbitrary-polygon
# clip regions the convex Cyrus–Beck path cannot express
# (fip/FastPolygonOperations.java:15-160 clips against general
# (Multi)Polygons with holes). Each region is a list of rings
# (outer first), even-odd semantics.
_COMB_OUTER: list[tuple[float, float]] = [
    (-9e8, -6e8), (9e8, -6e8), (9e8, 6e8), (4.5e8, 6e8),
    (4.5e8, -2e8), (1.5e8, -2e8), (1.5e8, 6e8), (-1.5e8, 6e8),
    (-1.5e8, -2e8), (-4.5e8, -2e8), (-4.5e8, 6e8), (-9e8, 6e8),
]
NONCONVEX_CLIP_REGIONS: dict[str, list[list[tuple[float, float]]]] = {
    "comb": [_COMB_OUTER],
    "comb_hole": [
        _COMB_OUTER,
        [(-8e8, -5.5e8), (-5.5e8, -5.5e8), (-5.5e8, -3.5e8), (-8e8, -3.5e8)],
    ],
}


@query(lambda o: o.clipped_way_lengths_poly(NONCONVEX_CLIP_REGIONS))
def q_clipped_way_lengths_poly(sf_dir: str) -> pd.DataFrame:
    """aggregateByGeometry with clipped geometries over GENERAL
    (non-convex, holed) regions — the full FastPolygonOperations clip
    (fip/FastPolygonOperations.java:15-160 via CellIterator.java:361-377,
    reference test TestMapAggregateByGeometry.java:73-121). Each
    synthetic way u->u+1 at T_MID is clipped even-odd against every
    region's ring set; a way may contribute several disjoint inside
    sub-intervals (a segment crossing a comb slot re-enters), whose
    lengths are summed as integer micrometers per (region, way)."""

    # MATERIALIZE: multiple join legs consume `pos`; a lazy upstream
    # re-runs the full decode+interpolate chain once PER LEG (the
    # multi-consumer hazard documented at _knn_positions_flagged). The
    # materialized table is small (int columns, one row per live
    # entity) and lives in the distributed object store, not the driver.
    pos = rio.materialize_blocks(_docs(sf_dir), _positions)
    left = rio.materialize_blocks(
        pos, lambda b: pa.table({"join_k": b["osm_id"], "lon1": b["lon_e7"], "lat1": b["lat_e7"]})
    )
    right = rio.materialize_blocks(
        pos,
        lambda b: pa.table(
            {"join_k": pc.subtract(b["osm_id"], 1), "lon2": b["lon_e7"], "lat2": b["lat_e7"]}
        ),
    )
    joined = hash_join(left, right, on="join_k")
    regions = sorted(NONCONVEX_CLIP_REGIONS.items())

    def clip_stage(batch: pa.Table) -> pa.Table:
        ax = batch["lon1"].to_numpy(zero_copy_only=False).astype(np.float64)
        ay = batch["lat1"].to_numpy(zero_copy_only=False).astype(np.float64)
        bx = batch["lon2"].to_numpy(zero_copy_only=False).astype(np.float64)
        by = batch["lat2"].to_numpy(zero_copy_only=False).astype(np.float64)
        wid = batch["join_k"].to_numpy(zero_copy_only=False)
        rid_out, wid_out, um_out = [], [], []
        for rid, rings in regions:
            seg, lo, hi = clip_segments_even_odd(ax, ay, bx, by, rings)
            dxs, dys = bx[seg] - ax[seg], by[seg] - ay[seg]
            cax, cay = ax[seg] + lo * dxs, ay[seg] + lo * dys
            cbx, cby = ax[seg] + hi * dxs, ay[seg] + hi * dys
            d = distance_equirectangular(cay / 1e7, cax / 1e7, cby / 1e7, cbx / 1e7)
            um = np.floor(d * 1e6).astype(np.int64)
            acc = np.zeros(len(ax), dtype=np.int64)
            np.add.at(acc, seg, um)  # int um per interval -> exact, order-free
            present = np.zeros(len(ax), dtype=bool)
            present[seg] = True
            rid_out.extend([rid] * int(present.sum()))
            wid_out.append(wid[present])
            um_out.append(acc[present])
        return pa.table(
            {
                "region_id": pa.array(rid_out, type=pa.string()),
                "way_id": pa.array(np.concatenate(wid_out) if wid_out else np.array([], dtype=np.int64)),
                "clip_um": pa.array(np.concatenate(um_out) if um_out else np.array([], dtype=np.int64)),
            }
        )

    df = rio.map_blocks(joined, clip_stage).to_pandas()
    return df.sort_values(["region_id", "way_id"]).reset_index(drop=True)


# ------------------------------------------------ compound (way) docs
WAY_CONTRIB_FROM = T0  # full-January window so way CREATE/DELETE land inside
WAY_CONTRIB_TO = T0 + 32 * DAY_US
WAY_SNAPS = [*SNAP_WEEKLY, T0 + 32 * DAY_US]  # + Feb 2: after every way's v2
# the partials of members_vec.contribution_stats_batch_vec -> the
# compound contribution counts' columns
COMPOUND_CONTRIB_SUMS = {
    "n_part": "n_total",
    "creation_part": "n_creation",
    "deletion_part": "n_deletion",
    "tag_part": "n_tag_change",
    "geom_part": "n_geom_change",
    "uid_part": "sum_uid",
}


def _compound(read, sf_dir: str):
    """A compound table's typed columns (no span text), resident."""
    return read(sf_dir, columns=COMPOUND_READ_COLUMNS)


@query(lambda o: o.contrib_type_counts_ways(WAY_CONTRIB_FROM, WAY_CONTRIB_TO))
def q_contrib_type_counts_ways(sf_dir: str) -> pd.DataFrame:
    """Contribution counts over COMPOUND way documents — exercises the
    member-history recursion (OSHEntities._getModificationTimestamps,
    OSHEntities.java:330-393): member-node edits inside validity
    windows surface as way contributions (GEOMETRY_CHANGE / empty
    sets), changeset-collapsed with parent changesets winning, and the
    contributor uid of a pure member edit comes from the CHILD version
    (OSMContribution.java:211-257) — sum_uid pins that attribution."""
    stage = functools.partial(
        contribution_stats_batch_vec, t_from=WAY_CONTRIB_FROM, t_to=WAY_CONTRIB_TO
    )
    partials = rio.map_blocks(
        _compound(read_way_documents, sf_dir), stage, batch_size=COMPOUND_BATCH
    )
    return combine_partials(partials, [], COMPOUND_CONTRIB_SUMS)


@query(lambda o: o.contrib_type_counts_ways_k3(WAY_CONTRIB_FROM, WAY_CONTRIB_TO))
def q_contrib_type_counts_ways_k3(sf_dir: str) -> pd.DataFrame:
    """FILTER-RELATIVE contributions over compound way documents with
    the osmTag filter k=3: member-validity windows are built ONLY from
    matching parent versions (OSHEntities._getModificationTimestamps
    match parameter, OSHEntities.java:330-393), so:

    - ways with w%7==3: v1 matches, v2 (k=4) does not -> full member
      timeline plus a filter-relative DELETION at ts2
      (CellIterator.java:578-595);
    - ways with w%7==2 and visible v2: only v2 (k=3) matches -> a
      single CREATION at ts2, member edits suppressed (no window);
    - all other ways contribute nothing."""
    match = tag_match(compound_keytable(ensure_way_documents(sf_dir)), "k", "3")
    stage = functools.partial(
        contribution_stats_batch_vec, t_from=WAY_CONTRIB_FROM, t_to=WAY_CONTRIB_TO, match=match
    )
    partials = rio.map_blocks(
        _compound(read_way_documents, sf_dir), stage, batch_size=COMPOUND_BATCH
    )
    return combine_partials(partials, [], COMPOUND_CONTRIB_SUMS)


@query(lambda o: o.snapshot_way_geoms(WAY_SNAPS))
def q_snapshot_way_geoms(sf_dir: str) -> pd.DataFrame:
    """Snapshot view over compound way documents: per (way, ts) the
    member-resolved geometry (each member node at its latest
    at-or-before-ts version, deleted members skipped —
    OSHDBGeometryBuilder.java:72-110), reported as integer-exact
    node count + coordinate sums. The Feb-2 timestamp falls after
    every way's v2, so deleted ways (w%3==0) drop out there."""
    stage = functools.partial(snapshot_geoms_batch_vec, timestamps=WAY_SNAPS)
    rows = rio.map_blocks(_compound(read_way_documents, sf_dir), stage, batch_size=COMPOUND_BATCH)
    df = rows.to_pandas()
    return df.sort_values(["way_id", "ts_q"]).reset_index(drop=True)


@query(lambda o: o.contrib_type_counts_relations(WAY_CONTRIB_FROM, WAY_CONTRIB_TO))
def q_contrib_type_counts_relations(sf_dir: str) -> pd.DataFrame:
    """Contribution counts over 2-LEVEL compound relation documents —
    the recursive relation path (OSHEntities.java:395-478): a node edit
    reaches the relation THROUGH its way's recursive modification
    timestamps; way visibility changes drop whole member ways from the
    resolved geometry. n_deletion/n_tag_change are structurally 0
    (single visible relation version) and the oracle proves it."""
    stage = functools.partial(
        contribution_stats_batch_vec, t_from=WAY_CONTRIB_FROM, t_to=WAY_CONTRIB_TO
    )
    partials = rio.map_blocks(
        _compound(read_relation_documents, sf_dir), stage, batch_size=COMPOUND_BATCH
    )
    return combine_partials(partials, [], COMPOUND_CONTRIB_SUMS)


@query(lambda o: o.snapshot_relation_geoms(WAY_SNAPS))
def q_snapshot_relation_geoms(sf_dir: str) -> pd.DataFrame:
    """Snapshot view over relation documents: member ways resolve at
    ts, then THEIR member nodes resolve recursively
    (resolve_coords two-level chain, OSMMember.entity); invisible ways
    drop all their nodes from the geometry."""
    stage = functools.partial(snapshot_geoms_batch_vec, timestamps=WAY_SNAPS, id_name="rel_id")
    rows = rio.map_blocks(
        _compound(read_relation_documents, sf_dir), stage, batch_size=COMPOUND_BATCH
    )
    df = rows.to_pandas()
    return df.sort_values(["rel_id", "ts_q"]).reset_index(drop=True)


@query(lambda o: o.snapshot_old_style(WAY_SNAPS))
def q_snapshot_old_style(sf_dir: str) -> pd.DataFrame:
    """Old-style multipolygon snapshots (CellIterator.java:260-318,
    BaseTagInterpreter.isOldStyleMultipolygon :111-136): relations
    whose only tags are relation-area/uninteresting and which have
    EXACTLY one outer way; the FILTER (k=3) is tested against the
    resolved OUTER WAY, and the emitted geometry is ONLY THE INNER
    HOLES. Per snapshot ts: qualifying-relation count, hole-ring
    count, and the integer sums of hole-ring point coordinates
    (pinning member-resolved node positions at ts, including the
    closed-ring repeat of the first inner node)."""
    kt = compound_keytable(ensure_oldstyle_documents(sf_dir))
    tests = (
        old_style_tags(kt), role_id(kt, "outer"), role_id(kt, "inner"), tag_match(kt, "k", "3")
    )

    rows = functools.partial(
        snapshots_old_style_batch_vec, timestamps=WAY_SNAPS, old_style=tests[0],
        outer=tests[1], inner=tests[2], match=tests[3],
    )
    stage = KeyedPartials(rows, keys=("ts_q",), sums=("n_holes", "sum_lon", "sum_lat"))
    partials = rio.map_blocks(
        _compound(read_oldstyle_documents, sf_dir), stage, batch_size=COMPOUND_BATCH
    )
    return combine_partials(
        partials,
        ["ts_q"],
        {"n_part": "n_rels", "n_holes_part": "n_holes", "sum_lon_part": "sum_hole_lon",
         "sum_lat_part": "sum_hole_lat"},
    )


@query(lambda o: o.snapshot_count_by_type())
def q_snapshot_count_by_type(sf_dir: str) -> pd.DataFrame:
    """Mixed-corpus snapshot count at T_MID grouped by osmType — the
    union of the node and way document tables with per-type routing
    (vectorized node path, member-recursion way path), the
    MapReducer.osmType(...) filter surface (MapReducer.java:396-401)."""
    def node_stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], [])
        return pa.table(
            {
                "osm_type": pa.array(["node"]),
                "n_part": pa.array([len(s)], type=pa.int64()),
            }
        )

    def way_stage(batch: pa.Table) -> pa.Table:
        s = snapshot_geoms_batch_vec(batch, [T_MID])
        return pa.table(
            {
                "osm_type": pa.array(["way"]),
                "n_part": pa.array([len(s)], type=pa.int64()),
            }
        )

    node_partials = rio.map_blocks(_docs(sf_dir), node_stage)
    way_partials = rio.map_blocks(
        _compound(read_way_documents, sf_dir), way_stage, batch_size=COMPOUND_BATCH
    )
    df = combine_partials(
        pa.concat_tables([node_partials, way_partials]), ["osm_type"], {"n_part": "n_snapshots"}
    )
    return df.sort_values("osm_type").reset_index(drop=True)


@query(lambda o: o.snapshot_count_three_types(WAY_SNAPS))
def q_snapshot_count_three_types(sf_dir: str) -> pd.DataFrame:
    """The reference's single-query three-type union
    (backend/MapReducerJdbc.java:53-59 UNION ALL over node/way/relation
    cell tables) through the fluent facade: ONE chain
    ``osmType('node','way','relation')`` fanning out to the fused node
    span leg + the compound way/relation member-recursion legs, all
    partials merging in one combine (api.MapReducer._count_compound).
    Keyed by (ts_q, osm_type), zerofilled over the full grid."""
    return (
        OSMEntitySnapshotView.on(sf_dir)
        .timestamps(WAY_SNAPS)
        .osmType("node", "way", "relation")
        .aggregateByTimestamp()
        .aggregateBy("osm_type")
        .count(alias="n_snapshots")
    )


@query(lambda o: o.snapshot_cells_fine())
def q_snapshot_cells_fine(sf_dir: str) -> pd.DataFrame:
    """Snapshot counts per FINE grid cell (zoom 10, ~0.35deg tiles):
    the high-cardinality final where the partial-combine runs per cell
    bucket (one ``io.reduce_by_key``, the combine_partials docstring
    threshold path), unlike the coarse-zoom variant."""
    stage, keys = snapshot_counts_stage([T_MID], cell=functools.partial(cell_id, zoom=10))
    refs = combine_by_key(_docs(sf_dir), keys, {"n_part": "sum"}, stage=stage)
    df = rio.blocks_table(refs).to_pandas().rename(columns={"n_part": "n"})
    return df.sort_values(["ts_q", "cell"]).reset_index(drop=True)


# ------------------------------------------------------- fluent-facade
@query(lambda o: o.api_snapshot_weekly_click_bbox())
def q_api_snapshot_weekly_click_bbox(sf_dir: str) -> pd.DataFrame:
    """The full reference chain shape — areaOfInterest(bbox) +
    timestamps + osmTag(k, v) + aggregateByTimestamp + count — written
    through the fluent MapReducer facade (rayhist.api), which compiles
    it into the same one-fused-stage plan the direct pipelines use.
    In the oracle surface so the facade's composition logic (filter
    ANDing, AOI masking, binning, zerofill) is value-checked, not just
    unit-tested."""
    return (
        OSMEntitySnapshotView.on(sf_dir)
        .areaOfInterest(bbox=AOI_BBOX)
        .timestamps(SNAP_WEEKLY)
        .osmTag("etype", "click")
        .aggregateByTimestamp()
        .count(alias="n_snapshots")
    )


@query(lambda o: o.api_contrib_creations_daily_even_uid())
def q_api_contrib_creations_daily_even_uid(sf_dir: str) -> pd.DataFrame:
    """Contribution-view facade chain: interval timestamps +
    osmEntityFilter (vectorized arbitrary predicate, MapReducer.java
    :411-422) + aggregateByTimestamp + sum over a classification flag."""
    return (
        OSMContributionView.on(sf_dir)
        .timestamps(list(CONTRIB_BINS) + [CONTRIB_TO])
        .osmEntityFilter(lambda t: t["uid"].to_numpy(zero_copy_only=False) % 2 == 0)
        .aggregateByTimestamp()
        .sum("is_creation", alias="n_creations")
    )


def _many_regions() -> list[tuple[str, list]]:
    """24 deterministic axis-aligned rectangles (some overlapping) in
    e7 coords — literal-mirrored in the SQL oracle."""
    out = []
    for i in range(24):
        cx = ((i * 982451653) % 3_000_000_000) - 1_500_000_000
        cy = ((i * 472882027) % 1_400_000_000) - 700_000_000
        # half-integer edges: integer points can never lie exactly ON
        # a boundary, so the even-odd kernel and the SQL inequalities
        # agree everywhere by construction
        w = 2e8 + (i % 5) * 1e8 + 0.5
        h = 1e8 + (i % 3) * 1e8 + 0.5
        ring = [(cx - w, cy - h), (cx + w, cy - h), (cx + w, cy + h), (cx - w, cy + h)]
        out.append((f"r{i:02d}", [ring]))
    return out


@functools.cache
def _many_regions_index(strtree: bool):
    """The index over ``_many_regions()``: an STRtree, or the zoom-6
    ``RegionIndex`` (~1 s to build at 1 cpu, against 3-5 ms for the
    STRtree). Both are constant, so each is built once per process."""
    regions = _many_regions()
    return STRtreeRegionIndex(regions) if strtree else RegionIndex(regions, zoom=6)


def _region_hits(batch: pa.Table, strtree: bool) -> pa.Table:
    """The ``region_id`` of each (T_MID snapshot position, region
    containing it) pair, classified by the ``_many_regions_index``
    backend the process builds once."""
    s = snapshot_rows(batch, [T_MID], ["lon_e7", "lat_e7"])
    _rows, rids = _many_regions_index(strtree).classify(
        s["lon_e7"].to_numpy(zero_copy_only=False), s["lat_e7"].to_numpy(zero_copy_only=False)
    )
    return pa.table({"region_id": pa.array(rids, type=pa.string())})


def _region_counts_stage(strtree: bool) -> KeyedPartials:
    """Per-region counts of one block's T_MID snapshot positions. It
    carries only the backend flag: the process that runs it looks the
    index up in its own cache (``_many_regions_index``), so a call
    ships no index (a captured one pickled ~25-44 kB per call)."""
    return KeyedPartials(functools.partial(_region_hits, strtree=strtree), keys=("region_id",))


def _region_counts(sf_dir: str, strtree: bool) -> pd.DataFrame:
    """Per-region counts of the T_MID snapshot positions, classified by
    the ``_many_regions_index(strtree)`` backend, zerofilled over
    ``_many_regions``."""
    partials = rio.map_blocks(_docs(sf_dir), _region_counts_stage(strtree))
    df = combine_partials(partials, ["region_id"], {"n_part": "n"})
    return zerofill(df, {"region_id": [r for r, _ in _many_regions()]}, {"n": 0})


@query(lambda o: o.snapshot_pip_many_regions())
def q_snapshot_pip_many_regions(sf_dir: str) -> pd.DataFrame:
    """Many-region point-in-polygon join through the grid-bucketed
    region index (RegionIndex — the GeometrySplitter analog,
    oshdb-api/.../mapreducer/GeometrySplitter.java:80-203): cells fully
    inside a region skip the exact test, boundary cells run the banded
    PIP. Counts per region over the T_MID snapshot, zerofilled — this
    puts the index itself (inside/boundary cell classification) under
    the value-exact oracle, not just the pytest linear-scan
    equivalence."""
    return _region_counts(sf_dir, strtree=False)


# STRtree backend shares the grid-index query's oracle
@query(lambda o: o.snapshot_pip_many_regions())
def q_snapshot_pip_many_regions_strtree(sf_dir: str) -> pd.DataFrame:
    """Same result contract as snapshot_pip_many_regions computed
    through the STR-PACKED R-TREE backend (spatial/strtree.py — the
    literal JTS STRtree the reference compiles per worker,
    GeometrySplitter.java:36-60) instead of the grid-bucketed index:
    two candidate structures, one value-exact oracle. The
    level-synchronous tree query is vectorized across each block."""
    return _region_counts(sf_dir, strtree=True)


@query(lambda o: o.snapshot_count_daily("visible AND (etype = 'click' OR kk = 3)"))
def q_api_snapshot_daily_any_tags(sf_dir: str) -> pd.DataFrame:
    """The osmTag COLLECTION overload (match ANY of a set of exact
    tags, MapReducer.java:595-632) through the facade, on the
    int-keytable LUT path; daily snapshot counts, zerofilled."""
    return (
        OSMEntitySnapshotView.on(sf_dir)
        .timestamps(SNAP_DAILY)
        .osmTag([("etype", "click"), ("k", "3")])
        .aggregateByTimestamp()
        .count(alias="n_snapshots")
    )


@query(lambda o: o.api_snapshot_weighted_avg())
def q_api_snapshot_weighted_avg(sf_dir: str) -> pd.DataFrame:
    """weightedAverage through the facade (MapReducer.java:1207-1225):
    exact integer sum(w*x) / sum(w) partials, ONE IEEE division at the
    end — value-identical to the SQL division of exact BIGINT sums.
    Weight = kk + 40 (positive by construction), x = uid."""
    wavg = (
        OSMEntitySnapshotView.on(sf_dir)
        .timestamps([T_MID])
        .map(lambda t: t.append_column("w", pc.add(t["kk"], 40)))
        .weightedAverage("uid", "w")
    )
    return pd.DataFrame([{"wavg_uid": wavg}])


# ----------------------------------------- ordered/temporal operators
# (ops/window.py: as-of join, range join, rolling windows, set ops —
# the target-only event-pipeline surface; SURVEY.md §2.9/§2.11)

RANGE_WIN_US = 30 * 60 * 1_000_000  # error window length: 30 minutes
SPIKE_WINDOW = 3  # rolling ROWS frame: previous 3 events
SETOP_CUTOFF_US = T0 + 2 * DAY_US  # set-op observation window: first 2 days
TOPK_PRIORITY_K = 3


def _events_typed(sf_dir: str, etype: str, cols: list[str]):
    """Events of one type, ``cols`` of them, with ts converted to int64
    us in the scan stage (exact integer time arithmetic end-to-end)."""
    ds = rio.read_resident(
        f"{sf_dir}/events.parquet",
        columns=[*cols, "event_type"],
        filter=(pc.field("event_type") == etype),
    )

    def to_us(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64())
        return b.drop_columns(["ts", "event_type"]).append_column("t", t)

    return rio.materialize_blocks(ds, to_us)


@query(lambda o: o.asof_attribution())
def q_asof_attribution(sf_dir: str) -> pd.DataFrame:
    """AS-OF JOIN (the attribution join): each purchase matched to the
    LATEST click by the same user at-or-before its timestamp (>=
    inclusive — the SQL ASOF JOIN contract), LEFT semantics for
    never-clicked purchases. Distributed as ONE co-partitioned bucket
    shuffle with complete users per bucket; the per-user final
    (purchase count, attributed count, total click->purchase lag)
    runs INSIDE the bucket stage, so only |users| rows reach the
    driver. Lag sums are exact int64 microseconds."""
    purchases = _events_typed(sf_dir, "purchase", ["user_id", "ts"])
    clicks = _events_typed(sf_dir, "click", ["user_id", "ts"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        m = g["t_r"].notna()
        lag = (g["t"] - g["t_r"]).where(m, 0)
        g = g.assign(_m=m.astype(np.int64), _lag=lag.astype("int64"))
        return g.groupby("user_id", as_index=False).agg(
            n_purchases=("t", "size"),
            n_attrib=("_m", "sum"),
            lag_us_total=("_lag", "sum"),
        )

    out = asof_join(
        purchases,
        clicks,
        on="t",
        by="user_id",
        group_final=final,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"n_purchases": "int64", "n_attrib": "int64", "lag_us_total": "int64"}
    )


@query(lambda o: o.range_error_click_daily(RANGE_WIN_US, T0, DAY_US))
def q_range_error_click_daily(sf_dir: str) -> pd.DataFrame:
    """RANGE JOIN with no key equality: every (error-window, click)
    pair where the click falls inside [error_ts, error_ts + 30min),
    counted per click-day. Distribution is the time-binned replication
    join (interval replicated to overlapped bins, point to its own bin
    — each pair meets exactly once); the kernel is COVERAGE COUNTING
    (per click: #starts<=t minus #ends<=t), so nothing of pair
    cardinality is ever materialized — at 10M events the pair set is
    2.8e9 and the expanding join took 117 s where this runs in ~3 s.
    The per-day count is a PARTIAL inside the bucket stage, combined at
    the driver (30 keys)."""
    errors = _events_typed(sf_dir, "error", ["ts"])
    clicks = _events_typed(sf_dir, "click", ["ts"])

    def mk_interval(b: pa.Table) -> pa.Table:
        s = b["t"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array(s), "e": pa.array(s + RANGE_WIN_US)})

    intervals = rio.materialize_blocks(errors, mk_interval)

    def final(pts: pd.DataFrame) -> pd.DataFrame:
        day = (pts["t"].to_numpy(dtype=np.int64) - T0) // DAY_US
        g = pd.DataFrame({"day": day, "n": pts["n_cover"].to_numpy(dtype=np.int64)})
        g = g[g["n"] > 0].groupby("day", as_index=False)["n"].sum()
        return g.rename(columns={"n": "n_part"})

    partials = interval_coverage_counts(
        intervals,
        clicks,
        start_col="s",
        end_col="e",
        t_col="t",
        bin_us=RANGE_WIN_US,
        group_final=final,
    )
    df = combine_partials(rio.blocks_table(partials), ["day"], {"n_part": "n_pairs"})
    return df.sort_values("day").reset_index(drop=True)


@query(lambda o: o.window_rolling_spikes(SPIKE_WINDOW))
def q_window_rolling_spikes(sf_dir: str) -> pd.DataFrame:
    """Per-key ordered ROLLING WINDOW (ROWS frame): an event is a
    "spike" when its value exceeds the mean of the user's previous 3
    events (exact integer test: window*value_cents > prior_sum_cents,
    requiring a full frame). Events ordered by (ts, event_id) per
    user; per-user totals are final inside the bucket stage."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64())
        vc = round_half_away(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "t": t,
                "event_id": b["event_id"],
                "vc": pa.array(vc),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        full = g["prior_n"].to_numpy() == SPIKE_WINDOW
        spike = full & (
            SPIKE_WINDOW * g["vc"].to_numpy() > g["prior_sum"].to_numpy()
        )
        g = g.assign(_sp=spike.astype(np.int64))
        return g.groupby("user_id", as_index=False).agg(
            n_events=("vc", "size"), n_spikes=("_sp", "sum")
        )

    out = with_prior_window(
        rio.materialize_blocks(ev, prep),
        key_col="user_id",
        order_cols=["t", "event_id"],
        value_col="vc",
        window=SPIKE_WINDOW,
        group_final=final,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"n_events": "int64", "n_spikes": "int64"}
    )


@query(lambda o: o.user_event_ranks())
def q_user_event_ranks(sf_dir: str) -> pd.DataFrame:
    """RANKED WINDOW FUNCTIONS (LAG / running MAX / DENSE_RANK — the
    value-rank family `topk_orders_by_priority`'s ROW_NUMBER idiom
    doesn't cover): per user, events ordered by (ts, event_id);
    count record-setting events (value_cents strictly exceeds every
    PRIOR value — MAX OVER UNBOUNDED PRECEDING..1 PRECEDING),
    increases over the immediately previous event (LAG), and distinct
    value levels (max DENSE_RANK). One co-partitioned bucket shuffle
    with complete users per bucket; per-user finals in-stage, so only
    |users| rows reach the driver. Exact integer cents end-to-end
    (nullable Int64 lag/max — never float)."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64())
        vc = round_half_away(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "t": t,
                "event_id": b["event_id"],
                "vc": pa.array(vc),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["vc"]
        rec = (vc > g["prior_max"]).fillna(False) | g["prior_max"].isna()
        inc = (vc > g["prior_val"]).fillna(False)
        g = g.assign(_rec=rec.astype("int64"), _inc=inc.astype("int64"))
        return g.groupby("user_id", as_index=False).agg(
            n_events=("vc", "size"),
            n_records=("_rec", "sum"),
            n_increases=("_inc", "sum"),
            n_distinct_vals=("dense_rank", "max"),
        )

    out = with_ranked_window(
        rio.materialize_blocks(ev, prep),
        key_col="user_id",
        order_cols=["t", "event_id"],
        value_col="vc",
        group_final=final,
    ).to_pandas()
    return (
        out.sort_values("user_id")
        .reset_index(drop=True)
        .astype(
            {
                "n_events": "int64",
                "n_records": "int64",
                "n_increases": "int64",
                "n_distinct_vals": "int64",
            }
        )
    )


FIRST_EVENTS_K = 3  # ordered-collect prefix length per user


@query(lambda o: o.user_first_events(FIRST_EVENTS_K))
def q_user_first_events(sf_dir: str) -> pd.DataFrame:
    """ORDERED COLLECT / string_agg (the §2.7 collect terminal under a
    value-exact oracle): each user's first 3 event types in (ts,
    event_id) order, joined ',' — ROW_NUMBER from the ranked-window
    stage, the prefix filter and the per-user string build in-stage
    (|users| rows out). The collected value is deterministic because
    the order is a total order."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "t": b["ts"].cast(pa.int64()),
                "event_id": b["event_id"],
                "etype": b["event_type"],
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["row_number"] <= FIRST_EVENTS_K].sort_values(
            ["user_id", "row_number"], kind="mergesort"
        )
        return g.groupby("user_id", as_index=False).agg(
            first_types=("etype", ",".join), n_first=("etype", "size")
        )

    out = with_ranked_window(
        rio.materialize_blocks(ev, prep),
        key_col="user_id",
        order_cols=["t", "event_id"],
        value_col="event_id",
        group_final=final,
    ).to_pandas()
    return (
        out.sort_values("user_id")
        .reset_index(drop=True)
        .astype({"n_first": "int64"})
    )


@query(lambda o: o.user_value_dist())
def q_user_value_dist(sf_dir: str) -> pd.DataFrame:
    """The remaining SQL window functions under the value-exact
    oracle — LEAD, FIRST_VALUE, PERCENT_RANK, CUME_DIST (the
    ``extras`` surface of ops/window.with_ranked_window). Per user:
    event count, drops (LEAD strictly below the current value), net
    gain (last value minus FIRST_VALUE, exact cents), and the
    distribution-rank tail counts (CUME_DIST >= 0.9, PERCENT_RANK
    <= 0.25 — each side of the comparison is the identical
    two-integer IEEE division, so the float compare is
    engine-independent). One complete-key bucket shuffle, per-user
    finals in-stage."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        vc = round_half_away(
            b["value"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "t": b["ts"].cast(pa.int64()),
                "event_id": b["event_id"],
                "vc": pa.array(vc),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        vc = g["vc"]
        drop = (g["next_val"] < vc).fillna(False)  # null LEAD = last row
        g = g.assign(
            _drop=drop.astype("int64"),
            _net=(vc - g["first_val"]).astype("int64"),
            _top=(g["cume_dist"] >= 0.9).astype("int64"),
            _low=(g["pct_rank"] <= 0.25).astype("int64"),
        )
        # rows arrive sorted by (user_id, t, event_id), so 'last' is
        # each user's final event and _net there is last-minus-first
        return g.groupby("user_id", as_index=False).agg(
            n_events=("vc", "size"),
            n_drops=("_drop", "sum"),
            net_gain_cents=("_net", "last"),
            n_top_decile=("_top", "sum"),
            n_low_quartile=("_low", "sum"),
        )

    out = with_ranked_window(
        rio.materialize_blocks(ev, prep),
        key_col="user_id",
        order_cols=["t", "event_id"],
        value_col="vc",
        group_final=final,
        extras={"lead", "first", "dist"},
    ).to_pandas()
    return (
        out.sort_values("user_id")
        .reset_index(drop=True)
        .astype(
            {
                "n_events": "int64",
                "n_drops": "int64",
                "net_gain_cents": "int64",
                "n_top_decile": "int64",
                "n_low_quartile": "int64",
            }
        )
    )


OUTER_DAY_STRIDE = 64  # composite (user_id, day) key: uk = user_id*64 + day


@query(lambda o: o.outer_join_user_day(OUTER_DAY_STRIDE, T0, DAY_US))
def q_outer_join_user_day(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER JOIN (partitioned hash join, how='outer'): per-user
    per-day error counts joined with purchase counts; (user, day)
    cells active on only one side survive with the other side's count
    zero-coalesced. Sides are pre-aggregated per batch (partial
    counts) and finalized per key bucket (corpus-cardinality key per
    the CLAUDE.md rule), then joined on the composite int key
    user_id*64 + day — one bucket shuffle, unmatched rows emitted
    in-bucket, never a driver-side merge."""
    def side_counts(etype: str, out_col: str) -> list:
        ds = _events_typed(sf_dir, etype, ["user_id", "ts"])

        def partial(b: pa.Table) -> pa.Table:
            day = (b["t"].to_numpy() - T0) // DAY_US
            uk = b["user_id"].to_numpy() * OUTER_DAY_STRIDE + day
            u, c = np.unique(uk, return_counts=True)
            return pa.table({"uk": pa.array(u), out_col: pa.array(c.astype(np.int64))})

        return combine_by_key(ds, ["uk"], {out_col: "sum"}, stage=partial)

    joined = hash_join(
        side_counts("error", "n_errors"),
        side_counts("purchase", "n_purchases"),
        on="uk",
        how="outer",
    )
    df = rio.blocks_table(joined).to_pandas()
    uk = df["uk"].astype("int64")
    out = pd.DataFrame(
        {
            "user_id": uk // OUTER_DAY_STRIDE,
            "day": uk % OUTER_DAY_STRIDE,
            "n_errors": df["n_errors"].fillna(0).astype("int64"),
            "n_purchases": df["n_purchases"].fillna(0).astype("int64"),
        }
    )
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


@query(lambda o: o.users_click_not_purchase(SETOP_CUTOFF_US))
def q_users_click_not_purchase(sf_dir: str) -> pd.DataFrame:
    """Distributed DISTINCT EXCEPT (set ops the reference never
    exposed, SURVEY.md §2.9): users who clicked in the first two days
    but made no purchase in that window. Per-batch pre-dedup, hash
    buckets, vectorized set difference per bucket."""
    def side(etype: str):
        ds = _events_typed(sf_dir, etype, ["user_id", "ts"])
        return rio.materialize_blocks(
            ds, lambda b: b.filter(pc.less(b["t"], SETOP_CUTOFF_US)).select(["user_id"])
        )

    out = distinct_set_op(side("click"), side("purchase"), on="user_id", mode="except")
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.topk_orders_by_priority(TOPK_PRIORITY_K))
def q_topk_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """TOP-K PER GROUP (the windowed row_number() <= k idiom): the 3
    highest-value orders per order priority, rank 1-based, ties broken
    by orderkey. Per-batch candidate prune (<= k rows per group per
    batch shuffle) + distributed per-group final."""
    orders = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice", "o_orderpriority"]
        ),
        lambda b: cents(b, "o_totalprice", "price_cents").drop_columns(["o_totalprice"]),
    )
    out = topk_per_group(
        orders, "o_orderpriority", "price_cents", TOPK_PRIORITY_K, "o_orderkey"
    ).to_pandas()
    return (
        out[["o_orderpriority", "rank", "o_orderkey", "price_cents"]]
        .sort_values(["o_orderpriority", "rank"])
        .reset_index(drop=True)
    )


ORDER_NTILES = 4  # equal-frequency price quartiles per priority


@query(lambda o: o.order_price_ntiles(ORDER_NTILES))
def q_order_price_ntiles(sf_dir: str) -> pd.DataFrame:
    """SQL NTILE (equal-frequency bucketing — the eval-split /
    quantile-bin idiom): orders per priority split into 4 price
    quartiles (ordered by price_cents, orderkey; the SQL remainder
    rule sizes the tiles), then per-(priority, tile) count and exact
    integer price sum. Same complete-key bucket shuffle as the other
    ranked-window queries; finals in-stage."""
    orders = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice", "o_orderpriority"]
        ),
        lambda b: cents(b, "o_totalprice", "price_cents").drop_columns(["o_totalprice"]),
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["o_orderpriority", "tile"], as_index=False).agg(
            n_orders=("price_cents", "size"),
            sum_price_cents=("price_cents", "sum"),
        )

    out = with_ranked_window(
        orders,
        key_col="o_orderpriority",
        order_cols=["price_cents", "o_orderkey"],
        value_col="price_cents",
        ntile=ORDER_NTILES,
        group_final=final,
    ).to_pandas()
    return (
        out.sort_values(["o_orderpriority", "tile"])
        .reset_index(drop=True)
        .astype({"tile": "int64", "n_orders": "int64", "sum_price_cents": "int64"})
    )


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@query(lambda o: o.rollup_events(T0, DAY_US))
def q_rollup_events(sf_dir: str) -> pd.DataFrame:
    """ONE-PASS ROLLUP (grouping-sets ladder): event counts and exact
    value-cents sums at three granularities — (event_type, day),
    (event_type), grand total — from a single scan: each batch emits
    partials for EVERY level (no per-level re-read, no shuffle; the
    combined result is levels x keys, tiny). Coarser levels use the
    'ALL' marker, mirrored by coalesce() over SQL GROUP BY ROLLUP."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = (t - T0) // DAY_US
        vc = round_half_away(b["value"].to_numpy(zero_copy_only=False) * 100)
        return pa.table(
            {
                "event_type": b["event_type"],
                "day": pa.array(day.astype("U"), type=pa.string()),
                "vc": pa.array(vc.astype(np.int64)),
            }
        )

    out = rollup_sums(
        rio.materialize_blocks(ev, prep),
        keys=["event_type", "day"],
        sums={"vc": "value_cents"},
        count_as="n",
    )
    return out.sort_values(["event_type", "day"]).reset_index(drop=True).astype(
        {"value_cents": "int64", "n": "int64"}
    )


@query(lambda o: o.pivot_events_daily(T0, DAY_US, EVENT_TYPES))
def q_pivot_events_daily(sf_dir: str) -> pd.DataFrame:
    """PIVOT: the (day x event_type) count matrix as wide int64
    columns, zerofilled against the expected type set. Per-batch
    (day, type) partial counts; the reshape runs only on the combined
    small frame."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "day": pa.array((t - T0) // DAY_US),
                "event_type": b["event_type"],
            }
        )

    return pivot_counts(
        rio.materialize_blocks(ev, prep),
        row_key="day",
        col_key="event_type",
        col_values=EVENT_TYPES,
    )


UNPIVOT_MEASURES = ["qty_cents", "price_cents", "disc_cents", "tax_cents"]


@query(lambda o: o.lineitem_measures_unpivot(UNPIVOT_MEASURES))
def q_lineitem_measures_unpivot(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT (wide -> long, the inverse of the PIVOT reshape) over
    corpus-cardinality data: the four lineitem money measures become
    a (measure, value) long stream — ops/relational.unpivot, a pure
    per-batch Arrow kernel, 4x rows out, no shuffle — then per-batch
    partial sums per (returnflag, measure) combine on the driver
    (12-key final, the combine_partials regime). Exact integer cents
    throughout."""
    li = rio.read_resident(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )

    def prep(b: pa.Table) -> pa.Table:
        for src, out in zip(
            ["l_quantity", "l_extendedprice", "l_discount", "l_tax"], UNPIVOT_MEASURES
        ):
            b = cents(b, src, out)
        return b.select(["l_returnflag", *UNPIVOT_MEASURES])

    long = unpivot(
        rio.materialize_blocks(li, prep),
        id_cols=["l_returnflag"],
        value_cols=UNPIVOT_MEASURES,
        var_name="measure",
        value_name="vc",
    )

    stage = KeyedPartials(_as_is, keys=("l_returnflag", "measure"), sums=("vc",))
    out = combine_partials(
        rio.map_blocks(long, stage), ["l_returnflag", "measure"],
        {"vc_part": "sum_cents", "n_part": "n"},
    )
    # the measure names are a dictionary column: sorted as strings
    out = out.astype({"measure": "str"})
    return out.sort_values(["l_returnflag", "measure"]).reset_index(drop=True)


@query(None)  # rows-only: HyperLogLog estimate; accuracy pinned in tests/test_hll.py
def q_hll_uniq_uids_daily(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per day via HyperLogLog partials —
    the sketch path beside the exact contrib_uniq_uids_daily (rows-only
    by design: an estimator cannot be hash-equal to SQL; its accuracy
    contract lives in tests/test_hll.py). At sandbox cardinalities the
    linear-counting regime is engaged; at corpus scale the same
    pipeline moves only |days| x 16 KiB of registers."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"day": pa.array((t - T0) // DAY_US), "user_id": b["user_id"]}
        )

    out = grouped_approx_count_distinct(
        rio.materialize_blocks(ev, prep), key="day", col="user_id"
    )
    return out.sort_values("day").reset_index(drop=True).astype(
        {"day": "int64", "n_uniq_est": "int64"}
    )


BLOOM_NATION = 5


def _priority_cents(orders) -> pd.DataFrame:
    """Order count ``n`` and total price in cents per order priority."""
    stage = KeyedPartials(
        functools.partial(cents, col="o_totalprice", out="price_c"),
        keys=("o_orderpriority",), sums=("price_c",),
    )
    return combine_partials(
        rio.map_blocks(orders, stage), ["o_orderpriority"],
        {"n_part": "n", "price_c_part": "price_cents"},
    )


@query(lambda o: o.bloom_semi_join_orders(BLOOM_NATION))
def q_bloom_semi_join_orders(sf_dir: str) -> pd.DataFrame:
    """Bloom-pruned both-sides-large SEMI-join: orders of customers in
    one nation, aggregated per order priority. A Bloom filter of the
    (filtered) customer keys is built from per-batch bitmap partials,
    broadcast once, and applied in the orders SCAN stage — non-matching
    orders never enter the shuffle (false positives ride to the exact
    in-bucket isin, so results are identical to the unpruned join; the
    equivalence is also pinned by tests/test_bloom.py). Priority sums
    are exact integer cents."""
    cust = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey"],
            filter=(pc.field("c_nationkey") == BLOOM_NATION),
        ),
        lambda b: pa.table({"o_custkey": b["c_custkey"]}),
    )
    n_keys = rio.num_rows(cust)
    bloom = build_bloom(cust, "o_custkey", expected_n=max(n_keys, 1))

    orders = rio.read_resident(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    joined = hash_semi_join(orders, cust, on="o_custkey", bloom=bloom)

    return _priority_cents(joined)


@query(lambda o: o.cube_events(T0, DAY_US))
def q_cube_events(sf_dir: str) -> pd.DataFrame:
    """ONE-PASS CUBE: counts and exact value-cents sums at ALL FOUR
    granularities of (event_type, day-parity) — both keys, each key
    alone, grand total — from a single scan via the grouping-sets
    generalization of rollup_sums (SQL GROUP BY CUBE oracle)."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        t = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        par = ((t - T0) // DAY_US) % 2
        vc = round_half_away(b["value"].to_numpy(zero_copy_only=False) * 100)
        return pa.table(
            {
                "event_type": b["event_type"],
                "day_parity": pa.array(par.astype("U"), type=pa.string()),
                "vc": pa.array(vc.astype(np.int64)),
            }
        )

    keys = ["event_type", "day_parity"]
    out = rollup_sums(
        rio.materialize_blocks(ev, prep),
        keys=keys,
        sums={"vc": "value_cents"},
        count_as="n",
        levels=cube_levels(keys),
    )
    return out.sort_values(keys).reset_index(drop=True).astype(
        {"value_cents": "int64", "n": "int64"}
    )


ANTI_NATION = 7


@query(lambda o: o.anti_join_orders(ANTI_NATION))
def q_anti_join_orders(sf_dir: str) -> pd.DataFrame:
    """Distributed ANTI-join (SQL NOT IN with non-null keys): orders
    whose customer is NOT in one nation, aggregated per priority —
    the complement of bloom_semi_join_orders on the same co-partitioned
    shuffle (Bloom pruning is rejected for this mode: the pre-filter
    would drop exactly the anti rows)."""
    cust = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_nationkey"],
            filter=(pc.field("c_nationkey") == ANTI_NATION),
        ),
        lambda b: pa.table({"o_custkey": b["c_custkey"]}),
    )
    orders = rio.read_resident(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    joined = hash_semi_join(orders, cust, on="o_custkey", anti=True)

    return _priority_cents(joined)


STRAT_EVEN = (1, 2)  # even-numbered sources: keep 1/2
STRAT_ODD = (1, 8)  # odd-numbered sources: keep 1/8


@query(lambda o: o.stratified_sample_docs(STRAT_EVEN, STRAT_ODD))
def q_stratified_sample_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic STRATIFIED sampling: per-source keep rates (1/2
    for even-numbered sources, 1/8 for odd) decided by the md5-prefix
    integer threshold — resume-stable, parallelism-invariant, nested
    per stratum, bit-mirrorable in SQL. The strata dictionary comes
    from a one-column distinct scan (sources are low-cardinality); at
    corpus scale the production twin uses the vectorized fnv path
    (rate contract in tests), exactly like sample_docs."""
    docs = rio.read_resident(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    def distinct(b: pa.Table) -> pa.Table:
        return pa.table({"source": pc.unique(b["source"])})

    # sources are low-cardinality: per-block distincts, unioned on the driver
    sources = set(rio.map_blocks(docs, distinct)["source"].to_pylist())
    rates = {
        s: (STRAT_EVEN if int(s[3:]) % 2 == 0 else STRAT_ODD) for s in sources
    }
    out = stratified_sample(
        docs, rates, key_col="doc_id", stratum_col="source", hash_fn="md5"
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


HH_CAPACITY = 64  # > the 20 distinct sources at every SF -> provably exact
HH_TOP_N = 10


@query(lambda o: o.heavy_hitter_sources(HH_TOP_N))
def q_heavy_hitter_sources(sf_dir: str) -> pd.DataFrame:
    """Top-10 document sources by count via mergeable Misra-Gries
    partials (capacity 64 > the corpus's 20 distinct sources, so the
    summary is provably EXACT — the same exact-operating-point oracle
    pattern as full-probe LSH ANN). The lossy regime's guarantees
    (presence above n/(k+1), bounded count error) are pinned in
    tests/test_heavyhitters.py. At most k rows leave each block."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source"])
    return approx_heavy_hitters(docs, "source", k=HH_CAPACITY, top_n=HH_TOP_N)


@query(lambda o: o.value_quantiles_by_type())
def q_value_quantiles_by_type(sf_dir: str) -> pd.DataFrame:
    """Exact per-group discrete quantiles (p50/p90 of value cents per
    event type): distributed (type, value) histogram + distributed
    per-key cumsum resolve — no global sort, no per-group row sort;
    |types| rows reach the driver."""
    ev = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        lambda b: cents(b, "value", "vc").select(["event_type", "vc"]),
    )
    return grouped_exact_quantiles_int(
        ev, key="event_type", col="vc", fracs=[(1, 2), (9, 10)], names=["p50", "p90"]
    )


BURST_DT_US = 30 * 60 * 1_000_000  # time window: preceding 30 minutes
BURST_K = 1  # "rapid" = at least this many same-user events in the window


@query(lambda o: o.time_window_bursts(BURST_DT_US, BURST_K))
def q_time_window_bursts(sf_dir: str) -> pd.DataFrame:
    """Per-key TIME-BASED sliding window (the RANGE frame,
    complementing the ROWS frame of window_rolling_spikes): an event
    is "rapid" when the same user produced >= 1 event in the strictly
    preceding 30 minutes. One searchsorted pair resolves every row's
    window via the monotone key-ordinal embedding; per-user totals are
    final inside the bucket stage."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "t": b["ts"].cast(pa.int64()),
                "one": pa.array(np.ones(len(b), dtype=np.int64)),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        rapid = (g["win_n"].to_numpy() >= BURST_K).astype(np.int64)
        g = g.assign(_r=rapid)
        return g.groupby("user_id", as_index=False).agg(
            n_events=("t", "size"), n_rapid=("_r", "sum")
        )

    out = with_time_window(
        rio.materialize_blocks(ev, prep),
        key_col="user_id",
        t_col="t",
        value_col="one",
        dt=BURST_DT_US,
        group_final=final,
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"n_events": "int64", "n_rapid": "int64"}
    )


FUNNEL_RATE = (1, 2)  # deterministic user subsample for the funnel


@query(lambda o: o.funnel_attribution_daily(*FUNNEL_RATE, T0, DAY_US))
def q_funnel_attribution_daily(sf_dir: str) -> pd.DataFrame:
    """COMPOSED event-analytics chain (the corpus_curation pattern for
    the ordered/temporal family): deterministic md5 user subsample ->
    keyed as-of attribution (purchase -> latest same-user click) ->
    per-day rollup of attributed counts and exact lag sums, ONE
    streaming pipeline with the day partials final inside the join's
    bucket stage. Locks operator COMPOSITION stage-for-stage against a
    single SQL statement."""
    num, den = FUNNEL_RATE
    purchases = deterministic_sample(
        _events_typed(sf_dir, "purchase", ["user_id", "ts"]),
        num, den, "user_id", hash_fn="md5",
    )
    clicks = deterministic_sample(
        _events_typed(sf_dir, "click", ["user_id", "ts"]),
        num, den, "user_id", hash_fn="md5",
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        day = (g["t"].to_numpy(dtype=np.int64) - T0) // DAY_US
        m = g["t_r"].notna()
        lag = (g["t"] - g["t_r"]).where(m, 0).astype("int64")
        f = pd.DataFrame(
            {"day": day, "one": 1, "att": m.astype(np.int64), "lag": lag}
        )
        out = f.groupby("day", as_index=False).agg(
            p_part=("one", "sum"), a_part=("att", "sum"), l_part=("lag", "sum")
        )
        return out

    partials = asof_join(
        purchases, clicks, on="t", by="user_id", group_final=final
    )
    df = combine_partials(
        rio.blocks_table(partials), ["day"],
        {"p_part": "n_purchases", "a_part": "n_attrib", "l_part": "lag_us_total"},
    )
    return df.sort_values("day").reset_index(drop=True).astype(
        {"n_purchases": "int64", "n_attrib": "int64", "lag_us_total": "int64"}
    )


@query(lambda o: o.interarrival_median())
def q_interarrival_median(sf_dir: str) -> pd.DataFrame:
    """Per-user LAG/inter-arrival analytics: gap count and exact
    discrete median gap ((n-1)//2 rank rule), median final inside the
    bucket stage — only |users| rows leave."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"], "t": b["ts"].cast(pa.int64())})

    out = per_key_interarrival(
        rio.materialize_blocks(ev, prep), key_col="user_id", t_col="t"
    ).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"user_id": "int64", "n_gaps": "int64", "med_gap_us": "int64"}
    )


TOP_WORDS_K = 20
WORD_SPLIT_RE = "[^a-z]+"  # wordcount tokenizer: lowercase alpha runs


@query(lambda o: o.top_words())
def q_top_words(sf_dir: str) -> pd.DataFrame:
    """Distributed wordcount with a global top-k (the canonical
    map-reduce shape): per-batch Arrow explode (utf8_lower ->
    split_pattern_regex -> list_flatten) and in-batch pre-count, a
    VOCABULARY-cardinality ``io.reduce_by_key`` completes each word's count
    (words are corpus-scaled — per the high-card rule they never ride
    combine_partials), then the candidate top-k reduce moves only k
    rows per block. Ties break ascending on the word. Arrow and DuckDB
    both run RE2 over UTF-8, so the token split is engine-identical."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["text"])
    df = topk(_word_counts(ds), key="n_p", k=TOP_WORDS_K, tiebreak="word", descending=True)
    return df.rename(columns={"n_p": "n"})[["word", "n"]].reset_index(drop=True)


def _tokens(b: pa.Table, by: tuple[str, ...] = ()) -> pa.Table:
    """One row per token, Arrow explode (utf8_lower ->
    split_pattern_regex -> list_flatten), empty ones dropped: the
    ``by`` columns of its document, then the ``word``."""
    words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words) if by else None
    t = pa.table({**{c: b[c].take(parent) for c in by}, "word": flat})
    return t.filter(pc.not_equal(flat, ""))


def _word_counts(ds) -> list:
    """The corpus wordcount (word, n_p) as bucket refs: the token
    vocabulary is corpus-scaled, so each word's count completes in its
    ``io.reduce_by_key`` bucket, never in combine_partials."""
    stage = KeyedPartials(_tokens, keys=("word",), count="n_p")
    return combine_by_key(ds, ["word"], {"n_p": "sum"}, stage=stage)


def _repetition_stage(b: pa.Table) -> pa.Table:
    """Per-doc repetition partial: one Arrow split + two np.unique
    passes produce token totals, distincts, the modal token count and
    the modal BIGRAM count for every doc in the batch — no shuffle
    (a doc's tokens never leave its row's batch). Token codes come
    from pandas.factorize (O(n) hashing); (doc, code) and
    (doc, code-pair) occurrences collapse via integer keys so the
    per-doc maxima reduce on small unique arrays, never Python rows."""
    words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    tok = flat.to_numpy(zero_copy_only=False)
    keep = tok != ""
    parent, tok = parent[keep], tok[keep]
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "n_distinct": pa.array([], pa.int64()),
            "top_tok_n": pa.array([], pa.int64()),
            "top_bigram_n": pa.array([], pa.int64()),
        }
    )
    if not len(tok):
        return empty
    codes, uniq = pd.factorize(tok)
    v = np.int64(len(uniq))
    doc_ids = b["doc_id"].to_numpy(zero_copy_only=False)

    n_tokens = np.bincount(parent, minlength=len(b))
    # (doc, token) occurrence counts via one integer-key unique
    pk, pc_ = np.unique(parent.astype(np.int64) * v + codes, return_counts=True)
    pdoc = pk // v
    per = pd.DataFrame({"doc": pdoc, "c": pc_}).groupby("doc")["c"].agg(["size", "max"])

    # consecutive same-doc token pairs -> modal bigram count per doc
    adj = parent[1:] == parent[:-1]
    top_bigram = np.zeros(len(b), dtype=np.int64)
    if adj.any():
        p2 = parent[:-1][adj].astype(np.int64)
        pair = codes[:-1][adj].astype(np.int64) * v + codes[1:][adj]
        # re-factorize the pair ids so the (doc, pair) key never
        # overflows int64 at large vocabularies (pair codes are dense,
        # bounded by the batch's adjacent-pair count)
        pcodes, puniq = pd.factorize(pair)
        w = np.int64(len(puniq))
        bk, bc = np.unique(p2 * w + pcodes, return_counts=True)
        bdoc = bk // w
        bm = pd.DataFrame({"doc": bdoc, "c": bc}).groupby("doc")["c"].max()
        top_bigram[bm.index.to_numpy()] = bm.to_numpy()

    rows = per.index.to_numpy()  # docs with >= 1 token, batch-local idx
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[rows], pa.int64()),
            "n_tokens": pa.array(n_tokens[rows], pa.int64()),
            "n_distinct": pa.array(per["size"].to_numpy(), pa.int64()),
            "top_tok_n": pa.array(per["max"].to_numpy(), pa.int64()),
            "top_bigram_n": pa.array(top_bigram[rows], pa.int64()),
        }
    )


@query(lambda o: o.doc_repetition())
def q_doc_repetition(sf_dir: str) -> pd.DataFrame:
    """Within-document repetition profile — the Gopher-rule family of
    LLM corpus quality signals (Rae et al. 2021 §A1.1: repetitious
    documents are low-quality): per doc, total tokens, distinct
    tokens, the most frequent token's count and the most frequent
    BIGRAM's count. All integer-exact; the duplicate-token and
    top-2-gram FRACTIONS any curation threshold needs are single
    IEEE divisions of these columns downstream. Zero shuffle; output
    is one row per doc (driver collect is the oracle-compare
    convention, production terminates in write_parquet)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df = rio.map_blocks(ds, _repetition_stage).to_pandas()
    df = df.astype(
        {
            "doc_id": "int64",
            "n_tokens": "int64",
            "n_distinct": "int64",
            "top_tok_n": "int64",
            "top_bigram_n": "int64",
        }
    )
    return df.sort_values("doc_id").reset_index(drop=True)


POSTINGS_K = 8  # posting-list prefix length exposed per token


def _compressed_sizes(b: pa.Table) -> pa.Table:
    """Each document's source, UTF-8 size and zlib level-6 size
    (deflate is deterministic for a fixed level and input). The per-doc
    loop calls straight into C per document — the documented
    per-payload boundary, same as the multimodal decode stages."""
    encoded = [t.encode("utf-8") for t in b["text"].to_pylist()]  # encode ONCE per doc
    raw = np.fromiter((len(e) for e in encoded), np.int64, len(encoded))
    comp = np.fromiter((len(zlib.compress(e, 6)) for e in encoded), np.int64, len(encoded))
    return pa.table({"source": b["source"], "raw": raw, "comp": comp})


@query(None)  # rows-only: deflate has no SQL mirror; bytes pinned in tests/test_ops.py
def q_doc_compressibility(sf_dir: str) -> pd.DataFrame:
    """Compression-ratio quality signal per source — the
    CCNet/RedPajama-style curation heuristic (highly compressible
    text is repetitive/boilerplate; barely compressible text is
    noise): per source, doc count, total UTF-8 bytes, total zlib
    level-6 deflate bytes, and the ratio as ONE IEEE division.
    Deflate has no SQL mirror, so this is a rows-only driver check by
    design — byte-exactness is pinned by a direct-zlib pytest
    instead. One fused map_batches + |sources| combine."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    stage = KeyedPartials(_compressed_sizes, keys=("source",), sums=("raw", "comp"))
    df = combine_partials(
        rio.map_blocks(ds, stage),
        ["source"],
        {"n_part": "n_docs", "raw_part": "sum_raw_bytes", "comp_part": "sum_zlib_bytes"},
    )
    df["zlib_ratio"] = df["sum_zlib_bytes"].to_numpy(np.int64).astype(
        np.float64
    ) / df["sum_raw_bytes"].to_numpy(np.int64).astype(np.float64)
    return df.sort_values("source").reset_index(drop=True)


def _doc_bigrams(b: pa.Table) -> pa.Table:
    """One row per bigram (consecutive tokens within one doc, over the
    standard token split): (doc_id, w1, w2)."""
    words = _tokens(b, ("doc_id",))
    adj = pc.equal(words["doc_id"][1:], words["doc_id"][:-1])
    return pa.table({
        "doc_id": words["doc_id"][:-1], "w1": words["word"][:-1], "w2": words["word"][1:],
    }).filter(adj)


# the (doc_id, w1, w2, n) bigram counts per batch
_BIGRAM_COUNTS = KeyedPartials(_doc_bigrams, keys=("doc_id", "w1", "w2"), count="n")


EMB_QUANT = 1000  # embedding quantization scale (milli-units)


def _label_dims(b: pa.Table) -> pa.Table:
    """One row per (embedding, dimension): its label, the dimension and
    the quantized component ``s``; ragged dimensions raise."""
    lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(b["embedding"]).to_numpy(zero_copy_only=False)
    dims = pc.list_value_length(b["embedding"]).to_numpy(zero_copy_only=False)
    if len(np.unique(dims)) > 1:
        raise ValueError("label_centroid_cosine: ragged embedding dims")
    d = int(dims[0]) if len(dims) else 0
    return pa.table({
        "label": np.repeat(lab, d),
        "dim": np.tile(np.arange(d, dtype=np.int64), len(lab)),
        "s": round_half_away(flat.astype(np.float64) * float(EMB_QUANT)).astype(np.int64),
    })


@query(lambda o: o.label_centroid_cosine(EMB_QUANT))
def q_label_centroid_cosine(sf_dir: str) -> pd.DataFrame:
    """Class-separation diagnostic over the embedding table: the
    cosine similarity between every pair of LABEL CENTROIDS. Exact by
    quantization: each float32 component rounds (half-away) to
    integer milli-units FIRST, so the per-(label, dim) sums are
    order-free integer partials and the cosine — scale-invariant, so
    the sums stand in for the centroids directly — is three float
    conversions + sqrt + one division on exact ints, mirrored op for
    op in SQL. One fused pass; |labels| x 64 partial rows combine."""
    ds = rio.read_resident(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    stage = KeyedPartials(_label_dims, keys=("label", "dim"), sums=("s",))
    sums = combine_partials(rio.map_blocks(ds, stage), ["label", "dim"], {"s_part": "s"})
    piv = sums.pivot_table(index="label", columns="dim", values="s", fill_value=0)
    labels = sorted(int(x) for x in piv.index)
    vecs = {l: [int(x) for x in piv.loc[l]] for l in labels}
    rows = []
    for i, a in enumerate(labels):
        va = vecs[a]
        na2 = sum(x * x for x in va)
        for b_ in labels[i + 1 :]:
            vb = vecs[b_]
            nb2 = sum(x * x for x in vb)
            dot = sum(x * y for x, y in zip(va, vb))
            if not (-(2**63) < dot < 2**63):
                raise OverflowError("centroid dot exceeds int64; lower EMB_QUANT")
            rows.append(
                {
                    "label_lo": a,
                    "label_hi": b_,
                    "dot": dot,
                    "cosine": np.float64(dot)
                    / (np.sqrt(np.float64(na2)) * np.sqrt(np.float64(nb2))),
                }
            )
    out = pd.DataFrame(rows).astype(
        {"label_lo": "int64", "label_hi": "int64", "dot": "int64"}
    )
    return out.sort_values(["label_lo", "label_hi"]).reset_index(drop=True)


@query(lambda o: o.doc_lm_surprisal())
def q_doc_lm_surprisal(sf_dir: str) -> pd.DataFrame:
    """Language-model quality scoring — the CCNet-style curation
    signal: each document's total and mean SURPRISAL under an
    add-one-smoothed bigram model trained on the corpus itself
    (P(w2|w1) = (c2+1)/(c1+V)). Floats obey the money rule by
    QUANTIZING per-bigram surprisal to integer milli-nats FIRST —
    round(1000*(ln(c1+V) - ln(c2+1))), ln via math.log (glibc libm,
    bit-identical to DuckDB's ln; numpy's vectorized log is NOT) over
    LUTs of the distinct integer inputs, half-away rounding — so the
    per-doc totals are exact INT sums in any order. Shape: per-batch
    bigram pre-counts; model = two vocabulary-cardinality
    ``io.reduce_by_key`` combines; scoring = two partitioned hash joins
    (composite (w1, w2) key, then w1); per-doc totals per doc_id
    bucket (high-card rule)."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bg = rio.materialize_blocks(docs, _BIGRAM_COUNTS)

    def as_c2(t: pa.Table) -> pa.Table:
        return t.select(["w1", "w2", "n"]).rename_columns(["w1", "w2", "c2"])

    c2 = combine_by_key(bg, ["w1", "w2"], {"c2": "sum"}, stage=as_c2)
    def as_c1(t: pa.Table) -> pa.Table:
        return t.select(["w1", "c2"]).rename_columns(["w1", "c1"])

    c1 = combine_by_key(c2, ["w1"], {"c1": "sum"}, stage=as_c1)

    # vocabulary size: distinct tokens over the WHOLE token stream
    def tok_stage(b: pa.Table) -> pa.Table:
        words = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        )
        words = words.filter(pc.not_equal(words, ""))
        return pa.table({"word": pa.array(pd.unique(words.to_numpy(zero_copy_only=False)))})

    def n_distinct(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([pc.count_distinct(t["word"]).as_py()], pa.int64())})

    vocab = rio.reduce_by_key(docs, ["word"], n_distinct, stage=tok_stage)
    v = pc.sum(rio.blocks_table(vocab)["n"]).as_py()

    scored = hash_join(hash_join(bg, c2, on=["w1", "w2"]), c1, on="w1")

    def score_stage(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "nb_p": pa.array([], pa.int64()),
                    "sm_p": pa.array([], pa.int64()),
                }
            )

        den = b["c1"].to_numpy(zero_copy_only=False).astype(np.int64) + np.int64(v)
        num = b["c2"].to_numpy(zero_copy_only=False).astype(np.int64) + 1
        lut_d = {x: math.log(x) for x in np.unique(den).tolist()}
        lut_n = {x: math.log(x) for x in np.unique(num).tolist()}
        ln_d = np.array([lut_d[x] for x in den.tolist()])
        ln_n = np.array([lut_n[x] for x in num.tolist()])
        sm = round_half_away(1000.0 * (ln_d - ln_n)).astype(np.int64)
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "nb_p": pa.array(n),
                "sm_p": pa.array(n * sm),
            }
        )

    refs = combine_by_key(scored, ["doc_id"], {"nb_p": "sum", "sm_p": "sum"}, stage=score_stage)
    per_doc = rio.blocks_table(refs).to_pandas().rename(
        columns={"nb_p": "n_bigrams", "sm_p": "surprisal_milli"}
    )
    per_doc["avg_surprisal_milli"] = per_doc["surprisal_milli"].to_numpy(
        np.int64
    ).astype(np.float64) / per_doc["n_bigrams"].to_numpy(np.int64).astype(np.float64)
    return per_doc.sort_values("doc_id").reset_index(drop=True)


@query(lambda o: o.inverted_index(POSTINGS_K))
def q_inverted_index(sf_dir: str) -> pd.DataFrame:
    """Inverted-index build — the search/retrieval primitive over a
    text corpus: per token, document frequency, total term frequency,
    and the ORDERED posting-list prefix (first POSTINGS_K doc ids,
    comma-joined). Per-batch explode + (word, doc) pre-count bounds
    the shuffle at distinct pairs per block ((word, doc) pairs are
    globally unique because a doc lives in one batch); one
    complete-word hash-bucket shuffle (token vocabulary is
    corpus-scaled — the high-card rule, never combine_partials);
    df/tf/prefix all resolve in-stage so only |vocab| rows reach the
    driver. Production terminates in write_parquet partitioned by
    word-hash — this collect is the oracle-compare convention."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        tok = flat.to_numpy(zero_copy_only=False)
        keep = tok != ""
        tok, parent = tok[keep], parent[keep]
        doc = b["doc_id"].to_numpy(zero_copy_only=False)[parent]
        t = pa.table({"word": pa.array(tok, pa.string()), "doc_id": pa.array(doc, pa.int64())})
        g = pa.TableGroupBy(t, ["word", "doc_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["word", "doc_id", "c"])

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["word", "doc_id"], kind="mergesort")
        gb = g.groupby("word", sort=False)
        head = g[gb.cumcount() < POSTINGS_K]
        postings = head.groupby("word", sort=False)["doc_id"].agg(
            lambda s: ",".join(map(str, s))
        )
        out = pd.DataFrame(
            {
                "word": postings.index,
                "df": gb.size().to_numpy(dtype=np.int64),
                "tf": gb["c"].sum().to_numpy(dtype=np.int64),
                "postings": postings.to_numpy(),
            }
        )
        return out

    out = rio.reduce_by_key(ds, ["word"], rio.on_pandas(resolve), stage=explode)
    df = rio.blocks_table(out).to_pandas()
    df = df.astype({"df": "int64", "tf": "int64"})
    return df.sort_values("word").reset_index(drop=True)


@query(lambda o: o.revenue_by_nation_month())
def q_revenue_by_nation_month(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3/Q10-shaped STAR JOIN CHAIN on two different keys:
    lineitem |x| orders (orderkey) |x| customer (custkey) |x| nation
    (25 rows, broadcast pre-merge), revenue grouped by (nation, year,
    month). The two corpus-scaled joins are chained partitioned hash
    joins — each re-shuffles on ITS key; the dimension legs stay
    narrow (nation name replaces the key before the wide shuffle).
    Revenue is exact integer cent-basis-points:
    round(price*100) * (100 - round(discount*100)) — no float sums.
    Group final is |nations x months| keys -> combine_partials.
    Arrow's year/month kernels and DuckDB's year()/month() are both
    proleptic-Gregorian on microsecond timestamps."""
    nat = rio.read_resident(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nat = rio.blocks_table(nat).to_pandas().rename(columns={"n_nationkey": "c_nationkey"})
    cust = rio.read_resident(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )

    def slim_cust(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "o_custkey": pa.array(b["c_custkey"].to_numpy(), type=pa.int64()),
                "n_name": pa.array(b["n_name"].astype(str), type=pa.string()),
            }
        )

    cust = rio.materialize_blocks(
        broadcast_join(cust, nat, on="c_nationkey"), lambda t: slim_cust(t.to_pandas())
    )

    def slim_orders(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"].cast(pa.int64()),
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "o_year": pc.year(b["o_orderdate"]).cast(pa.int64()),
                "o_month": pc.month(b["o_orderdate"]).cast(pa.int64()),
            }
        )

    orders = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
        ),
        slim_orders,
    )
    ordn = rio.materialize_blocks(
        hash_join(orders, cust, on="o_custkey"),
        lambda b: b.select(["o_orderkey", "o_year", "o_month", "n_name"]),
    )

    def slim_line(b: pa.Table) -> pa.Table:
        b = cents(b, "l_extendedprice", "price_c")
        b = cents(b, "l_discount", "disc_c")
        price = b["price_c"].to_numpy(zero_copy_only=False)
        disc = b["disc_c"].to_numpy(zero_copy_only=False)
        # numpy int64 multiply wraps silently — assert the headroom
        # (price_c x 100 must stay far below 2^63)
        if len(price) and int(np.abs(price).max()) > (1 << 55):
            raise OverflowError("revenue_by_nation_month: price_c exceeds guard")
        return pa.table(
            {
                "o_orderkey": b["l_orderkey"].cast(pa.int64()),
                "rev_cbp": pa.array(price * (100 - disc), type=pa.int64()),
            }
        )

    line = rio.materialize_blocks(
        rio.read_resident(
            f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice", "l_discount"]
        ),
        slim_line,
    )
    joined = hash_join(line, ordn, on="o_orderkey")

    keys = ("n_name", "o_year", "o_month")
    stage = KeyedPartials(_as_is, keys=keys, sums=("rev_cbp",))
    return combine_partials(
        rio.map_blocks(joined, stage), list(keys),
        {"n_part": "n_items", "rev_cbp_part": "revenue_cbp"},
    )


@query(lambda o: o.mad_value_by_type())
def q_mad_value_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped MEDIAN ABSOLUTE DEVIATION — robust-statistics
    selection, exact and integer throughout. ONE distributed
    (type, value-cents) histogram shuffle; each type's complete
    histogram resolves the median AND the deviation median |v - med|
    in the same reduce bucket (the deviation histogram is a
    re-binning of the value histogram, so no second corpus scan and
    no broadcast round-trip). The (n-1)//2 discrete rank rule matches
    the SQL mirror exactly."""
    ev = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        lambda b: cents(b, "value", "vc").select(["event_type", "vc"]),
    )
    out = grouped_median_mad_int(ev, key="event_type", col="vc").rename(
        columns={"med": "med_vc", "mad": "mad_vc"}
    )
    return out.sort_values("event_type").reset_index(drop=True).astype(
        {"med_vc": "int64", "mad_vc": "int64"}
    )


SESSION_GAP_US = 30 * 60 * 1_000_000


def _session_bounds(b: pa.Table) -> pa.Table:
    """Each session's start (``d`` = +1, ``is_start``) and end (``d`` =
    -1) as boundary rows at time ``t``."""
    lo = b["start_us"].to_numpy(zero_copy_only=False).astype(np.int64)
    hi = b["end_us"].to_numpy(zero_copy_only=False).astype(np.int64)
    start = np.r_[np.ones(len(lo), dtype=bool), np.zeros(len(hi), dtype=bool)]
    return pa.table({"t": np.r_[lo, hi], "d": np.where(start, 1, -1), "is_start": start})


@query(lambda o: o.peak_concurrency(SESSION_GAP_US, T0, DAY_US))
def q_peak_concurrency(sf_dir: str) -> pd.DataFrame:
    """Peak CONCURRENT sessions per day — the sweep-line counter over
    the sessionized log, composed from the engine's own primitives:
    sessionize (complete-user bucket shuffle) -> boundary fan-out
    (+1 at start, -1 at end) -> a DISTINCT-timestamp combine collapses
    ties so the timeline is a total order -> the signed global
    ordered_prefix_sum (the two-phase scan; O(#bins) driver scalars)
    gives the concurrency entering each instant -> per-day max, with
    starts applied before ends at equal t (a session pair that abuts
    at the same microsecond overlaps there). The peak inside a tie
    group is prefix + n_starts regardless of intra-tie order, so the
    day-max is deterministic even though tied rows are interchangeable."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    sess = sessionize(ev, gap_us=SESSION_GAP_US)

    stage = KeyedPartials(_session_bounds, keys=("t",), sums=("d", "is_start"))
    per_t = combine_by_key(sess, ["t"], {"d_part": "sum", "is_start_part": "sum"}, stage=stage)
    scanned = ordered_prefix_sum(
        per_t, order_cols=["t"], value_col="d_part", out_col="before", signed=True
    )

    def day_max(b: pa.Table) -> pa.Table:
        t = b["t"].to_numpy(zero_copy_only=False)
        peak = b["before"].to_numpy(zero_copy_only=False) + b["is_start_part"].to_numpy(
            zero_copy_only=False
        )
        df = pd.DataFrame({"day": (t - T0) // DAY_US, "peak": peak})
        g = df.groupby("day", as_index=False)["peak"].max()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = rio.map_blocks(scanned, day_max).to_pandas()
    out = parts.groupby("day", as_index=False)["peak"].max()
    out = out.rename(columns={"peak": "peak_concurrency"}).astype(
        {"day": "int64", "peak_concurrency": "int64"}
    )
    return out.sort_values("day").reset_index(drop=True)


TFIDF_K = 3


@query(lambda o: o.tfidf_top_terms())
def q_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Per-document top-k terms by tf-idf — the canonical corpus
    statistic behind retrieval/quality scoring. tf is final IN-BATCH
    (one row = one whole document, so the (doc, word) count never
    shuffles raw tokens); document frequency is a VOCABULARY-cardinality
    ``io.reduce_by_key`` (high-card rule); tf |x| df is the partitioned hash
    join on the word; the per-doc top-k resolves via the distributed
    candidate-prune topk_per_group. The score tf * ln(N/df) is
    engine-independent float: ln over a LUT of DISTINCT df values via
    math.log (glibc libm — bit-identical to DuckDB's ln, unlike
    numpy's vectorized log), multiplied once per row (single IEEE ops
    on exact ints per the money/float rule). Ties break ascending on
    the word."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = rio.num_rows(docs)

    tf_stage = KeyedPartials(
        functools.partial(_tokens, by=("doc_id",)), keys=("doc_id", "word"), count="tf"
    )
    tf = rio.materialize_blocks(docs, tf_stage)
    # tf rows are distinct (doc, word) pairs: a word's row count is its df
    dfreq = combine_by_key(
        tf, ["word"], {"df": "sum"}, stage=KeyedPartials(_as_is, keys=("word",), count="df")
    )
    joined = hash_join(tf, dfreq, on="word")

    def score_stage(b: pa.Table) -> pa.Table:
        tfv = b["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dfv = b["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(dfv, return_inverse=True)
        lut = np.array([math.log(n_docs / int(d)) for d in uniq], dtype=np.float64)
        return b.append_column("score", pa.array(tfv.astype(np.float64) * lut[inv]))

    scored = rio.materialize_blocks(joined, score_stage)
    out = topk_per_group(
        scored, group_col="doc_id", key="score", k=TFIDF_K, tiebreak="word"
    ).to_pandas()
    out = out[["doc_id", "rank", "word", "score"]].astype(
        {"doc_id": "int64", "rank": "int64"}
    )
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


@query(lambda o: o.pareto_orders())
def q_pareto_orders(sf_dir: str) -> pd.DataFrame:
    """Per-priority 2D Pareto frontier (skyline) of orders: maximize
    price (exact cents), minimize order date — the orders no other
    same-priority order strictly dominates. Block-local frontier
    prefilter (a sound combiner) means only block-frontier rows ever
    shuffle; the per-priority final resolves in one reduce bucket. The
    oracle is the NOT EXISTS anti-self-join."""
    ods = rio.read_resident(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate", "o_orderpriority"],
    )

    def prep(b: pa.Table) -> pa.Table:
        b = cents(b, "o_totalprice", "price_c")
        odate = b["o_orderdate"].cast(pa.int64())
        return pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "o_orderkey": b["o_orderkey"],
                "price_c": b["price_c"],
                "odate_us": odate,
            }
        )

    front = pareto_front_2d(
        rio.materialize_blocks(ods, prep),
        group_col="o_orderpriority",
        max_col="price_c",
        min_col="odate_us",
    ).to_pandas()
    front = front.astype({"o_orderkey": "int64", "price_c": "int64", "odate_us": "int64"})
    return front.sort_values(["o_orderpriority", "o_orderkey"]).reset_index(drop=True)


@query(lambda o: o.above_user_mean())
def q_above_user_mean(sf_dir: str) -> pd.DataFrame:
    """Events strictly above their user's mean value, counted per
    event type — the decorrelated scalar-subquery shape. The mean
    compare is EXACT integers (value_c * n_user > sum_user: both sides
    int64, no float mean); one complete-user bucket shuffle computes
    the per-user stats and the per-etype partials IN-STAGE, so only
    |buckets x etypes| partial rows reach the small final combine."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby("user_id")["value_c"]
        n = grp.transform("size").to_numpy(dtype=np.int64)
        s = grp.transform("sum").to_numpy(dtype=np.int64)
        above = g["value_c"].to_numpy(dtype=np.int64) * n > s
        part = pd.DataFrame({"event_type": g["event_type"], "above": above})
        out = part.groupby("event_type", as_index=False).agg(
            n_above_p=("above", "sum"), n_p=("above", "size")
        )
        return out

    parts = rio.reduce_by_key(
        ev, ["user_id"], rio.on_pandas(per_bucket), stage=lambda b: cents(b, "value", "value_c")
    )
    df = combine_partials(
        rio.blocks_table(parts), ["event_type"], {"n_above_p": "n_above", "n_p": "n_events"}
    )
    return df.sort_values("event_type").reset_index(drop=True)


@query(lambda o: o.weighted_median_price())
def q_weighted_median_price(sf_dir: str) -> pd.DataFrame:
    """Exact weighted median of extendedprice cents per (returnflag,
    linestatus), weighted by integral quantity — the lower weighted
    median (smallest price whose cumulative weight reaches half the
    total; SQL's 2*cw >= tw cumulative-weight window idiom). Per-batch
    (group, price) weight pre-aggregation bounds the shuffle at
    distinct prices per block; the group count is 6, but each group's
    payload is |distinct prices|, not rows."""
    li = rio.read_resident(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_extendedprice", "l_quantity"],
    )

    def prep(b: pa.Table) -> pa.Table:
        b = cents(b, "l_extendedprice", "price_c")
        qty = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "price_c": b["price_c"],
                "qty": qty,
            }
        )

    out = grouped_weighted_median_int(
        rio.materialize_blocks(li, prep),
        keys=["l_returnflag", "l_linestatus"],
        col="price_c",
        weight="qty",
    )
    out = out.rename(columns={"wmedian": "wmedian_price_c"})
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def _prop_keys(b: pa.Table) -> pa.Table:
    """Each event's type and the integer ``"k"`` of its props, for the
    events whose props carry one."""
    m = pc.extract_regex(b["props"], '"k": (?P<k>\\d+)')
    kk = pc.cast(pc.struct_field(m, "k"), pa.int64())
    return pa.table({"event_type": b["event_type"], "kk": kk}).filter(pc.is_valid(kk))


@query(lambda o: o.props_key_dist())
def q_props_key_dist(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: pull the integer ``k`` out of the
    JSON ``props`` string with an RE2 capture group (Arrow
    extract_regex and DuckDB regexp_extract run the same RE2 over
    UTF-8), then count per (event_type, k). Non-matching rows are
    dropped explicitly on BOTH sides. Per-batch pre-count + small
    combine (|etypes x k-values| keys)."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    stage = KeyedPartials(_prop_keys, keys=("event_type", "kk"))
    return combine_partials(rio.map_blocks(ev, stage), ["event_type", "kk"], {"n_part": "n"})


HIST_BIN_W_C = 5_000  # $50-wide value bins
HIST_NBINS = 10  # covers the corpus value domain [0, $500); top bin clamps


def _value_bins(b: pa.Table) -> pa.Table:
    """Each event's type and value bin (cents // HIST_BIN_W_C, the top
    bin clamped)."""
    bins = np.minimum(_value_cents(b).to_numpy() // HIST_BIN_W_C, HIST_NBINS - 1)
    return pa.table({"event_type": b["event_type"], "bin": bins})


@query(lambda o: o.value_histogram(HIST_BIN_W_C, HIST_NBINS))
def q_value_histogram(sf_dir: str) -> pd.DataFrame:
    """Equi-width histogram of event value (exact cents) per event
    type, ZEROFILLED over the full etype x bin grid (absent cells are
    0, the aggregateBy-zerofill contract). Per-batch bincount partials
    (|etypes x bins| rows per block) -> small combine; the bin rule
    LEAST(value_c // W, nbins-1) clamps the top bin identically in
    both engines."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    stage = KeyedPartials(_value_bins, keys=("event_type", "bin"))
    df = combine_partials(rio.map_blocks(ev, stage), ["event_type", "bin"], {"n_part": "n"})

    df = zerofill(
        df,
        expected={
            "event_type": sorted(df["event_type"].unique()),
            "bin": range(HIST_NBINS),
        },
        fill={"n": 0},
    )
    return df.astype({"bin": "int64", "n": "int64"}).reset_index(drop=True)


@query(lambda o: o.etype_audience_overlap())
def q_etype_audience_overlap(sf_dir: str) -> pd.DataFrame:
    """Pairwise audience overlap: for every unordered event-type pair,
    the number of users active in BOTH — the co-occurrence join. One
    complete-user bucket shuffle; each user's distinct-etype set (<=
    |etypes|) expands to its C(m,2) ordered pairs IN-STAGE, and the
    per-bucket pair counts are the partials — the corpus never joins
    itself. Mirror is the distinct self-join with etype_a < etype_b."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "event_type"])
        # vectorized within-user pair expansion: self-merge on the user
        # (bounded at |etypes|^2 intermediate rows per user), keep the
        # ordered half. No per-user Python loop.
        m = d.merge(d, on="user_id", suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        if m.empty:
            return pd.DataFrame(
                {"etype_a": pd.Series([], dtype=object),
                 "etype_b": pd.Series([], dtype=object),
                 "n_p": pd.Series([], dtype="int64")}
            )
        part = m.rename(
            columns={"event_type_a": "etype_a", "event_type_b": "etype_b"}
        )
        return part.groupby(["etype_a", "etype_b"], as_index=False).agg(
            n_p=("etype_a", "size")
        )

    parts = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(per_bucket))
    df = combine_partials(
        rio.blocks_table(parts), keys=["etype_a", "etype_b"], sums={"n_p": "n_shared_users"}
    )
    return df.sort_values(["etype_a", "etype_b"]).reset_index(drop=True)


def _trend_terms(b: pa.Table) -> pa.Table:
    """Each event's type, day x, value y in cents, x*y and x^2."""
    x, y = _event_day(b), _value_cents(b).to_numpy()
    return pa.table({"event_type": b["event_type"], "x": x, "y": y, "xy": x * y, "xx": x * x})


@query(lambda o: o.value_trend_by_type(T0, DAY_US))
def q_value_trend_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped least-squares slope of event value (cents) over the day
    offset — trend detection per event type. The sufficient statistics
    (n, sum x, sum y, sum xy, sum x^2) are EXACT integer per-batch
    partials; the driver combines them in Python ints (no silent
    wrap), guards the closed-form products against int64 overflow
    loudly, and the published slope is ONE float division of the two
    exact integer terms — DuckDB mirrors with HUGEINT sums and the
    identical cast/divide."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    stage = KeyedPartials(_trend_terms, keys=("event_type",), sums=("x", "y", "xy", "xx"))
    s = combine_partials(
        rio.map_blocks(ev, stage),
        ["event_type"],
        {"n_part": "n", "x_part": "sx", "y_part": "sy", "xy_part": "sxy", "xx_part": "sxx"},
    )
    i64 = (1 << 63) - 1
    num, den, slope = [], [], []
    for _, r in s.iterrows():
        nv, sx, sy, sxy, sxx = (int(r[c]) for c in ("n", "sx", "sy", "sxy", "sxx"))
        nu, de = nv * sxy - sx * sy, nv * sxx - sx * sx
        if abs(nu) > i64 or abs(de) > i64:
            raise OverflowError("value_trend_by_type: slope terms exceed int64")
        if de == 0:
            raise ValueError("value_trend_by_type: degenerate x variance")
        num.append(nu)
        den.append(de)
        slope.append(float(nu) / float(de))
    out = pd.DataFrame(
        {
            "event_type": s["event_type"],
            "n": s["n"].astype("int64"),
            "slope_num": pd.Series(num, dtype="int64"),
            "slope_den": pd.Series(den, dtype="int64"),
            "slope": pd.Series(slope, dtype="float64"),
        }
    )
    return out.sort_values("event_type").reset_index(drop=True)


HOTSPOT_MINPTS = 2  # grid-density threshold (cells with >= 2 snapshots)
# size gate for the driver-side cluster resolve: below this many dense
# cells the adjacency+union-find runs on the driver (bounded ~16 B/row
# -> a few MB); above it the distributed fan-out + cc path runs. The
# knn_queries adaptive-operating-point precedent (BASELINE.md).
HOTSPOT_DRIVER_MAX = 200_000


@query(lambda o: o.snapshot_hotspot_clusters(HOTSPOT_MINPTS))
def q_snapshot_hotspot_clusters(sf_dir: str) -> pd.DataFrame:
    """Grid-density hotspot clustering at the mid snapshot — the
    DBSCAN-on-cells shape: fused snapshot counts per zoom-4 cell,
    density filter (n >= MINPTS), 8-adjacency, connected components;
    cluster id is the component's minimum cell id, so output is
    deterministic. SIZE-GATED like knn_queries: when the dense set is
    provably small (<= HOTSPOT_DRIVER_MAX rows of (cell, n)), the
    adjacency + union-find resolve on the driver — a dozen shuffle
    rounds for 30 cells is pure scheduling overhead; past the gate the
    distributed path runs: bounded 8-key neighbor fan-out semi-joined
    against the dense set (the corpus never self-joins) + min-label
    cc + left-join singleton recovery (pinned equal to the driver path
    in tests/test_spatial.py). The oracle replays adjacency as a
    non-equi self-join and the components as the recursive-CTE
    reachable-min. Non-wrapping adjacency by design: antimeridian
    neighbors are NOT adjacent (documented engine+oracle contract)."""
    nx, ny = 1 << CELL_ZOOM, 1 << (CELL_ZOOM - 1)
    stage, keys = snapshot_counts_stage(
        [T_MID], cell=functools.partial(cell_id, zoom=CELL_ZOOM)
    )

    def dense_only(t: pa.Table) -> pa.Table:  # a bucket's complete cells
        g = pa.TableGroupBy(t, keys).aggregate([("n_part", "sum")]).rename_columns([*keys, "n"])
        return g.filter(pc.greater_equal(g["n"], HOTSPOT_MINPTS)).select(["cell", "n"])

    dense = rio.reduce_by_key(_docs(sf_dir), keys, dense_only, stage=stage)
    n_dense = rio.num_rows(dense)

    if n_dense <= HOTSPOT_DRIVER_MAX:
        df = rio.blocks_table(dense).to_pandas()
        c = np.sort(df["cell"].to_numpy())
        x, y = c % nx, c // nx
        parent = np.arange(len(c), dtype=np.int64)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):  # half-plane offsets
            xx, yy = x + dx, y + dy
            ok = (xx >= 0) & (xx < nx) & (yy >= 0) & (yy < ny)
            nbr = yy[ok] * nx + xx[ok]
            pos = np.searchsorted(c, nbr)
            hit = (pos < len(c)) & (c[np.minimum(pos, len(c) - 1)] == nbr)
            for i, j in zip(np.flatnonzero(ok)[hit], pos[hit]):
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
        root = np.array([find(int(i)) for i in range(len(c))], dtype=np.int64)
        lab = pd.DataFrame(
            {"component": c[root], "cell": c, "n": df.set_index("cell").loc[c, "n"].to_numpy()}
        )
        out = lab.groupby("component", as_index=False).agg(
            n_cells=("cell", "size"), n_points=("n", "sum")
        )
        out = out.astype({"component": "int64", "n_cells": "int64", "n_points": "int64"})
        return out.sort_values("component").reset_index(drop=True)

    def fan_out(b: pa.Table) -> pa.Table:
        c = b["cell"].to_numpy(zero_copy_only=False)
        x, y = c % nx, c // nx
        offs = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]
        srcs, nbrs = [], []
        for dx, dy in offs:  # 8 fixed offsets, each step fully vectorized
            xx, yy = x + dx, y + dy
            ok = (xx >= 0) & (xx < nx) & (yy >= 0) & (yy < ny)
            srcs.append(c[ok])
            nbrs.append(yy[ok] * nx + xx[ok])
        return pa.table(
            {"cell": np.concatenate(srcs), "nbr": np.concatenate(nbrs)}
        )

    neighbors = rio.materialize_blocks(dense, fan_out)
    dense_keys = rio.materialize_blocks(dense, lambda b: pa.table({"nbr": b["cell"]}))
    edges = rio.materialize_blocks(
        hash_join(neighbors, dense_keys, on="nbr"), lambda b: b.filter(pc.less(b["cell"], b["nbr"]))
    )

    if rio.num_rows(edges) == 0:  # every dense cell isolated: all singletons
        labeled = rio.materialize_blocks(dense, lambda b: b.append_column("component", b["cell"]))
    else:
        comp = rio.materialize_blocks(
            connected_components(edges, src="cell", dst="nbr"),
            lambda b: b.rename_columns(["cell", "component"]),
        )
        joined = hash_join(dense, comp, on="cell", how="left")

        def fill_isolated(b: pa.Table) -> pa.Table:
            filled = pc.coalesce(
                b["component"].combine_chunks().cast(pa.int64()), b["cell"]
            )
            return b.set_column(
                b.schema.get_field_index("component"), "component", filled
            )

        labeled = rio.materialize_blocks(joined, fill_isolated)

    stage = KeyedPartials(_as_is, keys=("component",), sums=("n",), count="n_cells")
    out = combine_by_key(labeled, ["component"], {"n_cells": "sum", "n_part": "sum"}, stage=stage)
    out = rio.blocks_table(out).to_pandas().rename(columns={"n_part": "n_points"})
    return out.sort_values("component").reset_index(drop=True)


VOCAB_K = 100  # global vocabulary size for the OOV-rate query


def _oov_tokens(b: pa.Table, vocab_ref) -> pa.Table:
    """One row per token: its document's source and whether the
    vocabulary misses it."""
    t = _tokens(b, ("source",))
    oov = pc.invert(pc.is_in(t["word"], value_set=ray.get(vocab_ref)))
    return t.select(["source"]).append_column("oov", oov)


@query(lambda o: o.oov_rate_by_source())
def q_oov_rate_by_source(sf_dir: str) -> pd.DataFrame:
    """Out-of-vocabulary token rate per document source — the
    tokenizer-coverage check a training pipeline runs before BPE
    fitting. Two chained stages sharing one tokenizer: (1) the
    distributed wordcount top-K (candidate-prune topk, K rows to the
    driver) defines the global vocabulary; (2) the vocabulary is
    BROADCAST ONCE via ray.put and every per-batch stage reads the
    shared object-store copy (never re-shipped per batch) to count
    member/non-member tokens per source as partials -> |sources| final
    rows. The vocab boundary is deterministic (count desc, word asc),
    so both engines cut the same K words."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    vocab = topk(_word_counts(ds), key="n_p", k=VOCAB_K, tiebreak="word", descending=True)
    vocab_ref = ray.put(pa.array(vocab["word"], pa.string()))

    stage = KeyedPartials(
        functools.partial(_oov_tokens, vocab_ref=vocab_ref), keys=("source",), sums=("oov",)
    )
    return combine_partials(
        rio.map_blocks(ds, stage), ["source"], {"oov_part": "n_oov", "n_part": "n_tokens"}
    )


@query(lambda o: o.supplier_fuzzy_pairs())
def q_supplier_fuzzy_pairs(sf_dir: str) -> pd.DataFrame:
    """String similarity join: all supplier pairs whose names are
    within ONE edit (PassJoin d=1 partition scheme — see
    rayhist/ops/fuzzy.py). Candidates come from the segment equi-join,
    never an all-pairs product; the exact vectorized verify and the
    global pair dedupe are both distributed. The oracle is the naive
    levenshtein self-join DuckDB can afford at oracle scale."""
    sup = rio.read_resident(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    pairs = edit1_pairs(sup, id_col="s_suppkey", s_col="s_name").to_pandas()
    pairs = pairs.astype({"id_a": "int64", "id_b": "int64"})
    return pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True)


@query(lambda o: o.ohlc_daily(T0, DAY_US))
def q_ohlc_daily(sf_dir: str) -> pd.DataFrame:
    """Candlestick aggregate per (day, event type): OPEN (value of the
    first event), HIGH, LOW, CLOSE (value of the last event), count —
    FIRST/LAST_VALUE computed as COMBINABLE PARTIALS, not windows: each
    batch keeps one (ts, event_id, value) witness per key per side
    (first = min (ts, event_id) lexicographic, deterministic under ts
    ties) plus min/max/count, and the driver combine replays the same
    rule over |keys x blocks| witness rows. Exact integer cents
    throughout; the mirror is the row_number window pair."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type", "value"]
    )

    def partials(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(zero_copy_only=False),
                "day": (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0)
                // DAY_US,
                "ts": b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                "event_id": b["event_id"].to_numpy(zero_copy_only=False),
                "value_c": b["value_c"].to_numpy(zero_copy_only=False),
            }
        ).sort_values(["event_type", "day", "ts", "event_id"], kind="mergesort")
        g = df.groupby(["event_type", "day"], as_index=False)
        out = g.agg(
            o_ts=("ts", "first"), o_id=("event_id", "first"), open=("value_c", "first"),
            c_ts=("ts", "last"), c_id=("event_id", "last"), close=("value_c", "last"),
            high=("value_c", "max"), low=("value_c", "min"), n_p=("value_c", "size"),
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = rio.map_blocks(ev, partials).to_pandas()
    parts = parts.sort_values(["event_type", "day", "o_ts", "o_id"], kind="mergesort")
    first = parts.groupby(["event_type", "day"], as_index=False).agg(open=("open", "first"))
    parts2 = parts.sort_values(["event_type", "day", "c_ts", "c_id"], kind="mergesort")
    last = parts2.groupby(["event_type", "day"], as_index=False).agg(close=("close", "last"))
    rest = parts.groupby(["event_type", "day"], as_index=False).agg(
        high=("high", "max"), low=("low", "min"), n=("n_p", "sum")
    )
    out = rest.merge(first, on=["event_type", "day"]).merge(last, on=["event_type", "day"])
    out = out[["event_type", "day", "open", "high", "low", "close", "n"]].astype(
        {"day": "int64", "open": "int64", "high": "int64",
         "low": "int64", "close": "int64", "n": "int64"}
    )
    return out.sort_values(["event_type", "day"]).reset_index(drop=True)


def _copurchase_edges(sf_dir: str) -> rio.Blocks:
    """Raw co-purchase pair stream (parts adjacent iff some order
    contains both): complete-by-order bucket fan-out; order sizes are
    bounded so the per-order pair explosion is O(items^2) <= ~170
    rows. May contain duplicates across orders — consumers dedupe
    (ops.triangles.dedupe_edges)."""
    li = rio.read_resident(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {"ok": b["l_orderkey"].cast(pa.int64()), "pk": b["l_partkey"].cast(pa.int64())}
        )

    def order_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        m = g.merge(g, on="ok", suffixes=("_a", "_b"))
        m = m[m["pk_a"] < m["pk_b"]]
        return pd.DataFrame(
            {
                "src": m["pk_a"].to_numpy(dtype=np.int64),
                "dst": m["pk_b"].to_numpy(dtype=np.int64),
            }
        )

    return rio.reduce_by_key(li, ["ok"], rio.on_pandas(order_pairs), stage=tag)


@query(lambda o: o.copurchase_triangles())
def q_copurchase_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the co-purchase graph: the
    degree-oriented wedge join in ops/triangles.py (size-gated
    broadcast fast path; the distributed path is four keyed
    shuffles), one int64 to the driver. The oracle is the three-way
    self-join over the identical distinct edge set."""
    edges = _copurchase_edges(sf_dir)
    n_edges, n_tri = triangle_count(edges)
    return pd.DataFrame({"n_edges": [n_edges], "n_triangles": [n_tri]}).astype("int64")


EDGE_JACCARD_K = 20  # top edges reported by neighborhood Jaccard


@query(lambda o: o.copurchase_edge_jaccard(EDGE_JACCARD_K))
def q_copurchase_edge_jaccard(sf_dir: str) -> pd.DataFrame:
    """Link-strength scoring — the k-truss / link-prediction feature:
    for every co-purchase edge, the common-neighbor count (= triangle
    support) and the neighborhood Jaccard cn / (deg_u + deg_v - cn);
    reported: the top EDGE_JACCARD_K edges by (jaccard DESC, u, v).
    Support comes from ops.triangles.edge_triangle_support (each
    triangle credits its three edges, and the credits sum per edge
    on the driver under the size gate, in one keyed shuffle above
    it); the Jaccard is ONE IEEE division of exact int64s,
    bit-identical in DuckDB, so the
    top-k cut is deterministic on both sides. The final reduce moves
    EDGE_JACCARD_K candidate rows per block, never the edge set."""
    sup = edge_triangle_support(_copurchase_edges(sf_dir))

    def score(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "cn": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        cn = b["cn"].to_numpy(zero_copy_only=False).astype(np.int64)
        den = (
            b["deg_u"].to_numpy(zero_copy_only=False)
            + b["deg_v"].to_numpy(zero_copy_only=False)
            - cn
        )
        df = pd.DataFrame(
            {
                "u": b["u"].to_numpy(zero_copy_only=False),
                "v": b["v"].to_numpy(zero_copy_only=False),
                "cn": cn,
                "jaccard": cn / den,
            }
        )
        df = df.sort_values(
            ["jaccard", "u", "v"], ascending=[False, True, True], kind="mergesort"
        )
        return pa.Table.from_pandas(df.head(EDGE_JACCARD_K), preserve_index=False)

    cands = rio.map_blocks(sup, score).to_pandas()
    cands = cands.sort_values(
        ["jaccard", "u", "v"], ascending=[False, True, True], kind="mergesort"
    ).head(EDGE_JACCARD_K)
    return cands.astype({"u": "int64", "v": "int64", "cn": "int64"}).reset_index(
        drop=True
    )


COLOC_RADIUS_E7 = 400_000_000  # 40 degrees in e7 units


@query(lambda o: o.snapshot_colocation_pairs(COLOC_RADIUS_E7))
def q_snapshot_colocation_pairs(sf_dir: str) -> pd.DataFrame:
    """Co-location pairs: every pair of visible entities whose
    snapshot positions at T_MID lie within COLOC_RADIUS_E7 planar
    units, with the exact int64 squared distance. The snapshot stage
    is the usual fused decode+interpolate map_batches; the pair stage
    is the grid-partitioned radius self-join (spatial/radius.py —
    9-cell ghost replication, resident<other tie-break, one bucket
    shuffle, nothing quadratic in the corpus). The oracle is the
    prefiltered self-join over the identical snapshot CTE."""
    def stage(batch: pa.Table) -> pa.Table:
        return _positions(batch).rename_columns(["id", "x", "y"])

    pts = rio.materialize_blocks(_docs(sf_dir), stage)
    df = radius_self_join(pts, COLOC_RADIUS_E7).to_pandas()
    df = df.astype({"id_a": "int64", "id_b": "int64", "d2": "int64"})
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# boundary polyline for the segment-crossing query (e7 lon/lat)
BOUNDARY_E7 = [
    (-1_500_000_000, -800_000_000),
    (-500_000_000, 600_000_000),
    (500_000_000, -600_000_000),
    (1_500_000_000, 800_000_000),
]


@query(lambda o: o.way_boundary_crossings(BOUNDARY_E7))
def q_way_boundary_crossings(sf_dir: str) -> pd.DataFrame:
    """Ways whose T_MID segment PROPERLY crosses the fixed boundary
    polyline, with the crossing count — exact integer orientation
    signs throughout (spatial/predicates.py: the products stay in
    int64 because lon deltas fit 32 bits and lat deltas 31; the
    difference's sign is recovered without the overflowing subtract).
    Segments are the synthetic ways node/u -> node/(u+1) (the
    way_lengths join); the boundary is a broadcast constant, so the
    crossing test is one vectorized kernel per batch — no extra
    shuffle beyond the endpoint join. The oracle mirrors the
    orientation formula through HUGEINT casts."""

    pos = rio.materialize_blocks(_docs(sf_dir), _positions)

    def as_left(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"join_k": batch["osm_id"], "cx": batch["lon_e7"], "cy": batch["lat_e7"]}
        )

    def as_right(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "join_k": pa.compute.subtract(batch["osm_id"], 1),
                "dx": batch["lon_e7"],
                "dy": batch["lat_e7"],
            }
        )

    joined = hash_join(
        rio.materialize_blocks(pos, as_left),
        rio.materialize_blocks(pos, as_right),
        on="join_k",
    )

    def crossings(batch: pa.Table) -> pa.Table:
        cx = batch["cx"].to_numpy(zero_copy_only=False).astype(np.int64)
        cy = batch["cy"].to_numpy(zero_copy_only=False).astype(np.int64)
        dx = batch["dx"].to_numpy(zero_copy_only=False).astype(np.int64)
        dy = batch["dy"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.zeros(len(cx), dtype=np.int64)
        for (ax, ay), (bx, by) in zip(BOUNDARY_E7, BOUNDARY_E7[1:]):
            n += segments_cross(
                np.int64(ax), np.int64(ay), np.int64(bx), np.int64(by), cx, cy, dx, dy
            )
        keep = n > 0
        return pa.table(
            {
                "way_id": batch["join_k"].to_numpy(zero_copy_only=False)[keep],
                "n_crossings": n[keep],
            }
        )

    df = rio.map_blocks(joined, crossings).to_pandas()
    df = df.astype({"way_id": "int64", "n_crossings": "int64"})
    return df.sort_values("way_id").reset_index(drop=True)


@query(lambda o: o.user_active_coverage())
def q_user_active_coverage(sf_dir: str) -> pd.DataFrame:
    """Per-user UNION of activity intervals: each event opens a
    service window [ts, ts + (cents % 3600 + 1) seconds); overlapping
    windows merge, and the query reports the exact covered
    microseconds and merged-span count per user (coverage, not sum —
    the interval_union_length sweep in ops/sessions.py: one
    complete-keys bucket shuffle). The mirror is the classic
    gaps-and-islands window pair."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def iv(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        s = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dur = (b["value_c"].to_numpy(zero_copy_only=False) % 3600 + 1) * 1_000_000
        return pa.table(
            {"user_id": b["user_id"].cast(pa.int64()), "s": s, "e": s + dur}
        )

    out = interval_union_length(
        rio.materialize_blocks(ev, iv), "user_id", "s", "e"
    ).to_pandas()
    out = out.rename(columns={"covered": "covered_us"})
    return out.sort_values("user_id").reset_index(drop=True)


def _sparse_values(b: pa.Table) -> pa.Table:
    """Type, day and cents of the events whose cents are a multiple of
    97 (a sparse daily series)."""
    t = _events(b, ("etype", "day", "value_c"))
    return t.filter(pa.array(t["value_c"].to_numpy() % 97 == 0))


@query(lambda o: o.gapfill_daily(T0, DAY_US))
def q_gapfill_daily(sf_dir: str) -> pd.DataFrame:
    """Sparse daily series with LINEAR GAP-FILL: daily cent sums of
    the ~1% slice value_c % 97 == 0 leave most (etype, day) slots
    empty; interior gaps are filled by exact-rational linear
    interpolation — the numerator v0*(d1-t) + v1*(t-d0) stays int64
    and the published value is ONE IEEE division by (d1-d0), so the
    DuckDB mirror (IGNORE-NULLS window pair over a generate_series
    spine) is bit-identical. Daily sums are per-batch partials +
    low-card combine; the fill runs on the |etypes x days| final —
    scale-bounded by the time range, not the corpus."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    stage = KeyedPartials(_sparse_values, keys=("etype", "day"), sums=("value_c",))
    base = combine_partials(rio.map_blocks(ev, stage), ["etype", "day"], {"value_c_part": "v"})

    rows = []
    for etype, g in base.groupby("etype"):
        g = g.sort_values("day")
        days = g["day"].to_numpy(dtype=np.int64)
        vals = g["v"].to_numpy(dtype=np.int64)
        spine = np.arange(days[0], days[-1] + 1, dtype=np.int64)
        idx = np.searchsorted(days, spine, side="right") - 1  # prev present
        present = days[idx] == spine
        d0, v0 = days[idx], vals[idx]
        nxt = np.minimum(idx + 1, len(days) - 1)
        d1, v1 = days[nxt], vals[nxt]
        num = v0 * (d1 - spine) + v1 * (spine - d0)  # exact int64
        # clamp: present lanes (d1 == d0 possible) are discarded by the
        # where, but np.where evaluates both branches — keep them finite
        den = np.maximum(d1 - d0, 1)
        filled = np.where(
            present, vals[idx].astype(np.float64), num.astype(np.float64) / den
        )
        rows.append(
            pd.DataFrame(
                {
                    "etype": etype,
                    "day": spine,
                    "value_filled": filled,
                    "is_interp": (~present).astype(np.int64),
                }
            )
        )
    out = pd.concat(rows, ignore_index=True)
    return out.sort_values(["etype", "day"]).reset_index(drop=True)


@query(lambda o: o.user_journeys())
def q_user_journeys(sf_dir: str) -> pd.DataFrame:
    """Per-user JOURNEY STRING: the first letter of every event type,
    concatenated in exact (ts, event_id) order — SQL's ordered
    string_agg as a distributed operator (ops/relational.
    ordered_string_agg: one complete-keys bucket shuffle, in-bucket
    sort + join; one row per user)."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "ch": pc.utf8_slice_codeunits(b["event_type"], 0, 1),
                "t": b["ts"].cast(pa.int64()),
                "event_id": b["event_id"].cast(pa.int64()),
            }
        )

    out = ordered_string_agg(
        rio.materialize_blocks(ev, prep),
        "user_id",
        "ch",
        ["t", "event_id"],
    ).to_pandas()
    out = out.rename(columns={"agg": "journey", "n": "n_events"}).astype(
        {"user_id": "int64", "n_events": "int64"}
    )
    return out.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.snapshot_hull_by_type())
def q_snapshot_hull_by_type(sf_dir: str) -> pd.DataFrame:
    """STRICT convex hull vertices of the T_MID snapshot positions per
    event type (osm_id % 5 == 0 subset): the combiner-shaped geometric
    aggregate — per-batch local hulls (exact integer orientation, no
    float epsilons) reduce the stream, and the |groups x hull| final
    re-runs the same monotone chain (spatial/hull.py). The oracle is
    the quantifier form of strict hull membership: a point is a vertex
    iff NO triangle of three other same-group points contains it
    (boundary included, with a bbox guard so degenerate collinear
    triangles exclude only genuinely-between points)."""
    lookup = _tag_lookup(sf_dir)

    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["etype", "osm_id", "lon_e7", "lat_e7"], lookup)
        ids = s["osm_id"].to_numpy(zero_copy_only=False)
        keep = ids % 5 == 0
        return pa.table(
            {
                "etype": pa.array(
                    s["etype"].to_numpy(zero_copy_only=False)[keep]
                ),
                "osm_id": ids[keep],
                "lon_e7": s["lon_e7"].to_numpy(zero_copy_only=False)[keep],
                "lat_e7": s["lat_e7"].to_numpy(zero_copy_only=False)[keep],
            }
        )

    pts = rio.materialize_blocks(_docs(sf_dir), stage)
    out = grouped_convex_hull(pts, "etype", "osm_id", "lon_e7", "lat_e7")
    return out.astype(
        {"osm_id": "int64", "lon_e7": "int64", "lat_e7": "int64"}
    ).reset_index(drop=True)


@query(lambda o: o.value_bitops_by_type())
def q_value_bitops_by_type(sf_dir: str) -> pd.DataFrame:
    """Grouped BITWISE / BOOLEAN aggregates (bit_and / bit_or /
    bit_xor of cent values; bool_and / bool_or of evenness) — all five
    are associative+commutative, so each is a per-batch partial plus
    the driver combine replaying the same reduction over
    |keys x blocks| rows. Exact int64 throughout."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partials(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        df = pd.DataFrame(
            {
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
                "v": b["value_c"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("etype")["v"]
        out = pd.DataFrame(
            {
                "band": g.agg(lambda s: np.bitwise_and.reduce(s.to_numpy())),
                "bor": g.agg(lambda s: np.bitwise_or.reduce(s.to_numpy())),
                "bxor": g.agg(lambda s: np.bitwise_xor.reduce(s.to_numpy())),
                "alleven": g.agg(lambda s: bool((s.to_numpy() % 2 == 0).all())),
                "anyeven": g.agg(lambda s: bool((s.to_numpy() % 2 == 0).any())),
            }
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = rio.map_blocks(ev, partials).to_pandas()
    g = parts.groupby("etype")
    out = pd.DataFrame(
        {
            "band": g["band"].agg(lambda s: np.bitwise_and.reduce(s.to_numpy())),
            "bor": g["bor"].agg(lambda s: np.bitwise_or.reduce(s.to_numpy())),
            "bxor": g["bxor"].agg(lambda s: np.bitwise_xor.reduce(s.to_numpy())),
            "alleven": g["alleven"].agg("all").astype(np.int64),
            "anyeven": g["anyeven"].agg("any").astype(np.int64),
        }
    ).reset_index().rename(columns={"etype": "event_type"})
    out = out.astype({"band": "int64", "bor": "int64", "bxor": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


@query(lambda o: o.extreme_events_by_type())
def q_extreme_events_by_type(sf_dir: str) -> pd.DataFrame:
    """Deterministic ARGMIN/ARGMAX per group: the event_id holding the
    minimum and the maximum cent value per event type, ties broken by
    smallest event_id — associative witness partials (each batch keeps
    one (v, event_id) witness per key per side), the modal-value
    argmax pattern applied to extremes. The mirror pins the same tie
    order through row_number windows (DuckDB's arg_min/arg_max tie
    choice is unspecified, so the oracle never uses them)."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def partials(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        df = pd.DataFrame(
            {
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
                "eid": b["event_id"].to_numpy(zero_copy_only=False),
                "v": b["value_c"].to_numpy(zero_copy_only=False),
            }
        ).sort_values(["etype", "v", "eid"], kind="mergesort")
        g = df.groupby("etype", as_index=False)
        lo = g.first().rename(columns={"eid": "min_event_id", "v": "min_value_c"})
        hi = (
            df.sort_values(["etype", "v", "eid"], ascending=[True, False, True], kind="mergesort")
            .groupby("etype", as_index=False)
            .first()
            .rename(columns={"eid": "max_event_id", "v": "max_value_c"})
        )
        return pa.Table.from_pandas(lo.merge(hi, on="etype"), preserve_index=False)

    parts = rio.map_blocks(ev, partials).to_pandas()
    lo = (
        parts.sort_values(["etype", "min_value_c", "min_event_id"], kind="mergesort")
        .groupby("etype", as_index=False)
        .first()[["etype", "min_value_c", "min_event_id"]]
    )
    hi = (
        parts.sort_values(
            ["etype", "max_value_c", "max_event_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .groupby("etype", as_index=False)
        .first()[["etype", "max_value_c", "max_event_id"]]
    )
    out = lo.merge(hi, on="etype").rename(columns={"etype": "event_type"})
    out = out.astype(
        {
            "min_value_c": "int64",
            "min_event_id": "int64",
            "max_value_c": "int64",
            "max_event_id": "int64",
        }
    )[["event_type", "min_value_c", "min_event_id", "max_value_c", "max_event_id"]]
    return out.sort_values("event_type").reset_index(drop=True)


PR_SCALE = 1_000_000
PR_ITERS = 3


@query(lambda o: o.copurchase_pagerank(PR_SCALE, PR_ITERS))
def q_copurchase_pagerank(sf_dir: str) -> pd.DataFrame:
    """Deterministic INTEGER PageRank (3 exact fixed-point power
    iterations, damping 85/100, micro-unit scale) over the distinct
    co-purchase graph — ops/pagerank.py: every share is a floor
    division and every reduction an int sum, so the ranks are
    bit-identical at any parallelism and the oracle is the same three
    iterations unrolled as join-aggregate CTEs."""
    edges = dedupe_edges(_copurchase_edges(sf_dir))
    pr = pagerank_int(edges, "u", "v", iters=PR_ITERS, scale=PR_SCALE)
    df = rio.blocks_table(pr).to_pandas()
    df = df.rename(columns={"node": "part_id"}).astype({"part_id": "int64", "pr": "int64"})
    return df.sort_values("part_id").reset_index(drop=True)


@query(lambda o: o.jsonl_events_by_type())
def q_jsonl_events_by_type(sf_dir: str) -> pd.DataFrame:
    """Second text source format end-to-end: the code-fingerprinted
    JSONL twin of events.parquet (sources/jsonl.py — integer-clean
    columns, exact round-trip) read back through the Arrow JSON
    reader with read_table's task sizing, then the standard per-batch
    partial aggregate. The oracle reads the PARQUET with the same
    derivations, so a pass certifies the whole JSONL write+read wire
    path, not just the aggregate."""
    ds = read_jsonl(ensure_jsonl_events(sf_dir))

    def partials(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(zero_copy_only=False),
                "v": b["value_c"].to_numpy(zero_copy_only=False),
                "t": b["ts_us"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("event_type")
        out = pd.DataFrame(
            {
                "n_p": g["v"].size(),
                "sum_p": g["v"].sum(),
                "tmin_p": g["t"].min(),
                "tmax_p": g["t"].max(),
            }
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = rio.map_blocks(ds, partials).to_pandas()
    g = parts.groupby("event_type")
    out = pd.DataFrame(
        {
            "n": g["n_p"].sum(),
            "sum_value_c": g["sum_p"].sum(),
            "ts_min_us": g["tmin_p"].min(),
            "ts_max_us": g["tmax_p"].max(),
        }
    ).reset_index()
    out = out.astype(
        {"n": "int64", "sum_value_c": "int64", "ts_min_us": "int64", "ts_max_us": "int64"}
    )
    return out.sort_values("event_type").reset_index(drop=True)


# IPC wire path shares the JSONL twin's parquet-side mirror
@query(lambda o: o.jsonl_events_by_type())
def q_arrow_events_by_type(sf_dir: str) -> pd.DataFrame:
    """Third wire format end-to-end: the content-addressed Arrow-IPC
    twin (sources/arrowipc.py) read back through read_binary_files +
    in-pipeline IPC decode, then the standard per-batch partial
    aggregate. The oracle reads the PARQUET with the same derivations,
    so a pass certifies the IPC write+read wire path."""
    ds = read_arrow_ipc(ensure_arrow_events(sf_dir))

    def partials(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": b["event_type"].to_numpy(zero_copy_only=False),
                "v": b["value_c"].to_numpy(zero_copy_only=False),
                "t": b["ts_us"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("event_type")
        out = pd.DataFrame(
            {
                "n_p": g["v"].size(),
                "sum_p": g["v"].sum(),
                "tmin_p": g["t"].min(),
                "tmax_p": g["t"].max(),
            }
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = rio.map_blocks(ds, partials).to_pandas()
    g = parts.groupby("event_type")
    out = pd.DataFrame(
        {
            "n": g["n_p"].sum(),
            "sum_value_c": g["sum_p"].sum(),
            "ts_min_us": g["tmin_p"].min(),
            "ts_max_us": g["tmax_p"].max(),
        }
    ).reset_index()
    out = out.astype(
        {"n": "int64", "sum_value_c": "int64", "ts_min_us": "int64", "ts_max_us": "int64"}
    )
    return out.sort_values("event_type").reset_index(drop=True)


@query(lambda o: o.train_val_test_split())
def q_train_val_test_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 corpus split summarized per source:
    hash-threshold assignment (ops.relational.deterministic_split —
    resume-stable, partitioning-invariant, NESTED with the sampling
    family) + per-batch partial counts. md5 here because the split
    VALUES are oracle-compared; production uses the vectorized fnv1a
    path (same guarantees, A/B-tested in test_ops)."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"])
    split = deterministic_split(
        ds, "doc_id", [("train", 8, 10), ("val", 9, 10)], "test", hash_fn="md5"
    )

    stage = KeyedPartials(_as_is, keys=("source", "split"), sums=("n_chars",))
    return combine_partials(
        rio.map_blocks(split, stage), ["source", "split"],
        {"n_part": "n_docs", "n_chars_part": "n_chars"},
    )


T_DIFF_B = T0 + 21 * DAY_US  # 2024-01-22: the diff's second snapshot


def _changes(batch: pa.Table, rows: ViewRows) -> pa.Table:
    """Each entity's event type and change between its T_MID and
    T_DIFF_B snapshot ``rows``: added, removed, moved or static."""
    s = rows(batch)
    df = pd.DataFrame({
        "ts_q": s["ts_q"].to_numpy(zero_copy_only=False),
        "osm_id": s["osm_id"].to_numpy(zero_copy_only=False),
        "etype": s["etype"].to_numpy(zero_copy_only=False),
        "lon": s["lon_e7"].to_numpy(zero_copy_only=False),
        "lat": s["lat_e7"].to_numpy(zero_copy_only=False),
    })
    a, b = df[df["ts_q"] == T_MID], df[df["ts_q"] == T_DIFF_B]
    m = a.merge(b, on="osm_id", how="outer", suffixes=("_a", "_b"))
    in_a, in_b = m["etype_a"].notna(), m["etype_b"].notna()
    same = (m["lon_a"] == m["lon_b"]) & (m["lat_a"] == m["lat_b"])
    change = np.where(~in_a, "added", np.where(~in_b, "removed", np.where(same, "static", "moved")))
    etype = m["etype_b"].where(in_b, m["etype_a"])
    return pa.table(
        {"etype": pa.array(etype, pa.string()), "change": pa.array(change, pa.string())}
    )


@query(lambda o: o.snapshot_incremental_merge(T_DIFF_B))
def q_snapshot_incremental_merge(sf_dir: str) -> pd.DataFrame:
    """MERGE INTO / CDC-apply — incremental view maintenance: a BASE
    table (the visible state at T_MID) has a CHANGE stream (each
    entity's last version in (T_MID, T_DIFF_B], visible = upsert,
    tombstone = delete) applied to it, and the result must equal the
    direct snapshot at T_DIFF_B. Base and changes are two separate
    sides of one stage, marked by a side column and co-grouped by one
    osm_id shuffle (the cc.py one-schema pattern); the apply
    rule (change wins, delete drops, else base survives) resolves
    vectorized in-bucket. The oracle is the direct T_DIFF_B snapshot —
    a pass certifies the merge operator end to end, not a replay of
    the same code path."""
    t_mid = np.array([T_MID], dtype=np.int64)
    lookup = _tag_lookup(sf_dir)

    def base_stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, t_mid, ["osm_id", "etype", "kk"], lookup)
        n = len(s)
        s = s.append_column("vis", pa.array(np.ones(n, dtype=np.int64)))
        return s.append_column("side", pa.array(np.zeros(n, dtype=np.int64)))

    def change_stage(d: pa.Table) -> pa.Table:
        tbl, codes, ts, _v, _ = _sorted_versions(d)
        in_win = (ts > T_MID) & (ts <= T_DIFF_B)
        idx = np.flatnonzero(in_win)
        if not len(idx):
            return pa.table(
                {
                    "osm_id": pa.array([], pa.int64()),
                    "etype": pa.array([], pa.string()),
                    "kk": pa.array([], pa.int64()),
                    "vis": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                }
            )
        c = codes[idx]
        last = idx[np.r_[c[1:] != c[:-1], True]]
        sel = tbl.take(pa.array(last))
        oid = sel["osm_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "osm_id": sel["osm_id"],
                "etype": sel["etype"],
                "kk": sel["kk"],
                "vis": pa.array(
                    sel["visible"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "side": pa.array(np.ones(len(oid), dtype=np.int64)),
            }
        )

    def both(batch: pa.Table) -> pa.Table:
        d = decode_spans(batch, lookup, geom=False)
        return pa.concat_tables([base_stage(batch), change_stage(d)])

    def apply_merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["osm_id", "side"], kind="mergesort")
        # change (side=1) wins per entity; keep the winner iff visible
        last = g.drop_duplicates("osm_id", keep="last")
        keep = last[last["vis"] == 1]
        return keep[["osm_id", "etype", "kk"]]

    df = rio.reduce_by_key(
        _docs(sf_dir), ["osm_id"], rio.on_pandas(apply_merge), stage=both
    )
    df = rio.blocks_table(df).to_pandas()
    df = df.astype({"osm_id": "int64", "kk": "int64"})
    return df.sort_values("osm_id").reset_index(drop=True)


@query(lambda o: o.snapshot_diff(T_MID, T_DIFF_B))
def q_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Change-data-capture between two snapshots (T_MID -> T_DIFF_B):
    per event type, how many entities were ADDED (visible only after),
    REMOVED (only before), MOVED (both, coordinates changed) or STATIC
    (both, coordinates equal). ZERO-shuffle: snapshots evaluates
    both timestamps over the same span-document batch, so the per-doc
    before/after rows meet in-batch and only |etype x 4| partial
    counts leave the stage. The mirror is a FULL OUTER JOIN of the two
    snap CTEs."""
    ts = np.array([T_MID, T_DIFF_B], dtype=np.int64)
    lookup = _tag_lookup(sf_dir)

    cols = ("ts_q", "osm_id", "etype", "lon_e7", "lat_e7")
    rows = ViewRows(ts, 0, 0, cols, lookup, None, None, None)
    stage = KeyedPartials(functools.partial(_changes, rows=rows), keys=("etype", "change"))
    partials = rio.map_blocks(_docs(sf_dir), stage)
    return combine_partials(partials, ["etype", "change"], {"n_part": "n"})


def _csv_days(b: pa.Table) -> pa.Table:
    """Each CSV event's day and cents."""
    day = (b["ts_us"].to_numpy(zero_copy_only=False) - T0) // DAY_US
    return pa.table({"day": day, "value_c": b["value_c"]})


@query(lambda o: o.csv_events_daily(T0, DAY_US))
def q_csv_events_daily(sf_dir: str) -> pd.DataFrame:
    """Third text source format end-to-end (CSV twin of
    events.parquet, sources/csvlog.py): daily counts + exact cent sums
    read through the CSV wire path; the oracle reads the parquet with
    the same derivations, certifying the CSV write+read round-trip."""
    ds = read_csv_log(ensure_csv_events(sf_dir))

    stage = KeyedPartials(_csv_days, keys=("day",), sums=("value_c",))
    return combine_partials(
        rio.map_blocks(ds, stage), ["day"], {"n_part": "n", "value_c_part": "sum_value_c"}
    )


def _octant_of(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Exact integer 45-degree bearing sector (0 = N, clockwise) —
    sign tests and |dx| vs |dy| compares only (numpy's SIMD atan2 is
    NOT bit-identical to DuckDB's libm atan2, so the exact
    formulation is also the only oracle-stable one). Zero vectors
    return -1."""
    return np.select(
        [
            (dx >= 0) & (dy > 0) & (dx < dy),
            (dx > 0) & (dy > 0) & (dx >= dy),
            (dx > 0) & (dy <= 0) & (-dy < dx),
            (dx > 0) & (dy < 0) & (-dy >= dx),
            (dx <= 0) & (dy < 0) & (-dx < -dy),
            (dx < 0) & (dy < 0) & (-dx >= -dy),
            (dx < 0) & (dy >= 0) & (dy < -dx),
            (dx < 0) & (dy > 0) & (dy >= -dx),
        ],
        np.arange(8, dtype=np.int64),
        default=np.int64(-1),
    )


@query(lambda o: o.way_bearing_rose())
def q_way_bearing_rose(sf_dir: str) -> pd.DataFrame:
    """Compass rose of way segments (node/u -> node/(u+1) at T_MID):
    counts per 45-degree bearing sector, computed WITHOUT floats —
    sector boundaries at multiples of 45 degrees reduce to sign tests
    and |dx| vs |dy| comparisons on exact e7 integers (numpy's SIMD
    atan2 is NOT bit-identical to DuckDB's libm atan2, so the exact
    formulation is also the only oracle-stable one). Zero-length
    segments are excluded."""

    pos = rio.materialize_blocks(_docs(sf_dir), _positions)
    left = rio.materialize_blocks(
        pos, lambda b: pa.table({"join_k": b["osm_id"], "x1": b["lon_e7"], "y1": b["lat_e7"]})
    )
    right = rio.materialize_blocks(
        pos,
        lambda b: pa.table(
            {"join_k": pc.subtract(b["osm_id"], 1), "x2": b["lon_e7"], "y2": b["lat_e7"]}
        ),
    )

    def octants(b: pa.Table) -> pa.Table:
        dx = b["x2"].to_numpy(zero_copy_only=False) - b["x1"].to_numpy(zero_copy_only=False)
        dy = b["y2"].to_numpy(zero_copy_only=False) - b["y1"].to_numpy(zero_copy_only=False)
        live = (dx != 0) | (dy != 0)
        oct_ = _octant_of(dx[live], dy[live])
        o, n = np.unique(oct_, return_counts=True)
        return pa.table({"octant": o, "n_p": n.astype(np.int64)})

    out = combine_partials(
        rio.map_blocks(hash_join(left, right, on="join_k"), octants),
        ["octant"],
        {"n_p": "n"},
    )
    out = out.astype({"octant": "int64", "n": "int64"})
    return out.sort_values("octant").reset_index(drop=True)


PROFILE_COLS = ["o_custkey", "o_orderstatus", "o_totalprice", "o_orderpriority"]


@query(lambda o: o.profile_orders(PROFILE_COLS))
def q_profile_orders(sf_dir: str) -> pd.DataFrame:
    """Data-quality PROFILE of the orders table: per column, row
    count, null count and EXACT distinct count in one pass (ops/
    profile.py — per-batch np.unique pre-aggregation, one bucket
    shuffle over O(distincts) pairs, |columns| rows out)."""
    ds = rio.read_resident(f"{sf_dir}/orders.parquet", columns=PROFILE_COLS)
    return profile_columns(ds, PROFILE_COLS)


@query(lambda o: o.etype_purity_by_day(T0, DAY_US))
def q_etype_purity_by_day(sf_dir: str) -> pd.DataFrame:
    """Gini impurity of the event-type mix per day, as EXACT INTEGERS:
    impurity = 1 - sum((c_i/n)^2) is published as the exact rational
    (gini_num, gini_den) = (n^2 - sum c_i^2, n^2) plus ONE IEEE
    division — the distribution-impurity aggregate with no float
    summation anywhere. Per-batch (day, etype) count partials; |days x
    etypes| combine."""
    g = _etype_day_grid(sf_dir).groupby("day")["n"]
    n = g.sum().astype(np.int64)
    ss = g.apply(lambda s: int((s.to_numpy(dtype=np.int64) ** 2).sum()))
    out = pd.DataFrame(
        {
            "day": n.index.to_numpy(dtype=np.int64),
            "gini_num": (n.to_numpy() ** 2 - ss.to_numpy()).astype(np.int64),
            "gini_den": (n.to_numpy() ** 2).astype(np.int64),
        }
    )
    out["gini"] = out["gini_num"].astype(np.float64) / out["gini_den"].astype(np.float64)
    return out.sort_values("day").reset_index(drop=True)


@query(lambda o: o.value_leading_digits())
def q_value_leading_digits(sf_dir: str) -> pd.DataFrame:
    """Benford-style leading-digit profile of the positive cent
    values: the first significant digit extracted ARITHMETICALLY
    (repeated integer division — no float log10), counted per digit.
    The mirror extracts it lexically from the VARCHAR cast; the two
    derivations agree exactly on positive integers."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["value"])

    def partials(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        v = b["value_c"].to_numpy(zero_copy_only=False)
        v = v[v > 0].copy()
        while (v >= 10).any():
            big = v >= 10
            v[big] //= 10
        d, n = np.unique(v, return_counts=True)
        return pa.table({"digit": d, "n_p": n.astype(np.int64)})

    out = combine_partials(
        rio.map_blocks(ev, partials), ["digit"], {"n_p": "n"}
    )
    out = out.astype({"digit": "int64", "n": "int64"})
    return out.sort_values("digit").reset_index(drop=True)


PCTL_FRACS = [(1, 4), (1, 2), (3, 4), (9, 10)]


@query(lambda o: o.price_percentiles_cont(PCTL_FRACS))
def q_price_percentiles_cont(sf_dir: str) -> pd.DataFrame:
    """SQL PERCENTILE_CONT over order prices (cents) as EXACT
    RATIONALS: each percentile is the integer numerator
    v_lo*(den-r) + v_hi*r over den, published with ONE IEEE division
    (ops.relational.percentile_cont_int — distributed value-histogram,
    no global sort, no float interpolation). The mirror computes the
    identical order statistics through a row_number CTE and the same
    rational — never DuckDB's internal quantile_cont float path."""
    ds = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/orders.parquet", columns=["o_totalprice"]),
        lambda b: cents(b, "o_totalprice", "price_c"),
    )
    rows = []
    for (num, den), (pnum, pden, n) in zip(
        PCTL_FRACS, percentile_cont_int(ds, "price_c", PCTL_FRACS)
    ):
        rows.append(
            {
                "pct_num": num,
                "pct_den": den,
                "value_num": pnum,
                "value_den": pden,
                "value": np.float64(pnum) / np.float64(pden),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"pct_num": "int64", "pct_den": "int64", "value_num": "int64", "value_den": "int64"}
    )
    return out.sort_values(["pct_den", "pct_num"]).reset_index(drop=True)


def _ranks_below(b: pa.Table, refs) -> pa.Table:
    """Each event's type and the count ``r`` of corpus values strictly
    below its cents (the sorted distinct values and their below-counts
    behind ``refs``)."""
    vals, below = ray.get(list(refs))
    r = below[np.searchsorted(vals, b["value_c"].to_numpy(zero_copy_only=False))]
    return pa.table({"etype": b["event_type"], "r": r})


@query(lambda o: o.value_percentile_mass_by_type())
def q_value_percentile_mass_by_type(sf_dir: str) -> pd.DataFrame:
    """Rank transform / quantile normalization: each value maps to its
    GLOBAL strictly-below count (the discrete CDF), then per type the
    exact integer sum of those ranks and the mean rank fraction —
    'does this type sit high or low in the global distribution'. Two
    passes: the distributed value histogram (exact_quantiles_int's
    shape) builds the global cumulative table ONCE, broadcasts it
    (ray.put, searchsorted lookup per batch), and the second fused
    pass reduces per-type integer partials. Mirror: rank() - 1 is the
    strictly-below count (ties share the min rank)."""
    ev = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        lambda b: cents(b, "value", "value_c"),
    )
    hist = value_histogram(ev, [], "value_c")
    vals = hist["value_c"].to_numpy(dtype=np.int64)
    below = np.r_[0, np.cumsum(hist["n"].to_numpy(dtype=np.int64))[:-1]]
    n_total = int(hist["n"].sum())

    vals_ref, below_ref = ray.put(vals), ray.put(below)

    stage = KeyedPartials(
        functools.partial(_ranks_below, refs=(vals_ref, below_ref)), keys=("etype",), sums=("r",)
    )
    df = combine_partials(
        rio.map_blocks(ev, stage), ["etype"], {"n_part": "n", "r_part": "sum_below"}
    )
    # mean strictly-below fraction: one division of exact ints
    df["mean_below_frac"] = df["sum_below"].to_numpy(np.int64).astype(
        np.float64
    ) / (df["n"].to_numpy(np.int64).astype(np.float64) * np.float64(n_total))
    return df.sort_values("etype").reset_index(drop=True)


TRIM_FRAC = (1, 10)  # trimmed mean: drop floor(n/10) rows per tail


@query(lambda o: o.trimmed_mean_by_type(*TRIM_FRAC))
def q_trimmed_mean_by_type(sf_dir: str) -> pd.DataFrame:
    """TRIMMED (truncated) mean per event type — the outlier-robust
    location estimator: drop the lowest and highest floor(n*num/den)
    values BY RANK, average the rest. Distributed as ONE
    (etype, value-cents) histogram (``value_histogram``), small
    relative to the data, exactly the exact_quantiles_int shape (no
    global sort); the driver trims by rank over the histogram's
    cumulative counts (boundary values keep partial multiplicity) and
    sums kept value*count in PYTHON ints (exact at any magnitude).
    The mean is ONE IEEE division; rank-trimming makes tie order
    irrelevant, so the result is deterministic on both engines."""
    ev = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        lambda b: cents(b, "value", "value_c"),
    )
    hist = value_histogram(ev, ["event_type"], "value_c")
    num, den = TRIM_FRAC
    rows = []
    for et, g in hist.groupby("event_type"):
        cnt = g["n"].to_numpy(dtype=np.int64)
        val = g["value_c"].to_numpy(dtype=np.int64)
        end = np.cumsum(cnt)
        start = end - cnt
        n = int(end[-1])
        t = n * num // den
        lo, hi = t, n - t
        kept = np.clip(np.minimum(end, hi) - np.maximum(start, lo), 0, None)
        total = sum(int(v) * int(k) for v, k in zip(val, kept) if k)
        n_kept = hi - lo
        if not (-(2**63) < total < 2**63):
            raise OverflowError("trimmed mean: kept sum exceeds int64")
        rows.append(
            {
                "etype": et,
                "n_kept": n_kept,
                "sum_kept_c": total,
                "trimmed_mean_c": np.float64(total) / np.float64(n_kept),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_kept": "int64", "sum_kept_c": "int64", "trimmed_mean_c": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


def _rfm_codes(b: pa.Table, bounds: dict) -> pa.Table:
    """Each customer's r/f/m quartile codes: the number of ``bounds``
    each of its measures exceeds."""
    return pa.table({
        k + "_code": sum((b[k].to_numpy(zero_copy_only=False) > q).astype(np.int64) for q in qs)
        for k, qs in bounds.items()
    })


@query(lambda o: o.customer_rfm_segments())
def q_customer_rfm_segments(sf_dir: str) -> pd.DataFrame:
    """RFM SEGMENTATION — the classic warehouse customer analysis:
    per customer Recency (latest order epoch-day), Frequency (order
    count) and Monetary (cents sum), each quartile-coded 0..3 by the
    exact discrete boundary rule (value at rank ((n-1)*i)//4,
    strictly-above coding — the equidepth convention), and the
    customer count per (r, f, m) cell. Shapes: per-customer
    aggregates per key bucket (corpus-cardinality key), three
    distributed value-histogram quantile passes, boundary broadcast
    into a per-batch coding pass, 4^3-bounded combine."""
    ds = rio.read_resident(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def prep(b: pa.Table) -> pa.Table:
        b = cents(b, "o_totalprice", "price_c")
        return pa.table(
            {
                "o_custkey": b["o_custkey"].cast(pa.int64()),
                "d": pa.array(
                    b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
                    // DAY_US
                ),
                "price_c": b["price_c"],
            }
        )

    def partial(b: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(prep(b), ["o_custkey"]).aggregate(
            [([], "count_all"), ("d", "max"), ("price_c", "sum")]
        )
        return g.rename_columns(["o_custkey", "f", "r", "m"])

    aggs = {"f": "sum", "r": "max", "m": "sum"}
    per_cust = combine_by_key(ds, ["o_custkey"], aggs, stage=partial)
    fracs = [(1, 4), (2, 4), (3, 4)]
    bounds = {c: exact_quantiles_int(per_cust, c, fracs) for c in ("r", "f", "m")}

    keys = ("r_code", "f_code", "m_code")
    stage = KeyedPartials(functools.partial(_rfm_codes, bounds=bounds), keys=keys)
    return combine_partials(rio.map_blocks(per_cust, stage), list(keys), {"n_part": "n_customers"})


def _quartile_bins(b: pa.Table, q: np.ndarray) -> pa.Table:
    """Each event's type and bin: the number of bounds ``q`` its cents
    exceed."""
    v = b["value_c"].to_numpy(zero_copy_only=False)
    return pa.table({"event_type": b["event_type"], "bin": (v[:, None] > q[None, :]).sum(axis=1)})


@query(lambda o: o.value_equidepth_bins())
def q_value_equidepth_bins(sf_dir: str) -> pd.DataFrame:
    """EQUI-DEPTH histogram: global exact quartile boundaries of the
    cent values (exact_quantiles_int — distributed value-histogram, no
    sort), then per (event type, bin) counts with bin = #boundaries
    strictly below the value. Two passes over a pruned 2-column read;
    the boundaries broadcast as three ints. Mirror computes the same
    discrete boundaries and CASE."""
    ev = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"]),
        lambda b: cents(b, "value", "value_c"),
    )
    qs = exact_quantiles_int(ev, "value_c", [(1, 4), (1, 2), (3, 4)])
    q = np.array(qs, dtype=np.int64)

    stage = KeyedPartials(functools.partial(_quartile_bins, q=q), keys=("event_type", "bin"))
    return combine_partials(rio.map_blocks(ev, stage), ["event_type", "bin"], {"n_part": "n"})


@query(lambda o: o.copurchase_clustering())
def q_copurchase_clustering(sf_dir: str) -> pd.DataFrame:
    """Global clustering coefficient of the co-purchase graph as an
    EXACT RATIONAL: 3 * triangles over wedges, where the wedge count
    sum(C(deg, 2)) is a per-bucket integer sum over the same deduped
    edge set the triangle count uses — one float division at the end.
    Mirrors the triangles oracle plus the degree-based wedge sum."""
    e = dedupe_edges(_copurchase_edges(sf_dir))
    n_edges, n_tri = triangle_count(e, "u", "v")

    def explode(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.chunked_array([*b["u"].chunks, *b["v"].chunks], b["u"].type)})

    def wedge_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g["node"].value_counts().to_numpy(dtype=np.int64)
        return pd.DataFrame({"w_p": [int((d * (d - 1) // 2).sum())]})

    parts = rio.reduce_by_key(e, ["node"], rio.on_pandas(wedge_partial), stage=explode)
    wedges = int(rio.blocks_table(parts)["w_p"].to_numpy().sum())
    out = pd.DataFrame(
        {
            "n_edges": [n_edges],
            "n_wedges": [wedges],
            "n_triangles": [n_tri],
            "coeff_num": [3 * n_tri],
            "coeff_den": [wedges],
        }
    ).astype("int64")
    out["clustering"] = np.float64(3 * n_tri) / np.float64(wedges)
    return out


KCORE_K = 80
KCORE_UNROLL = 8  # oracle unroll depth; the engine asserts fixpoint within it


@query(lambda o: o.copurchase_kcore(KCORE_K, KCORE_UNROLL))
def q_copurchase_kcore(sf_dir: str) -> pd.DataFrame:
    """k-CORE of the co-purchase graph (k=80): iterative peeling with
    DATA-DEPENDENT termination (ops/kcore.py — one keyed shuffle per
    round, one integer count to the driver per round; the alive set
    only shrinks, so count-unchanged == fixpoint). Returns the summary
    row (k, n_core, n_rounds); the mirror unrolls the same peel as a
    non-recursive CTE chain and recovers the round count from the
    first count-equal consecutive pair (valid because the peel sets
    are nested)."""
    edges = dedupe_edges(_copurchase_edges(sf_dir))
    core, rounds = k_core(edges, KCORE_K, "u", "v", max_rounds=KCORE_UNROLL)
    if rounds >= KCORE_UNROLL:
        raise RuntimeError("q_copurchase_kcore: peel depth exceeded the oracle unroll")
    return pd.DataFrame(
        {"k": [KCORE_K], "n_core": [rio.num_rows(core)], "n_rounds": [rounds]}
    ).astype("int64")


@query(lambda o: o.split_contamination())
def q_split_contamination(sf_dir: str) -> pd.DataFrame:
    """TRAIN/TEST CONTAMINATION check: documents whose 32-char OPENING
    matches a training document's opening across the deterministic
    80/10/10 split (the exact-content variant is this with the full-
    text fingerprint; the synthetic corpus has shared openings at
    every scale but no full duplicates below sf0.1, so the prefix
    variant keeps the check non-degenerate). Composition of the
    fingerprint, deterministic_split and a fingerprint-bucket groupby
    (complete fingerprints per bucket, so the cross-split test runs
    in-stage). Reports, per non-train split, the distinct contaminated
    openings and affected documents — the numbers a training run must
    drive to zero. md5 fp + md5 split because both VALUES feed the
    oracle; production composes the vectorized twins. ASCII corpus:
    Arrow codeunit slicing == SQL character substr."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def prefix_fp(b: pa.Table) -> pa.Table:
        heads = pc.utf8_slice_codeunits(b["text"], 0, 32).to_pylist()
        fp = pa.array([hashlib.md5(h.encode()).hexdigest() for h in heads])
        return b.drop_columns(["text"]).append_column("fp", fp)

    ds = rio.materialize_blocks(ds, prefix_fp)
    ds = deterministic_split(ds, "doc_id", [("train", 8, 10), ("val", 9, 10)], "test", "md5")

    def leaks(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["fp", "split"]].drop_duplicates()
        tr = set(d.loc[d["split"] == "train", "fp"])
        rows = []
        for s in ("val", "test"):
            fps = set(d.loc[d["split"] == s, "fp"]) & tr
            if fps:
                n_docs = int(((g["split"] == s) & g["fp"].isin(fps)).sum())
                rows.append({"split": s, "n_contaminated_fps": len(fps), "n_docs": n_docs})
        if not rows:
            return pd.DataFrame(
                {
                    "split": pd.Series(dtype=object),
                    "n_contaminated_fps": pd.Series(dtype="int64"),
                    "n_docs": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(rows)

    parts = rio.reduce_by_key(
        ds, ["fp"], rio.on_pandas(leaks), stage=lambda b: b.select(["fp", "split"])
    )
    parts = rio.blocks_table(parts).to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "split": pd.Series(dtype=object),
                "n_contaminated_fps": pd.Series(dtype="int64"),
                "n_docs": pd.Series(dtype="int64"),
            }
        )
    out = parts.groupby("split", as_index=False).agg(
        n_contaminated_fps=("n_contaminated_fps", "sum"), n_docs=("n_docs", "sum")
    )
    out = out.astype({"n_contaminated_fps": "int64", "n_docs": "int64"})
    return out.sort_values("split").reset_index(drop=True)


@query(lambda o: o.copurchase_assortativity())
def q_copurchase_assortativity(sf_dir: str) -> pd.DataFrame:
    """DEGREE ASSORTATIVITY of the co-purchase graph: Pearson r of
    (deg_u, deg_v) over the directed edge list, published as the EXACT
    int64 sufficient statistics (m, sx, sxx, sxy — symmetric, so
    sy=sx, syy=sxx — so the sqrt cancels and r reduces to
    (m*sxy - sx^2)/(m*sxx - sx^2)) plus r as ONE IEEE division of the
    exact ints (int->double casts exact below 2^53). Degrees attach
    under the triangles-convention broadcast gate; above the gate the
    degree exchange of ops/triangles.triangle_count is the shape."""
    e = dedupe_edges(_copurchase_edges(sf_dir))

    def deg_partial(b: pa.Table) -> pa.Table:
        n = np.concatenate(
            [
                b["u"].to_numpy(zero_copy_only=False),
                b["v"].to_numpy(zero_copy_only=False),
            ]
        )
        nodes, cnt = np.unique(n, return_counts=True)
        return pa.table({"node": nodes, "d_p": cnt.astype(np.int64)})

    degs = rio.map_blocks(e, deg_partial).to_pandas().groupby("node")["d_p"].sum()

    nodes_ref = ray.put(np.sort(degs.index.to_numpy(dtype=np.int64)))
    deg_ref = ray.put(degs.sort_index().to_numpy(dtype=np.int64))

    def sums(b: pa.Table) -> pa.Table:
        nd, dg = ray.get(nodes_ref), ray.get(deg_ref)
        du = dg[np.searchsorted(nd, b["u"].to_numpy(zero_copy_only=False))]
        dv = dg[np.searchsorted(nd, b["v"].to_numpy(zero_copy_only=False))]
        # directed edge list = both orientations: symmetric sums
        sx = int(du.sum() + dv.sum())
        sxx = int((du * du).sum() + (dv * dv).sum())
        sxy = int(2 * (du * dv).sum())
        return pa.table(
            {
                "m_p": pa.array([2 * len(b)], type=pa.int64()),
                "sx_p": pa.array([sx], type=pa.int64()),
                "sxx_p": pa.array([sxx], type=pa.int64()),
                "sxy_p": pa.array([sxy], type=pa.int64()),
            }
        )

    parts = rio.map_blocks(e, sums).to_pandas()
    m = int(parts["m_p"].sum())
    sx = int(parts["sx_p"].sum())
    sxx = int(parts["sxx_p"].sum())
    sxy = int(parts["sxy_p"].sum())
    num = m * sxy - sx * sx
    den = m * sxx - sx * sx
    out = pd.DataFrame(
        {"m": [m], "sx": [sx], "sxx": [sxx], "sxy": [sxy],
         "r_num": [num], "r_den": [den]}
    ).astype("int64")
    out["assortativity"] = np.float64(num) / np.float64(den)
    return out


@query(lambda o: o.entity_sinuosity())
def q_entity_sinuosity(sf_dir: str) -> pd.DataFrame:
    """Per-entity TRAJECTORY SINUOSITY: path length over displacement
    for every entity that moved — path = sum of per-pair equirect
    floor-micrometer segment lengths over consecutive VISIBLE versions
    (exact int sum, order-free; the Geo.java:37-45 formula in the
    way_lengths op order), displacement = the same metric first->last,
    ratio = ONE IEEE division. ZERO shuffle: a document's versions
    decode into one batch, so the whole trajectory folds in-stage."""
    def stage(batch: pa.Table) -> pa.Table:
        t = decode_spans(batch)
        df = pd.DataFrame(
            {
                "osm_id": t["osm_id"].to_numpy(zero_copy_only=False),
                "v": t["v"].to_numpy(zero_copy_only=False),
                "visible": t["visible"].to_numpy(zero_copy_only=False),
                "lon": t["lon_e7"].to_numpy(zero_copy_only=False),
                "lat": t["lat_e7"].to_numpy(zero_copy_only=False),
            }
        )
        df = df[df["visible"]].sort_values(["osm_id", "v"], kind="mergesort")
        if df.empty:
            return pa.table(
                {
                    "osm_id": pa.array([], type=pa.int64()),
                    "n_moves": pa.array([], type=pa.int64()),
                    "path_um": pa.array([], type=pa.int64()),
                    "disp_um": pa.array([], type=pa.int64()),
                    "sinuosity": pa.array([], type=pa.float64()),
                }
            )
        same = df["osm_id"].to_numpy()[1:] == df["osm_id"].to_numpy()[:-1]
        lo1 = df["lon"].to_numpy()[:-1][same] / 1e7
        la1 = df["lat"].to_numpy()[:-1][same] / 1e7
        lo2 = df["lon"].to_numpy()[1:][same] / 1e7
        la2 = df["lat"].to_numpy()[1:][same] / 1e7
        seg = np.floor(distance_equirectangular(la1, lo1, la2, lo2) * 1e6).astype(np.int64)
        oid = df["osm_id"].to_numpy()[1:][same]
        g = pd.DataFrame({"osm_id": oid, "seg": seg}).groupby("osm_id", as_index=False)
        agg = g.agg(n_moves=("seg", "size"), path_um=("seg", "sum"))
        ends = df.groupby("osm_id", as_index=False).agg(
            lon0=("lon", "first"), lat0=("lat", "first"),
            lon1=("lon", "last"), lat1=("lat", "last"),
        )
        out = agg.merge(ends, on="osm_id")
        disp = np.floor(
            distance_equirectangular(
                out["lat0"].to_numpy() / 1e7, out["lon0"].to_numpy() / 1e7,
                out["lat1"].to_numpy() / 1e7, out["lon1"].to_numpy() / 1e7,
            )
            * 1e6
        ).astype(np.int64)
        out["disp_um"] = disp
        out = out[out["disp_um"] > 0]
        out["sinuosity"] = out["path_um"].to_numpy(dtype=np.int64).astype(
            np.float64
        ) / out["disp_um"].to_numpy(dtype=np.int64).astype(np.float64)
        return pa.Table.from_pandas(
            out[["osm_id", "n_moves", "path_um", "disp_um", "sinuosity"]],
            preserve_index=False,
        )

    df = rio.map_blocks(_docs(sf_dir), stage).to_pandas()
    df = df.astype(
        {"osm_id": "int64", "n_moves": "int64", "path_um": "int64", "disp_um": "int64"}
    )
    return df.sort_values("osm_id").reset_index(drop=True)


@query(lambda o: o.user_value_ewma())
def q_user_value_ewma(sf_dir: str) -> pd.DataFrame:
    """Per-user integer EWMA of event cents in exact (ts, event_id)
    order — the NON-ASSOCIATIVE recurrence s_t = (s_{t-1} + v_t) // 2
    (ops/scan.py grouped_recurrence_ewma_int: complete-keys bucket
    shuffle, scan vectorized ACROSS keys per step). The mirror is the
    identical recurrence as a recursive CTE."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "value_c")
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "t": b["ts"].cast(pa.int64()),
                "event_id": b["event_id"].cast(pa.int64()),
                "value_c": b["value_c"],
            }
        )

    out = grouped_recurrence_ewma_int(
        rio.materialize_blocks(ev, prep),
        "user_id",
        ["t", "event_id"],
        "value_c",
    ).to_pandas()
    out = out.astype({"user_id": "int64", "n": "int64", "ewma_c": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.snapshot_diameter_by_type())
def q_snapshot_diameter_by_type(sf_dir: str) -> pd.DataFrame:
    """FARTHEST PAIR (diameter) of each event type's T_MID snapshot
    positions (osm_id % 5 subset): the diameter endpoints of a point
    set lie on its convex hull, so the combiner-shaped hull reduction
    (spatial/hull.py) shrinks each group to a handful of vertices and
    the exact argmax runs over |hull|^2 Python-int pairs — squared e7
    distances need 65 bits, so the comparison stays in unbounded ints
    (and the published columns are the int64-safe |dx|, |dy|). Tie
    rule: smallest (id_a, id_b). The mirror is the subset self-join
    argmax through HUGEINT."""
    lookup = _tag_lookup(sf_dir)

    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["etype", "osm_id", "lon_e7", "lat_e7"], lookup)
        ids = s["osm_id"].to_numpy(zero_copy_only=False)
        keep = ids % 5 == 0
        return pa.table(
            {
                "etype": pa.array(s["etype"].to_numpy(zero_copy_only=False)[keep]),
                "osm_id": ids[keep],
                "lon_e7": s["lon_e7"].to_numpy(zero_copy_only=False)[keep],
                "lat_e7": s["lat_e7"].to_numpy(zero_copy_only=False)[keep],
            }
        )

    pts = rio.materialize_blocks(_docs(sf_dir), stage)
    hull = grouped_convex_hull(pts, "etype", "osm_id", "lon_e7", "lat_e7")
    rows = []
    for etype, g in hull.groupby("etype"):
        ids = g["osm_id"].to_numpy(dtype=np.int64)
        xs = g["lon_e7"].to_numpy(dtype=np.int64)
        ys = g["lat_e7"].to_numpy(dtype=np.int64)
        best = None
        for i in range(len(ids)):
            for j in range(len(ids)):
                if ids[i] >= ids[j]:
                    continue
                d2 = (int(xs[i]) - int(xs[j])) ** 2 + (int(ys[i]) - int(ys[j])) ** 2
                key = (-d2, int(ids[i]), int(ids[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            continue  # fewer than 2 distinct hull points
        _, i, j = best
        rows.append(
            {
                "etype": etype,
                "id_a": int(ids[i]),
                "id_b": int(ids[j]),
                "adx": abs(int(xs[i]) - int(xs[j])),
                "ady": abs(int(ys[i]) - int(ys[j])),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"id_a": "int64", "id_b": "int64", "adx": "int64", "ady": "int64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


def _etype_day_grid(sf_dir: str) -> pd.DataFrame:
    """Shared (day, etype) count grid: one distributed partial pass,
    driver combine bounded by window span x type vocabulary. Used by
    the rank-movement and autocorrelation finals (their day
    derivation must stay identical)."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    stage = _event_partials(("day", "etype"))
    return combine_partials(rio.map_blocks(ev, stage), ["day", "etype"], {"n_part": "n"})


@query(lambda o: o.etype_rank_delta(T0, DAY_US))
def q_etype_rank_delta(sf_dir: str) -> pd.DataFrame:
    """Day-over-day RANK MOVEMENT: each event type's popularity rank
    within its day (count DESC, etype ASC — total order) and the
    delta vs its rank on the previous PRESENT day (lag semantics;
    first appearance reports 0). One distributed partial pass builds
    the |days x etypes| count grid; the rank/lag final runs on the
    driver over that grid — bounded by the window span times the type
    vocabulary, never the corpus (the combine_partials contract)."""
    base = _etype_day_grid(sf_dir)
    base = base.sort_values(["day", "etype"]).reset_index(drop=True)
    # rank within day by (n desc, etype asc); row_number semantics
    base["rnk"] = (
        base.sort_values(["day", "n", "etype"], ascending=[True, False, True])
        .groupby("day")
        .cumcount()
        .add(1)
        .sort_index()
    )
    prev = base.sort_values("day").groupby("etype")["rnk"].shift(1)
    base["rank_delta"] = (prev - base["rnk"]).fillna(0)
    out = base.astype(
        {"day": "int64", "n": "int64", "rnk": "int64", "rank_delta": "int64"}
    )
    return out.sort_values(["day", "etype"]).reset_index(drop=True)


@query(lambda o: o.etype_daily_autocorr(T0, DAY_US))
def q_etype_daily_autocorr(sf_dir: str) -> pd.DataFrame:
    """Lag-1 AUTOCORRELATION of each event type's daily count series —
    the time-series persistence diagnostic. One distributed partial
    pass builds the |days x etypes| count grid; the driver forms
    (x_t, x_{t+1}) pairs over the type's PRESENT days (lead
    semantics) and computes Pearson r from EXACT integer sufficient
    statistics in Python ints — the only floats are the final
    cast / multiply / sqrt / divide, each a single IEEE op mirrored
    verbatim in SQL."""
    base = _etype_day_grid(sf_dir).sort_values(["etype", "day"])
    rows = []
    for et, g in base.groupby("etype"):
        cnt = [int(c) for c in g["n"]]
        x, y = cnt[:-1], cnt[1:]
        n = len(x)
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx, syy = sum(a * a for a in x), sum(b * b for b in y)
        num = n * sxy - sx * sy
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        if vx == 0 or vy == 0:
            raise ValueError(f"autocorr: zero-variance daily series for {et!r}")
        if not (-(2**63) < num < 2**63):
            raise OverflowError("autocorr numerator exceeds int64")
        rows.append(
            {
                "etype": et,
                "n_pairs": n,
                "num": num,
                "autocorr": np.float64(num)
                / np.sqrt(np.float64(vx) * np.float64(vy)),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_pairs": "int64", "num": "int64", "autocorr": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


ZSCORE_K = 2  # anomaly threshold: |z| > 2 population standard deviations


@query(lambda o: o.anomalous_days_by_type(T0, DAY_US, ZSCORE_K))
def q_anomalous_days_by_type(sf_dir: str) -> pd.DataFrame:
    """Anomaly detection WITHOUT floats: days whose count deviates
    more than ZSCORE_K population standard deviations from the type's
    daily mean. The z test is cross-multiplied into pure integers —
    z^2 > K^2 is EXACTLY (n*T - S)^2 > K^2 * (T*Sxx - S^2) with
    T = #days, S = sum, Sxx = sum of squares — so there is no float
    threshold to disagree on, ever (the same trick as above_user_mean
    pushed to second moments). One distributed partial pass; the flag
    final runs on the grid in Python ints."""
    base = _etype_day_grid(sf_dir)
    rows = []
    for et, g in base.groupby("etype"):
        n = [int(x) for x in g["n"]]
        t = len(n)
        s = sum(n)
        sxx = sum(x * x for x in n)
        var_num = t * sxx - s * s  # T^2 * population variance
        for day, x in zip(g["day"], n):
            dev = x * t - s
            if dev * dev > ZSCORE_K * ZSCORE_K * var_num:
                rows.append({"etype": et, "day": int(day), "n": x})
    if not rows:
        return pd.DataFrame(
            {
                "etype": pd.Series(dtype=object),
                "day": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
            }
        )
    out = pd.DataFrame(rows).astype({"day": "int64", "n": "int64"})
    return out.sort_values(["etype", "day"]).reset_index(drop=True)


@query(lambda o: o.etype_share_by_day(T0, DAY_US))
def q_etype_share_by_day(sf_dir: str) -> pd.DataFrame:
    """RATIO_TO_REPORT: each event type's share of its day's events —
    per-(day, etype) counts and per-day totals from ONE partial pass,
    the share as ONE IEEE division of exact ints. The window-function
    mirror divides by sum(n) OVER (PARTITION BY day)."""
    base = _etype_day_grid(sf_dir)
    tot = base.groupby("day")["n"].transform("sum")
    out = base.copy()
    out["day_total"] = tot.astype(np.int64)
    out["share"] = out["n"].to_numpy(dtype=np.int64).astype(np.float64) / out[
        "day_total"
    ].to_numpy(dtype=np.int64).astype(np.float64)
    out = out.astype({"day": "int64", "n": "int64", "day_total": "int64"})
    return out.sort_values(["day", "etype"]).reset_index(drop=True)


BFS_HOPS = 4
BFS_SEED_MOD = 97
SSSP_ROUNDS = 4
SSSP_SEED_MOD = 101


def _copurchase_weighted_edges(sf_dir: str) -> rio.Blocks:
    """Canonical co-purchase pairs weighted by their DISTINCT co-order
    count (how many orders contain both parts): one pair-hash bucket
    shuffle completes each pair's count in its bucket (a pair's
    occurrences across orders all land together), the dedupe_edges
    shape with a size() instead of a drop_duplicates()."""
    raw = _copurchase_edges(sf_dir)  # src < dst, one row per (order, pair)

    def count(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["src", "dst"], sort=False).size()
        idx = m.index.to_frame(index=False)
        return pd.DataFrame(
            {
                "src": idx["src"].to_numpy(dtype=np.int64),
                "dst": idx["dst"].to_numpy(dtype=np.int64),
                "w": m.to_numpy(dtype=np.int64),
            }
        )

    return rio.reduce_by_key(raw, ["src", "dst"], rio.on_pandas(count))


@query(lambda o: o.copurchase_cheapest_paths(SSSP_SEED_MOD, SSSP_ROUNDS))
def q_copurchase_cheapest_paths(sf_dir: str) -> pd.DataFrame:
    """Bounded-round WEIGHTED shortest paths (Bellman-Ford) over the
    co-purchase graph: the exact cheapest <=4-edge path cost from the
    seed set (part_id % 101 == 0) where an edge costs its distinct
    co-order count — ops/sssp.py relaxation message rounds (one
    keyed shuffle per round, int64 costs and a finite 2^62
    "unreached" sentinel; gated broadcast fast path, message rounds
    pinned equal in pytest). The mirror unrolls the same relaxation
    as MATERIALIZED CTE levels with least()+min() joins."""
    edges = _copurchase_weighted_edges(sf_dir)
    df = sssp_int(
        edges, lambda n: n % SSSP_SEED_MOD == 0, SSSP_ROUNDS
    )
    df = df.rename(columns={"node": "part_id"}).astype(
        {"part_id": "int64", "dist": "int64"}
    )
    return df.sort_values("part_id").reset_index(drop=True)


@query(lambda o: o.copurchase_bfs_hops(BFS_SEED_MOD, BFS_HOPS))
def q_copurchase_bfs_hops(sf_dir: str) -> pd.DataFrame:
    """Multi-source BOUNDED-HOP BFS over the co-purchase graph: how
    many parts are first reached at each hop 0..4 from the seed set
    (part_id % 97 == 0) — frontier-expansion message rounds
    (ops/bfs.py, one keyed shuffle per round; gated broadcast fast path,
    message rounds pinned equal in pytest). The mirror unrolls the
    same expansion as MATERIALIZED CTE levels."""
    edges = dedupe_edges(_copurchase_edges(sf_dir))
    return bfs_hops(edges, lambda n: n % BFS_SEED_MOD == 0, BFS_HOPS, "u", "v")


@query(lambda o: o.copurchase_lcc())
def q_copurchase_lcc(sf_dir: str) -> pd.DataFrame:
    """LOCAL clustering coefficient per part: triangles through each
    node over C(deg, 2), as exact ints plus ONE IEEE division
    (ops/triangles.triangle_counts_per_node — the wedge close carries
    the source so every triangle credits its three corners). Nodes
    with deg < 2 are excluded (undefined denominator)."""
    df = triangle_counts_per_node(_copurchase_edges(sf_dir))
    df = df[df["deg"] >= 2].copy()
    df = df.rename(columns={"node": "part_id", "n_triangles": "lcc_num"})
    df["lcc_den"] = df["deg"].to_numpy(dtype=np.int64) * (
        df["deg"].to_numpy(dtype=np.int64) - 1
    ) // 2
    df["lcc"] = df["lcc_num"].to_numpy(dtype=np.int64).astype(np.float64) / df[
        "lcc_den"
    ].to_numpy(dtype=np.int64).astype(np.float64)
    df = df.astype({"part_id": "int64", "deg": "int64", "lcc_num": "int64", "lcc_den": "int64"})
    return df[["part_id", "deg", "lcc_num", "lcc_den", "lcc"]].sort_values(
        "part_id"
    ).reset_index(drop=True)


KMEANS_K = 4
KMEANS_ITERS = 3


@query(lambda o: o.snapshot_kmeans(KMEANS_K, KMEANS_ITERS))
def q_snapshot_kmeans(sf_dir: str) -> pd.DataFrame:
    """Exact-integer k-means (k=4, 3 Lloyd iterations) over entity
    positions at T_MID on the shifted //100 e7 grid (gx/gy in
    [0, 2^27) so squared spans stay int64-exact) — ops/kmeans.py
    broadcast-centroid passes: each round ray.put-ships the k x 2
    centroid ints, one map_batches pass emits k-row exact partials,
    the driver combines them in PYTHON ints. Init = the k
    smallest-osm_id points; ties assign to the lowest cluster; floor
    means. The mirror unrolls the identical rounds as MATERIALIZED
    CTE chains (row_number argmin + HUGEINT sums + the same //)."""
    def positions(batch: pa.Table) -> pa.Table:
        t = _positions(batch)
        lon = t["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = t["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "pid": t["osm_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                "gx": (lon + 1800000000) // 100,
                "gy": (lat + 900000000) // 100,
            }
        )

    pts = rio.materialize_blocks(_docs(sf_dir), positions)
    out = kmeans_int(pts, k=KMEANS_K, iters=KMEANS_ITERS)
    return out.sort_values("cluster").reset_index(drop=True)


RECT_CELL_E7 = 600_000_000  # PBSM cell side; >= max box side (560e6)
RECT_HALF_E7 = 40_000_000   # per-step half extent (deterministic per id)


@query(lambda o: o.snapshot_bbox_overlaps(RECT_HALF_E7, RECT_CELL_E7))
def q_snapshot_bbox_overlaps(sf_dir: str) -> pd.DataFrame:
    """Rectangle-intersection self-join: each visible entity at T_MID
    carries a deterministic closed box around its position (half
    extents (osm_id%7+1) x 40e6 lon, (osm_id%5+1) x 40e6 lat, planar
    e7 units); reports every intersecting pair with the intersection's
    lower-left corner and exact int64 area. Distributed as PBSM
    (spatial/rectjoin.py): <=2x2 cell replication, one bucket shuffle,
    reference-point dedup — no tie-break state, nothing quadratic in
    the corpus. The mirror is the prefiltered self-join over the
    identical snapshot CTE and box arithmetic."""
    def stage(batch: pa.Table) -> pa.Table:
        s = _positions(batch)
        oid = s["osm_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = s["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = s["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        rx = (oid % 7 + 1) * RECT_HALF_E7
        ry = (oid % 5 + 1) * RECT_HALF_E7
        return pa.table(
            {
                "id": oid,
                "lx": lon - rx,
                "ly": lat - ry,
                "hx": lon + rx,
                "hy": lat + ry,
            }
        )

    boxes = rio.materialize_blocks(_docs(sf_dir), stage)
    df = rect_self_join(boxes, RECT_CELL_E7).to_pandas()
    df = df.astype(
        {"id_a": "int64", "id_b": "int64", "ix": "int64", "iy": "int64", "area": "int64"}
    )
    return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Distribution-statistics family: entropy / Gini / cross-correlation /
# CUSUM change point / regex feature extraction. All four time-series
# finals run over the shared |days x etypes| grid (one distributed
# partial pass, combine_partials contract); Gini reduces the corpus to
# a (etype, count)-value histogram first. Float outputs obey the money
# rule: exact integer sufficient statistics, then at most single IEEE
# ops (cast / multiply / sqrt / divide), each mirrored verbatim in SQL.


def _q_mnat(x: int) -> int:
    """Quantize ln(x) to integer MILLI-NATS with half-away rounding —
    the doc_lm_surprisal contract (math.log = glibc libm, bit-identical
    to DuckDB's ln(); round_half_away = SQL round())."""
    return int(round_half_away(np.array([1000.0 * math.log(x)]))[0])


@query(lambda o: o.etype_day_entropy(T0, DAY_US))
def q_etype_day_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-day Shannon ENTROPY of the event-type mix — the diversity
    diagnostic next to etype_share_by_day. H = ln(T) - (1/T) * sum_k
    c_k ln(c_k) becomes the EXACT integer numerator
    T*q(T) - sum_k c_k*q(c_k) with q = milli-nat quantization, so the
    sum is order-free; the only float is the final single IEEE
    division by T."""
    base = _etype_day_grid(sf_dir)
    rows = []
    for day, g in base.groupby("day"):
        c = [int(x) for x in g["n"]]
        t = sum(c)
        num = t * _q_mnat(t) - sum(ci * _q_mnat(ci) for ci in c)
        if not (-(2**63) < num < 2**63):
            raise OverflowError("entropy numerator exceeds int64")
        rows.append(
            {
                "day": int(day),
                "n_events": t,
                "num": num,
                "entropy_mnat": np.float64(num) / np.float64(t),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"day": "int64", "n_events": "int64", "num": "int64", "entropy_mnat": "float64"}
    )
    return out.sort_values("day").reset_index(drop=True)


@query(lambda o: o.etype_daily_crosscorr(T0, DAY_US))
def q_etype_daily_crosscorr(sf_dir: str) -> pd.DataFrame:
    """Pairwise Pearson CROSS-CORRELATION between event types' daily
    count series over their COMMON present days (inner-join
    semantics) — which signals move together. Grid pass as autocorr;
    the per-pair sufficient statistics are exact Python ints and the
    tail is the identical single-IEEE cast/multiply/sqrt/divide."""
    base = _etype_day_grid(sf_dir)
    series = {
        et: {int(d): int(n) for d, n in zip(g["day"], g["n"])}
        for et, g in base.groupby("etype")
    }
    rows = []
    for ea, eb in ((a, b) for a in sorted(series) for b in sorted(series) if a < b):
        days = sorted(set(series[ea]) & set(series[eb]))
        x = [series[ea][d] for d in days]
        y = [series[eb][d] for d in days]
        n = len(days)
        if n == 0:
            continue
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx, syy = sum(a * a for a in x), sum(b * b for b in y)
        num = n * sxy - sx * sy
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        if vx == 0 or vy == 0:
            raise ValueError(f"crosscorr: zero-variance series in pair {ea!r},{eb!r}")
        if not (-(2**63) < num < 2**63):
            raise OverflowError("crosscorr numerator exceeds int64")
        rows.append(
            {
                "etype_a": ea,
                "etype_b": eb,
                "n_days": n,
                "num": num,
                "crosscorr": np.float64(num)
                / np.sqrt(np.float64(vx) * np.float64(vy)),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_days": "int64", "num": "int64", "crosscorr": "float64"}
    )
    return out.sort_values(["etype_a", "etype_b"]).reset_index(drop=True)


@query(lambda o: o.etype_cusum_changepoint(T0, DAY_US))
def q_etype_cusum_changepoint(sf_dir: str) -> pd.DataFrame:
    """CUSUM change-point detection per event type — the day whose
    cumulative deviation from the series mean peaks. Cross-multiplied
    into PURE integers: the prefix sum of (T*x_i - S) over present
    days (T = #days, S = total) is T times the classic CUSUM, so the
    argmax day is identical and there is no float anywhere. Ties on
    |cusum| break to the EARLIEST day."""
    base = _etype_day_grid(sf_dir).sort_values(["etype", "day"])
    rows = []
    for et, g in base.groupby("etype"):
        days = [int(d) for d in g["day"]]
        cnt = [int(c) for c in g["n"]]
        t, s = len(cnt), sum(cnt)
        cus, best_day, best_abs = 0, days[0], -1
        for d, x in zip(days, cnt):
            cus += x * t - s
            if abs(cus) > best_abs:
                best_abs, best_day = abs(cus), d
        if not (0 <= best_abs < 2**63):
            raise OverflowError("cusum exceeds int64")
        rows.append(
            {"etype": et, "n_days": t, "chg_day": best_day, "cusum_abs": best_abs}
        )
    out = pd.DataFrame(rows).astype(
        {"n_days": "int64", "chg_day": "int64", "cusum_abs": "int64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


@query(lambda o: o.user_gini_by_etype())
def q_user_gini_by_etype(sf_dir: str) -> pd.DataFrame:
    """GINI COEFFICIENT of per-user activity concentration within each
    event type — the inequality metric over how unevenly a type's
    events spread across users. Shape: per-batch (etype, user) partial
    counts -> complete-user bucket shuffle (counts finalize in-stage)
    -> per-bucket VALUE-HISTOGRAM partials (etype, c) -> combine
    bounded by |etypes x distinct count values|, never the user
    corpus. The driver final walks each type's histogram in count
    order: rank-sum via the tie-block identity
    sum(i*c) = v*(m*B + m*(m+1)/2), then
    gini = (2*rank_sum - (n+1)*S) / (n*S) — exact integer numerator
    and denominator, ONE IEEE division. Tie order is irrelevant (equal
    values contribute the same rank-sum under any total order), which
    is what lets the SQL mirror use a bare row_number() ORDER BY c."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partials(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "uid": b["user_id"].to_numpy(zero_copy_only=False),
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["uid", "etype"], as_index=False).size()
        return pa.table(
            {
                "uid": g["uid"].to_numpy(),
                "etype": g["etype"].to_numpy(),
                "n_p": g["size"].to_numpy(dtype=np.int64),
            }
        )

    def hist(g: pd.DataFrame) -> pd.DataFrame:
        uc = g.groupby(["uid", "etype"], as_index=False)["n_p"].sum()
        h = uc.groupby(["etype", "n_p"], as_index=False).size()
        return pd.DataFrame(
            {
                "etype": h["etype"].to_numpy(),
                "c": h["n_p"].to_numpy(dtype=np.int64),
                "m_p": h["size"].to_numpy(dtype=np.int64),
            }
        )

    hists = rio.reduce_by_key(ev, ["uid"], rio.on_pandas(hist), stage=partials)
    base = combine_partials(rio.blocks_table(hists), ["etype", "c"], {"m_p": "m"})
    rows = []
    for et, g in base.sort_values(["etype", "c"]).groupby("etype"):
        n_users, total, rank_sum, b = 0, 0, 0, 0
        for v, m in zip((int(x) for x in g["c"]), (int(x) for x in g["m"])):
            rank_sum += v * (m * b + m * (m + 1) // 2)
            b += m
            n_users += m
            total += v * m
        num = 2 * rank_sum - (n_users + 1) * total
        den = n_users * total
        if not (0 <= num < 2**63 and 0 < den < 2**63):
            raise OverflowError("gini terms exceed int64")
        rows.append(
            {
                "etype": et,
                "n_users": n_users,
                "total": total,
                "gini_num": num,
                "gini": np.float64(num) / np.float64(den),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_users": "int64", "total": "int64", "gini_num": "int64", "gini": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


# RE2 patterns shared verbatim with the oracle's regexp_extract_all —
# both engines are RE2, leftmost non-overlapping scan.
PAT_S_WORD = "\\bs[a-z]+"  # tokens starting with s
PAT_E_END = "[a-z]+e\\b"  # alpha runs ending in e
PAT_TA = "ta"  # plain substring occurrences


def _pattern_counts(b: pa.Table) -> pa.Table:
    """Each document's source, its PAT_S_WORD, PAT_E_END and PAT_TA
    match counts, and whether it has an s-word."""
    c1 = pc.count_substring_regex(b["text"], PAT_S_WORD)
    return pa.table({
        "source": b["source"], "s_words": c1,
        "e_ends": pc.count_substring_regex(b["text"], PAT_E_END),
        "ta_hits": pc.count_substring_regex(b["text"], PAT_TA),
        "docs_with_s": pc.greater(c1, 0),
    })


@query(lambda o: o.doc_pattern_counts(PAT_S_WORD, PAT_E_END, PAT_TA))
def q_doc_pattern_counts(sf_dir: str) -> pd.DataFrame:
    """Regex FEATURE EXTRACTION over the document corpus: per source,
    total occurrence counts of three RE2 patterns plus the number of
    docs matching the first — the curation-signal shape (URL / PII /
    boilerplate counters) on the synthetic corpus. Fully vectorized:
    pyarrow.compute.count_substring_regex per batch (RE2, identical
    non-overlapping semantics to DuckDB's regexp_extract_all), partial
    sums per source in-stage, |sources| rows to the driver."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    cols = ("s_words", "e_ends", "ta_hits", "docs_with_s")
    stage = KeyedPartials(_pattern_counts, keys=("source",), sums=cols)
    return combine_partials(
        rio.map_blocks(docs, stage), ["source"],
        {"n_part": "n_docs", **{c + "_part": c for c in cols}},
    )


WSAMPLE_K = 200  # weighted-sample draw size


@query(lambda o: o.weighted_sample_docs(WSAMPLE_K))
def q_weighted_sample_docs(sf_dir: str) -> pd.DataFrame:
    """WEIGHTED corpus sampling — the quality-weighted curation draw:
    select WSAMPLE_K documents with probability proportional to
    n_chars via the Efraimidis-Spirakis exponential race
    (ops.relational.weighted_sample_topk, md5 twin path so every race
    key is bit-mirrorable in SQL: u = (md5_u32+1)/2^32, race =
    -ln(u)/w, scalar libm ln). Per-batch local top-k bounds the
    candidate stream at #blocks x k rows."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    out = weighted_sample_topk(
        docs, WSAMPLE_K, weight_col="n_chars", key_col="doc_id", hash_fn="md5"
    )
    out = out.astype({"doc_id": "int64", "n_chars": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


def _emb_moment_pivot(sf_dir: str) -> dict[tuple[int, int], int]:
    """Shared second-moment pass over the quantized embeddings: one
    distributed partial-Gram stage, combined to the exact integer
    pivot {(i,j): S_ij, (i,0): s_i, (0,0): n} that both the covariance
    query and the PCA power iteration consume."""
    ds = rio.read_resident(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partials(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "v_p": pa.array([], pa.int64()),
                }
            )
        flat = pc.list_flatten(b["embedding"]).to_numpy(zero_copy_only=False)
        dims = pc.list_value_length(b["embedding"]).to_numpy(zero_copy_only=False)
        if len(np.unique(dims)) > 1:
            raise ValueError("embedding_covariance: ragged embedding dims")
        d = int(dims[0])
        q = round_half_away(flat.astype(np.float64) * float(EMB_QUANT)).astype(
            np.int64
        ).reshape(len(b), d)
        ma = int(np.abs(q).max(initial=0))
        if len(b) * ma * ma >= 2**62:
            raise OverflowError("embedding_covariance: batch Gram exceeds int64")
        g = q.T @ q
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": np.concatenate(
                    [iu + 1, np.arange(1, d + 1), np.zeros(1, np.int64)]
                ).astype(np.int64),
                "j": np.concatenate(
                    [ju + 1, np.zeros(d, np.int64), np.zeros(1, np.int64)]
                ).astype(np.int64),
                "v_p": np.concatenate(
                    [g[iu, ju], q.sum(axis=0), [np.int64(len(b))]]
                ).astype(np.int64),
            }
        )

    base = combine_partials(
        rio.map_blocks(ds, partials), ["i", "j"], {"v_p": "v"}
    )
    return {
        (int(i), int(j)): int(v) for i, j, v in zip(base["i"], base["j"], base["v"])
    }


@query(lambda o: o.embedding_covariance(EMB_QUANT))
def q_embedding_covariance(sf_dir: str) -> pd.DataFrame:
    """Exact COVARIANCE MATRIX of the quantized embedding components —
    the PCA precursor over a vector column. Components quantize to
    integer milli-units first (the label_centroid_cosine contract), so
    each batch contributes one d x d integer Gram update (vectorized
    int64 matmul) plus column sums; partials combine on (i, j) —
    d*(d+1)/2 + d + 1 rows total, never the corpus. The population
    covariance (n*S_ij - s_i*s_j) / n^2 is an exact integer numerator
    and denominator with ONE IEEE division. Sentinel keys: (i, 0)
    carries column sum s_i, (0, 0) carries the row count."""
    piv = _emb_moment_pivot(sf_dir)
    n = piv[(0, 0)]
    d = max(i for i, _ in piv)
    rows = []
    for i in range(1, d + 1):
        si = piv[(i, 0)]
        for j in range(i, d + 1):
            sij = piv[(i, j)]
            num = n * sij - si * piv[(j, 0)]
            if not (-(2**63) < num < 2**63 and 0 < n * n < 2**63):
                raise OverflowError("embedding_covariance: terms exceed int64")
            rows.append(
                {
                    "dim_i": i,
                    "dim_j": j,
                    "n": n,
                    "s_ij": sij,
                    "cov_num": num,
                    "cov": np.float64(num) / np.float64(n * n),
                }
            )
    out = pd.DataFrame(rows).astype(
        {"dim_i": "int64", "dim_j": "int64", "n": "int64", "s_ij": "int64",
         "cov_num": "int64"}
    )
    return out.sort_values(["dim_i", "dim_j"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Ninth-session additions: PCA power iteration / per-user entropy /
# regex-replace redaction.


PCA_SCALE = 1 << 20  # fixed-point loading scale (2^20 milli-ish units)
PCA_ITERS = 96  # unrolled power-iteration rounds (l2/l1~0.93 at the
# sandbox spectrum needs ~90 rounds for a converged top component; the
# oracle CTE chain mirrors the count exactly, so correctness is
# iteration-exact at ANY count)


@query(lambda o: o.embedding_pca_top(EMB_QUANT, PCA_SCALE, PCA_ITERS))
def q_embedding_pca_top(sf_dir: str) -> pd.DataFrame:
    """TOP PRINCIPAL COMPONENT of the quantized embeddings by EXACT
    FIXED-POINT POWER ITERATION — the PCA terminal over the
    embedding_covariance base (reference analog: the aggregate-then-
    small-final shape of MapAggregator.java:848-869 finals). The
    distributed work is one partial-Gram pass (_emb_moment_pivot);
    the d x d covariance NUMERATORS n*S_ij - s_i*s_j are exact Python
    ints, and each iteration is matvec (exact integer sums, order-free)
    followed by renormalization v' = (w * SCALE) // max|w| — pure
    integer floor division, so ten rounds are bit-reproducible and the
    SQL oracle unrolls the identical recurrence in HUGEINT CTEs (the
    copurchase_pagerank contract, extended to signed operands via the
    explicit floor-division CASE). The only float is the final single
    IEEE division loading = v / SCALE."""
    piv = _emb_moment_pivot(sf_dir)
    n = piv[(0, 0)]
    d = max(i for i, _ in piv)
    if n <= 0 or d <= 0:
        raise ValueError("embedding_pca_top: empty embeddings corpus")
    num = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            num[(i, j)] = n * piv[(i, j)] - piv[(i, 0)] * piv[(j, 0)]
    cmat = [
        [num[(min(i, j), max(i, j))] for j in range(1, d + 1)]
        for i in range(1, d + 1)
    ]
    maxnum = max((abs(x) for row in cmat for x in row), default=0)
    # HUGEINT mirror bound: |w_i| <= d * max|num| * SCALE, and the
    # renormalization multiplies by SCALE once more before dividing
    if d * maxnum * PCA_SCALE * PCA_SCALE >= 2**126:
        raise OverflowError("embedding_pca_top: iteration exceeds HUGEINT")
    v = [PCA_SCALE] * d
    for _ in range(PCA_ITERS):
        w = [sum(ci * vj for ci, vj in zip(row, v)) for row in cmat]
        m = max(abs(x) for x in w)
        if m == 0:
            raise ValueError("embedding_pca_top: zero covariance matvec")
        v = [(x * PCA_SCALE) // m for x in w]
    out = pd.DataFrame(
        {
            "dim": np.arange(1, d + 1, dtype=np.int64),
            "v_fp": np.asarray(v, dtype=np.int64),
            "loading": np.asarray(
                [np.float64(x) / np.float64(PCA_SCALE) for x in v], dtype=np.float64
            ),
        }
    )
    return out.sort_values("dim").reset_index(drop=True)


@query(lambda o: o.user_entropy())
def q_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-USER Shannon entropy of the event-type mix — the behavioral
    diversity profile at corpus cardinality (the per-day twin is
    etype_day_entropy). uid is a _HIGH_CARD_KEYS-class key, so counts
    stay distributed: per-batch (uid, etype) partial counts -> one
    complete-user bucket shuffle -> per-bucket finals (counts sum,
    the milli-nat LUT builds over the bucket's distinct count values
    only, math.log = the oracle's ln). The integer numerator
    T*q(T) - sum c*q(c) is order-free; the single IEEE division by T
    is the only float."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partials(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(zero_copy_only=False),
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["user_id", "etype"], as_index=False).size()
        return pa.table(
            {
                "user_id": g["user_id"].to_numpy(),
                "etype": g["etype"].to_numpy(),
                "n_p": g["size"].to_numpy(dtype=np.int64),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        uc = g.groupby(["user_id", "etype"], as_index=False)["n_p"].sum()
        t = uc.groupby("user_id")["n_p"].sum()
        lut = {
            int(x): _q_mnat(int(x))
            for x in np.unique(
                np.concatenate([uc["n_p"].to_numpy(), t.to_numpy()])
            )
        }
        s = uc.assign(
            term=[int(c) * lut[int(c)] for c in uc["n_p"]]
        ).groupby("user_id")["term"].sum()
        rows = []
        for uid in t.index:
            ti, si = int(t[uid]), int(s[uid])
            numer = ti * lut[ti] - si
            if not (-(2**63) < numer < 2**63):
                raise OverflowError("user_entropy: numerator exceeds int64")
            rows.append(
                {
                    "user_id": int(uid),
                    "n_events": ti,
                    "num": numer,
                    "entropy_mnat": np.float64(numer) / np.float64(ti),
                }
            )
        cols = ["user_id", "n_events", "num", "entropy_mnat"]
        return pd.DataFrame(rows, columns=cols).astype(
            {
                "user_id": "int64",
                "n_events": "int64",
                "num": "int64",
                "entropy_mnat": "float64",
            }
        )

    out = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(final), stage=partials)
    df = rio.blocks_table(out).to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


RED_PAT = r"\b(customer|key|table)\b"  # denylist-word redaction pattern (RE2)
RED_TOKEN = "<PII>"
RED_RATE = (1, 8)  # deterministic md5 doc sample carried to the oracle


@query(lambda o: o.doc_redaction(RED_PAT, RED_TOKEN, *RED_RATE))
def q_doc_redaction(sf_dir: str) -> pd.DataFrame:
    """REGEX-REPLACE REDACTION over the document corpus — the
    PII-scrub stage of a curation pipeline, verified byte-for-byte:
    a deterministic md5 1/8 sample of docs (resume-stable, the
    sample_docs contract) is redacted with ONE vectorized RE2 pass
    (pyarrow.compute.replace_substring_regex == DuckDB
    regexp_replace(..., 'g'): same engine, same leftmost
    non-overlapping semantics — parity smoke-tested in
    tests/test_ops.py), and the value-hash compare pins the full
    redacted text plus hit counts and before/after lengths. The stage
    is a streaming filter + map_batches; at production scale it
    terminates in write_parquet, the driver collect is the
    oracle-compare convention."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sampled = deterministic_sample(docs, RED_RATE[0], RED_RATE[1], "doc_id", hash_fn="md5")

    def stage(b: pa.Table) -> pa.Table:
        red = pc.replace_substring_regex(
            b["text"], pattern=RED_PAT, replacement=RED_TOKEN
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_redacted": pc.count_substring_regex(b["text"], RED_PAT).cast(
                    pa.int64()
                ),
                "len_before": pc.utf8_length(b["text"]).cast(pa.int64()),
                "len_after": pc.utf8_length(red).cast(pa.int64()),
                "text_redacted": red,
            }
        )

    df = rio.map_blocks(sampled, stage).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)



def _version_hexes(batch: pa.Table, lookup: pa.Table | None = None) -> pa.Table:
    """The hex lattice cell (i, j) of every version, and with a tag
    ``lookup`` its ``etype``."""
    d = decode_spans(batch, lookup)
    i, j = hex_cell(
        d["lon_e7"].to_numpy(zero_copy_only=False), d["lat_e7"].to_numpy(zero_copy_only=False)
    )
    t = pa.table({"i": i, "j": j})
    return t if lookup is None else t.append_column("etype", d["etype"])


def _hex_version_counts(sf_dir: str) -> pd.DataFrame:
    """Shared partial producer: ENTITY-VERSION counts per hex cell
    (i, j) — one fused decode -> hex_cell -> per-batch groupby-count,
    combined on the bounded world-lattice key. Consumed by the
    Gi* / Moran's I hotspot finals."""
    stage = KeyedPartials(_version_hexes, keys=("i", "j"))
    return combine_partials(rio.map_blocks(_docs(sf_dir), stage), ["i", "j"], {"n_part": "n"})


def _hex_snapshot_cube(sf_dir: str, timestamps) -> pd.DataFrame:
    """Shared partial producer: SNAPSHOT counts per (ts_q, packed hex
    cell) — the space-time-cube base consumed by the weekly cube,
    emerging-hotspot and churn finals."""
    stage, keys = snapshot_counts_stage(timestamps, cell=hex_id)
    return combine_partials(rio.map_blocks(_docs(sf_dir), stage), keys, {"n_part": "n"})


@query(lambda o: o.snapshot_count_by_hexcell(HEX_W, HEX_H))
def q_snapshot_count_by_hexcell(sf_dir: str) -> pd.DataFrame:
    """Snapshot count at T_MID grouped by HEXAGONAL GRID CELL
    (spatial/hexgrid.py: exact nearest-center assignment on an integer
    hex lattice — the planar H3-style partition key beside the S2-style
    one). The engine groups by the PACKED int64 cell id (the key a
    cluster would shuffle on) and decodes (i, j) back for output, so
    the oracle — which re-derives the 4-candidate argmin in pure
    integer SQL with the identical (d2, i, j) tie-break — transitively
    value-checks the pack/unpack bijection too. No floats anywhere in
    the assignment."""
    stage, _ = snapshot_counts_stage([T_MID], cell=hex_id)
    partials = rio.map_blocks(_docs(sf_dir), stage)
    df = combine_partials(partials, ["cell"], {"n_part": "n_snapshots"})
    i, j = unpack_hex(df["cell"].to_numpy(dtype=np.int64))
    out = pd.DataFrame(
        {"hex_i": i, "hex_j": j, "n_snapshots": df["n_snapshots"].astype("int64")}
    )
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


ROAD_CLASS_MOD = 16  # "road class" proxy: ways with id % 16 == 0 form the layer



def _road_segment_layer(sf_dir: str):
    """Shared reference-layer build for the proximity queries:
    materialized T_MID positions plus the class-filtered way segments
    (way u = node/u -> node/(u+1), u % ROAD_CLASS_MOD == 0) joined via
    the co-partitioned hash join. Returns (pos Dataset, seg DataFrame)
    — seg is the bounded broadcast side."""

    pos = rio.materialize_blocks(_docs(sf_dir), _positions)

    def as_left(batch: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(batch["osm_id"], ROAD_CLASS_MOD - 1), 0)
        b = batch.filter(keep)
        return pa.table({"join_k": b["osm_id"], "ax": b["lon_e7"], "ay": b["lat_e7"]})

    def as_right(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "join_k": pc.subtract(batch["osm_id"], 1),
                "bx": batch["lon_e7"],
                "by": batch["lat_e7"],
            }
        )

    seg = hash_join(
        rio.materialize_blocks(pos, as_left),
        rio.materialize_blocks(pos, as_right),
        on="join_k",
    ).to_pandas()
    return pos, seg


@query(lambda o: o.nearest_road_distance(ROAD_CLASS_MOD))
def q_nearest_road_distance(sf_dir: str) -> pd.DataFrame:
    """PROXIMITY ANALYSIS: for every node visible at T_MID, the exact
    nearest SEGMENT of the class-filtered way layer (synthetic way u =
    node/u -> node/(u+1), layer = u % ROAD_CLASS_MOD == 0 — the
    'distance to nearest highway' shape, reference geometry analog
    Geo.java:37-60 neighborhoods). The reference layer is SMALL BY
    CONSTRUCTION (a selected feature class), so it is captured in the
    stage, which ships once per query; a dense layer at 10^12 rows would instead ride the knn_queries halo join
    (spatial/knn.py:792). Distance math is the knn contract: integer
    coordinate diffs cast exactly to float64, then an op-for-op IEEE
    expression tree (mul/add/div per branch of the point-to-segment
    projection) mirrored literally in SQL, so d2 is bit-identical in
    both engines and the (d2, seg) argmin agrees exactly; segments
    incident to the node itself are excluded."""
    pos, seg = _road_segment_layer(sf_dir)
    if seg.empty:
        return pd.DataFrame(
            {
                "osm_id": pd.Series([], dtype="int64"),
                "nearest_seg": pd.Series([], dtype="int64"),
                "d2": pd.Series([], dtype="float64"),
                "dist_deg7": pd.Series([], dtype="float64"),
            }
        )

    # segment arrays are tiny (class-filtered layer): closure capture
    # ships them with the stage, once per query
    sid = seg["join_k"].to_numpy(dtype=np.int64)
    sax = seg["ax"].to_numpy(dtype=np.int64)
    say = seg["ay"].to_numpy(dtype=np.int64)
    sbx = seg["bx"].to_numpy(dtype=np.int64)
    sby = seg["by"].to_numpy(dtype=np.int64)

    def nearest_stage(batch: pa.Table) -> pa.Table:
        pid = batch["osm_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        px = batch["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        py = batch["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_id, out_seg, out_d2 = [], [], []
        CH = 256  # point chunk: CH x |seg| float panels stay < ~30 MB
        for s0 in range(0, len(pid), CH):
            ids = pid[s0 : s0 + CH]
            d2 = point_segment_d2(
                px[s0 : s0 + CH, None],
                py[s0 : s0 + CH, None],
                sax[None, :],
                say[None, :],
                sbx[None, :],
                sby[None, :],
            )
            # exclude segments incident to the point itself
            excl = (sid[None, :] == ids[:, None]) | (
                sid[None, :] == ids[:, None] - 1
            )
            d2 = np.where(excl, np.inf, d2)
            k = np.lexsort((np.broadcast_to(sid[None, :], d2.shape), d2), axis=1)[:, 0]
            rr = np.arange(len(ids))
            keep = np.isfinite(d2[rr, k])
            out_id.append(ids[keep])
            out_seg.append(sid[k][keep])
            out_d2.append(d2[rr, k][keep])
        oid = np.concatenate(out_id) if out_id else np.array([], np.int64)
        osg = np.concatenate(out_seg) if out_seg else np.array([], np.int64)
        od2 = np.concatenate(out_d2) if out_d2 else np.array([], np.float64)
        return pa.table(
            {
                "osm_id": pa.array(oid, pa.int64()),
                "nearest_seg": pa.array(osg, pa.int64()),
                "d2": pa.array(od2, pa.float64()),
                "dist_deg7": pa.array(np.sqrt(od2), pa.float64()),
            }
        )

    df = rio.map_blocks(pos, nearest_stage).to_pandas()
    return df.sort_values("osm_id").reset_index(drop=True)


@query(lambda o: o.hexcell_weekly(HEX_W, HEX_H))
def q_hexcell_weekly(sf_dir: str) -> pd.DataFrame:
    """SPACE-TIME CUBE: snapshot counts on the combined (week, hex
    cell) index — the chained-aggregateBy shape (OSHDBCombinedIndex)
    over the H3-style key. One fused stage interpolates all five
    weekly snapshots and hex-assigns them; the hex lattice is a FIXED
    WORLD GRID (<= ~300k cells at HEX_W=0.25deg), so (ts, cell) is a
    genuinely bounded key and the partials combine applies."""
    df = _hex_snapshot_cube(sf_dir, SNAP_WEEKLY)
    i, j = unpack_hex(df["cell"].to_numpy(dtype=np.int64))
    out = pd.DataFrame(
        {
            "ts_q": df["ts_q"].astype("int64"),
            "hex_i": i,
            "hex_j": j,
            "n": df["n"].astype("int64"),
        }
    )
    return out.sort_values(["ts_q", "hex_i", "hex_j"]).reset_index(drop=True)


HEX_GI_W = 7  # Gi* neighborhood weight mass: self + the 6 lattice neighbors


@query(lambda o: o.hex_hotspot_gi(HEX_W, HEX_H, HEX_GI_W))
def q_hex_hotspot_gi(sf_dir: str) -> pd.DataFrame:
    """GETIS-ORD Gi* HOTSPOT ANALYSIS over the hex lattice: x_cell =
    number of ENTITY VERSIONS (edit intensity) per hex cell over the
    whole history; for every occupied cell the neighborhood sum is
    x(self) + x(6 lattice neighbors: +-a, +-b, +-(a-b) -> offsets
    (+-1,0),(0,+-1),(1,-1),(-1,1), absent cells contribute 0). The
    z-score derives from EXACT integer sufficient statistics (N
    occupied cells, S1 = sum x, S2 = sum x^2, neighborhood sums), with
    a float tail of four single IEEE ops (mul, div, sqrt, div)
    mirrored literally in SQL. Distributed shape: per-batch cell-count
    partials -> combine bounded by the FIXED lattice size (~300k cells
    world-wide at 0.25deg), driver walks |cells| with 7 dict lookups
    each. Skew note: the corpus has a 20%-mass mega-cell — the
    hotspot this query exists to score."""
    base = _hex_version_counts(sf_dir)
    cells = {
        (int(i), int(j)): int(n) for i, j, n in zip(base["i"], base["j"], base["n"])
    }
    n_cells = len(cells)
    if n_cells <= HEX_GI_W:
        raise ValueError("hex_hotspot_gi: needs more occupied cells than W")
    s1 = sum(cells.values())
    s2 = sum(v * v for v in cells.values())
    varnum = n_cells * s2 - s1 * s1
    if varnum == 0:
        raise ValueError("hex_hotspot_gi: zero variance across cells")
    offs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    rows = []
    for (i, j), x in cells.items():
        nbr = x + sum(cells.get((i + di, j + dj), 0) for di, dj in offs)
        num = n_cells * nbr - HEX_GI_W * s1
        if not (-(2**63) < num < 2**63 and 0 < varnum < 2**63):
            raise OverflowError("hex_hotspot_gi: statistic exceeds int64")
        den = np.sqrt(
            np.float64(HEX_GI_W * (n_cells - HEX_GI_W))
            * np.float64(varnum)
            / np.float64(n_cells - 1)
        )
        rows.append(
            {
                "hex_i": i,
                "hex_j": j,
                "n_versions": x,
                "nbr_sum": nbr,
                "gi_num": num,
                "gi_z": np.float64(num) / den,
            }
        )
    out = pd.DataFrame(rows).astype(
        {
            "hex_i": "int64",
            "hex_j": "int64",
            "n_versions": "int64",
            "nbr_sum": "int64",
            "gi_num": "int64",
            "gi_z": "float64",
        }
    )
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


IDW_WSCALE = 1 << 44  # weight quantization: w = round(WSCALE / d2);
# sized so sum(w) <= n_points * 2^44 stays deep inside int64 at every
# sandbox scale (the loud guard below covers the rest)
IDW_W0 = 1 << 44  # exact-hit weight cap == max nonzero weight (d2=1)
IDW_R2 = 1 << 45  # influence radius^2 aligned with the w >= 1 cutoff (~0.59 deg)
IDW_RLIM = 5931641  # isqrt(IDW_R2): box prefilter bound so squared
# diffs never exceed int64 (world-extent diffs would)


@query(
    lambda o: o.idw_snapshot_field(HEX_W, HEX_H, IDW_WSCALE, IDW_W0, IDW_R2, IDW_RLIM)
)
def q_idw_snapshot_field(sf_dir: str) -> pd.DataFrame:
    """INVERSE-DISTANCE-WEIGHTED spatial interpolation of an integer
    field (the entity version number) at the occupied hex-cell
    centers, from ALL entity-version points within the influence
    radius. IDW's float-weight sum is order-dependent, so the weights
    QUANTIZE first: w = round(WSCALE / d2) where d2 is the exact
    integer squared distance cast once to float64 (single IEEE
    division + half-away round, bit-identical in SQL) — then sum(w)
    and sum(w*x) are EXACT INTEGER sums (order-free across any
    partitioning) and the interpolated value is ONE final IEEE
    division. Points exactly on a center take the capped weight W0.
    Distributed shape: centers are the bounded hex lattice broadcast
    into the stage; per-batch partial (center, sum_w, sum_wx) sums
    combine on the lattice key."""
    def positions(batch: pa.Table) -> pa.Table:
        return decode_spans(batch).select(["v", "lon_e7", "lat_e7"])

    pos = rio.materialize_blocks(_docs(sf_dir), positions)

    # occupied-cell centers: |cells| is bounded by the fixed lattice
    def cells_stage(b: pa.Table) -> pa.Table:
        i, j = hex_cell(
            b["lon_e7"].to_numpy(zero_copy_only=False),
            b["lat_e7"].to_numpy(zero_copy_only=False),
        )
        g = pd.DataFrame({"i": i, "j": j}).drop_duplicates()
        return pa.table(
            {
                "i": g["i"].to_numpy(dtype=np.int64),
                "j": g["j"].to_numpy(dtype=np.int64),
                "one_p": np.ones(len(g), dtype=np.int64),
            }
        )

    cen = combine_partials(
        rio.map_blocks(pos, cells_stage), ["i", "j"], {"one_p": "_"}
    )
    ci = cen["i"].to_numpy(dtype=np.int64)
    cj = cen["j"].to_numpy(dtype=np.int64)
    cx = 2 * HEX_W * ci + HEX_W * cj
    cy = HEX_H * cj

    # centers sorted by x ONCE at the driver; the arrays are tiny
    # (O(lattice) ints), so they ship by closure capture with the
    # stage, once per query
    _order = np.argsort(cx, kind="mergesort")
    sci, scj = ci[_order], cj[_order]
    scx, scy = cx[_order], cy[_order]

    def idw_stage(b: pa.Table) -> pa.Table:
            px = b["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
            py = b["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
            xv = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
            porder = np.argsort(px, kind="mergesort")
            px, py, xv = px[porder], py[porder], xv[porder]
            m = len(scx)
            sw = np.zeros(m, np.int64)
            swx = np.zeros(m, np.int64)
            npts = np.zeros(m, np.int64)
            CH = 512  # CH x |window| panels; all reductions vectorized
            for s0 in range(0, len(px), CH):
                pxc = px[s0 : s0 + CH]
                lo = int(np.searchsorted(scx, pxc[0] - IDW_RLIM, "left"))
                hi = int(np.searchsorted(scx, pxc[-1] + IDW_RLIM, "right"))
                if lo >= hi:
                    continue
                dx = pxc[:, None] - scx[None, lo:hi]
                dy = py[s0 : s0 + CH, None] - scy[None, lo:hi]
                # box prefilter: keeps every d2 <= R2 pair while
                # bounding the squares away from int64 overflow
                inbox = (np.abs(dx) <= IDW_RLIM) & (np.abs(dy) <= IDW_RLIM)
                dx = np.where(inbox, dx, 0)
                dy = np.where(inbox, dy, 0)
                d2 = dx * dx + dy * dy
                d2 = np.where(inbox, d2, IDW_R2 + 1)
                zero = d2 == 0
                w = np.where(
                    zero,
                    np.int64(IDW_W0),
                    round_half_away(
                        np.float64(IDW_WSCALE)
                        / np.where(zero, 1, d2).astype(np.float64)
                    ).astype(np.int64),
                )
                w = np.where((d2 <= IDW_R2) & (w > 0), w, 0)
                sw[lo:hi] += w.sum(axis=0)
                swx[lo:hi] += (w * xv[s0 : s0 + CH, None]).sum(axis=0)
                npts[lo:hi] += (w > 0).sum(axis=0)
            keep = npts > 0
            return pa.table(
                {
                    "i": sci[keep],
                    "j": scj[keep],
                    "sw_p": sw[keep],
                    "swx_p": swx[keep],
                    "n_p": npts[keep],
                }
            )

    part = rio.map_blocks(pos, idw_stage)
    df = combine_partials(part, ["i", "j"], {"sw_p": "sw", "swx_p": "swx", "n_p": "n_pts"})
    # input-derived guard: every weight is <= IDW_W0 and point counts
    # cannot wrap, so n_pts * IDW_W0 bounds sw and n_pts * IDW_W0 *
    # max|v| bounds |swx| (and every intermediate partial) — checking
    # the possibly-wrapped sums themselves would miss aliased overflow
    if len(df):
        def vmax_stage(b: pa.Table) -> pa.Table:
            return pa.table({"vmax": [pc.max(pc.abs(b["v"])).as_py() or 0]})

        vmax = int(rio.map_blocks(pos, vmax_stage).to_pandas()["vmax"].max())
        if int(df["n_pts"].max()) * IDW_W0 * max(vmax, 1) >= 2**62:
            raise OverflowError("idw: weighted sum exceeds int64 headroom")
    out = pd.DataFrame(
        {
            "hex_i": df["i"].astype("int64"),
            "hex_j": df["j"].astype("int64"),
            "n_pts": df["n_pts"].astype("int64"),
            "sw": df["sw"].astype("int64"),
            "swx": df["swx"].astype("int64"),
            "idw_v": df["swx"].to_numpy(dtype=np.float64)
            / df["sw"].to_numpy(dtype=np.float64),
        }
    )
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


ROAD_BUF_R2 = 2.5e15  # buffer radius^2 (5e7 e7-units = 5 deg), exact in float64


@query(lambda o: o.road_buffer_count(ROAD_CLASS_MOD, ROAD_BUF_R2))
def q_road_buffer_count(sf_dir: str) -> pd.DataFrame:
    """BUFFER SEMI-JOIN COUNT: for every segment of the class-filtered
    way layer, how many T_MID nodes lie within the buffer radius
    (point-to-segment distance <= R) — the 'features near each road'
    aggregate, zerofilled so empty buffers report 0. Same broadcast +
    IEEE-expression-tree contract as nearest_road_distance (d2 is
    bit-identical in SQL, so the <= R2 test agrees exactly); per-batch
    partial counts per segment combine on the small segment key."""
    pos, seg = _road_segment_layer(sf_dir)
    if seg.empty:
        return pd.DataFrame(
            {"seg": pd.Series([], dtype="int64"), "n_within": pd.Series([], dtype="int64")}
        )

    sid = seg["join_k"].to_numpy(dtype=np.int64)
    sax = seg["ax"].to_numpy(dtype=np.int64)
    say = seg["ay"].to_numpy(dtype=np.int64)
    sbx = seg["bx"].to_numpy(dtype=np.int64)
    sby = seg["by"].to_numpy(dtype=np.int64)

    def buffer_stage(batch: pa.Table) -> pa.Table:
        px = batch["lon_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        py = batch["lat_e7"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.zeros(len(sid), np.int64)
        CH = 256
        for s0 in range(0, len(px), CH):
            d2 = point_segment_d2(
                px[s0 : s0 + CH, None],
                py[s0 : s0 + CH, None],
                sax[None, :],
                say[None, :],
                sbx[None, :],
                sby[None, :],
            )
            cnt += (d2 <= ROAD_BUF_R2).sum(axis=0)
        keep = cnt > 0
        return pa.table({"seg": sid[keep], "n_p": cnt[keep]})

    part = rio.map_blocks(pos, buffer_stage)
    df = combine_partials(part, ["seg"], {"n_p": "n_within"})

    out = zerofill(df, {"seg": sorted(int(s) for s in seg["join_k"])}, {"n_within": 0})
    return out.sort_values("seg").reset_index(drop=True).astype(
        {"seg": "int64", "n_within": "int64"}
    )


@query(lambda o: o.hex_emerging_hotspots(HEX_W, HEX_H))
def q_hex_emerging_hotspots(sf_dir: str) -> pd.DataFrame:
    """EMERGING-HOTSPOT classification (the space-time-cube trend
    analysis): for every hex cell occupied in ANY week, the
    Mann-Kendall trend statistic S = sum over week pairs i<j of
    sign(x_j - x_i) over the ZEROFILLED weekly snapshot series —
    exact integers end to end (S in [-10, 10] for 5 weeks), classified
    increasing / flat / decreasing. One fused stage produces the
    weekly cube partials (the hexcell_weekly shape); the driver final
    walks |cells| x 5 zerofilled values."""
    df = _hex_snapshot_cube(sf_dir, SNAP_WEEKLY)
    piv = (
        df.pivot_table(index="cell", columns="ts_q", values="n", fill_value=0)
        .reindex(columns=SNAP_WEEKLY, fill_value=0)
        .astype("int64")
    )
    x = piv.to_numpy()
    s = np.zeros(len(piv), dtype=np.int64)
    k = x.shape[1]
    for a in range(k):
        for b in range(a + 1, k):
            s += np.sign(x[:, b] - x[:, a]).astype(np.int64)
    i, j = unpack_hex(piv.index.to_numpy(dtype=np.int64))
    trend = np.where(s > 0, "increasing", np.where(s < 0, "decreasing", "flat"))
    out = pd.DataFrame(
        {
            "hex_i": i,
            "hex_j": j,
            "n_total": x.sum(axis=1),
            "mk_s": s,
            "trend": trend,
        }
    ).astype({"hex_i": "int64", "hex_j": "int64", "n_total": "int64", "mk_s": "int64"})
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


@query(lambda o: o.zonal_raster_stats())
def q_zonal_raster_stats(sf_dir: str) -> pd.DataFrame:
    """ZONAL STATISTICS: per boundary region, count and SUM of the
    raster band value sampled at each member snapshot point — the
    raster<->vector composition (PIP semi-join x raster lookup) in ONE
    fused stage with per-region integer partials; zerofilled regions
    report 0 (mean 0.0 by convention). The mean is the single final
    IEEE division."""
    region_items = sorted(REGIONS.items())

    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["lon_e7", "lat_e7"])
        lon = s["lon_e7"].to_numpy(zero_copy_only=False)
        lat = s["lat_e7"].to_numpy(zero_copy_only=False)
        rv = raster_value_for(cell_id(lon, lat, RASTER_ZOOM)).astype(np.int64)
        lonf = lon.astype(np.float64)
        latf = lat.astype(np.float64)
        rids, ns, sums = [], [], []
        for rid, ring in region_items:
            inside = contains_convex(np.asarray(ring), lonf, latf)
            rids.append(rid)
            ns.append(int(inside.sum()))
            sums.append(int(rv[inside].sum()))
        return pa.table(
            {
                "region_id": pa.array(rids),
                "n_p": pa.array(ns, type=pa.int64()),
                "s_p": pa.array(sums, type=pa.int64()),
            }
        )

    partials = rio.map_blocks(_docs(sf_dir), stage)
    df = combine_partials(partials, ["region_id"], {"n_p": "n_points", "s_p": "sum_raster"})
    out = zerofill(
        df,
        {"region_id": [r for r, _ in region_items]},
        {"n_points": 0, "sum_raster": 0},
    ).astype({"n_points": "int64", "sum_raster": "int64"})
    n = out["n_points"].to_numpy(dtype=np.float64)
    s = out["sum_raster"].to_numpy(dtype=np.float64)
    out["mean_raster"] = np.where(out["n_points"] > 0, s / np.where(n > 0, n, 1.0), 0.0)
    return out.sort_values("region_id").reset_index(drop=True)


def _hex_moves(b: pa.Table) -> pa.Table:
    """One row per move of an entity to another hex cell between its
    consecutive visible versions (version order, whatever the stored
    order): the from and to cells."""
    tbl, codes, ts, _v, _ = _sorted_versions(decode_spans(b), doc_codes(b))
    if len(ts):
        vis = tbl["visible"].to_numpy(zero_copy_only=False).astype(bool)
        codes = codes[vis]
        i, j = hex_cell(tbl["lon_e7"].to_numpy(zero_copy_only=False)[vis],
                        tbl["lat_e7"].to_numpy(zero_copy_only=False)[vis])
    else:
        codes = i = j = np.zeros(0, np.int64)
    moved = (codes[1:] == codes[:-1]) & ((i[1:] != i[:-1]) | (j[1:] != j[:-1]))
    return pa.table({
        "from_i": i[:-1][moved], "from_j": j[:-1][moved],
        "to_i": i[1:][moved], "to_j": j[1:][moved],
    })


@query(lambda o: o.cell_flows(HEX_W, HEX_H))
def q_cell_flows(sf_dir: str) -> pd.DataFrame:
    """ORIGIN-DESTINATION FLOW MATRIX over the hex index: for every
    pair of consecutive VISIBLE versions of an entity whose position
    crossed a cell boundary, one (from_cell -> to_cell) move — the
    movement-aggregation shape (OD matrices / desire lines). Zero
    shuffle: docs are rows, so consecutive-version pairing resolves
    inside the fused decode (per-doc realign via _sorted_versions,
    the HEADER_TIMESTAMPS_NOT_IN_ORDER tolerance); partials combine
    on the bounded (cell, cell) key."""
    keys = ("from_i", "from_j", "to_i", "to_j")
    stage = KeyedPartials(_hex_moves, keys=keys)
    return combine_partials(rio.map_blocks(_docs(sf_dir), stage), list(keys), {"n_part": "n_moves"})


@query(lambda o: o.contributor_territory(HEX_W, HEX_H))
def q_contributor_territory(sf_dir: str) -> pd.DataFrame:
    """CONTRIBUTOR TERRITORY: each user's MODAL hex cell over their
    visible version edits (ties break to the smallest (i, j)) plus
    their edit count there and overall — 'where does each contributor
    mostly map'. uid is a _HIGH_CARD_KEYS-class key, so the final
    stays DISTRIBUTED: per-batch (uid, cell) partial counts -> one
    complete-user bucket shuffle -> the per-uid modal argmax and total
    resolve IN-STAGE; the driver collects only the |uids| result rows
    (the query output itself)."""
    def stage(b: pa.Table) -> pa.Table:
        d = decode_spans(b)
        vis = d["visible"].to_numpy(zero_copy_only=False).astype(bool)
        uid = d["uid"].to_numpy(zero_copy_only=False)[vis]
        i, j = hex_cell(
            d["lon_e7"].to_numpy(zero_copy_only=False)[vis],
            d["lat_e7"].to_numpy(zero_copy_only=False)[vis],
        )
        g = pd.DataFrame({"uid": uid, "i": i, "j": j}).groupby(
            ["uid", "i", "j"], as_index=False
        ).size()
        return pa.table(
            {
                "uid": g["uid"].to_numpy(dtype=np.int64),
                "i": g["i"].to_numpy(dtype=np.int64),
                "j": g["j"].to_numpy(dtype=np.int64),
                "n_p": g["size"].to_numpy(dtype=np.int64),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        df = g.groupby(["uid", "i", "j"], as_index=False)["n_p"].sum().rename(
            columns={"n_p": "n"}
        )
        df = df.sort_values(
            ["uid", "n", "i", "j"],
            ascending=[True, False, True, True],
            kind="mergesort",
        )
        top = df.groupby("uid", as_index=False).first()
        tot = df.groupby("uid", as_index=False)["n"].sum().rename(
            columns={"n": "n_total"}
        )
        return top.merge(tot, on="uid").rename(
            columns={"i": "home_i", "j": "home_j", "n": "n_home"}
        )[["uid", "home_i", "home_j", "n_home", "n_total"]].astype(
            {"uid": "int64", "home_i": "int64", "home_j": "int64",
             "n_home": "int64", "n_total": "int64"}
        )

    out = rio.reduce_by_key(_docs(sf_dir), ["uid"], rio.on_pandas(final), stage=stage)
    out = rio.blocks_table(out).to_pandas()
    return out.sort_values("uid").reset_index(drop=True)


SEAS_HALF = 3  # centered moving-average half-window (7-day MA)


@query(lambda o: o.etype_seasonal_profile(T0, DAY_US, SEAS_HALF))
def q_etype_seasonal_profile(sf_dir: str) -> pd.DataFrame:
    """SEASONAL (day-of-week) PROFILE after moving-average detrend —
    the time-series decomposition primitive, float-free until the last
    division: over the ZEROFILLED per-type daily grid, the 7-day
    centered trend is the exact integer window sum, the detrended
    series is 7*x_t - trend (integer-scaled to avoid the MA division),
    edge days without a full window drop, and the per-(etype, dow)
    seasonal mean is ONE IEEE division of exact integer sums. dow 0 =
    the first testdata day (2024-01-01, a Monday)."""
    base = _etype_day_grid(sf_dir)
    days = np.arange(base["day"].min(), base["day"].max() + 1, dtype=np.int64)
    rows = []
    for etype, g in base.groupby("etype"):
        x = (
            g.set_index("day")["n"].reindex(days, fill_value=0).to_numpy(dtype=np.int64)
        )
        if len(x) < 2 * SEAS_HALF + 1:
            continue
        k = 2 * SEAS_HALF + 1
        trend = np.convolve(x, np.ones(k, dtype=np.int64), mode="valid")  # exact ints
        core = x[SEAS_HALF:-SEAS_HALF]
        det = k * core - trend
        dows = (days[SEAS_HALF:-SEAS_HALF]) % 7
        df = pd.DataFrame({"dow": dows, "det": det})
        s = df.groupby("dow", as_index=False).agg(
            sum_det=("det", "sum"), n_days=("det", "size")
        )
        for _, r in s.iterrows():
            rows.append(
                {
                    "etype": etype,
                    "dow": int(r["dow"]),
                    "n_days": int(r["n_days"]),
                    "sum_det": int(r["sum_det"]),
                    "seasonal_x7": np.float64(r["sum_det"]) / np.float64(r["n_days"]),
                }
            )
    out = pd.DataFrame(rows).astype(
        {"etype": "object", "dow": "int64", "n_days": "int64", "sum_det": "int64",
         "seasonal_x7": "float64"}
    )
    return out.sort_values(["etype", "dow"]).reset_index(drop=True)


COLLOC_PAT = r"\b([a-z]+) join\b"  # capture: the word preceding "join"


def _collocates(b: pa.Table, pattern: str) -> pa.Table:
    """The ``w`` group of ``pattern`` in each document that matches it."""
    if not len(b):
        return pa.table({"word": pa.array([], pa.string())})
    w = pc.struct_field(pc.extract_regex(b["text"], pattern), "w")
    return pa.table({"word": w}).filter(pc.is_valid(w))


@query(lambda o: o.doc_join_collocates(COLLOC_PAT))
def q_doc_join_collocates(sf_dir: str) -> pd.DataFrame:
    """STRUCTURED FIELD EXTRACTION: per document, the FIRST capture of
    an RE2 group (the word preceding 'join'), aggregated into a
    collocate vocabulary with document counts — the
    extract-into-columns curation primitive. One vectorized
    pyarrow.compute.extract_regex pass (first-match semantics ==
    DuckDB regexp_extract(text, pat, 1)); per-batch partial counts
    per extracted word combine on the bounded vocabulary."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["text"])
    # pyarrow needs a NAMED group; DuckDB's numbered group 1 is the same
    pat = COLLOC_PAT.replace("(", "(?P<w>", 1)

    stage = KeyedPartials(functools.partial(_collocates, pattern=pat), keys=("word",))
    return combine_partials(rio.map_blocks(docs, stage), ["word"], {"n_part": "n_docs"})


@query(lambda o: o.hex_morans_i(HEX_W, HEX_H))
def q_hex_morans_i(sf_dir: str) -> pd.DataFrame:
    """GLOBAL SPATIAL AUTOCORRELATION (Moran's I) of edit intensity
    over the hex lattice — the global companion to the local Gi*
    scores. Multiplying the deviations through by N makes every
    sufficient statistic an EXACT integer: num = sum over occupied
    6-neighbor pairs of (N*x_a - S1)(N*x_b - S1), den = sum over
    cells of (N*x_c - S1)^2, W = directed occupied-pair count; the
    only floats are the three final IEEE ops (N/W) * (num/den),
    mirrored literally. Same distributed shape as hex_hotspot_gi:
    lattice-bounded partials, |cells|-walk driver final."""
    base = _hex_version_counts(sf_dir)
    cells = {
        (int(i), int(j)): int(n) for i, j, n in zip(base["i"], base["j"], base["n"])
    }
    n_cells = len(cells)
    s1 = sum(cells.values())
    offs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    num = 0
    w_pairs = 0
    for (i, j), x in cells.items():
        da = n_cells * x - s1
        for di, dj in offs:
            nb = cells.get((i + di, j + dj))
            if nb is not None:
                num += da * (n_cells * nb - s1)
                w_pairs += 1
    den = sum((n_cells * x - s1) ** 2 for x in cells.values())
    if w_pairs == 0 or den == 0:
        raise ValueError("hex_morans_i: degenerate lattice (no pairs or variance)")
    if not (-(2**63) < num < 2**63 and 0 < den < 2**63):
        raise OverflowError("hex_morans_i: statistic exceeds int64")
    morans = (np.float64(n_cells) / np.float64(w_pairs)) * (
        np.float64(num) / np.float64(den)
    )
    return pd.DataFrame(
        [
            {
                "n_cells": n_cells,
                "w_pairs": w_pairs,
                "num": num,
                "den": den,
                "morans_i": morans,
            }
        ]
    ).astype(
        {"n_cells": "int64", "w_pairs": "int64", "num": "int64", "den": "int64",
         "morans_i": "float64"}
    )


@query(lambda o: o.way_chain_lengths())
def q_way_chain_lengths(sf_dir: str) -> pd.DataFrame:
    """NETWORK CHAIN LENGTHS: the histogram of maximal runs of
    consecutive osm_ids visible at T_MID — connected way-chain sizes
    under the synthetic way model (way u links node u -> u+1, so a run
    of L consecutive live nodes is one connected chain of L-1 ways /
    L nodes; we report node-run lengths). Distributed gaps-and-islands
    (ops.relational.island_length_histogram): range-bucketed local
    runs + O(buckets) boundary stitch — never a global sort or a
    single-reducer as-of."""
    def ids(batch: pa.Table) -> pa.Table:
        return snapshot_rows(batch, [T_MID], ["osm_id"])

    ds = rio.materialize_blocks(_docs(sf_dir), ids)
    return island_length_histogram(ds, "osm_id")


@query(lambda o: o.way_compactness())
def q_way_compactness(sf_dir: str) -> pd.DataFrame:
    """POLSBY-POPPER COMPACTNESS 4*pi*A / P^2 per synthetic way
    triangle — the shape-regularity metric composing the two pinned
    geodesy kernels (spherical-excess area, Geo.java:147-180;
    equirectangular perimeter, Geo.java:37-45). Same one-shuffle
    corner fan-out as way_areas; every float after the exact integer
    coordinates is a single IEEE op in the same order as the SQL
    mirror, so area, perimeter and the compactness ratio are
    bit-identical. Degenerate (zero-perimeter) triangles report 0."""

    def fan_out(batch: pa.Table) -> pa.Table:
        batch = _positions(batch)
        osm = batch["osm_id"].to_numpy(zero_copy_only=False)
        way = np.concatenate([osm - i for i in range(3)])
        return pa.table(
            {
                "way_id": way,
                "corner": np.repeat(np.arange(3, dtype=np.int64), len(osm)),
                "lon_e7": np.tile(batch["lon_e7"].to_numpy(zero_copy_only=False), 3),
                "lat_e7": np.tile(batch["lat_e7"].to_numpy(zero_copy_only=False), 3),
            }
        )

    def _equirect(lond_a, latd_a, lond_b, latd_b):
        d_lat = np.radians(latd_b - latd_a)
        d_lng = np.radians(lond_b - lond_a) * np.cos(np.radians((latd_b + latd_a) / 2))
        return EARTH_RADIUS * np.sqrt(d_lng * d_lng + d_lat * d_lat)

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["way_id", "corner"], kind="mergesort")
        counts = g.groupby("way_id", sort=False)["corner"].transform("size")
        g = g[counts == 3]
        if g.empty:
            return pd.DataFrame(
                {
                    "way_id": pd.Series(dtype="int64"),
                    "area_m2": pd.Series(dtype="int64"),
                    "perim_um": pd.Series(dtype="int64"),
                    "compactness": pd.Series(dtype="float64"),
                }
            )
        lon = g["lon_e7"].to_numpy().reshape(-1, 3)
        lat = g["lat_e7"].to_numpy().reshape(-1, 3)
        lond = [lon[:, i] / 1e7 for i in range(3)]
        latd = [lat[:, i] / 1e7 for i in range(3)]
        lo = [np.radians(x) for x in lond]
        la = [np.radians(x) for x in latd]
        t0 = (lo[2] - lo[0]) * np.sin(la[1])
        t1 = (lo[0] - lo[1]) * np.sin(la[2])
        t2 = (lo[1] - lo[2]) * np.sin(la[0])
        a = np.abs(((t0 + t1) + t2) * EARTH_RADIUS * EARTH_RADIUS / 2)
        d01 = _equirect(lond[0], latd[0], lond[1], latd[1])
        d12 = _equirect(lond[1], latd[1], lond[2], latd[2])
        d20 = _equirect(lond[2], latd[2], lond[0], latd[0])
        p = (d01 + d12) + d20
        comp = np.where(p == 0, 0.0, ((np.float64(4.0) * np.pi) * a) / (p * p))
        return pd.DataFrame(
            {
                "way_id": g["way_id"].to_numpy()[::3],
                "area_m2": np.floor(a).astype(np.int64),
                "perim_um": np.floor(p * 1000000.0).astype(np.int64),
                "compactness": comp,
            }
        )

    out = rio.reduce_by_key(_docs(sf_dir), ["way_id"], rio.on_pandas(assemble), stage=fan_out)
    df = rio.blocks_table(out).to_pandas()
    return df.sort_values("way_id").reset_index(drop=True)


PSI_BIN_W = 100  # n_chars histogram bin width for the drift metric


def _length_bins(b: pa.Table) -> pa.Table:
    """Each document's source and length bin (n_chars // PSI_BIN_W)."""
    bins = b["n_chars"].to_numpy(zero_copy_only=False) // PSI_BIN_W
    return pa.table({"source": b["source"], "bin": bins})


@query(lambda o: o.source_drift_psi(PSI_BIN_W))
def q_source_drift_psi(sf_dir: str) -> pd.DataFrame:
    """DISTRIBUTION DRIFT between document sources: pairwise
    POPULATION STABILITY INDEX over the n_chars histogram (bin width
    PSI_BIN_W), the data-validation gate of a training pipeline. The
    PSI term (a/A - b/B)*ln((a*B)/(b*A)) becomes the EXACT integer
    (a*B - b*A) * (q(a*B) - q(b*A)) with q = milli-nat quantization
    (the doc_lm_surprisal contract), summed over bins where BOTH
    sources are present (the standard zero-bin exclusion), divided
    ONCE by A*B — so the only float is that final IEEE division.
    Partials: per-batch (source, bin) counts -> combine bounded by
    |sources x bins|; the driver walks source pairs."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    stage = KeyedPartials(_length_bins, keys=("source", "bin"))
    base = combine_partials(rio.map_blocks(docs, stage), ["source", "bin"], {"n_part": "n"})
    counts: dict[str, dict[int, int]] = {}
    for s, b, n in zip(base["source"], base["bin"], base["n"]):
        counts.setdefault(str(s), {})[int(b)] = int(n)
    totals = {s: sum(d.values()) for s, d in counts.items()}
    rows = []
    for sa in sorted(counts):
        for sb in sorted(counts):
            if sa >= sb:
                continue
            A, B = totals[sa], totals[sb]
            num = 0
            used = 0
            for bin_, a in counts[sa].items():
                b = counts[sb].get(bin_)
                if b is None:
                    continue
                num += (a * B - b * A) * (_q_mnat(a * B) - _q_mnat(b * A))
                used += 1
            if used == 0:
                # no shared bins: the SQL inner join emits no row
                continue
            if not (-(2**63) < num < 2**63 and 0 < A * B < 2**63):
                raise OverflowError("source_drift_psi: exceeds int64")
            rows.append(
                {
                    "source_a": sa,
                    "source_b": sb,
                    "n_bins_used": used,
                    "psi_num": num,
                    "psi_mnat": np.float64(num) / np.float64(A * B),
                }
            )
    out = pd.DataFrame(rows).astype(
        {"source_a": "object", "source_b": "object", "n_bins_used": "int64",
         "psi_num": "int64", "psi_mnat": "float64"}
    )
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


def _contribution_places(batch: pa.Table, rows: ViewRows) -> pa.Table:
    """The contribution ``rows`` placed where the entity is, or for a
    deletion where it was."""
    c = rows(batch)
    dele = c["is_deletion"]
    return pa.table({
        "lon_e7": pc.if_else(dele, c["prev_lon_e7"], c["lon_e7"]),
        "lat_e7": pc.if_else(dele, c["prev_lat_e7"], c["lat_e7"]),
        "is_creation": c["is_creation"], "is_deletion": dele,
    })


@query(lambda o: o.contrib_by_hexcell(HEX_W, HEX_H))
def q_contrib_by_hexcell(sf_dir: str) -> pd.DataFrame:
    """CONTRIBUTION COUNTS BY HEX CELL: every contribution in the
    window keyed by the hex cell of its geometry — the NEW version's
    position, or (per the reference's deletion semantics, where the
    contribution geometry is the before-state,
    OSMContribution.java getGeometryBefore) the PREVIOUS position for
    deletions. One fused stage: decode -> contribution classification
    -> hex assign -> per-cell integer partials (total / creations /
    deletions), combine bounded by the world lattice."""
    cols = ("is_creation", "is_deletion", "lon_e7", "lat_e7", "prev_lon_e7", "prev_lat_e7")
    rows = ViewRows(None, CONTRIB_FROM, CONTRIB_TO, cols, None, None, None, None)
    stage = KeyedPartials(
        functools.partial(_contribution_places, rows=rows), cell=hex_id,
        sums=("is_creation", "is_deletion"),
    )
    df = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage), ["cell"],
        {"n_part": "n_contribs", "is_creation_part": "n_creations",
         "is_deletion_part": "n_deletions"},
    )
    i, j = unpack_hex(df["cell"].to_numpy(dtype=np.int64))
    out = pd.DataFrame(
        {
            "hex_i": i,
            "hex_j": j,
            "n_contribs": df["n_contribs"].astype("int64"),
            "n_creations": df["n_creations"].astype("int64"),
            "n_deletions": df["n_deletions"].astype("int64"),
        }
    )
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


@query(lambda o: o.hexcell_churn(HEX_W, HEX_H))
def q_hexcell_churn(sf_dir: str) -> pd.DataFrame:
    """SPATIAL CHURN CONTINGENCY: how many hex cells were occupied in
    the second weekly snapshot (the first non-empty one) vs the LAST — the 2x2 (active_w1,
    active_w5) contingency that quantifies geographic growth vs
    abandonment. Rides the weekly-cube partials; the driver final is
    a |cells|-walk set compare."""
    base = _hex_snapshot_cube(sf_dir, [SNAP_WEEKLY[1], SNAP_WEEKLY[-1]])
    w1 = set(base.loc[base["ts_q"] == SNAP_WEEKLY[1], "cell"])
    w5 = set(base.loc[base["ts_q"] == SNAP_WEEKLY[-1], "cell"])
    combos = [
        (True, True, len(w1 & w5)),
        (True, False, len(w1 - w5)),
        (False, True, len(w5 - w1)),
    ]
    # only observed combos: the SQL full-outer mirror emits no row
    # for an empty set intersection (e.g. the week-1 snapshot predates
    # every event at small SFs)
    rows = [
        {"active_w1": a, "active_w5": b, "n_cells": n}
        for a, b, n in combos
        if n > 0
    ]
    out = pd.DataFrame(
        rows, columns=["active_w1", "active_w5", "n_cells"]
    ).astype({"active_w1": "bool", "active_w5": "bool", "n_cells": "int64"})
    return out.sort_values(["active_w1", "active_w5"], ascending=False).reset_index(
        drop=True
    )


def _snapshot_ages(batch: pa.Table, rows: ViewRows) -> pa.Table:
    """The snapshot ``rows`` at T_MID with the ``age`` of each state."""
    s = rows(batch)
    age = T_MID - s["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    return s.append_column("age", pa.array(age))


@query(lambda o: o.hexcell_freshness(HEX_W, HEX_H))
def q_hexcell_freshness(sf_dir: str) -> pd.DataFrame:
    """DATA CURRENTNESS MAP: per hex cell at T_MID, the count of live
    entities and the mean AGE of their current versions (T_MID -
    version ts) — the OSM data-quality 'freshness' metric per tile.
    Exact integer age sums (microseconds) per cell, one IEEE division
    for the mean; partials combine on the bounded lattice key."""
    rows = ViewRows(np.array([T_MID]), 0, 0, ("ts", "lon_e7", "lat_e7"), None, None, None, None)
    stage = KeyedPartials(functools.partial(_snapshot_ages, rows=rows), cell=hex_id, sums=("age",))
    df = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage), ["cell"],
        {"n_part": "n_entities", "age_part": "sum_age_us"},
    )
    # input-derived guard (counts cannot wrap below 2^63 rows): if the
    # largest cell times the maximum possible age fits int64, no int64
    # partial sum anywhere in the chain wrapped
    if len(df) and int(df["n_entities"].max()) * (T_MID - T0) >= 2**63:
        raise OverflowError("hexcell_freshness: age sum exceeds int64")
    i, j = unpack_hex(df["cell"].to_numpy(dtype=np.int64))
    out = pd.DataFrame(
        {
            "hex_i": i,
            "hex_j": j,
            "n_entities": df["n_entities"].astype("int64"),
            "sum_age_us": df["sum_age_us"].astype("int64"),
            "mean_age_us": df["sum_age_us"].to_numpy(dtype=np.float64)
            / df["n_entities"].to_numpy(dtype=np.float64),
        }
    )
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


FUNNEL3 = ("click", "view", "purchase")  # ordered 3-stage funnel


@query(lambda o: o.funnel3_users(*FUNNEL3))
def q_funnel3_users(sf_dir: str) -> pd.DataFrame:
    """THREE-STAGE ORDERED FUNNEL: how many users exhibit the
    subsequence click -> view -> purchase (strictly increasing
    timestamps, earliest-completion semantics: t1 = first click,
    t2 = first view after t1, t3 = first purchase after t2) — the
    sequential-pattern terminal beyond the 2-step as-of funnel.
    Complete-user bucket shuffle; each bucket resolves its users'
    stage times with three vectorized groupby-min passes and emits
    THREE partial counters; the driver combine is 3 integers."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"], value_set=pa.array(FUNNEL3))
        b = b.filter(keep)
        return pa.table(
            {
                "user_id": b["user_id"],
                "etype": b["event_type"],
                "ts_us": b["ts"].cast(pa.int64()),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        s1, s2, s3 = FUNNEL3
        t1 = g[g["etype"] == s1].groupby("user_id")["ts_us"].min()
        v = g[g["etype"] == s2].merge(t1.rename("t1").reset_index(), on="user_id")
        t2 = v[v["ts_us"] > v["t1"]].groupby("user_id")["ts_us"].min()
        p = g[g["etype"] == s3].merge(t2.rename("t2").reset_index(), on="user_id")
        t3 = p[p["ts_us"] > p["t2"]].groupby("user_id")["ts_us"].min()
        return pd.DataFrame(
            [
                {
                    "stage1_p": np.int64(len(t1)),
                    "stage2_p": np.int64(len(t2)),
                    "stage3_p": np.int64(len(t3)),
                }
            ]
        )

    parts = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(final), stage=prep)
    df = combine_partials(
        rio.blocks_table(parts),
        [],
        {"stage1_p": "n_stage1", "stage2_p": "n_stage2", "stage3_p": "n_stage3"},
    )
    return df.astype(
        {"n_stage1": "int64", "n_stage2": "int64", "n_stage3": "int64"}
    ).reset_index(drop=True)


@query(lambda o: o.ab_test_value())
def q_ab_test_value(sf_dir: str) -> pd.DataFrame:
    """A/B COMPARISON: Welch two-sample t-statistic on event value
    (cents) between the even-uid and odd-uid user cohorts, per event
    type — the experiment-analysis terminal. Sufficient statistics
    (n, sum, sum-of-squares in exact integer cents) accumulate as
    order-free partials; the t tail is a fixed sequence of single
    IEEE ops (two divisions for the means, one subtract, two
    double-products for the denominators, two divisions, add, sqrt,
    divide) mirrored literally in SQL."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    stage = _event_partials(("etype", "grp"), ("value_c", "value_c2"))
    base = combine_partials(
        rio.map_blocks(ev, stage),
        ["etype", "grp"],
        {"n_part": "n", "value_c_part": "s1", "value_c2_part": "s2"},
    )
    rows = []
    for etype, g in base.groupby("etype"):
        d = {int(r["grp"]): (int(r["n"]), int(r["s1"]), int(r["s2"])) for _, r in g.iterrows()}
        if 0 not in d or 1 not in d:
            continue  # cohort absent: no t-statistic (SQL inner join drops it)
        (na, sa, qa), (nb, sb, qb) = d[0], d[1]
        if na < 2 or nb < 2:
            continue
        vna = na * qa - sa * sa
        vnb = nb * qb - sb * sb
        if not all(-(2**63) < x < 2**63 for x in (vna, vnb, sa, sb)):
            raise OverflowError("ab_test_value: statistic exceeds int64")
        m = np.float64(sa) / np.float64(na) - np.float64(sb) / np.float64(nb)
        aa = np.float64(vna) / (
            np.float64(na) * np.float64(na) * np.float64(na - 1)
        )
        ab = np.float64(vnb) / (
            np.float64(nb) * np.float64(nb) * np.float64(nb - 1)
        )
        rows.append(
            {
                "etype": etype,
                "n_even": na,
                "n_odd": nb,
                "sum_even_c": sa,
                "sum_odd_c": sb,
                "var_num_even": vna,
                "var_num_odd": vnb,
                "t_stat": m / np.sqrt(aa + ab),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"etype": "object", "n_even": "int64", "n_odd": "int64",
         "sum_even_c": "int64", "sum_odd_c": "int64",
         "var_num_even": "int64", "var_num_odd": "int64", "t_stat": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


def _etype_cohort_value_hist(sf_dir: str) -> pd.DataFrame:
    """Shared base for the nonparametric cohort tests: exact VALUE
    HISTOGRAM per (etype, uid-parity cohort, cents value) — partials
    combine bounded by |etypes x 2 x distinct cents values| (the
    value_quantiles_by_type histogram contract), never the event
    corpus."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "value"]
    )

    stage = _event_partials(("etype", "grp", "value_c"))
    df = combine_partials(rio.map_blocks(ev, stage), ["etype", "grp", "value_c"], {"n_part": "n"})
    return df.rename(columns={"value_c": "v"})


def _cohort_pivot(g: pd.DataFrame):
    """Shared per-etype (value, even-count, odd-count) extraction for
    the nonparametric cohort tests: merged value grid sorted
    ascending, zero-filled cohorts, exact totals."""
    piv = (
        g.pivot_table(index="v", columns="grp", values="n", fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    a = piv[0].to_numpy(dtype=np.int64)
    b = piv[1].to_numpy(dtype=np.int64)
    return piv, a, b, int(a.sum()), int(b.sum())


@query(lambda o: o.ks_test_value())
def q_ks_test_value(sf_dir: str) -> pd.DataFrame:
    """KOLMOGOROV-SMIRNOV statistic on event value between the
    uid-parity cohorts, per etype: D = max_v |cdf_a(v) - cdf_b(v)|
    computed as the EXACT integer max |cumA*B - cumB*A| over the
    merged value grid, with ONE final IEEE division by A*B. Ties at
    the max resolve by the smallest value (deterministic both
    engines)."""
    base = _etype_cohort_value_hist(sf_dir)
    rows = []
    for etype, g in base.groupby("etype"):
        piv, a, b, A, B = _cohort_pivot(g)
        if A == 0 or B == 0:
            continue
        ca = np.cumsum(a)
        cb = np.cumsum(b)
        if A * B >= 2**62:
            # ca*B and cb*A are bounded by A*B elementwise
            raise OverflowError("ks_test_value: statistic exceeds int64")
        diff = np.abs(ca * B - cb * A)
        k = int(diff.argmax())  # first max = smallest value
        rows.append(
            {
                "etype": etype,
                "n_even": A,
                "n_odd": B,
                "ks_num": int(diff[k]),
                "ks_at_v": int(piv.index[k]),
                "ks_d": np.float64(int(diff[k])) / np.float64(A * B),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"etype": "object", "n_even": "int64", "n_odd": "int64",
         "ks_num": "int64", "ks_at_v": "int64", "ks_d": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


@query(lambda o: o.mannwhitney_value())
def q_mannwhitney_value(sf_dir: str) -> pd.DataFrame:
    """MANN-WHITNEY U on event value between the uid-parity cohorts,
    per etype, tie-corrected and EXACT: doubling clears the half-tie
    term, so 2U_even = sum_v a_v * (2*cumb_less(v) + b_v) is a pure
    integer over the shared value histogram; the identity
    2U_even + 2U_odd = 2*A*B pins the complement."""
    base = _etype_cohort_value_hist(sf_dir)
    rows = []
    for etype, g in base.groupby("etype"):
        _piv, a, b, A, B = _cohort_pivot(g)
        if A == 0 or B == 0:
            continue
        cumb_less = np.cumsum(b) - b
        u2 = int((a * (2 * cumb_less + b)).sum())
        if not (0 <= u2 < 2**63 and 0 < 2 * A * B < 2**63):
            raise OverflowError("mannwhitney_value: exceeds int64")
        rows.append(
            {
                "etype": etype,
                "n_even": A,
                "n_odd": B,
                "u2_even": u2,
                "u2_odd": 2 * A * B - u2,
            }
        )
    out = pd.DataFrame(rows).astype(
        {"etype": "object", "n_even": "int64", "n_odd": "int64",
         "u2_even": "int64", "u2_odd": "int64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


@query(lambda o: o.kaplan_meier(DWELL_END, DAY_US))
def q_kaplan_meier(sf_dir: str) -> pd.DataFrame:
    """KAPLAN-MEIER SURVIVAL CURVE over entity lifespans (deletion =
    event, alive-at-window-close = right-censored) — survival
    analysis as a streaming pipeline. Rides the zero-shuffle lifespan
    histogram (_LIFESPAN_COUNTS); the driver final walks <= 31
    distinct durations. The survival product becomes an EXACT integer
    cumulative sum of milli-nat log factors q(n-d) - q(n) (q = the
    doc_lm_surprisal quantization), so the curve is order-free and
    partitioning-invariant; survival itself is exp(cum/1000) — two
    single IEEE ops. A duration where everyone at risk dies would
    need ln(0): rejected loudly (cannot occur while any entity is
    censored later)."""
    partials = rio.map_blocks(_docs(sf_dir), _LIFESPAN_COUNTS)
    base = combine_partials(partials, ["lifespan_days", "deleted"], {"n_part": "n"})
    piv = (
        base.pivot_table(index="lifespan_days", columns="deleted", values="n",
                         fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    m = (piv[0] + piv[1]).to_numpy(dtype=np.int64)  # entities with duration t
    d = piv[1].to_numpy(dtype=np.int64)  # deaths at duration t

    at_risk = m[::-1].cumsum()[::-1]  # lifespans >= t
    rows = []
    cum = 0
    for k in range(len(piv)):
        if d[k] == 0:
            continue
        n_t, d_t = int(at_risk[k]), int(d[k])
        if n_t == d_t:
            raise ValueError("kaplan_meier: total extinction at a death time")
        cum += _q_mnat(n_t - d_t) - _q_mnat(n_t)
        rows.append(
            {
                "t_days": int(piv.index[k]),
                "n_at_risk": n_t,
                "n_deaths": d_t,
                "cum_mnat": cum,
                # math.exp = glibc libm, bit-identical to DuckDB's exp()
                # (np.exp's SIMD path can differ by 1 ULP)
                "survival": math.exp(np.float64(cum) / 1000.0),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"t_days": "int64", "n_at_risk": "int64", "n_deaths": "int64",
         "cum_mnat": "int64", "survival": "float64"}
    )
    return out.sort_values("t_days").reset_index(drop=True)


@query(lambda o: o.turn_angle_histogram())
def q_turn_angle_histogram(sf_dir: str) -> pd.DataFrame:
    """TURNING-ANGLE HISTOGRAM: for every entity trajectory, the
    distribution of direction changes between consecutive MOVES
    (45-degree sectors, turn = (octant2 - octant1) mod 8) — the
    movement-analysis companion to sinuosity. Zero shuffle: moves and
    their consecutive pairing resolve per doc inside the fused decode
    (_sorted_versions realign, visible versions only, zero-length
    steps skipped); the 8-row histogram combines at the driver."""
    def stage(b: pa.Table) -> pa.Table:
        tbl, codes, ts, v, _ = _sorted_versions(decode_spans(b), doc_codes(b))
        empty = pa.table(
            {"turn": pa.array([], pa.int64()), "n_p": pa.array([], pa.int64())}
        )
        if not len(ts):
            return empty
        vis = tbl["visible"].to_numpy(zero_copy_only=False).astype(bool)
        codes = codes[vis]
        x = tbl["lon_e7"].to_numpy(zero_copy_only=False)[vis]
        y = tbl["lat_e7"].to_numpy(zero_copy_only=False)[vis]
        if len(codes) < 3:
            return empty
        same = codes[1:] == codes[:-1]
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        move = same & ((dx != 0) | (dy != 0))
        oc = _octant_of(dx[move], dy[move])
        # consecutive moves of the SAME doc: the move inherits the
        # doc code of its endpoints
        mcodes = codes[1:][move]
        if len(oc) < 2:
            return empty
        pair = mcodes[1:] == mcodes[:-1]
        turn = (oc[1:][pair] - oc[:-1][pair]) % 8
        t, n = np.unique(turn, return_counts=True)
        return pa.table(
            {"turn": t.astype(np.int64), "n_p": n.astype(np.int64)}
        )

    df = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage), ["turn"],
        {"n_p": "n_turns"},
    ).astype({"turn": "int64", "n_turns": "int64"})
    return df.sort_values("turn").reset_index(drop=True)


@query(lambda o: o.theilsen_trend_by_type(T0, DAY_US))
def q_theilsen_trend_by_type(sf_dir: str) -> pd.DataFrame:
    """THEIL-SEN ROBUST TREND per event type: the median of all
    pairwise slopes (n_j - n_i)/(day_j - day_i) over the zerofilled
    daily count series — the outlier-robust regression companion to
    the OLS value_trend. EXACT: slopes stay integer rationals
    (slope_num, slope_den); the selection order is (IEEE ratio,
    dn, dd) — the single division is bit-identical in both engines
    and the integer tiebreak resolves double collisions — and the
    median is the row at rank (cnt+1)//2. Distributed work is the
    shared one-pass day grid; the final walks |etypes| x C(31,2)
    pairs."""
    base = _etype_day_grid(sf_dir)
    days = np.arange(base["day"].min(), base["day"].max() + 1, dtype=np.int64)
    iu, ju = np.triu_indices(len(days), k=1)
    rows = []
    for etype, g in base.groupby("etype"):
        x = (
            g.set_index("day")["n"].reindex(days, fill_value=0).to_numpy(dtype=np.int64)
        )
        dn = x[ju] - x[iu]
        dd = days[ju] - days[iu]
        ratio = dn.astype(np.float64) / dd.astype(np.float64)
        order = np.lexsort((dd, dn, ratio))
        cnt = len(order)
        k = (cnt + 1) // 2 - 1
        m = order[k]
        rows.append(
            {
                "etype": etype,
                "n_pairs": cnt,
                "slope_num": int(dn[m]),
                "slope_den": int(dd[m]),
                "slope": np.float64(dn[m]) / np.float64(dd[m]),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"etype": "object", "n_pairs": "int64", "slope_num": "int64",
         "slope_den": "int64", "slope": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


KNOX_R_E7 = 20_000_000  # Knox spatial radius (2 degrees)
KNOX_W_US = 86_400_000_000  # Knox temporal window (1 day)


@query(lambda o: o.knox_pairs(KNOX_R_E7, KNOX_W_US))
def q_knox_pairs(sf_dir: str) -> pd.DataFrame:
    """KNOX SPACE-TIME INTERACTION counts: over all VISIBLE version
    points of DIFFERENT entities, how many pairs are close in space
    (d <= KNOX_R_E7) and how many of those are also close in time
    (|dt| <= KNOX_W_US) — the epidemiology-style clustering test's
    exact sufficient statistics. The pair stage is the
    grid-partitioned radius self-join (9-cell ghost replication,
    nothing quadratic in the corpus) with osm_id/ts carried through;
    version ids pack order-preserving as osm_id*2^20 + v, so the
    engine's id_a < id_b pair set equals the oracle's
    osm_id_a < osm_id_b one after the same-entity exclusion."""
    def points(b: pa.Table) -> pa.Table:
        d = decode_spans(b)
        vis = d["visible"].to_numpy(zero_copy_only=False).astype(bool)
        osm = d["osm_id"].to_numpy(zero_copy_only=False)[vis].astype(np.int64)
        v = d["v"].to_numpy(zero_copy_only=False)[vis].astype(np.int64)
        if len(v) and (int(v.max()) >= 1 << 20 or int(osm.max()) >= 1 << 43):
            raise OverflowError("knox_pairs: version id pack range exceeded")
        return pa.table(
            {
                "id": osm * (1 << 20) + v,
                "x": d["lon_e7"].to_numpy(zero_copy_only=False)[vis],
                "y": d["lat_e7"].to_numpy(zero_copy_only=False)[vis],
                "osm": osm,
                "ts_us": d["ts"].to_numpy(zero_copy_only=False)[vis].astype(np.int64),
            }
        )

    pairs = radius_self_join(
        rio.materialize_blocks(_docs(sf_dir), points),
        KNOX_R_E7,
        carry=("osm", "ts_us"),
    )

    def agg(b: pa.Table) -> pa.Table:
        cross = (
            b["osm_a"].to_numpy(zero_copy_only=False)
            != b["osm_b"].to_numpy(zero_copy_only=False)
        )
        dt = np.abs(
            b["ts_us_a"].to_numpy(zero_copy_only=False)[cross]
            - b["ts_us_b"].to_numpy(zero_copy_only=False)[cross]
        )
        return pa.table(
            {
                "n_space_p": pa.array([np.int64(cross.sum())]),
                "n_st_p": pa.array([np.int64((dt <= KNOX_W_US).sum())]),
            }
        )

    df = combine_partials(
        rio.map_blocks(pairs, agg),
        [],
        {"n_space_p": "n_space_pairs", "n_st_p": "n_spacetime_pairs"},
    )
    return df.astype(
        {"n_space_pairs": "int64", "n_spacetime_pairs": "int64"}
    ).reset_index(drop=True)


RIPLEY_RADII = (100_000_000, 200_000_000, 300_000_000, 400_000_000)  # e7 units


@query(lambda o: o.ripley_k(RIPLEY_RADII))
def q_ripley_k(sf_dir: str) -> pd.DataFrame:
    """RIPLEY'S K FUNCTION over the T_MID snapshot points: exact
    unordered pair counts within each radius of the ladder (one
    grid-partitioned radius self-join at the LARGEST radius, pair d2
    bucketed against the smaller thresholds in-stage — one shuffle for
    the whole ladder), plus the standard normalization
    K(r) = 2 * pairs * A / (n * (n-1)) with A = the full lon/lat
    plane area (planar convention, mirrored literally; the exact
    integer pair counts are the value-bearing columns)."""
    def stage(batch: pa.Table) -> pa.Table:
        return _positions(batch).rename_columns(["id", "x", "y"])

    # MATERIALIZE: the point set feeds both the pair join and the
    # count — a lazy upstream would re-run the decode+interpolate
    # chain once per consumer (the way_lengths multi-consumer hazard)
    pts = rio.materialize_blocks(_docs(sf_dir), stage)
    pairs = radius_self_join(pts, max(RIPLEY_RADII))

    def bucketize(b: pa.Table) -> pa.Table:
        d2 = b["d2"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                f"r{k}_p": pa.array(
                    [np.int64((d2 <= np.int64(r) * np.int64(r)).sum())]
                )
                for k, r in enumerate(RIPLEY_RADII)
            }
        )

    cnt = combine_partials(
        rio.map_blocks(pairs, bucketize),
        [],
        {f"r{k}_p": f"r{k}" for k in range(len(RIPLEY_RADII))},
    )
    n = rio.num_rows(pts)
    area = np.float64(3_600_000_000) * np.float64(1_800_000_000)
    rows = []
    for k, r in enumerate(RIPLEY_RADII):
        npairs = int(cnt[f"r{k}"].iloc[0])
        rows.append(
            {
                "radius_e7": r,
                "n_points": n,
                "n_pairs": npairs,
                "k_hat": np.float64(npairs)
                * 2.0
                * area
                / (np.float64(n) * np.float64(n - 1)),
            }
        )
    return pd.DataFrame(rows).astype(
        {"radius_e7": "int64", "n_points": "int64", "n_pairs": "int64",
         "k_hat": "float64"}
    )


ZIPF_K = 40  # Zipf regression over the top-K vocabulary


@query(lambda o: o.token_zipf_slope(ZIPF_K))
def q_token_zipf_slope(sf_dir: str) -> pd.DataFrame:
    """ZIPF'S-LAW FIT over the token frequency distribution: OLS slope
    of q(ln freq) on q(ln rank) for the top-K vocabulary (rank by
    freq DESC, word ASC) — the corpus-statistics diagnostic (a healthy
    natural corpus slopes ~ -1000 milli-nats/mnat). Logs quantize to
    integer milli-nats first (the doc_lm_surprisal contract), so the
    OLS sufficient statistics are EXACT integers and the two final
    numbers are single IEEE divisions. The count side is the
    distributed wordcount (vocabulary-cardinality groupby + candidate
    top-k); the regression walks K rows at the driver."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["text"])
    df = topk(_word_counts(ds), key="n_p", k=ZIPF_K, tiebreak="word", descending=True)
    freqs = df["n_p"].to_numpy(dtype=np.int64)
    n = len(freqs)
    if n < 2:
        raise ValueError("token_zipf_slope: vocabulary too small")
    x = [_q_mnat(r) for r in range(1, n + 1)]
    y = [_q_mnat(int(f)) for f in freqs]
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    if not (-(2**63) < num < 2**63 and 0 < den < 2**63):
        raise OverflowError("token_zipf_slope: exceeds int64")
    return pd.DataFrame(
        [
            {
                "n_words": n,
                "slope_num": num,
                "slope_den": den,
                "zipf_slope": np.float64(num) / np.float64(den),
                "intercept_mnat": (np.float64(sy) - (np.float64(num) / np.float64(den)) * np.float64(sx)) / np.float64(n),
            }
        ]
    ).astype(
        {"n_words": "int64", "slope_num": "int64", "slope_den": "int64",
         "zipf_slope": "float64", "intercept_mnat": "float64"}
    )


VOCAB_BIN_DOCS = 100  # vocabulary-growth curve checkpoint spacing


@query(lambda o: o.vocab_growth(VOCAB_BIN_DOCS))
def q_vocab_growth(sf_dir: str) -> pd.DataFrame:
    """HEAPS'-LAW VOCABULARY GROWTH: cumulative distinct-token count
    as the corpus is consumed in doc_id order, sampled every
    VOCAB_BIN_DOCS documents — the corpus-statistics companion to the
    Zipf fit. Fully distributed: each token reduces to its FIRST
    doc_id (vocabulary-cardinality groupby min), first-appearance
    positions bin into the bounded checkpoint grid, and the driver
    cumsums |bins| rows."""
    ds = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        doc = b["doc_id"].to_numpy(zero_copy_only=False)[parent]
        tok = flat.to_numpy(zero_copy_only=False)
        keep = tok != ""
        df = pd.DataFrame({"word": tok[keep], "first_doc_p": doc[keep]})
        g = df.groupby("word", as_index=False)["first_doc_p"].min()
        return pa.Table.from_pandas(g, preserve_index=False)

    firsts = combine_by_key(ds, ["word"], {"first_doc_p": "min"}, stage=explode)

    def to_bins(b: pa.Table) -> pa.Table:
        fd = b["first_doc_p"].to_numpy(zero_copy_only=False)
        bins = fd // VOCAB_BIN_DOCS
        u, c = np.unique(bins, return_counts=True)
        return pa.table(
            {"bin": u.astype(np.int64), "new_p": c.astype(np.int64)}
        )

    df = combine_partials(
        rio.map_blocks(firsts, to_bins), ["bin"], {"new_p": "new_words"}
    ).sort_values("bin")
    out = pd.DataFrame(
        {
            "doc_bin": df["bin"].astype("int64"),
            "new_words": df["new_words"].astype("int64"),
            "cum_vocab": df["new_words"].cumsum().astype("int64"),
        }
    )
    return out.reset_index(drop=True)


@query(lambda o: o.hexcell_location_quotient(HEX_W, HEX_H))
def q_hexcell_location_quotient(sf_dir: str) -> pd.DataFrame:
    """LOCATION QUOTIENT per (hex cell, event type): the cell's share
    of a type relative to the type's global share — the
    geodemographic specialization metric. LQ = (n_ce/n_c)/(n_e/N)
    stays an exact integer rational (lq_num = n_ce*N,
    lq_den = n_c*n_e) with ONE IEEE division; partials combine on the
    bounded (lattice x |etypes|) key."""
    lookup = _tag_lookup(sf_dir)

    keys = ("i", "j", "etype")
    stage = KeyedPartials(functools.partial(_version_hexes, lookup=lookup), keys=keys)
    base = combine_partials(rio.map_blocks(_docs(sf_dir), stage), list(keys), {"n_part": "n"})
    tot = int(base["n"].sum())
    cell_tot = base.groupby(["i", "j"])["n"].sum()
    etype_tot = base.groupby("etype")["n"].sum()
    nc = cell_tot.loc[
        pd.MultiIndex.from_arrays([base["i"], base["j"]])
    ].to_numpy(dtype=np.int64)
    ne = etype_tot.loc[base["etype"]].to_numpy(dtype=np.int64)
    num = base["n"].to_numpy(dtype=np.int64) * tot
    den = nc * ne
    if len(base) and (
        int(base["n"].max()) * tot >= 2**63 or int(nc.max()) * int(ne.max()) >= 2**63
    ):
        raise OverflowError("hexcell_location_quotient: exceeds int64")
    out = pd.DataFrame(
        {
            "hex_i": base["i"],
            "hex_j": base["j"],
            "etype": base["etype"],
            "n": base["n"],
            "lq_num": num,
            "lq_den": den,
            "lq": num.astype(np.float64) / den.astype(np.float64),
        }
    ).astype(
        {"hex_i": "int64", "hex_j": "int64", "etype": "object", "n": "int64",
         "lq_num": "int64", "lq_den": "int64", "lq": "float64"}
    )
    return out.sort_values(["hex_i", "hex_j", "etype"]).reset_index(drop=True)


MARKOV_SCALE = 1 << 40
MARKOV_ITERS = 12


@query(lambda o: o.etype_stationary(MARKOV_SCALE, MARKOV_ITERS))
def q_etype_stationary(sf_dir: str) -> pd.DataFrame:
    """MARKOV STEADY-STATE of the user-behavior chain: the stationary
    distribution of the per-user event-type transition matrix
    (etype_transitions base) by EXACT INTEGER fixed-point power
    iteration — the embedding_pca_top / copurchase_pagerank contract
    applied to a row-stochastic chain. Each round
    v'[j] = sum_i (v[i] * c_ij) // s_i is pure floor arithmetic on
    non-negative ints (total mass is conserved up to floors, so no
    renormalization step is needed); twelve rounds are bit-identical
    in the unrolled SQL CTE chain; the share is one final IEEE
    division by the exact total."""
    trans = q_etype_transitions(sf_dir)
    call = {
        (str(a), str(b)): int(n)
        for a, b, n in zip(trans["prev_etype"], trans["etype"], trans["n"])
    }
    sources = sorted({a for a, _ in call})
    # keep only transitions INTO source states (a destination-only
    # absorbing state has no row in the oracle's out-degree CTE, so
    # both engines drop its in-edges identically); row sums are over
    # the UNFILTERED out-degree, mirroring the SQL st CTE
    c = {(a, b): n for (a, b), n in call.items() if b in set(sources)}
    dests = sorted({b for _, b in c})
    s = {a: sum(n for (x, _), n in call.items() if x == a) for a in sources}
    maxc = max(c.values()) if c else 0
    if not c:
        raise ValueError("etype_stationary: no transitions between sources")
    if MARKOV_SCALE * len(sources) * maxc >= 2**62:
        raise OverflowError("etype_stationary: iteration exceeds int64")
    v = {a: MARKOV_SCALE for a in sources}
    for _ in range(MARKOV_ITERS):
        v = {
            b: sum((v.get(a, 0) * c.get((a, b), 0)) // s[a] for a in sources)
            for b in dests
        }
    tot = sum(v.values())
    out = pd.DataFrame(
        {
            "etype": dests,
            "v_fp": [v[a] for a in dests],
            "share": [np.float64(v[a]) / np.float64(tot) for a in dests],
        }
    ).astype({"etype": "object", "v_fp": "int64", "share": "float64"})
    return out.sort_values("etype").reset_index(drop=True)


OR_EVENT = "purchase"  # odds-ratio outcome event
OR_MIN_HITS = 14  # outcome = at least this many (every user has SOME)


@query(lambda o: o.cohort_odds_ratio(OR_EVENT, OR_MIN_HITS))
def q_cohort_odds_ratio(sf_dir: str) -> pd.DataFrame:
    """2x2 ODDS RATIO: does the even-uid cohort reach the outcome
    (>= OR_MIN_HITS {OR_EVENT} events — an ever-flag saturates on this
    corpus) at different odds than the odd-uid cohort — the
    epidemiology/AB effect-size metric. Per-user outcome COUNTS reduce
    per batch, finalize through the complete-user bucket shuffle, and
    the four exact cell counts yield OR = (a*d)/(b*c) as an integer
    rational with ONE IEEE division."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def flags(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(zero_copy_only=False),
                "hit": (
                    b["event_type"].to_numpy(zero_copy_only=False) == OR_EVENT
                ).astype(np.int64),
            }
        )
        g = df.groupby("user_id", as_index=False)["hit"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def cells(g: pd.DataFrame) -> pd.DataFrame:
        u = g.groupby("user_id", as_index=False)["hit"].sum()
        grp = u["user_id"].to_numpy() % 2
        hit = (u["hit"].to_numpy() >= OR_MIN_HITS).astype(np.int64)
        return pd.DataFrame(
            [
                {
                    "a_p": np.int64(((grp == 0) & (hit == 1)).sum()),
                    "b_p": np.int64(((grp == 0) & (hit == 0)).sum()),
                    "c_p": np.int64(((grp == 1) & (hit == 1)).sum()),
                    "d_p": np.int64(((grp == 1) & (hit == 0)).sum()),
                }
            ]
        )

    parts = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(cells), stage=flags)
    df = combine_partials(
        rio.blocks_table(parts),
        [],
        {"a_p": "n_even_conv", "b_p": "n_even_no", "c_p": "n_odd_conv", "d_p": "n_odd_no"},
    )
    a = int(df["n_even_conv"].iloc[0])
    b = int(df["n_even_no"].iloc[0])
    c = int(df["n_odd_conv"].iloc[0])
    d = int(df["n_odd_no"].iloc[0])
    if b * c == 0:
        raise ValueError("cohort_odds_ratio: degenerate 2x2 table")
    if not (0 <= a * d < 2**63 and 0 < b * c < 2**63):
        raise OverflowError("cohort_odds_ratio: exceeds int64")
    out = df.astype(
        {
            "n_even_conv": "int64", "n_even_no": "int64",
            "n_odd_conv": "int64", "n_odd_no": "int64",
        }
    )
    out["or_num"] = np.int64(a * d)
    out["or_den"] = np.int64(b * c)
    out["odds_ratio"] = np.float64(a * d) / np.float64(b * c)
    return out.reset_index(drop=True)


@query(lambda o: o.user_burstiness())
def q_user_burstiness(sf_dir: str) -> pd.DataFrame:
    """BURSTINESS INDEX B = (sigma - mu)/(sigma + mu) of each user's
    inter-event gaps in WHOLE SECONDS (floor; us^2 squares would
    overflow int64) (Goh-Barabasi): B -> -1 regular, 0 Poisson,
    +1 bursty. Complete-user bucket shuffle; gaps and their EXACT
    integer sufficient statistics resolve in-stage, and the float tail is the fixed IEEE sequence
    mu = S/n, sigma = sqrt(n*S2 - S*S)/n, B = (sigma-mu)/(sigma+mu)
    mirrored literally. Users with fewer than 2 gaps, or an all-zero
    gap stream, drop (the SQL WHERE mirror)."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": b["user_id"], "t": b["ts"].cast(pa.int64()), "event_id": b["event_id"]}
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "t", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["t"].to_numpy(dtype=np.int64)
        same = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1])[same] // 1_000_000  # whole seconds
        gu = u[1:][same]
        df = pd.DataFrame({"user_id": gu, "g": gaps, "g2": gaps * gaps})
        s = df.groupby("user_id").agg(
            n=("g", "size"), sg=("g", "sum"), sg2=("g2", "sum")
        )
        rows = []
        for uid, r in s.iterrows():
            n, sg, sg2 = int(r["n"]), int(r["sg"]), int(r["sg2"])
            varnum = n * sg2 - sg * sg
            if n < 2 or (sg == 0 and varnum == 0):
                continue
            if not (0 <= varnum < 2**63 and 0 <= sg < 2**63):
                raise OverflowError("user_burstiness: exceeds int64")
            mu = np.float64(sg) / np.float64(n)
            sd = np.sqrt(np.float64(varnum)) / np.float64(n)
            rows.append(
                {
                    "user_id": int(uid),
                    "n_gaps": n,
                    "sum_gap_s": sg,
                    "var_num": varnum,
                    "burstiness": (sd - mu) / (sd + mu),
                }
            )
        return pd.DataFrame(
            rows,
            columns=["user_id", "n_gaps", "sum_gap_s", "var_num", "burstiness"],
        ).astype(
            {"user_id": "int64", "n_gaps": "int64", "sum_gap_s": "int64",
             "var_num": "int64", "burstiness": "float64"}
        )

    out = rio.reduce_by_key(ev, ["user_id"], rio.on_pandas(final), stage=prep)
    df = rio.blocks_table(out).to_pandas()
    return df.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.flow_reciprocity(HEX_W, HEX_H))
def q_flow_reciprocity(sf_dir: str) -> pd.DataFrame:
    """OD-FLOW RECIPROCITY: what fraction of cell-to-cell movement is
    matched by reverse movement — sum over unordered cell pairs of
    min(f_ab, f_ba) doubled, over total moves; 1 = perfectly
    bidirectional, 0 = pure drift. Exact integers over the bounded
    flow matrix (the cell_flows base), ONE IEEE division."""
    flows = q_cell_flows(sf_dir)
    f = {
        (int(a), int(b), int(c), int(d)): int(n)
        for a, b, c, d, n in zip(
            flows["from_i"], flows["from_j"], flows["to_i"], flows["to_j"],
            flows["n_moves"],
        )
    }
    total = sum(f.values())
    recip = 0
    for (ai, aj, bi, bj), n in f.items():
        if (ai, aj) < (bi, bj):
            rev = f.get((bi, bj, ai, aj), 0)
            recip += 2 * min(n, rev)
    if total == 0:
        raise ValueError("flow_reciprocity: no moves in corpus")
    return pd.DataFrame(
        [
            {
                "n_moves": total,
                "n_reciprocal": recip,
                "reciprocity": np.float64(recip) / np.float64(total),
            }
        ]
    ).astype({"n_moves": "int64", "n_reciprocal": "int64", "reciprocity": "float64"})


@query(lambda o: o.hex_gearys_c(HEX_W, HEX_H))
def q_hex_gearys_c(sf_dir: str) -> pd.DataFrame:
    """GEARY'S C over the hex lattice — the local-contrast companion
    to Moran's I (C < 1 positive autocorrelation, > 1 negative).
    Every sufficient statistic is exact: P = sum over directed
    occupied 6-neighbor pairs of (x_i - x_j)^2, D = sum of
    (N*x_c - S1)^2 (the N-scaled deviation sum), W = directed pair
    count; C = ((N-1) * N^2 * P) / (2W * D) with a fixed
    three-multiply, one-divide IEEE tail. Same lattice-bounded
    distributed shape as hex_morans_i."""
    base = _hex_version_counts(sf_dir)
    cells = {
        (int(i), int(j)): int(n) for i, j, n in zip(base["i"], base["j"], base["n"])
    }
    n_cells = len(cells)
    s1 = sum(cells.values())
    offs = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    p_sum = 0
    w_pairs = 0
    for (i, j), x in cells.items():
        for di, dj in offs:
            nb = cells.get((i + di, j + dj))
            if nb is not None:
                p_sum += (x - nb) * (x - nb)
                w_pairs += 1
    den = sum((n_cells * x - s1) ** 2 for x in cells.values())
    if w_pairs == 0 or den == 0 or n_cells < 2:
        raise ValueError("hex_gearys_c: degenerate lattice")
    if not (0 <= p_sum < 2**63 and 0 < den < 2**63):
        raise OverflowError("hex_gearys_c: statistic exceeds int64")
    c = (
        np.float64(n_cells - 1)
        * np.float64(n_cells * n_cells)
        * np.float64(p_sum)
    ) / (np.float64(2 * w_pairs) * np.float64(den))
    return pd.DataFrame(
        [
            {
                "n_cells": n_cells,
                "w_pairs": w_pairs,
                "p_sum": p_sum,
                "den": den,
                "gearys_c": c,
            }
        ]
    ).astype(
        {"n_cells": "int64", "w_pairs": "int64", "p_sum": "int64", "den": "int64",
         "gearys_c": "float64"}
    )


VARIO_BINS = (50_000_000, 100_000_000, 200_000_000, 400_000_000)  # ring edges, e7


@query(lambda o: o.semivariogram(VARIO_BINS))
def q_semivariogram(sf_dir: str) -> pd.DataFrame:
    """EMPIRICAL SEMIVARIOGRAM of the version-number field over the
    T_MID snapshot points: gamma(h) = sum (z_i - z_j)^2 / (2 n_h)
    per distance ring — the geostatistics structure function that
    motivates the IDW/kriging interpolation family. One radius
    self-join at the outermost ring edge with the field CARRIED
    through; per-ring exact integer squared-contrast sums and pair
    counts combine from in-stage partials; one IEEE division per
    ring."""
    def stage(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["osm_id", "lon_e7", "lat_e7", "v"])
        return s.rename_columns(["id", "x", "y", "val"])

    pts = rio.materialize_blocks(_docs(sf_dir), stage)
    pairs = radius_self_join(pts, max(VARIO_BINS), carry=("val",))

    def per_ring(b: pa.Table) -> pa.Table:
        d2 = b["d2"].to_numpy(zero_copy_only=False)
        dz = b["val_a"].to_numpy(zero_copy_only=False) - b["val_b"].to_numpy(
            zero_copy_only=False
        )
        dz2 = dz * dz
        edges = np.array([0] + [int(r) * int(r) for r in VARIO_BINS], dtype=np.int64)
        ring = np.searchsorted(edges, d2, side="left")  # 1..len(bins); d2=0 -> ring 0
        rows = {"ring": [], "n_p": [], "s_p": []}
        for k in range(1, len(VARIO_BINS) + 1):
            m = ring == k
            rows["ring"].append(np.int64(k))
            rows["n_p"].append(np.int64(m.sum()))
            rows["s_p"].append(np.int64(dz2[m].sum()))
        return pa.table(
            {
                "ring": pa.array(rows["ring"], pa.int64()),
                "n_p": pa.array(rows["n_p"], pa.int64()),
                "s_p": pa.array(rows["s_p"], pa.int64()),
            }
        )

    df = combine_partials(
        rio.map_blocks(pairs, per_ring), ["ring"],
        {"n_p": "n_pairs", "s_p": "sum_dz2"},
    ).sort_values("ring")
    n = df["n_pairs"].to_numpy(dtype=np.int64)
    s = df["sum_dz2"].to_numpy(dtype=np.int64)
    gamma = np.zeros(len(n))  # an empty ring's gamma is 0
    hit = n > 0
    gamma[hit] = s[hit].astype(np.float64) / (2.0 * n[hit].astype(np.float64))
    out = pd.DataFrame(
        {
            "ring": df["ring"].astype("int64"),
            "edge_e7": [VARIO_BINS[int(r) - 1] for r in df["ring"]],
            "n_pairs": n,
            "sum_dz2": s,
            "gamma": gamma,
        }
    ).astype(
        {"ring": "int64", "edge_e7": "int64", "n_pairs": "int64", "sum_dz2": "int64",
         "gamma": "float64"}
    )
    return out.reset_index(drop=True)


@query(lambda o: o.hexcell_dominant_uid(HEX_W, HEX_H))
def q_hexcell_dominant_uid(sf_dir: str) -> pd.DataFrame:
    """DOMINANT CONTRIBUTOR per hex cell: the uid with the most
    visible version edits in each occupied cell (ties to the smallest
    uid), plus their share of the cell's edits — 'who owns this
    tile', the inverse of contributor_territory. The intermediate
    (cell, uid) key is CORPUS-scaled (distinct pairs grow with the
    edit volume), so the final stays DISTRIBUTED: per-batch pair
    partials -> one complete-cell bucket shuffle (keyed on the hex
    cell) -> per-cell argmax, total and the single IEEE share
    division resolve IN-STAGE; the driver collects only the |cells|
    result rows."""
    def stage(b: pa.Table) -> pa.Table:
        d = decode_spans(b)
        vis = d["visible"].to_numpy(zero_copy_only=False).astype(bool)
        uid = d["uid"].to_numpy(zero_copy_only=False)[vis]
        i, j = hex_cell(
            d["lon_e7"].to_numpy(zero_copy_only=False)[vis],
            d["lat_e7"].to_numpy(zero_copy_only=False)[vis],
        )
        g = pd.DataFrame({"i": i, "j": j, "uid": uid}).groupby(
            ["i", "j", "uid"], as_index=False
        ).size()
        return pa.table(
            {
                "i": g["i"].to_numpy(dtype=np.int64),
                "j": g["j"].to_numpy(dtype=np.int64),
                "uid": g["uid"].to_numpy(dtype=np.int64),
                "n_p": g["size"].to_numpy(dtype=np.int64),
            }
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        base = g.groupby(["i", "j", "uid"], as_index=False)["n_p"].sum().rename(
            columns={"n_p": "n"}
        )
        base = base.sort_values(
            ["i", "j", "n", "uid"],
            ascending=[True, True, False, True],
            kind="mergesort",
        )
        top = base.groupby(["i", "j"], as_index=False).first()
        tot = base.groupby(["i", "j"], as_index=False)["n"].sum().rename(
            columns={"n": "n_cell"}
        )
        out = top.merge(tot, on=["i", "j"]).rename(
            columns={"i": "hex_i", "j": "hex_j", "uid": "top_uid", "n": "n_top"}
        )
        out["share"] = out["n_top"].to_numpy(dtype=np.float64) / out[
            "n_cell"
        ].to_numpy(dtype=np.float64)
        return out[["hex_i", "hex_j", "top_uid", "n_top", "n_cell", "share"]].astype(
            {"hex_i": "int64", "hex_j": "int64", "top_uid": "int64",
             "n_top": "int64", "n_cell": "int64", "share": "float64"}
        )

    out = rio.reduce_by_key(_docs(sf_dir), ["i", "j"], rio.on_pandas(final), stage=stage)
    out = rio.blocks_table(out).to_pandas()
    return out.sort_values(["hex_i", "hex_j"]).reset_index(drop=True)


# ------------------------------------------------ twelfth-session sweep
@query(lambda o: o.event_debounce(DEBOUNCE_GAP_US))
def q_event_debounce(sf_dir: str) -> pd.DataFrame:
    """DEBOUNCE / duplicate-suppression over the event stream: an
    event is NOISE when it lands within 300 s of the PREVIOUS event of
    the same (user, event_type) key — the stream-processor duplicate
    filter (flink-style deduplication on a key + time gap). Shape:
    complete-key bucket shuffle (the sessions contract), vectorized
    per-bucket lag compare on (ts, event_id)-ordered runs, per-bucket
    kept/dropped partials; the driver combines |etypes| rows."""
    gap_us = DEBOUNCE_GAP_US
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def route(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "uid": uid,
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
                "ts": b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
                "eid": b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )

    def debounce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["uid", "etype", "ts", "eid"], kind="mergesort")
        ts = g["ts"].to_numpy(dtype=np.int64)
        same = (
            (g["uid"].to_numpy(dtype=np.int64)[1:] == g["uid"].to_numpy(dtype=np.int64)[:-1])
            & (g["etype"].to_numpy()[1:] == g["etype"].to_numpy()[:-1])
        )
        noise = np.zeros(len(g), dtype=bool)
        noise[1:] = same & (ts[1:] - ts[:-1] < gap_us)
        out = pd.DataFrame({"etype": g["etype"].to_numpy(), "noise": noise})
        r = out.groupby(["etype", "noise"], as_index=False).size()
        return pd.DataFrame(
            {
                "etype": r["etype"].to_numpy(),
                "noise": r["noise"].to_numpy(dtype=np.int64),
                "n_p": r["size"].to_numpy(dtype=np.int64),
            }
        )

    parts = rio.reduce_by_key(ev, ["uid"], rio.on_pandas(debounce), stage=route)
    base = combine_partials(rio.blocks_table(parts), ["etype", "noise"], {"n_p": "n"})
    w = base.pivot_table(index="etype", columns="noise", values="n", fill_value=0, aggfunc="sum")
    out = pd.DataFrame(
        {
            "etype": w.index.to_numpy(),
            "n_kept": w.get(0, pd.Series(0, index=w.index)).to_numpy(dtype=np.int64),
            "n_dropped": w.get(1, pd.Series(0, index=w.index)).to_numpy(dtype=np.int64),
        }
    )
    return out.sort_values("etype").reset_index(drop=True)


@query(lambda o: o.etype_chi2_cohort(CHI2_SCALE))
def q_etype_chi2_cohort(sf_dir: str) -> pd.DataFrame:
    """CHI-SQUARE test of independence + CRAMER'S V between event type
    and the even/odd-uid cohort — the categorical-association terminal
    beside ab_test_value. The per-cell contribution
    (O*N - R*C)^2 / (N*R*C) quantizes to integer MICRO-UNITS by floor
    division over exact Python ints (HUGEINT in the mirror), so the
    sum is order-free; chi2 and V are fixed IEEE tails over the exact
    integer."""
    scale = CHI2_SCALE
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    base = combine_partials(
        rio.map_blocks(ev, _event_partials(("etype", "grp"))), ["etype", "grp"], {"n_part": "n"}
    )
    o = {(e, int(g)): int(n) for e, g, n in zip(base["etype"], base["grp"], base["n"])}
    ets = sorted({e for e, _ in o})
    grps = sorted({g for _, g in o})
    r = {e: sum(o.get((e, g), 0) for g in grps) for e in ets}
    c = {g: sum(o.get((e, g), 0) for e in ets) for g in grps}
    n = sum(r.values())
    chi2_micro = 0
    for e in ets:
        for g in grps:
            num = (o.get((e, g), 0) * n - r[e] * c[g]) ** 2
            chi2_micro += (scale * num) // (n * r[e] * c[g])
    mindim = min(len(ets) - 1, len(grps) - 1)
    if mindim < 1:
        raise ValueError("chi2: degenerate contingency table (one row or column)")
    if not (0 <= chi2_micro < 2**63):
        raise OverflowError("chi2_micro exceeds int64")
    out = pd.DataFrame(
        {
            "n_events": [n],
            "n_cells": [len(ets) * len(grps)],
            "chi2_micro": [chi2_micro],
            "chi2": [np.float64(chi2_micro) / np.float64(scale)],
            "cramers_v": [
                np.sqrt(np.float64(chi2_micro) / np.float64(scale * n * mindim))
            ],
        }
    ).astype(
        {
            "n_events": "int64",
            "n_cells": "int64",
            "chi2_micro": "int64",
            "chi2": "float64",
            "cramers_v": "float64",
        }
    )
    return out


@query(lambda o: o.etype_dow_mutual_info(T0, DAY_US))
def q_etype_dow_mutual_info(sf_dir: str) -> pd.DataFrame:
    """MUTUAL INFORMATION between event type and day-of-week — how
    much the weekly rhythm tells you about what users do. N*MI in
    milli-nats is the EXACT integer
    sum_ij n_ij * (q(n_ij) + q(N) - q(r_i) - q(c_j)) with q = the
    etype_day_entropy milli-nat quantization; the only float is the
    final single IEEE division by N."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    base = combine_partials(
        rio.map_blocks(ev, _event_partials(("etype", "weekday"))), ["etype", "weekday"],
        {"n_part": "n"},
    )
    o = {(e, int(d)): int(n) for e, d, n in zip(base["etype"], base["weekday"], base["n"])}
    ets = sorted({e for e, _ in o})
    dows = sorted({d for _, d in o})
    r = {e: sum(o.get((e, d), 0) for d in dows) for e in ets}
    c = {d: sum(o.get((e, d), 0) for e in ets) for d in dows}
    n = sum(r.values())
    qn = _q_mnat(n)
    num = sum(
        o[k] * (_q_mnat(o[k]) + qn - _q_mnat(r[k[0]]) - _q_mnat(c[k[1]]))
        for k in o
        if o[k] > 0
    )
    if not (-(2**63) < num < 2**63):
        raise OverflowError("mutual-information numerator exceeds int64")
    out = pd.DataFrame(
        {
            "n_events": [n],
            "num": [num],
            "mi_mnat": [np.float64(num) / np.float64(n)],
        }
    ).astype({"n_events": "int64", "num": "int64", "mi_mnat": "float64"})
    return out


@query(lambda o: o.rolling_median_value(T0, DAY_US))
def q_rolling_median_value(sf_dir: str) -> pd.DataFrame:
    """7-day ROLLING EXACT MEDIAN of event value per type — the
    order-statistic sibling of rolling_active_users. No mergeable
    median partial exists, so each (etype, day, cents) HISTOGRAM row
    fans out to the <= 7 windows it covers (bounded replication of the
    bounded histogram, never the event rows); the complete-(etype,
    window) groups resolve the LOWER MEDIAN rank (T+1)//2 by cumsum
    walk, and the driver combines |etypes x windows| rows."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def hist(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "c")
        day = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US
        df = pd.DataFrame(
            {
                "etype": b["event_type"].to_numpy(zero_copy_only=False),
                "day": day,
                "c": b["c"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["etype", "day", "c"], as_index=False).size()
        k = len(g)
        off = np.tile(np.arange(7, dtype=np.int64), k)
        wend = np.repeat(g["day"].to_numpy(dtype=np.int64), 7) + off
        keep = wend <= 30
        return pa.table(
            {
                "etype": np.repeat(g["etype"].to_numpy(), 7)[keep],
                "wend": wend[keep],
                "c": np.repeat(g["c"].to_numpy(dtype=np.int64), 7)[keep],
                "m_p": np.repeat(g["size"].to_numpy(dtype=np.int64), 7)[keep],
            }
        )

    def medians(g: pd.DataFrame) -> pd.DataFrame:
        h = g.sort_values(["etype", "wend", "c"], kind="mergesort")
        out = h.groupby(["etype", "wend"], as_index=False)["m_p"].sum()
        med = _weighted_pick(h, ["etype", "wend"], "c", "m_p", lambda t: (t + 1) // 2)
        return out.rename(columns={"m_p": "n_events"}).assign(median_cents=med)

    refs = rio.reduce_by_key(ev, ["etype", "wend"], rio.on_pandas(medians), stage=hist)
    out = rio.blocks_table(refs).to_pandas()
    out = out.astype(
        {"wend": "int64", "n_events": "int64", "median_cents": "int64"}
    )
    return out.sort_values(["etype", "wend"]).reset_index(drop=True)


RRF_K = 60
RRF_SCALE = 1_000_000_000
RRF_POOL = 100
RRF_TOP = 20


@query(lambda o: o.rrf_fusion(RRF_K, RRF_SCALE, RRF_POOL, RRF_TOP))
def q_rrf_fusion(sf_dir: str) -> pd.DataFrame:
    """RECIPROCAL RANK FUSION of two document rankings — the
    multi-retriever result-merging terminal of an IR stack. Ranking A
    orders by n_chars, ranking B by whitespace token count (the
    doc_tokens ws contract), both (key DESC, doc_id ASC) top-100 via
    the distributed candidate top-k (k rows per batch move, never the
    corpus). Scores are EXACT integers floor(SCALE/(K + rank)) so the
    fused order is bit-stable; absent-in-one-list docs keep rank -1."""
    docs = rio.read_resident(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )

    def with_tokens(b: pa.Table) -> pa.Table:
        n = pc.utf8_length(b["text"])
        sp = pc.count_substring(b["text"], " ")
        ws = pc.if_else(
            pc.equal(n, 0), pa.scalar(0, pa.int64()),
            pc.add(sp.cast(pa.int64()), 1),
        )
        return pa.table({"doc_id": b["doc_id"], "ws_tokens": ws})

    a = topk(docs, "n_chars", RRF_POOL, "doc_id")
    b = topk(
        rio.materialize_blocks(docs, with_tokens),
        "ws_tokens", RRF_POOL, "doc_id",
    )
    ra = {int(d): i + 1 for i, d in enumerate(a["doc_id"])}
    rb = {int(d): i + 1 for i, d in enumerate(b["doc_id"])}
    rows = []
    for d in sorted(set(ra) | set(rb)):
        s = 0
        if d in ra:
            s += RRF_SCALE // (RRF_K + ra[d])
        if d in rb:
            s += RRF_SCALE // (RRF_K + rb[d])
        rows.append(
            {"doc_id": d, "rank_len": ra.get(d, -1), "rank_tok": rb.get(d, -1), "rrf_score": s}
        )
    out = (
        pd.DataFrame(rows)
        .sort_values(["rrf_score", "doc_id"], ascending=[False, True], kind="mergesort")
        .head(RRF_TOP)
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "rank_len": "int64", "rank_tok": "int64", "rrf_score": "int64"})
    )
    return out


HITS_ITERS = 2
HITS_SCALE = 1_000_000


@query(lambda o: o.part_hits_authority(HITS_SCALE, HITS_ITERS))
def q_part_hits_authority(sf_dir: str) -> pd.DataFrame:
    """HITS AUTHORITY scores of parts in the customer->part purchase
    graph (ops/hits.py): 2 exact fixed-point Kleinberg iterations —
    integer message sums along the distinct bipartite edges, L1
    renormalization by floor division — so the scores are
    bit-identical at any parallelism and the oracle is the identical
    rounds unrolled as MATERIALIZED join-aggregate CTEs."""
    li = rio.materialize_blocks(
        rio.read_resident(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]),
        lambda b: b.rename_columns(["o_orderkey", "l_partkey"]),
    )
    od = rio.read_resident(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    # raw join output: hits_bipartite dedupes (cust, part) in its
    # routing pass (every copy hashes to the same src bucket)
    edges = hash_join(li, od, on="o_orderkey")
    df = hits_bipartite(
        edges, src="o_custkey", dst="l_partkey", iters=HITS_ITERS, scale=HITS_SCALE
    )
    df = df.rename(columns={"node": "part_id", "val": "auth"})
    return df.sort_values("part_id").reset_index(drop=True)


@query(lambda o: o.snapshot_count_by_geohash())
def q_snapshot_count_by_geohash(sf_dir: str) -> pd.DataFrame:
    """Snapshot count at T_MID grouped by GEOHASH-5 cell — the
    string-keyed industry-standard spatial key beside the XYGrid, S2
    and hex-lattice partitions (spatial/geohash.py: two integer scaled
    divisions + a 25-bit interleave, no floats, so the cell id is a
    bit-stable shuffle key; the base32 rendering is order-isomorphic
    to the packed id)."""
    stage, _ = snapshot_counts_stage([T_MID], cell=geohash_bits)
    df = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage),
        ["cell"],
        {"n_part": "n_snapshots"},
    )
    out = pd.DataFrame(
        {
            "geohash": [geohash_str(c) for c in df["cell"]],
            "n_snapshots": df["n_snapshots"].astype("int64"),
        }
    )
    return out.sort_values("geohash").reset_index(drop=True)


BM25_TERMS = ("merge", "spark", "vector", "window")
BM25_TOP = 15


@query(lambda o: o.bm25_top_docs(BM25_TERMS, BM25_TOP))
def q_bm25_top_docs(sf_dir: str) -> pd.DataFrame:
    """BM25 RANKING of documents against a fixed term set — the
    retrieval terminal beside tfidf_top_terms, in EXACT INTEGER
    fixed-point so the ranking is bit-stable under any partitioning.
    With k1 = 6/5 and b = 3/4 the classic score
    idf * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)) multiplies
    through by 20*L (L = corpus token count, avgdl = L/D) into the
    all-integer rational
    (44000 * idf_mn * tf * L) // (20*L*tf + 6*L + 18*dl*D)
    with idf_mn = q(D) - q(df) in milli-nats (the etype_day_entropy q
    kernel). One tokenize pass emits matched (doc, term, tf, dl) rows
    plus sentinel partials for L and df; scoring is a broadcast-free
    map with the |terms|-sized df LUT in the task closure, per-doc
    totals complete per doc bucket (doc cardinality), and only the
    top-k candidates reach the driver."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = rio.num_rows(docs)
    terms = sorted(BM25_TERMS)

    def stage(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).to_numpy(zero_copy_only=False)
        ids = np.repeat(b["doc_id"].to_numpy(zero_copy_only=False), n_per)
        ne = flat != ""
        ids_f, w_f = ids[ne], flat[ne]
        uid, ucnt = np.unique(ids_f, return_counts=True)
        dl_of = dict(zip(uid, ucnt))
        hit = np.isin(w_f, terms)
        g = (
            pd.DataFrame({"doc_id": ids_f[hit], "word": w_f[hit]})
            .groupby(["doc_id", "word"], as_index=False)
            .size()
        )
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "word": g["word"].to_numpy(),
                "tf": g["size"].to_numpy(dtype=np.int64),
                "dl": g["doc_id"].map(dl_of).to_numpy(dtype=np.int64),
            }
        )
        # sentinels: doc_id=-1 carries the batch token total (L
        # partial); doc_id=-2 per word carries the df partial (each
        # doc tokenizes whole-in-batch, so per-batch doc counts sum
        # exactly)
        dfp = g.groupby("word", as_index=False).size()
        sent = pd.DataFrame(
            {
                "doc_id": np.r_[
                    np.int64(-1), np.full(len(dfp), -2, dtype=np.int64)
                ],
                "word": np.r_[np.array([""], dtype=object), dfp["word"].to_numpy()],
                "tf": np.r_[np.int64(0), dfp["size"].to_numpy(dtype=np.int64)],
                "dl": np.r_[np.int64(len(ids_f)), np.zeros(len(dfp), dtype=np.int64)],
            }
        )
        return pa.Table.from_pandas(pd.concat([out, sent]), preserve_index=False)

    m = rio.materialize_blocks(docs, stage)
    stats = combine_partials(
        rio.map_blocks(m, lambda b: b.filter(pc.less(b["doc_id"], 0))),
        ["doc_id", "word"],
        {"tf": "tf", "dl": "dl"},
    )
    corpus_l = int(stats.loc[stats["doc_id"] == -1, "dl"].iloc[0])
    df_of = {
        w: int(t)
        for w, t in zip(
            stats.loc[stats["doc_id"] == -2, "word"],
            stats.loc[stats["doc_id"] == -2, "tf"],
        )
    }
    qd = _q_mnat(n_docs)
    idf_of = {w: qd - _q_mnat(df_of[w]) for w in df_of}
    if max(idf_of.values(), default=0) * 44_000 * 101 * corpus_l >= 2**62:
        raise OverflowError("bm25: score numerator exceeds the int64 bound")

    def score(b: pa.Table) -> pa.Table:
        keep = pc.greater_equal(b["doc_id"], 0)
        t = b.filter(keep)
        tf = t["tf"].to_numpy(zero_copy_only=False)
        if tf.size and int(tf.max()) > 100:
            raise OverflowError("bm25: tf exceeds the guarded bound (raise it)")
        dl = t["dl"].to_numpy(zero_copy_only=False)
        idf = np.array(
            [idf_of[w] for w in t["word"].to_numpy(zero_copy_only=False)],
            dtype=np.int64,
        )
        num = 44_000 * idf * tf * corpus_l
        den = 20 * corpus_l * tf + 6 * corpus_l + 18 * dl * n_docs
        return pa.table({"doc_id": t["doc_id"], "sc": num // den})

    per_doc = combine_by_key(m, ["doc_id"], {"sc": "sum"}, stage=score)
    out = topk(per_doc, "sc", BM25_TOP, "doc_id").rename(columns={"sc": "bm25_micro"})
    return out.astype({"doc_id": "int64", "bm25_micro": "int64"}).reset_index(
        drop=True
    )


@query(lambda o: o.way_centroids())
def q_way_centroids(sf_dir: str) -> pd.DataFrame:
    """Area-weighted SHOELACE CENTROID of the synthetic triangle ways
    at T_MID — for a triangle the shoelace centroid reduces exactly to
    the vertex mean, so the numerators are EXACT INT SUMS of three e7
    coordinates and the only floats are the two single IEEE divisions
    by 3. Same one-shuffle fan-out/assemble shape as q_way_areas (the
    corner rows route once by triangle id; nothing re-shuffles)."""
    def fan_out(batch: pa.Table) -> pa.Table:
        s = _positions(batch)
        osm = s["osm_id"].to_numpy(zero_copy_only=False)
        lon = s["lon_e7"].to_numpy(zero_copy_only=False)
        lat = s["lat_e7"].to_numpy(zero_copy_only=False)
        way = np.concatenate([osm - i for i in range(3)])
        return pa.table(
            {
                "way_id": way,
                "corner": np.repeat(np.arange(3, dtype=np.int64), len(osm)),
                "lon_e7": np.tile(lon, 3),
                "lat_e7": np.tile(lat, 3),
            }
        )

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["way_id", "corner"], kind="mergesort")
        counts = g.groupby("way_id", sort=False)["corner"].transform("size")
        g = g[counts == 3]  # only complete triangles
        agg = g.groupby("way_id", as_index=False).agg(
            cx_num=("lon_e7", "sum"), cy_num=("lat_e7", "sum")
        )
        return agg

    out = rio.reduce_by_key(_docs(sf_dir), ["way_id"], rio.on_pandas(assemble), stage=fan_out)
    out = rio.blocks_table(out).to_pandas().astype(
        {"way_id": "int64", "cx_num": "int64", "cy_num": "int64"}
    )
    out["cx_e7"] = out["cx_num"].to_numpy(dtype=np.float64) / 3.0
    out["cy_e7"] = out["cy_num"].to_numpy(dtype=np.float64) / 3.0
    return out.sort_values("way_id").reset_index(drop=True)


LIFESPAN_BINS = 64  # time-range bins of lifespan_overlap_pairs; the result is independent of it


@query(lambda o: o.lifespan_overlap_pairs(DWELL_END))
def q_lifespan_overlap_pairs(sf_dir: str) -> pd.DataFrame:
    """ALLEN-INTERVAL OVERLAP COUNTING over entity lifespans: how many
    unordered pairs of entities were ever alive at the same time
    (touching endpoints count as overlap). overlap = C(n,2) - disjoint
    with disjoint = #{(i,j): e_i < s_j} — counted DISTRIBUTED by
    range-bucketing the time axis (the gaps-and-islands stitch): each
    bucket counts its own end<start pairs exactly via sorted
    searchsorted, cross-bucket pairs are per-bucket start counts times
    the prefix sum of earlier end counts — O(buckets) rows to the
    driver, exact Python-int combine."""
    span = DWELL_END - T0

    def spans(b: pa.Table) -> pa.Table:
        tbl, codes, ts, _v, _ = _sorted_versions(
            decode_spans(b, geom=False), doc_codes(b)
        )
        if not len(ts):
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int64()),
                    "t": pa.array([], pa.int64()),
                }
            )
        first = np.r_[True, codes[1:] != codes[:-1]]
        last = np.r_[codes[1:] != codes[:-1], True]
        vis = tbl["visible"].to_numpy(zero_copy_only=False)
        s = ts[first]
        e = np.where(~vis[last], ts[last], DWELL_END)
        t = np.concatenate([e, s])
        kind = np.repeat(np.array([0, 1], dtype=np.int64), [len(e), len(s)])
        bkt = np.clip((t - T0) * LIFESPAN_BINS // span, 0, LIFESPAN_BINS - 1)
        return pa.table({"bucket": bkt, "kind": kind, "t": t})

    def per_bucket(bucket: int, g: pd.DataFrame) -> tuple:
        k = g["kind"].to_numpy(dtype=np.int64)
        t = g["t"].to_numpy(dtype=np.int64)
        ends = np.sort(t[k == 0])
        starts = t[k == 1]
        inb = int(np.searchsorted(ends, starts, side="left").sum())
        return bucket, len(starts), len(ends), inb

    def buckets(g: pd.DataFrame) -> pd.DataFrame:
        rows = [per_bucket(b, r) for b, r in g.groupby("bucket", sort=False)]
        return pd.DataFrame(
            rows, columns=["bucket", "n_starts", "n_ends", "in_bucket"]
        ).astype("int64")

    parts = rio.reduce_by_key(_docs(sf_dir), ["bucket"], rio.on_pandas(buckets), stage=spans)
    parts = rio.blocks_table(parts).to_pandas().sort_values("bucket")
    n = int(parts["n_starts"].sum())
    cum_ends = 0
    disjoint = 0
    for _, r in parts.iterrows():
        disjoint += int(r["in_bucket"]) + int(r["n_starts"]) * cum_ends
        cum_ends += int(r["n_ends"])
    pairs = n * (n - 1) // 2
    return pd.DataFrame(
        {
            "n_entities": [n],
            "n_pairs": [pairs],
            "n_disjoint": [disjoint],
            "n_overlap": [pairs - disjoint],
        }
    ).astype("int64")


TRIPLE_MIN_SUP = 2
CMS_D = 3
CMS_W = 16
RECO_TOP = 20


@query(lambda o: o.frequent_part_triples(TRIPLE_MIN_SUP))
def q_frequent_part_triples(sf_dir: str) -> pd.DataFrame:
    """A-PRIORI FREQUENT 3-ITEMSETS over market baskets: part triples
    co-purchased in >= TRIPLE_MIN_SUP orders. Complete-by-order bucket
    fan-out (the _copurchase_edges shape); per-order triple emission is
    two vectorized self-merges bounded by C(basket, 3) <= ~35 rows;
    triples PACK into one int64 (21 bits per part, loud guard) so the
    support count is a second shuffle by that key; only
    the frequent triples reach the driver."""
    li = rio.read_resident(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {"ok": b["l_orderkey"].cast(pa.int64()), "pk": b["l_partkey"].cast(pa.int64())}
        )

    def order_triples(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        if g["pk"].max() >= 1 << 21:
            raise OverflowError(
                "frequent_part_triples: part id exceeds the 21-bit pack"
            )
        m = g.merge(g, on="ok", suffixes=("_a", "_b"))
        m = m[m["pk_a"] < m["pk_b"]]
        m = m.merge(g.rename(columns={"pk": "pk_c"}), on="ok")
        m = m[m["pk_b"] < m["pk_c"]]
        key = (
            (m["pk_a"].to_numpy(dtype=np.int64) << 42)
            | (m["pk_b"].to_numpy(dtype=np.int64) << 21)
            | m["pk_c"].to_numpy(dtype=np.int64)
        )
        # in-group pre-combine, then a second shuffle by triple key
        ks, cnt = np.unique(key, return_counts=True)
        return pd.DataFrame({"key": ks, "n_p": cnt.astype(np.int64)})

    def support(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("key", as_index=False)["n_p"].sum()
        return s[s["n_p"] >= TRIPLE_MIN_SUP]

    triples = rio.reduce_by_key(li, ["ok"], rio.on_pandas(order_triples), stage=tag)
    out = rio.blocks_table(rio.reduce_by_key(triples, ["key"], rio.on_pandas(support)))
    out = out.to_pandas()
    k = out["key"].to_numpy(dtype=np.int64)
    res = pd.DataFrame(
        {
            "p1": k >> 42,
            "p2": (k >> 21) & ((1 << 21) - 1),
            "p3": k & ((1 << 21) - 1),
            "support": out["n_p"].to_numpy(dtype=np.int64),
        }
    ).astype("int64")
    return res.sort_values(["p1", "p2", "p3"]).reset_index(drop=True)


@query(lambda o: o.cms_etype_counts(CMS_D, CMS_W))
def q_cms_etype_counts(sf_dir: str) -> pd.DataFrame:
    """COUNT-MIN SKETCH with a VALUE-EXACT oracle: the sketch is
    deterministic (md5 row hashes, the sampling-oracle convention), so
    its collision overestimates are themselves mirrorable — the oracle
    recomputes the d x w bucket sums in SQL and takes the same LEAST.
    The engine builds the sketch from per-batch (row, bucket) partials
    (d*w bounded combine), reporting exact vs estimated side by side —
    the overestimate IS the sketch's documented behavior, value-pinned
    here instead of rows-only like the HLL family."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type"])

    def bucket_of(j: int, etype: str) -> int:
        h = hashlib.md5(f"{j}:{etype}".encode()).hexdigest()[:8]
        return int(h, 16) % CMS_W

    def partials(b: pa.Table) -> pa.Table:
        et, cnt = np.unique(
            b["event_type"].to_numpy(zero_copy_only=False), return_counts=True
        )
        rows = []
        for e, n in zip(et, cnt):
            rows.append((e, -1, -1, int(n)))  # exact-count partial
            for j in range(CMS_D):
                rows.append(("", j, bucket_of(j, e), int(n)))
        df = pd.DataFrame(rows, columns=["etype", "j", "b", "n"])
        g = df.groupby(["etype", "j", "b"], as_index=False)["n"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    base = combine_partials(
        rio.map_blocks(ev, partials),
        ["etype", "j", "b"],
        {"n": "n"},
    )
    cms = {
        (int(j), int(bb)): int(n)
        for e, j, bb, n in zip(base["etype"], base["j"], base["b"], base["n"])
        if e == ""
    }
    rows = []
    for e, j, _bb, n in zip(base["etype"], base["j"], base["b"], base["n"]):
        if e == "":
            continue
        est = min(cms[(j2, bucket_of(j2, e))] for j2 in range(CMS_D))
        rows.append({"etype": e, "n_exact": int(n), "n_cms": est})
    out = pd.DataFrame(rows).astype({"n_exact": "int64", "n_cms": "int64"})
    return out.sort_values("etype").reset_index(drop=True)


def _wedge_keys(nodes: np.ndarray, peers: np.ndarray) -> np.ndarray:
    """Pair keys ``(a << 21) | b`` (a < b) of all neighbor pairs per
    center node, from (node, peer) rows sorted by (node, peer). PURE
    NUMPY (a pandas self-merge materializes the ordered-pair double and
    was the measured wall of the family scaling pair): the i<j index
    pairs come from the fan-out index trick — firsts repeat with
    shrinking counts, seconds are an arange offset past each first.
    Loud on a hub over the wedge cap and on a peer id that does not
    fit the 21-bit pack."""
    starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
    ends = np.r_[starts[1:], len(nodes)]
    deg = ends - starts
    if deg.size and int(deg.max()) > 10_000:
        raise OverflowError(
            "copurchase_recommendations: hub degree exceeds the wedge "
            "cap — shard the neighbor list before pairing"
        )
    if len(peers) and int(peers.max()) >= 1 << 21:
        raise OverflowError("copurchase_recommendations: part id exceeds the 21-bit pack")
    reps = np.repeat(ends, deg) - np.arange(len(nodes)) - 1  # pairs per row
    total = int(reps.sum())
    first_idx = np.repeat(np.arange(len(nodes)), reps)
    sec_idx = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps) + first_idx + 1
    return (peers[first_idx] << 21) | peers[sec_idx]  # sorted: a < b


@query(lambda o: o.copurchase_recommendations(RECO_TOP))
def q_copurchase_recommendations(sf_dir: str) -> pd.DataFrame:
    """TRIADIC-CLOSURE LINK PREDICTION: the top non-adjacent part
    pairs by common co-purchase neighbors ("customers who bought
    these also bought..."). Wedges (neighbor pairs centered at each
    node) and the adjacency itself route to the SAME pair-key groups,
    so non-adjacency filtering and wedge counting resolve in one
    shuffle by pair key — no separate anti-join shuffle; only each
    bucket's top-k candidates reach the driver. Per-node wedge
    emission is C(deg, 2) — bounded here by the <= ~7-item baskets; a
    degree cap raises loudly (the DF-cap convention) rather than
    silently exploding on a hub."""
    edges = dedupe_edges(_copurchase_edges(sf_dir))  # (u, v), u < v

    def directed(b: pa.Table) -> pa.Table:
        u = b["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = b["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": np.concatenate([u, v]), "peer": np.concatenate([v, u])})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["node", "peer"], kind="mergesort")
        node = g["node"].to_numpy(dtype=np.int64)
        peer = g["peer"].to_numpy(dtype=np.int64)
        # pre-combine in-group (one row per distinct pair); every edge
        # u < v also emits its own pair key once with a negative
        # sentinel weight, so adjacency meets the wedges in one shuffle
        ks, cnt = np.unique(_wedge_keys(node, peer), return_counts=True)
        own = node < peer
        return pd.DataFrame(
            {
                "key": np.r_[ks, (node[own] << 21) | peer[own]],
                "w": np.r_[cnt.astype(np.int64), np.full(own.sum(), -(1 << 40))],
            }
        )

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # complete pair-keys per bucket: vectorized sum, then the
        # bucket's top-k candidates
        s = g.groupby("key", as_index=False)["w"].sum()
        s = s[s["w"] > 0]  # any adjacency sentinel drives the sum negative
        s = s.sort_values(["w", "key"], ascending=[False, True], kind="mergesort")
        return s.head(RECO_TOP)

    pairs = rio.reduce_by_key(edges, ["node"], rio.on_pandas(wedges), stage=directed)
    top = rio.blocks_table(rio.reduce_by_key(pairs, ["key"], rio.on_pandas(resolve)))
    top = top.to_pandas().sort_values(["w", "key"], ascending=[False, True], kind="mergesort")
    top = top.head(RECO_TOP)
    k = top["key"].to_numpy(dtype=np.int64)
    out = pd.DataFrame(
        {
            "part_a": k >> 21,
            "part_b": k & ((1 << 21) - 1),
            "common": top["w"].to_numpy(dtype=np.int64),
        }
    ).astype("int64")
    return out.reset_index(drop=True)


@query(lambda o: o.source_vocab_jaccard())
def q_source_vocab_jaccard(sf_dir: str) -> pd.DataFrame:
    """Pairwise VOCABULARY JACCARD between document sources — the
    corpus-mixing diagnostic beside source_drift_psi (drift compares
    frequency mass; this compares which words exist at all). Distinct
    (word, source) pairs finalize per batch (docs tokenize
    whole-in-batch), one vocabulary-cardinality groupby attaches each
    word's source BITMASK (sources are an enum, so the mask is one
    int), and the |sources|^2-bounded mask histogram reaches the
    driver; every pair's intersection/union then reads off the mask
    counts — no pairwise join anywhere."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["text", "source"])
    # source enum (bounded): distinct via per-batch unique partials
    # over a SOURCE-ONLY read (don't ship the text column twice)
    docs_src = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["source"])
    order = sorted(
        combine_partials(
            rio.map_blocks(
                docs_src,
                lambda b: pa.table(
                    {"source": np.unique(b["source"].to_numpy(zero_copy_only=False)),
                     "one": np.ones(
                         len(np.unique(b["source"].to_numpy(zero_copy_only=False))),
                         dtype=np.int64)}
                ),
            ),
            ["source"],
            {"one": "n"},
        )["source"]
    )
    if len(order) > 62:
        raise OverflowError("source_vocab_jaccard: source enum exceeds the 62-bit mask")
    code = {s: 1 << i for i, s in enumerate(order)}

    def pairs(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).to_numpy(zero_copy_only=False)
        src = np.repeat(b["source"].to_numpy(zero_copy_only=False), n_per)
        ne = flat != ""
        g = pd.DataFrame({"word": flat[ne], "source": src[ne]}).drop_duplicates()
        return pa.Table.from_pandas(g, preserve_index=False)

    def mask_of(g: pd.DataFrame) -> pd.DataFrame:
        # complete words per hash bucket -> vectorized: dedupe the
        # cross-batch (word, source) copies, then the per-word bit sum
        # equals the OR (each source bit appears once)
        g = g.drop_duplicates(["word", "source"])
        g = g.assign(bit=g["source"].map(code).to_numpy(dtype=np.int64))
        m = g.groupby("word", sort=False)["bit"].sum()
        h = pd.Series(m.values).value_counts()
        return pd.DataFrame(
            {
                "mask": h.index.to_numpy(dtype=np.int64),
                "n_p": h.to_numpy(dtype=np.int64),
            }
        )

    masks = rio.reduce_by_key(docs, ["word"], rio.on_pandas(mask_of), stage=pairs)
    base = combine_partials(rio.blocks_table(masks), ["mask"], {"n_p": "n"})
    hist = dict(zip((int(m) for m in base["mask"]), (int(n) for n in base["n"])))
    rows = []
    for i, sa in enumerate(order):
        for sb in order[i + 1 :]:
            ba, bb = code[sa], code[sb]
            inter = sum(n for m, n in hist.items() if (m & ba) and (m & bb))
            union = sum(n for m, n in hist.items() if (m & ba) or (m & bb))
            rows.append(
                {
                    "source_a": sa,
                    "source_b": sb,
                    "n_inter": inter,
                    "n_union": union,
                    "jaccard": np.float64(inter) / np.float64(union),
                }
            )
    out = pd.DataFrame(rows).astype(
        {"n_inter": "int64", "n_union": "int64", "jaccard": "float64"}
    )
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


def _recency_weights(b: pa.Table) -> pa.Table:
    """Each event's user and recency weight 2^(30 - day); a day outside
    January raises."""
    day = _event_day(b)
    if day.size and (day.min() < 0 or day.max() > 30):
        raise ValueError("user_recency_scores: day outside the January window")
    return pa.table({"user_id": b["user_id"], "w": np.int64(1) << (30 - day)})


@query(lambda o: o.user_recency_scores(T0, DAY_US))
def q_user_recency_scores(sf_dir: str) -> pd.DataFrame:
    """RECENCY-WEIGHTED ENGAGEMENT: per user, the exponentially
    time-decayed activity score with a one-day half-life — EXACT,
    because a day of age is one bit of shift: weight = 2^(30 - age_days)
    is an integer, so the score is an order-free int sum (the money
    rule applied to decay weights; float exp decay would be
    order-dependent). Per-batch (user, day) partials -> one
    user-cardinality ``io.reduce_by_key``; the report is the top-25
    scores."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    stage = KeyedPartials(_recency_weights, keys=("user_id",), sums=("w",))
    per_user = combine_by_key(ev, ["user_id"], {"w_part": "sum"}, stage=stage)
    out = topk(per_user, "w_part", 25, "user_id").rename(columns={"w_part": "score"})
    return out.astype({"user_id": "int64", "score": "int64"}).reset_index(drop=True)


@query(lambda o: o.hapax_rate_by_source())
def q_hapax_rate_by_source(sf_dir: str) -> pd.DataFrame:
    """HAPAX LEGOMENA rate per source — vocabulary richness: the share
    of a source's token occurrences whose word occurs EXACTLY ONCE in
    the whole corpus. Per-batch (word, source) counts -> one
    vocabulary-cardinality groupby resolves each word's corpus count
    and per-source occurrences together (hapax iff corpus count == 1,
    which also pins its source) -> |sources|-bounded partials. The
    rate is one IEEE division of exact ints."""
    docs = rio.read_resident(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def counts(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), WORD_SPLIT_RE)
        n_per = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).to_numpy(zero_copy_only=False)
        src = np.repeat(b["source"].to_numpy(zero_copy_only=False), n_per)
        ne = flat != ""
        g = (
            pd.DataFrame({"word": flat[ne], "source": src[ne]})
            .groupby(["word", "source"], as_index=False)
            .size()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def per_word(g: pd.DataFrame) -> pd.DataFrame:
        # complete words per hash bucket; all-vectorized pandas
        tot = g.groupby("word", as_index=False)["size"].sum()
        hapax_words = set(tot.loc[tot["size"] == 1, "word"])
        out = g.groupby("source", as_index=False)["size"].sum().rename(
            columns={"size": "n_tokens_p"}
        )
        hx = (
            g[g["word"].isin(hapax_words)]
            .groupby("source", as_index=False)["size"]
            .sum()
            .rename(columns={"size": "n_hapax_p"})
        )
        out = out.merge(hx, on="source", how="left")
        out["n_hapax_p"] = out["n_hapax_p"].fillna(0).astype(np.int64)
        return out

    parts = rio.reduce_by_key(docs, ["word"], rio.on_pandas(per_word), stage=counts)
    base = combine_partials(
        rio.blocks_table(parts),
        ["source"],
        {"n_tokens_p": "n_tokens", "n_hapax_p": "n_hapax"},
    )
    out = base.astype({"n_tokens": "int64", "n_hapax": "int64"})
    out["hapax_rate"] = out["n_hapax"].to_numpy(dtype=np.float64) / out[
        "n_tokens"
    ].to_numpy(dtype=np.float64)
    return out.sort_values("source").reset_index(drop=True)


@query(lambda o: o.etype_spearman(T0, DAY_US))
def q_etype_spearman(sf_dir: str) -> pd.DataFrame:
    """SPEARMAN RANK CORRELATION between event types' daily count
    series over their common days — the outlier-robust sibling of
    etype_daily_crosscorr. Ranks use the doubled average-tie-rank
    2*minrank + ties - 1 so every rank is an EXACT INT under ties; the
    sufficient statistics are exact Python ints and the tail is the
    identical crosscorr single-IEEE cast/multiply/sqrt/divide."""
    base = _etype_day_grid(sf_dir)
    series = {
        et: {int(d): int(n) for d, n in zip(g["day"], g["n"])}
        for et, g in base.groupby("etype")
    }

    def r2_of(vals: list) -> list:
        a = np.array(vals, dtype=np.int64)
        order = np.sort(a)
        minrank = np.searchsorted(order, a, side="left") + 1
        ties = np.searchsorted(order, a, side="right") - (minrank - 1)
        return (2 * minrank + ties - 1).tolist()

    rows = []
    for ea, eb in ((a, b) for a in sorted(series) for b in sorted(series) if a < b):
        days = sorted(set(series[ea]) & set(series[eb]))
        if not days:
            continue
        x = r2_of([series[ea][d] for d in days])
        y = r2_of([series[eb][d] for d in days])
        n = len(days)
        sx, sy = sum(x), sum(y)
        sxy = sum(a * b for a, b in zip(x, y))
        sxx, syy = sum(a * a for a in x), sum(b * b for b in y)
        num = n * sxy - sx * sy
        vx, vy = n * sxx - sx * sx, n * syy - sy * sy
        if vx == 0 or vy == 0:
            raise ValueError(f"spearman: constant rank series in pair {ea!r},{eb!r}")
        if not (-(2**63) < num < 2**63):
            raise OverflowError("spearman numerator exceeds int64")
        rows.append(
            {
                "etype_a": ea,
                "etype_b": eb,
                "n_days": n,
                "num": num,
                "spearman": np.float64(num)
                / np.sqrt(np.float64(vx) * np.float64(vy)),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_days": "int64", "num": "int64", "spearman": "float64"}
    )
    return out.sort_values(["etype_a", "etype_b"]).reset_index(drop=True)


@query(lambda o: o.prop_ztest_click())
def q_prop_ztest_click(sf_dir: str) -> pd.DataFrame:
    """TWO-PROPORTION Z-TEST on the click share between the even-uid
    and odd-uid cohorts — the conversion-rate A/B terminal beside
    ab_test_value. Counts are exact-int partials (combine_partials);
    the pooled z is a FIXED IEEE expression tree over the four ints,
    mirrored operation for operation in SQL."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    base = combine_partials(
        rio.map_blocks(ev, _event_partials(("grp",), ("click",))), ["grp"],
        {"n_part": "n", "click_part": "x"},
    ).set_index("grp")
    n1, x1 = int(base.loc[0, "n"]), int(base.loc[0, "x"])
    n2, x2 = int(base.loc[1, "n"]), int(base.loc[1, "x"])
    p1 = np.float64(x1) / np.float64(n1)
    p2 = np.float64(x2) / np.float64(n2)
    p = np.float64(x1 + x2) / np.float64(n1 + n2)
    z = (p1 - p2) / np.sqrt(
        p * (np.float64(1) - p)
        * (np.float64(1) / np.float64(n1) + np.float64(1) / np.float64(n2))
    )
    return pd.DataFrame(
        {
            "n_even": [n1],
            "x_even": [x1],
            "n_odd": [n2],
            "x_odd": [x2],
            "z": [z],
        }
    ).astype(
        {"n_even": "int64", "x_even": "int64", "n_odd": "int64", "x_odd": "int64",
         "z": "float64"}
    )


PART_SCAN_DAYS = list(range(10, 16))  # the pruned mid-January window


@query(lambda o: o.partitioned_day_scan(T0, DAY_US, PART_SCAN_DAYS))
def q_partitioned_day_scan(sf_dir: str) -> pd.DataFrame:
    """HIVE-PARTITIONED SINK + PARTITION-PRUNED READ end-to-end
    (sources/hivepart.py): the event log lands as day=N parquet
    directories (the resumable-output unit) and the query opens ONLY
    the six requested day partitions — pruning by directory selection
    at the read, the way a time-ranged query must skip the other 96%
    of a 100-TB corpus. The oracle reads the ORIGINAL parquet with the
    same day filter, so a pass certifies the partitioned write + the
    pruned read + the aggregate, not just the aggregate."""
    root = ensure_partitioned_events(sf_dir, T0, DAY_US)
    ds = read_partition_days(root, PART_SCAN_DAYS)

    stage = KeyedPartials(_as_is, keys=("day", "event_type"), sums=("value_c",))
    df = combine_partials(
        rio.map_blocks(ds, stage), ["day", "event_type"],
        {"n_part": "n", "value_c_part": "sum_value_c"},
    )
    return df.rename(columns={"event_type": "etype"})


@query(lambda o: o.etype_kendall_tau(T0, DAY_US))
def q_etype_kendall_tau(sf_dir: str) -> pd.DataFrame:
    """KENDALL TAU-B between event types' daily count series — the
    third of the correlation trio (Pearson crosscorr / Spearman /
    Kendall). Concordance sum, tie-aware denominators and pair counts
    are ALL exact ints (num = sum of sign products; denom legs =
    #pairs with distinct x / distinct y); the tail is the single-IEEE
    cast/multiply/sqrt/divide."""
    base = _etype_day_grid(sf_dir)
    series = {
        et: sorted((int(d), int(n)) for d, n in zip(g["day"], g["n"]))
        for et, g in base.groupby("etype")
    }
    rows = []
    for ea, eb in ((a, b) for a in sorted(series) for b in sorted(series) if a < b):
        da = dict(series[ea])
        db = dict(series[eb])
        days = sorted(set(da) & set(db))
        n = len(days)
        if n < 2:  # no day pairs: the oracle's pair join drops the pair
            continue
        num = dx = dy = 0
        for i in range(n):
            for j in range(i + 1, n):
                xa, xb = da[days[i]], da[days[j]]
                ya, yb = db[days[i]], db[days[j]]
                sx = (xa > xb) - (xa < xb)
                sy = (ya > yb) - (ya < yb)
                num += sx * sy
                dx += xa != xb
                dy += ya != yb
        if dx == 0 or dy == 0:
            raise ValueError(f"kendall: tie-degenerate series in pair {ea!r},{eb!r}")
        rows.append(
            {
                "etype_a": ea,
                "etype_b": eb,
                "n_days": n,
                "num": num,
                "tau_b": np.float64(num) / np.sqrt(np.float64(dx) * np.float64(dy)),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_days": "int64", "num": "int64", "tau_b": "float64"}
    )
    return out.sort_values(["etype_a", "etype_b"]).reset_index(drop=True)


@query(lambda o: o.knn_value_regression())
def q_knn_value_regression(sf_dir: str) -> pd.DataFrame:
    """kNN REGRESSION: each query point predicts the MEAN uid of its
    3 nearest neighbors at T_MID — the regression twin of
    knn_majority_label on the same distributed halo-join kNN. The
    neighbor attribute lookup ships only the nq x k id set
    (ray.put + pc.is_in, never the corpus); sums are exact ints and
    the prediction is one IEEE division."""
    mod = int(os.environ.get("RAYHIST_KNN_MOD", "17"))
    pos, _n, zoom = _knn_positions_flagged(sf_dir, mod)
    nn = knn_queries(pos, k=3, id_col="osm_id", zoom=zoom, halo=1)

    ids = np.unique(nn["neighbor_id"].to_numpy(dtype=np.int64))
    ids_ref = ray.put(ids)

    def attrs(batch: pa.Table) -> pa.Table:
        s = snapshot_rows(batch, [T_MID], ["osm_id", "uid"])
        return s.filter(pc.is_in(s["osm_id"], pa.array(ray.get(ids_ref), pa.int64())))

    lab = rio.map_blocks(_docs(sf_dir), attrs).to_pandas()
    m = nn.merge(lab, left_on="neighbor_id", right_on="osm_id", how="left")
    if m["uid"].isna().any():
        raise ValueError("knn regression: neighbor without a visible T_MID row")
    g = m.groupby("query_id", as_index=False).agg(
        n_nn=("uid", "size"), sum_uid=("uid", "sum")
    )
    out = pd.DataFrame(
        {
            "query_id": g["query_id"].to_numpy(dtype=np.int64),
            "n_nn": g["n_nn"].to_numpy(dtype=np.int64),
            "sum_uid": g["sum_uid"].to_numpy(dtype=np.int64),
        }
    )
    out["pred_uid"] = out["sum_uid"].to_numpy(dtype=np.float64) / out[
        "n_nn"
    ].to_numpy(dtype=np.float64)
    return out.sort_values("query_id").reset_index(drop=True)


def _twa_stage(b: pa.Table) -> pa.Table:
    """Fused TWA partial: decode (tags+geom pruned) -> per-doc realign
    (_sorted_versions, the HEADER_TIMESTAMPS_NOT_IN_ORDER tolerance)
    -> visible half-open intervals -> vectorized fan-out to the days
    each interval crosses with exact clipped overlaps. Module-level so
    the reversed-runs invariance test can drive it (the _dwell_stage
    convention)."""
    tbl, codes, ts, _v, _ = _sorted_versions(decode_spans(b, geom=False), doc_codes(b))
    if not len(ts):
        return pa.table(
            {"day": pa.array([], pa.int64()), "vis_p": pa.array([], pa.int64())}
        )
    last_of_doc = np.r_[codes[1:] != codes[:-1], True]
    nxt = np.where(last_of_doc, DWELL_END, np.r_[ts[1:], DWELL_END])
    vis = tbl["visible"].to_numpy(zero_copy_only=False)
    a = np.maximum(ts, T0)[vis]
    bnd = np.minimum(nxt, DWELL_END)[vis]
    keep = bnd > a
    a, bnd = a[keep], bnd[keep]
    d0 = (a - T0) // DAY_US
    d1 = (bnd - 1 - T0) // DAY_US  # inclusive last day touched
    reps = (d1 - d0 + 1).astype(np.int64)
    day = np.repeat(d0, reps) + (
        np.arange(int(reps.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(reps) - reps, reps)
    )
    aa = np.repeat(a, reps)
    bb = np.repeat(bnd, reps)
    lo = np.maximum(aa, T0 + day * DAY_US)
    hi = np.minimum(bb, T0 + (day + 1) * DAY_US)
    df = pd.DataFrame({"day": day, "vis_p": hi - lo})
    g = df.groupby("day", as_index=False)["vis_p"].sum()
    return pa.Table.from_pandas(g, preserve_index=False)


def twa_daily_final(docs) -> pd.DataFrame:
    """Shared final for the daily TWA integral: combine the
    _twa_stage partials, zerofill the January days, one IEEE division
    by the constant day length. Both q_twa_entities_daily and the
    facade terminal call THIS, so the pin holds by construction."""
    df = combine_partials(rio.map_blocks(docs, _twa_stage), ["day"], {"vis_p": "visible_us"})
    out = zerofill(df, {"day": list(range(31))}, {"visible_us": 0}).astype(
        {"day": "int64", "visible_us": "int64"}
    )
    out["avg_entities"] = out["visible_us"].to_numpy(dtype=np.float64) / np.float64(
        DAY_US
    )
    return out.sort_values("day").reset_index(drop=True)


@query(lambda o: o.twa_entities_daily(T0, DAY_US, DWELL_END))
def q_twa_entities_daily(sf_dir: str) -> pd.DataFrame:
    """CONTINUOUS-TIME daily average of visible entities — the exact
    integral the snapshot grid only samples: per day,
    (sum of visible validity microseconds inside the day) / DAY. The
    reference's validTo model (OSMEntitySnapshot.java) makes this
    well-defined; the span table makes it EXACT. One fused
    map_batches: decode (geom pruned) -> per-doc realign -> visible
    half-open intervals -> vectorized fan-out to the <= 31 days each
    interval crosses with exact clipped overlaps -> |days| partial
    rows per block; the average is the only float (one IEEE division
    by the constant day length). Days nothing was alive zerofill."""
    return twa_daily_final(_docs(sf_dir))


@query(lambda o: o.clark_evans())
def q_clark_evans(sf_dir: str) -> pd.DataFrame:
    """CLARK-EVANS AGGREGATION INDEX of the T_MID point pattern — the
    classic ESDA clustered/dispersed diagnostic: observed mean
    nearest-neighbor distance over the expected mean under CSR
    (0.5 * sqrt(A/n), A = the exact integer bbox area). The 1-NN
    distances ride the distributed halo-join kNN (spatial.knn.knn_all,
    k=1); each distance quantizes to floor(sqrt(d2)) — both engines
    sqrt the SAME correctly-rounded double of the exact int d2, so the
    integer sum is order-free and mirrorable; the index is a fixed
    IEEE expression tree over (sum, n, bbox)."""

    pos = rio.materialize_blocks(_docs(sf_dir), _positions)
    n = rio.num_rows(pos)
    zoom = max(1, min(12, int(np.ceil((np.log2(max(n, 1) / 2000.0) + 1) / 2))))
    nn = knn_all(pos, k=1, zoom=zoom)
    d2 = nn["dist2"].to_numpy(dtype=np.float64)
    s = int(np.floor(np.sqrt(d2)).astype(np.int64).sum())

    def bbox(b: pa.Table) -> pa.Table:
        lon = b["lon_e7"].to_numpy(zero_copy_only=False)
        lat = b["lat_e7"].to_numpy(zero_copy_only=False)
        if not len(lon):
            return pa.table(
                {"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "k": np.arange(4, dtype=np.int64),
                "v": np.array(
                    [-lon.min(), lon.max(), -lat.min(), lat.max()], dtype=np.int64
                ),
            }
        )

    # 4-rows-per-block max-witness partials; driver max combine (the
    # combine_partials pattern, max instead of sum)
    bb = (
        rio.materialize_blocks(pos, bbox)
        .to_pandas()
        .groupby("k", as_index=False)["v"]
        .max()
    )
    vals = dict(zip((int(k) for k in bb["k"]), (int(v) for v in bb["v"])))
    mx = vals[1] + vals[0]  # max - min (mins stored negated for max-combine)
    my = vals[3] + vals[2]
    mean = np.float64(s) / np.float64(n)
    expected = np.float64(0.5) * np.sqrt(
        np.float64(mx) * np.float64(my) / np.float64(n)
    )
    return pd.DataFrame(
        {
            "n_points": [n],
            "sum_nn_floor": [s],
            "bbox_w": [mx],
            "bbox_h": [my],
            "ce_index": [mean / expected],
        }
    ).astype(
        {"n_points": "int64", "sum_nn_floor": "int64", "bbox_w": "int64",
         "bbox_h": "int64", "ce_index": "float64"}
    )


@query(lambda o: o.linreg_value_day_parity(T0, DAY_US))
def q_linreg_value_day_parity(sf_dir: str) -> pd.DataFrame:
    """EXACT DISTRIBUTED OLS: regress event value (cents) on
    [1, day, uid-parity] — multivariate least squares with NO
    iterative float solver anywhere. The nine sufficient statistics
    (n, Sx1, Sx2, Sx1x1, Sx1x2, Sx2x2, Sy, Sx1y, Sx2y) are exact int
    partials; the driver solves the 3x3 normal equations by CRAMER'S
    RULE in Python bigints (dets exceed int64 — HUGEINT in the
    mirror), and each coefficient is ONE IEEE division of two
    correctly-rounded exact ints. Deterministic at any parallelism."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )

    def partials(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "y")
        x1 = (b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) - T0) // DAY_US
        x2 = (b["user_id"].to_numpy(zero_copy_only=False) % 2).astype(np.int64)
        y = b["y"].to_numpy(zero_copy_only=False)
        if y.size and float(np.abs(y.astype(np.float64)).max()) * 30 * y.size > 1e17:
            raise OverflowError("linreg: batch moment exceeds the int64 bound")
        vals = np.array(
            [
                len(y), x1.sum(), x2.sum(), (x1 * x1).sum(), (x1 * x2).sum(),
                (x2 * x2).sum(), y.sum(), (x1 * y).sum(), (x2 * y).sum(),
            ],
            dtype=np.int64,
        )
        return pa.table({"k": np.arange(9, dtype=np.int64), "v": vals})

    # combine the per-batch moment rows in PYTHON INTS: the pandas
    # int64 groupby sum in combine_partials would wrap silently once
    # blocks x per-batch-bound crosses 2^63 (the oracle is HUGEINT)
    raw = (
        rio.materialize_blocks(ev, partials)
        .to_pandas()
        .groupby("k")["v"]
        .apply(lambda s: sum(int(x) for x in s))
    )
    n, s1, s2, s11, s12, s22, sy, s1y, s2y = (int(raw.loc[i]) for i in range(9))

    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    A = [[n, s1, s2], [s1, s11, s12], [s2, s12, s22]]
    b = [sy, s1y, s2y]
    d = det3(A)
    if d == 0:
        raise ValueError("linreg: singular normal equations (degenerate features)")
    betas = []
    for i in range(3):
        Ai = [row[:] for row in A]
        for r in range(3):
            Ai[r][i] = b[r]
        betas.append(np.float64(det3(Ai)) / np.float64(d))
    return pd.DataFrame(
        {
            "n_events": [n],
            "beta0": [betas[0]],
            "beta1": [betas[1]],
            "beta2": [betas[2]],
        }
    ).astype(
        {"n_events": "int64", "beta0": "float64", "beta1": "float64",
         "beta2": "float64"}
    )


BLOOM_FPR_M = 1024
BLOOM_FPR_K = 3


@query(lambda o: o.bloom_fpr_users(BLOOM_FPR_M, BLOOM_FPR_K))
def q_bloom_fpr_users(sf_dir: str) -> pd.DataFrame:
    """BLOOM-FILTER FALSE-POSITIVE RATE, value-exact: build a
    1024-bit / 3-hash Bloom of the EVEN user ids and probe it with the
    ODD ones (disjoint by construction, so every hit is a false
    positive). Like cms_etype_counts, the md5 row hashes make the
    sketch deterministic, so the measured FPR — normally a
    statistical quantity — is itself mirrorable in SQL. The build is
    the mergeable-partial shape (per-batch bit arrays OR-combine at
    fixed m bits); the probe pass ships the final bitset in the task
    closure and counts per-batch partials. (functions/bloom.py is the
    production filter; this query pins the md5 twin the oracle can
    spell.)"""
    m, k = BLOOM_FPR_M, BLOOM_FPR_K
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["user_id"])

    def positions(uids: np.ndarray) -> np.ndarray:
        out = np.empty((len(uids), k), dtype=np.int64)
        for i, u in enumerate(uids):
            for j in range(k):
                h = hashlib.md5(f"{j}:{int(u)}".encode()).hexdigest()[:8]
                out[i, j] = int(h, 16) % m
        return out

    def build(b: pa.Table) -> pa.Table:
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False))
        even = u[u % 2 == 0]
        bits = np.zeros(m, dtype=np.int64)
        if len(even):
            bits[np.unique(positions(even).ravel())] = 1
        return pa.table({"pos": np.arange(m, dtype=np.int64), "bit": bits})

    bloom = combine_partials(
        rio.map_blocks(ev, build), ["pos"], {"bit": "n"}
    )
    bits = (bloom.sort_values("pos")["n"].to_numpy() > 0).astype(np.int64)

    def probe(b: pa.Table) -> pa.Table:
        u = np.unique(b["user_id"].to_numpy(zero_copy_only=False))
        odd = u % 2 == 1
        hit = np.zeros(len(u), dtype=np.int64)
        if odd.any():
            hit[odd] = bits[positions(u[odd])].all(axis=1)
        # distinct uids can repeat across batches: emit (uid, hit)
        # partials, dedupe at the bounded distinct-user combine
        return pa.table({"uid": u, "hit": hit})

    # distinct users are corpus-cardinality: dedupe keys (even uids)
    # and probes (odd uids) in one shuffle by uid, one row per bucket
    # to the driver — never a distinct-user table
    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("uid")
        u = g["uid"].to_numpy()
        odd = u % 2 == 1
        return pd.DataFrame(
            {
                "n_keys_p": [int((u % 2 == 0).sum())],
                "n_probes_p": [int(odd.sum())],
                "n_fp_p": [int((g["hit"].to_numpy()[odd] > 0).sum())],
            }
        )

    agg = rio.blocks_table(rio.reduce_by_key(ev, ["uid"], rio.on_pandas(distinct), stage=probe))
    n_keys, n_probes, n_fp = (
        int(agg[c].to_numpy().sum()) for c in ("n_keys_p", "n_probes_p", "n_fp_p")
    )
    return pd.DataFrame(
        {
            "n_keys": [n_keys],
            "n_probes": [n_probes],
            "n_bits_set": [int(bits.sum())],
            "n_fp": [n_fp],
            "fpr": [np.float64(n_fp) / np.float64(n_probes)],
        }
    ).astype(
        {"n_keys": "int64", "n_probes": "int64", "n_bits_set": "int64",
         "n_fp": "int64", "fpr": "float64"}
    )


@query(lambda o: o.conversion_latency_median(T0, DAY_US))
def q_conversion_latency_median(sf_dir: str) -> pd.DataFrame:
    """CONVERSION LATENCY: per purchase day, the exact LOWER MEDIAN of
    (purchase ts - latest STRICTLY-PRIOR click ts of the same user) —
    the product-funnel timing metric composing the as-of join with the
    order-statistic rank rule. Complete-user bucket shuffle; per
    bucket a C-vectorized backward merge_asof (allow_exact_matches
    False = the strict < contract, no event-id order ambiguity);
    per-day medians resolve in a second shuffle by day; purchases with no
    prior click are dropped on both engines."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )

    def route(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        t = b.filter(pa.array(keep))
        return pa.table(
            {
                "uid": t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                "ts": t["ts"].cast(pa.int64()),
                "is_p": (
                    t["event_type"].to_numpy(zero_copy_only=False) == "purchase"
                ).astype(np.int64),
            }
        )

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts", kind="mergesort")
        pur = g[g["is_p"] == 1][["uid", "ts"]]
        clk = g[g["is_p"] == 0][["uid", "ts"]].rename(columns={"ts": "cts"})
        if pur.empty or clk.empty:
            return pd.DataFrame({"day": pd.Series(dtype="int64"),
                                 "gap": pd.Series(dtype="int64")})
        m = pd.merge_asof(
            pur, clk, left_on="ts", right_on="cts", by="uid",
            allow_exact_matches=False,
        ).dropna(subset=["cts"])
        return pd.DataFrame(
            {
                "day": (m["ts"].to_numpy(dtype=np.int64) - T0) // DAY_US,
                "gap": m["ts"].to_numpy(dtype=np.int64)
                - m["cts"].to_numpy(dtype=np.int64),
            }
        )

    def medians(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for day, gap in g.groupby("day")["gap"]:
            v = np.sort(gap.to_numpy(dtype=np.int64))
            rows.append((day, len(v), v[(len(v) + 1) // 2 - 1]))
        cols = ["day", "n_conversions", "median_gap_us"]
        return pd.DataFrame(rows, columns=cols).astype("int64")

    per_user = rio.reduce_by_key(ev, ["uid"], rio.on_pandas(gaps), stage=route)
    out = rio.blocks_table(rio.reduce_by_key(per_user, ["day"], rio.on_pandas(medians)))
    out = out.to_pandas()
    return out.sort_values("day").reset_index(drop=True)


@query(lambda o: o.user_value_holt())
def q_user_value_holt(sf_dir: str) -> pd.DataFrame:
    """Per-user integer HOLT double-exponential smoothing of event
    value cents (ops/scan.grouped_recurrence_holt_int): the
    level+trend sibling of user_value_ewma — two coupled
    non-associative recurrences with truncating halving (pinned to
    DuckDB's // semantics on the signed trend), scan vectorized across
    keys per step, one row per user."""
    ev = rio.read_resident(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )

    def prep(b: pa.Table) -> pa.Table:
        b = cents(b, "value", "val")
        return pa.table(
            {
                "user_id": b["user_id"].cast(pa.int64()),
                "val": b["val"],
                "ts_us": b["ts"].cast(pa.int64()),
                "event_id": b["event_id"].cast(pa.int64()),
            }
        )

    out = (
        grouped_recurrence_holt_int(
            rio.materialize_blocks(ev, prep),
            key_col="user_id",
            order_cols=["ts_us", "event_id"],
            value_col="val",
        )
        .to_pandas()
        .astype({"user_id": "int64", "n": "int64", "level_c": "int64",
                 "trend_c": "int64"})
    )
    return out.sort_values("user_id").reset_index(drop=True)


@query(lambda o: o.theil_index_by_type())
def q_theil_index_by_type(sf_dir: str) -> pd.DataFrame:
    """THEIL INEQUALITY INDEX of value concentration per event type —
    the entropy-based inequality metric beside user_gini_by_etype.
    T = (1/S) * sum_i x_i * ln(x_i * n / S) becomes the EXACT integer
    numerator sum_c m_c * c * (q(c*n) - q(S)) over the bounded
    (etype, cents) value histogram (q = the milli-nat kernel; the two
    logs quantize separately, the PSI/MI subtraction contract); the
    only float is the final single IEEE division by S. A zero value
    contributes 0, the x*ln(x) -> 0 limit (its log argument is clamped
    to 1, as the SQL twin's greatest(c*n, 1)); a negative value raises
    (ln is undefined there)."""
    ev = rio.read_resident(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    base = combine_partials(
        rio.map_blocks(ev, _event_partials(("etype", "value_c"))), ["etype", "value_c"],
        {"n_part": "m"},
    )
    rows = []
    for et, g in base.groupby("etype"):
        cs = [int(x) for x in g["value_c"]]
        ms = [int(x) for x in g["m"]]
        if min(cs) < 0:
            raise ValueError(f"theil: negative cents in etype {et!r}")
        n = sum(ms)
        s = sum(m * c for m, c in zip(ms, cs))
        qs = _q_mnat(s)
        num = sum(m * c * (_q_mnat(max(c * n, 1)) - qs) for m, c in zip(ms, cs))
        if not (-(2**63) < num < 2**63):
            raise OverflowError("theil numerator exceeds int64")
        rows.append(
            {
                "etype": et,
                "n_events": n,
                "sum_cents": s,
                "num": num,
                "theil_mnat": np.float64(num) / np.float64(s),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"n_events": "int64", "sum_cents": "int64", "num": "int64",
         "theil_mnat": "float64"}
    )
    return out.sort_values("etype").reset_index(drop=True)


@query(lambda o: o.nelson_aalen(DWELL_END, DAY_US))
def q_nelson_aalen(sf_dir: str) -> pd.DataFrame:
    """NELSON-AALEN CUMULATIVE HAZARD over entity lifespans — the
    estimator pair of kaplan_meier on the same zero-shuffle lifespan
    histogram. Each increment d/n quantizes to integer MICRO-UNITS by
    floor division ((10^6 * d) // n — a float sum of hazards would be
    order-dependent), so the cumulative curve is an exact ordered
    integer sum; the reported hazard is ONE IEEE division."""
    partials = rio.map_blocks(_docs(sf_dir), _LIFESPAN_COUNTS)
    base = combine_partials(partials, ["lifespan_days", "deleted"], {"n_part": "n"})
    piv = (
        base.pivot_table(index="lifespan_days", columns="deleted", values="n",
                         fill_value=0)
        .reindex(columns=[0, 1], fill_value=0)
        .sort_index()
    )
    m = (piv[0] + piv[1]).to_numpy(dtype=np.int64)
    d = piv[1].to_numpy(dtype=np.int64)
    at_risk = m[::-1].cumsum()[::-1]
    rows = []
    cum = 0
    for k in range(len(piv)):
        if d[k] == 0:
            continue
        n_t, d_t = int(at_risk[k]), int(d[k])
        cum += (1_000_000 * d_t) // n_t
        rows.append(
            {
                "t_days": int(piv.index[k]),
                "n_at_risk": n_t,
                "n_deaths": d_t,
                "cum_hazard_micro": cum,
                "cum_hazard": np.float64(cum) / np.float64(1_000_000),
            }
        )
    out = pd.DataFrame(rows).astype(
        {"t_days": "int64", "n_at_risk": "int64", "n_deaths": "int64",
         "cum_hazard_micro": "int64", "cum_hazard": "float64"}
    )
    return out.sort_values("t_days").reset_index(drop=True)


@query(lambda o: o.flow_distance_decay(HEX_W, HEX_H))
def q_flow_distance_decay(sf_dir: str) -> pd.DataFrame:
    """GRAVITY-MODEL DISTANCE DECAY of the OD flows: the log-log OLS
    slope of flow volume against center-to-center distance — the
    classic spatial-interaction exponent (flows ~ d^(-beta)).
    Composes the zero-shuffle cell_flows base with the exact-OLS
    sufficient-statistic pattern: per OD pair, x = q(d2) and
    y = q(n_moves) in integer MILLI-NATS (d2 is the exact int squared
    center distance — Python bigints / HUGEINT, world-extent d2
    exceeds int64), the slope numerator/denominator are exact int
    sums, and the slope is ONE IEEE division."""
    fl = q_cell_flows(sf_dir)
    xs, ys = [], []
    for r in fl.itertuples():
        dx = 2 * HEX_W * (int(r.from_i) - int(r.to_i)) + HEX_W * (
            int(r.from_j) - int(r.to_j)
        )
        dy = HEX_H * (int(r.from_j) - int(r.to_j))
        d2 = dx * dx + dy * dy
        xs.append(_q_mnat(d2))
        ys.append(_q_mnat(int(r.n_moves)))
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    if den == 0:
        raise ValueError("flow_distance_decay: degenerate distance spectrum")
    if not (-(2**63) < num < 2**63 and 0 < den < 2**63):
        raise OverflowError("flow_distance_decay sums exceed int64")
    return pd.DataFrame(
        {
            "n_flows": [n],
            "num": [num],
            "den": [den],
            "decay_slope": [np.float64(num) / np.float64(den)],
        }
    ).astype({"n_flows": "int64", "num": "int64", "den": "int64",
              "decay_slope": "float64"})


GH_PRECS = (5, 3, 1)


@query(lambda o: o.snapshot_count_by_geohash_multiprec(GH_PRECS))
def q_snapshot_count_by_geohash_multiprec(sf_dir: str) -> pd.DataFrame:
    """HIERARCHICAL GEOHASH ROLLUP: snapshot counts at precisions 5,
    3 and 1 in one result — the tile-pyramid shape of
    snapshot_count_bbox_multizoom on the string key. The interleave
    makes containment a BIT SHIFT (each coarser character drops 5
    bits), so the coarser levels roll up from the fine histogram on
    the driver (bounded by cells) with no second corpus pass; the
    oracle rolls up by string prefix, certifying the
    prefix==bit-shift containment property end to end."""
    stage, _ = snapshot_counts_stage([T_MID], cell=geohash_bits)
    fine = combine_partials(
        rio.map_blocks(_docs(sf_dir), stage),
        ["cell"],
        {"n_part": "n"},
    )
    rows = []
    for prec in GH_PRECS:
        shift = 5 * (PRECISION - prec)
        coarse = fine.assign(c=fine["cell"].to_numpy(dtype=np.int64) >> shift)
        agg = coarse.groupby("c", as_index=False)["n"].sum()
        for c, n in zip(agg["c"], agg["n"]):
            # render the prec-char prefix of the shifted id
            gh = "".join(
                "0123456789bcdefghjkmnpqrstuvwxyz"[(int(c) >> (5 * (prec - 1 - k))) & 31]
                for k in range(prec)
            )
            rows.append({"prec": prec, "geohash": gh, "n_snapshots": int(n)})
    out = pd.DataFrame(rows).astype({"prec": "int64", "n_snapshots": "int64"})
    return out.sort_values(["prec", "geohash"]).reset_index(drop=True)
