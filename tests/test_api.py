"""Fluent MapReducer facade (rayhist.api): every chain must equal the
oracle-checked direct pipeline it mirrors — the facade adds surface,
never new semantics."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rayhist.api import MapReducer, OSMContributionView, OSMEntitySnapshotView
from rayhist.pipelines import (
    AOI_BBOX,
    CONTRIB_BINS,
    POLY_FILE,
    SNAP_DAILY,
    SNAP_WEEKLY,
    T_MID,
)

SF = "/root/testdata/sf0.001"


def test_snapshot_count_daily_matches_pipeline():
    from rayhist.pipelines import q_snapshot_count_daily

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps("2024-01-01", "2024-02-02", "DAILY")
        .aggregateByTimestamp()
        .count(alias="n_snapshots")
    )
    want = q_snapshot_count_daily(SF)
    assert list(got["ts_q"]) == SNAP_DAILY  # ISO grid == pipeline constants
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_snapshot_tag_filter_matches_pipeline():
    from rayhist.pipelines import q_snapshot_count_daily_click

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps(SNAP_DAILY)
        .osmTag("etype", "click")
        .aggregateByTimestamp()
        .count(alias="n_snapshots")
    )
    want = q_snapshot_count_daily_click(SF)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_snapshot_bbox_scalar_matches_pipeline():
    from rayhist.pipelines import q_snapshot_count_bbox

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .areaOfInterest(bbox=AOI_BBOX)
        .count()
    )
    want = int(q_snapshot_count_bbox(SF)["n_snapshots"].iloc[0])
    assert got == want


def test_snapshot_polygon_matches_pip_poly_pipeline():
    from rayhist.pipelines import q_snapshot_pip_poly
    from rayhist.spatial.polyfile import load_poly

    _name, rings = load_poly(POLY_FILE)
    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .areaOfInterest(polygon=rings[0], holes=rings[1:])
        .count()
    )
    want = int(q_snapshot_pip_poly(SF)["n_inside"].iloc[0])
    assert got == want


def test_contribution_count_matches_pipeline():
    from rayhist.pipelines import q_contrib_daily

    got = (
        OSMContributionView.on(SF)
        .timestamps("2024-01-05", "2024-01-25", "DAILY")
        .aggregateByTimestamp()
        .count(alias="n_contribs")
    )
    want = q_contrib_daily(SF)[["ts_q", "n_contribs"]]
    assert list(got["ts_q"]) == CONTRIB_BINS
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_contribution_sum_of_flag_matches_pipeline():
    from rayhist.pipelines import q_contrib_daily

    got = (
        OSMContributionView.on(SF)
        .timestamps(list(CONTRIB_BINS) + [CONTRIB_BINS[-1] + 86_400_000_000])
        .aggregateByTimestamp()
        .sum("is_creation", alias="n_creations")
    )
    want = q_contrib_daily(SF)[["ts_q", "n_creations"]]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_aggregate_by_geometry_matches_pip_regions_pipeline():
    from rayhist.pipelines import REGIONS, q_snapshot_pip_regions

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateByGeometry(REGIONS)
        .count(alias="n")
    )
    want = q_snapshot_pip_regions(SF)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_aggregate_by_geometry_overlapping_regions_expand():
    """Overlapping regions each count the shared rows (1->N)."""
    big = [(-1.8e9, -9e8), (1.8e9, -9e8), (1.8e9, 9e8), (-1.8e9, 9e8)]
    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateByGeometry({"all1": big, "all2": big})
        .count(alias="n")
    )
    total = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).count()
    assert list(got["n"]) == [total, total]


def test_entity_filter_and_row_filter_and_map():
    """osmEntityFilter (version-level), filter (view-row-level) and map
    (derived column) compose; equivalent masks agree with collect()."""
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    all_rows = base.collect()

    even = base.osmEntityFilter(
        lambda t: t["osm_id"].to_numpy(zero_copy_only=False) % 2 == 0
    ).collect()
    assert set(even["osm_id"]) == {i for i in all_rows["osm_id"] if i % 2 == 0}

    rowf = base.filter(
        lambda t: t["lon_e7"].to_numpy(zero_copy_only=False) > 0
    ).collect()
    assert (rowf["lon_e7"] > 0).all()
    assert len(rowf) == int((all_rows["lon_e7"] > 0).sum())

    mapped = base.map(
        lambda t: t.append_column(
            "abs_lat",
            pa.array(np.abs(t["lat_e7"].to_numpy(zero_copy_only=False))),
        )
    ).sum("abs_lat")
    assert mapped == int(np.abs(all_rows["lat_e7"]).sum())


def test_average_uniq_quantiles_against_collect():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    rows = base.collect()
    assert base.average("kk") == pytest.approx(rows["kk"].mean())
    assert base.uniq("uid") == sorted(rows["uid"].unique())
    assert base.countUniq("uid") == rows["uid"].nunique()
    est = base.estimatedQuantile("lat_e7", 0.5)
    lo, hi = np.quantile(rows["lat_e7"], [0.25, 0.75])
    assert lo <= est <= hi  # t-digest median well inside the IQR


def test_grouped_count_uniq_matches_pipeline():
    from rayhist.pipelines import CONTRIB_FROM, CONTRIB_TO, q_contrib_uniq_uids_daily

    got = (
        OSMContributionView.on(SF)
        .timestamps(list(CONTRIB_BINS) + [CONTRIB_TO])
        .aggregateByTimestamp()
        .countUniq("uid", alias="n_uids")
    )
    assert CONTRIB_FROM == CONTRIB_BINS[0]
    want = q_contrib_uniq_uids_daily(SF)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )


def test_grouped_uniq_and_quantiles():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).aggregateByTimestamp()
    pairs = base.uniq("uid")
    rows = base.collect()
    assert set(zip(pairs["ts_q"], pairs["uid"])) == {
        (T_MID, u) for u in rows["uid"].unique()
    }
    qdf = base.estimatedQuantiles("lat_e7", [0.5])
    assert len(qdf) == 1 and "p50_est" in qdf.columns


def test_group_by_entity_counts():
    got = (
        OSMContributionView.on(SF)
        .timestamps([CONTRIB_BINS[0], CONTRIB_BINS[-1] + 86_400_000_000])
        .groupByEntity()
        .count(alias="n")
    )
    rows = (
        OSMContributionView.on(SF)
        .timestamps([CONTRIB_BINS[0], CONTRIB_BINS[-1] + 86_400_000_000])
        .collect()
    )
    want = rows.groupby("osm_id").size()
    assert dict(zip(got["osm_id"], got["n"])) == want.to_dict()


def test_weighted_average_reduce_foreach():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    rows = base.collect()
    w = np.abs(rows["kk"]) + 1
    base_w = base.map(
        lambda t: t.append_column(
            "w",
            pa.array(np.abs(t["kk"].to_numpy(zero_copy_only=False)) + 1),
        )
    )
    assert base_w.weightedAverage("uid", "w") == pytest.approx(
        (rows["uid"] * w).sum() / w.sum()
    )
    total = base.reduce(lambda t: len(t), lambda a, b: a + b)
    assert total == len(rows)
    seen = []
    base.forEach(lambda t: seen.append(len(t)))
    assert sum(seen) == len(rows)


def test_timestamps_overloads_and_errors():
    mr = OSMEntitySnapshotView.on(SF)
    a = mr.timestamps("2024-01-01", "2024-01-03", "P1D")._ts
    b = mr.timestamps("2024-01-01", "2024-01-02", "2024-01-03")._ts
    c = mr.timestamps([T_MID])._ts
    assert a == b and len(a) == 3 and c == (T_MID,)
    with pytest.raises(ValueError):
        mr.areaOfInterest()
    with pytest.raises(ValueError):
        mr.osmType("building")
    with pytest.raises(ValueError):
        OSMContributionView.on(SF).timestamps([T_MID]).count()


def test_osm_type_way_raises_instead_of_silent_zero():
    # the count() union path is served; everything richer over
    # way/relation raises loudly at the terminal
    mr = OSMEntitySnapshotView.on(SF).osmType("way").timestamps([T_MID])
    with pytest.raises(NotImplementedError):
        mr.sum("lon_e7")
    with pytest.raises(NotImplementedError):
        mr.view()
    with pytest.raises(NotImplementedError):
        mr.osmTag("k").count()
    with pytest.raises(NotImplementedError):
        OSMContributionView.on(SF).osmType("way").timestamps(
            [T_MID, T_MID + 1]
        ).count()
    # node is served (the span table IS the node table)
    n = OSMEntitySnapshotView.on(SF).osmType("node").timestamps([T_MID]).count()
    assert n == OSMEntitySnapshotView.on(SF).timestamps([T_MID]).count()


def test_three_type_union_chain_matches_direct_pipelines():
    """osmType('node','way','relation') in ONE chain: the compound
    union count must equal counts assembled from the independently
    oracle-checked per-type pipelines (node span counts; way/relation
    member-recursion geoms row counts)."""
    from rayhist.pipelines import (
        WAY_SNAPS,
        q_snapshot_count_three_types,
        q_snapshot_relation_geoms,
        q_snapshot_way_geoms,
    )

    got = q_snapshot_count_three_types(SF)
    assert list(got.columns) == ["ts_q", "osm_type", "n_snapshots"]
    assert len(got) == len(WAY_SNAPS) * 3

    node = (
        OSMEntitySnapshotView.on(SF)
        .timestamps(WAY_SNAPS)
        .aggregateByTimestamp()
        .count(alias="n")
    )
    ways = q_snapshot_way_geoms(SF).groupby("ts_q").size()
    rels = q_snapshot_relation_geoms(SF).groupby("ts_q").size()
    for t in WAY_SNAPS:
        sub = got[got["ts_q"] == t].set_index("osm_type")["n_snapshots"]
        assert sub["node"] == int(node.loc[node["ts_q"] == t, "n"].iloc[0])
        assert sub["way"] == int(ways.get(t, 0))
        assert sub["relation"] == int(rels.get(t, 0))
    # scalar form: ungrouped count over all three types
    total = (
        OSMEntitySnapshotView.on(SF)
        .timestamps(WAY_SNAPS)
        .osmType("node", "way", "relation")
        .count()
    )
    assert total == int(got["n_snapshots"].sum())


def test_three_type_union_honors_timeout():
    """timeout() must cover the compound union legs too — the
    cooperative deadline is checked between batches in EVERY leg, same
    contract as the node-only chain (MapReducerJdbc.java:43-49)."""
    import pytest
    import ray

    from rayhist.functions.deadline import RayhistTimeoutError
    from rayhist.pipelines import WAY_SNAPS

    # a worker-raised deadline surfaces wrapped in RayTaskError (the
    # established assertion pattern, tests/test_deadline.py)
    with pytest.raises((RayhistTimeoutError, ray.exceptions.RayTaskError)) as ei:
        (
            OSMEntitySnapshotView.on(SF)
            .timestamps(WAY_SNAPS)
            .osmType("node", "way", "relation")
            .timeout(1e-9)
            .count()
        )
    assert "deadline exceeded" in str(ei.value)


def test_three_type_union_plumbs_rep_to_compound_tables(monkeypatch):
    """All three union legs must describe the SAME RAYHIST_REP
    amplification level: the node leg reads rep from the env, so the
    way/relation table reads must receive the same rep."""
    import rayhist.ingest as ingest
    from rayhist.pipelines import WAY_SNAPS

    seen: list[int] = []
    real_way, real_rel = ingest.read_way_documents, ingest.read_relation_documents

    def spy_way(sf_dir, columns=None, rep=1):
        seen.append(rep)
        return real_way(sf_dir, columns=columns, rep=1)

    def spy_rel(sf_dir, columns=None, rep=1):
        seen.append(rep)
        return real_rel(sf_dir, columns=columns, rep=1)

    monkeypatch.setattr(ingest, "read_way_documents", spy_way)
    monkeypatch.setattr(ingest, "read_relation_documents", spy_rel)
    # a non-default rep must reach the compound reads (the spies serve
    # the rep=1 table so no amplified compound cache gets built)
    monkeypatch.setenv("RAYHIST_REP", "2")
    (
        OSMEntitySnapshotView.on(SF)
        .timestamps([WAY_SNAPS[0]])
        .osmType("node", "way", "relation")
        .count()
    )
    assert seen == [2, 2]


def test_osm_type_filters_dataset_source():
    """With a Dataset source the scan prefilter is unavailable — the
    decoded-version mask must still enforce the type filter."""
    import os

    from rayhist.ingest import read_documents

    docs = read_documents(SF, rep=int(os.environ.get("RAYHIST_REP", "1")))
    got = (
        MapReducer("snapshot", docs)
        .osmType("relation")  # absent from the node table
        .timestamps([T_MID])
        .count()
    )
    assert got == 0


def test_region_only_count_uniq_zerofills():
    empty = [(1.7e9, 8.9e8), (1.79e9, 8.9e8), (1.79e9, 8.99e8)]
    big = [(-1.8e9, -9e8), (1.8e9, -9e8), (1.8e9, 9e8), (-1.8e9, 9e8)]
    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateByGeometry({"all": big, "none": empty})
        .countUniq("uid", alias="n_uids")
    )
    assert list(got["region_id"]) == ["all", "none"]
    assert got["n_uids"].iloc[1] == 0


def test_grouped_uniq_has_no_internal_columns():
    pairs = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateByTimestamp()
        .uniq("uid")
    )
    assert list(pairs.columns) == ["ts_q", "uid"]


def test_group_by_entity_distributed_final():
    """osm_id is a high-cardinality key: the final combine must be a
    Dataset groupby, not combine_partials (aggregate.py contract)."""
    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .groupByEntity()
        .count(alias="n")
    )
    rows = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).collect()
    want = rows.groupby("osm_id").size()
    assert dict(zip(got["osm_id"], got["n"])) == want.to_dict()


def test_aggregate_by_tag_column_decodes_it():
    """Grouping a sketch/distinct terminal by a tag-derived column must
    decode that column (pruning it constant-fills the group key and
    collapses every group into one)."""
    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateBy("etype")
        .countUniq("uid", alias="n_uids")
    )
    rows = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).collect()
    want = rows.groupby("etype")["uid"].nunique()
    assert dict(zip(got["etype"], got["n_uids"])) == want.to_dict()
    assert len(got) > 1  # more than the single constant-filled group


def test_map_then_filter_chain_order():
    """filter() after map() must see the mapped columns (chain order is
    semantic, MapReducer.java:647-692)."""
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    n = (
        base.map(
            lambda t: t.append_column(
                "flag", pa.array(t["lon_e7"].to_numpy(zero_copy_only=False) > 0)
            )
        )
        .filter(lambda t: t["flag"].to_numpy(zero_copy_only=False))
        .count()
    )
    rows = base.collect()
    assert n == int((rows["lon_e7"] > 0).sum())


def test_region_deletion_uses_prev_coordinates():
    """A contribution DELETION's region membership is where the entity
    WAS — its current decoded coords are the constant-filled origin."""
    from rayhist.pipelines import CONTRIB_BINS, CONTRIB_TO

    big = [(-1.8e9, -9e8), (1.8e9, -9e8), (1.8e9, 9e8), (-1.8e9, 9e8)]
    base = OSMContributionView.on(SF).timestamps([CONTRIB_BINS[0], CONTRIB_TO])
    got = base.aggregateByGeometry({"all": big}).sum("is_deletion", alias="n_del")
    want = int(base.collect()["is_deletion"].sum())
    assert want > 0  # the corpus has deletions in the window
    assert int(got["n_del"].iloc[0]) == want


def test_timestamps_dedupe_and_missing_raise():
    mr = OSMEntitySnapshotView.on(SF)
    assert mr.timestamps([T_MID, T_MID])._ts == (T_MID,)
    with pytest.raises(ValueError):
        mr.osmTag("etype", "click").count()  # timestamps forgotten
    with pytest.raises(ValueError):
        mr.timestamps([T_MID]).osmTag("k", "1", values=("2", "3"))


def test_float_column_sum_ungrouped():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    s = base.map(
        lambda t: t.append_column(
            "f", pa.array(t["lat_e7"].to_numpy(zero_copy_only=False) / 1e7)
        )
    ).sum("f")
    rows = base.collect()
    assert s == pytest.approx((rows["lat_e7"] / 1e7).sum())


def test_float_column_sum_by_timestamp():
    """A mapped float column summed per timestamp (the facade's float
    path; the driver combine itself takes integer partials only)."""
    base = OSMEntitySnapshotView.on(SF).timestamps(list(SNAP_WEEKLY))
    mapped = base.map(
        lambda t: t.append_column(
            "f", pa.array(t["lat_e7"].to_numpy(zero_copy_only=False) / 1e7)
        )
    )
    got = mapped.aggregateByTimestamp().sum("f")
    rows = base.collect()
    want = (rows["lat_e7"] / 1e7).groupby(rows["ts_q"]).sum()
    want = want.reindex(SNAP_WEEKLY, fill_value=0.0)
    assert got["ts_q"].tolist() == list(SNAP_WEEKLY)
    assert got["sum_f"].dtype == np.float64
    assert got["sum_f"].to_numpy() == pytest.approx(want.to_numpy())


def test_builder_immutability():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    filtered = base.osmTag("etype", "click")
    assert base._tag_filters == () and len(filtered._tag_filters) == 1
    assert isinstance(filtered, MapReducer)


def test_stream_iterates_batches():
    n = 0
    for b in OSMEntitySnapshotView.on(SF).timestamps([T_MID]).stream():
        assert isinstance(b, pa.Table)
        n += len(b)
    assert n == len(OSMEntitySnapshotView.on(SF).timestamps([T_MID]).collect())


def test_osm_tag_collection_overload_any_match():
    """osmTag([(k, v), ...]) matches ANY of the tags
    (MapReducer.java:595-632); conflicts with other selectors raise."""
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    got = base.osmTag([("etype", "click"), ("etype", "view")]).count()
    rows = base.collect()
    want = int(rows["etype"].isin(["click", "view"]).sum())
    assert got == want
    with pytest.raises(ValueError):
        base.osmTag([("a", "1")], "extra")


def test_aggregate_by_callable_indexer_and_estimated_median():
    base = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    got = base.aggregateBy(
        lambda t: t["uid"].to_numpy(zero_copy_only=False) % 2, name="parity"
    ).count(alias="n")
    rows = base.collect()
    want = rows.groupby(rows["uid"] % 2).size()
    assert dict(zip(got["parity"], got["n"])) == want.to_dict()
    med = base.estimatedMedian("lat_e7")
    lo, hi = np.quantile(rows["lat_e7"], [0.25, 0.75])
    assert lo <= med <= hi


def test_aggregate_by_duplicate_name_raises_at_builder_time():
    """Two callable indexers without distinct names must fail AT
    aggregateBy() time (ADVICE: the duplicate column used to surface
    much later as a confusing Arrow duplicate-field error)."""
    import pytest

    from rayhist.api import OSMEntitySnapshotView

    v = OSMEntitySnapshotView.on("/root/testdata/sf0.001").timestamps(
        "2024-01-01", "2024-01-31", "DAILY"
    )
    chained = v.aggregateBy(lambda t: t["osm_id"].to_numpy(zero_copy_only=False) % 2)
    with pytest.raises(ValueError, match="already in use"):
        chained.aggregateBy(lambda t: t["osm_id"].to_numpy(zero_copy_only=False) % 3)
    # distinct names chain fine
    chained.aggregateBy(
        lambda t: t["osm_id"].to_numpy(zero_copy_only=False) % 3, name="_agg_key2"
    )
    with pytest.raises(ValueError, match="already in use"):
        chained.aggregateBy("_agg_key")


def test_aggregate_by_s2_cell_indexer_matches_pipeline():
    """The S2-style spherical cell id (spatial.s2) used as a facade
    callable aggregateBy() indexer must reproduce the oracle-checked
    q_snapshot_count_by_s2cell twin — the north-star "H3/S2 partition
    key" plugged into the fluent oshdb-api chain (MapReducer.java
    function-typed aggregateBy overload)."""
    from rayhist.pipelines import S2_LEVEL, q_snapshot_count_by_s2cell
    from rayhist.spatial.s2 import (
        cell_to_face_ij,
        face_ij_to_cell,
        lonlat_to_face_st,
        st_to_ij,
    )

    def s2_indexer(t: pa.Table) -> np.ndarray:
        lon = t["lon_e7"].to_numpy(zero_copy_only=False)
        lat = t["lat_e7"].to_numpy(zero_copy_only=False)
        face, ss, tt = lonlat_to_face_st(lon, lat)
        return face_ij_to_cell(
            face, st_to_ij(ss, S2_LEVEL), st_to_ij(tt, S2_LEVEL), S2_LEVEL
        )

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateBy(s2_indexer, name="cell")
        .count(alias="n_snapshots")
    )
    face, i, j, _lvl = cell_to_face_ij(got["cell"].to_numpy(dtype=np.int64))
    got = (
        pd.DataFrame(
            {"face": face, "i": i, "j": j, "n_snapshots": got["n_snapshots"].astype("int64")}
        )
        .sort_values(["face", "i", "j"])
        .reset_index(drop=True)
    )
    want = q_snapshot_count_by_s2cell(SF)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ------------------------------------- review-fix regressions (round 5)


def test_null_key_group_survives_timestamp_zerofill():
    """An aggregateBy indexer emitting nulls keeps its NULL group when
    aggregateByTimestamp()'s zerofill reindex runs (SQL GROUP BY keeps
    NULL groups; the dropna'd expected levels used to delete them)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def parity_or_null(t: pa.Table) -> pa.Table:
        uid = t["uid"].to_numpy(zero_copy_only=False)
        lab = np.where(uid % 3 == 0, None, np.where(uid % 2 == 0, "even", "odd"))
        return t.append_column("par", pa.array(lab.tolist(), type=pa.string()))

    base = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .map(parity_or_null)
        .aggregateBy("par")
    )
    no_ts = base.count(alias="n")
    with_ts = base.aggregateByTimestamp().count(alias="n")
    n_null_no_ts = int(no_ts.loc[no_ts["par"].isna(), "n"].sum())
    n_null_with_ts = int(with_ts.loc[with_ts["par"].isna(), "n"].sum())
    assert n_null_no_ts > 0  # precondition: nulls exist in the corpus
    assert n_null_with_ts == n_null_no_ts
    # totals agree too
    assert int(no_ts["n"].sum()) == int(with_ts["n"].sum())


def test_empty_value_sets_select_or_exclude_nothing():
    from rayhist.temporal import TagFilter

    import pyarrow as pa

    sigs = pa.array(["etype=|k=5", "etype=click", ""])
    # value in EMPTY set -> nothing (the empty alternation used to
    # match the empty-valued tag)
    assert TagFilter("etype", values=())._match_sigs(sigs).tolist() == [
        False, False, False,
    ]
    # excluding the EMPTY set excludes nothing: plain key presence
    assert TagFilter("etype", exclude_values=())._match_sigs(sigs).tolist() == [
        True, True, False,
    ]


def test_facade_guards_raise_loudly():
    mr = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    with pytest.raises(ValueError, match="osmType"):
        mr.osmType()
    with pytest.raises(ValueError, match="duplicate"):
        mr.aggregateByTimestamp().aggregateBy("ts_q").count()
    with pytest.raises(NotImplementedError, match="digest"):
        mr.aggregateBy("osm_id").estimatedMedian("lon_e7")


def test_sum_returns_python_scalar():
    import json

    v = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).sum("v")
    assert isinstance(v, int) and not hasattr(type(v), "dtype")
    json.dumps(v)  # must be JSON-serializable


def test_ungrouped_countuniq_matches_uniq():
    mr = OSMEntitySnapshotView.on(SF).timestamps([T_MID])
    assert mr.countUniq("uid") == len(mr.uniq("uid"))


def test_colocation_pairs_matches_pipeline():
    """Facade colocationPairs == the oracle-checked
    q_snapshot_colocation_pairs direct pipeline (same T_MID, same
    radius, no filters)."""
    from rayhist.pipelines import COLOC_RADIUS_E7, q_snapshot_colocation_pairs

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .colocationPairs(COLOC_RADIUS_E7)
    )
    want = q_snapshot_colocation_pairs(SF)
    pd.testing.assert_frame_equal(got, want)


def test_convex_hull_matches_direct_kernel():
    """Facade convexHull == grouped_convex_hull applied directly to
    the snapshot view rows (the kernel itself is oracle-checked via
    snapshot_hull_by_type and property-tested in test_spatial)."""
    from rayhist.ingest import read_documents
    from rayhist.spatial.hull import grouped_convex_hull
    from rayhist.views import snapshot_view

    got = OSMEntitySnapshotView.on(SF).timestamps([T_MID]).convexHull()
    snaps = snapshot_view(read_documents(SF), [T_MID])
    want = grouped_convex_hull(snaps, "ts_q", "osm_id", "lon_e7", "lat_e7")
    pd.testing.assert_frame_equal(got, want)
    assert len(got) >= 3


def test_geometric_terminals_guards():
    with pytest.raises(ValueError):
        OSMContributionView.on(SF).timestamps([T_MID, T_MID + 1]).convexHull()
    with pytest.raises(ValueError):
        OSMEntitySnapshotView.on(SF).timestamps(SNAP_DAILY).colocationPairs(1000)


def test_history_terminals_pinned_to_direct_pipelines():
    """Facade tagReverts()/lifespans() == the oracle-checked direct
    pipelines, and the whole-history guard raises on any filter."""
    from rayhist.pipelines import q_entity_lifespans, q_tag_reverts

    v = OSMContributionView.on(SF)
    pd.testing.assert_frame_equal(v.tagReverts(), q_tag_reverts(SF))
    pd.testing.assert_frame_equal(v.lifespans(), q_entity_lifespans(SF))
    with pytest.raises(ValueError, match="snapshot|contribution"):
        OSMEntitySnapshotView.on(SF).tagReverts()
    with pytest.raises(ValueError, match="WHOLE entity history"):
        OSMContributionView.on(SF).osmTag("etype", "click").tagReverts()
    with pytest.raises(ValueError, match="WHOLE entity history"):
        OSMContributionView.on(SF).areaOfInterest(
            bbox=(-1_000_000_000, -500_000_000, 1_000_000_000, 500_000_000)
        ).lifespans()


def test_facade_hexcell_indexer_pinned_to_direct_pipeline():
    """The fluent chain aggregateBy(hex-pack indexer).count() over the
    T_MID snapshot equals q_snapshot_count_by_hexcell — the H3-style
    spatial key through the reference's function-typed aggregateBy
    overload (MapReducer.java:735-766)."""
    import numpy as np

    from rayhist.pipelines import T_MID, q_snapshot_count_by_hexcell
    from rayhist.spatial.hexgrid import hex_cell, pack_hex, unpack_hex

    def hex_indexer(t):
        i, j = hex_cell(
            t["lon_e7"].to_numpy(zero_copy_only=False),
            t["lat_e7"].to_numpy(zero_copy_only=False),
        )
        return pack_hex(i, j)

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateBy(hex_indexer, name="hex")
        .count()
    )
    i, j = unpack_hex(got["hex"].to_numpy(dtype=np.int64))
    got = (
        got.assign(hex_i=i, hex_j=j)
        .rename(columns={"count": "n_snapshots"})[["hex_i", "hex_j", "n_snapshots"]]
        .sort_values(["hex_i", "hex_j"])
        .reset_index(drop=True)
    )
    want = q_snapshot_count_by_hexcell(SF)
    pd.testing.assert_frame_equal(
        got.astype({"n_snapshots": "int64"}), want.astype({"n_snapshots": "int64"})
    )


def test_facade_geohash_indexer_pinned_to_direct_pipeline():
    """The fluent chain aggregateBy(geohash indexer).count() over the
    T_MID snapshot equals q_snapshot_count_by_geohash — the
    string-keyed industry spatial key through the function-typed
    aggregateBy overload (MapReducer.java:735-766)."""
    import numpy as np

    from rayhist.pipelines import T_MID, q_snapshot_count_by_geohash
    from rayhist.spatial.geohash import geohash_bits, geohash_str

    def gh_indexer(t):
        return geohash_bits(
            t["lon_e7"].to_numpy(zero_copy_only=False),
            t["lat_e7"].to_numpy(zero_copy_only=False),
        )

    got = (
        OSMEntitySnapshotView.on(SF)
        .timestamps([T_MID])
        .aggregateBy(gh_indexer, name="gh")
        .count()
    )
    got = (
        got.assign(geohash=[geohash_str(g) for g in got["gh"]])
        .rename(columns={"count": "n_snapshots"})[["geohash", "n_snapshots"]]
        .sort_values("geohash")
        .reset_index(drop=True)
    )
    want = q_snapshot_count_by_geohash(SF)
    pd.testing.assert_frame_equal(
        got.astype({"n_snapshots": "int64"}), want.astype({"n_snapshots": "int64"})
    )


def test_facade_twa_daily_pinned_to_direct_pipeline():
    """The contribution-view timeWeightedAverageDaily() terminal
    equals q_twa_entities_daily — the continuous-time integral
    through the facade."""
    from rayhist.pipelines import q_twa_entities_daily

    got = OSMContributionView.on(SF).timeWeightedAverageDaily()
    want = q_twa_entities_daily(SF)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )
