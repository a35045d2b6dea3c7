"""Cross-check the vectorized temporal core against the loop oracle."""

import functools

import numpy as np
import pyarrow as pa
import pytest

from rayhist import io as rio
from tests.fixtures import YEAR_US, make_versions, scenario_corpus, versions_to_documents
from rayhist.model import decode_spans, tag_lookup
from rayhist.temporal import TagFilter, contributions, snapshots

from .oracle_temporal import contributions_oracle, snapshots_oracle

YEARLY = np.array([YEAR_US[y] for y in range(2007, 2018)], dtype=np.int64)


def _mask(tf, tbl: pa.Table, keytable: list[str]):
    """The filter's per-version mask: its keytable LUT gathered by
    tag id, as every stage applies it."""
    return None if tf is None else tf.sig_lut(keytable)[tbl["tag_id"].to_numpy()]


def _snap_set(tbl: pa.Table):
    return set(zip(tbl["doc_id"].to_pylist(), tbl["ts_q"].to_pylist(), tbl["v"].to_pylist()))


def _contrib_list(tbl: pa.Table):
    acts = []
    for r in tbl.to_pylist():
        a = set()
        if r["is_creation"]:
            a.add("CREATION")
        if r["is_deletion"]:
            a.add("DELETION")
        if r["is_tag_change"]:
            a.add("TAG_CHANGE")
        if r["is_geom_change"]:
            a.add("GEOMETRY_CHANGE")
        acts.append((r["doc_id"], r["ts"], frozenset(a)))
    acts.sort(key=lambda x: (x[0], x[1]))
    return acts


@pytest.mark.parametrize("tag_filter", [None, ("etype", "click"), ("etype", None)])
def test_snapshots_scenarios(tag_filter):
    tbl, kt = scenario_corpus()
    tf = TagFilter(*tag_filter) if tag_filter else None
    got = _snap_set(snapshots(tbl, YEARLY, _mask(tf, tbl, kt)))
    want = snapshots_oracle(tbl, YEARLY, tag_filter)
    assert got == want


@pytest.mark.parametrize("tag_filter", [None, ("etype", "click"), ("etype", None)])
def test_contributions_scenarios(tag_filter):
    tbl, kt = scenario_corpus()
    t0, t1 = YEAR_US[2008], YEAR_US[2016]
    tf = TagFilter(*tag_filter) if tag_filter else None
    got = _contrib_list(contributions(tbl, t0, t1, _mask(tf, tbl, kt)))
    want = contributions_oracle(tbl, t0, t1, tag_filter)
    assert got == want


def test_contribution_known_sequences():
    """Golden assertions in the style of IterateByContributionNodesTest."""
    tbl, _kt = scenario_corpus()
    got = _contrib_list(contributions(tbl, YEAR_US[2006], YEAR_US[2018]))
    by_doc = {}
    for doc, ts, acts in got:
        by_doc.setdefault(doc, []).append(acts)
    # N3 visibility cycle: create/del/recreate/del/recreate
    assert by_doc["node/3"] == [
        frozenset({"CREATION"}),
        frozenset({"DELETION"}),
        frozenset({"CREATION"}),
        frozenset({"DELETION"}),
        frozenset({"CREATION"}),
    ]
    # C1 changeset collapse: v2..v4 in cs 777 collapse to one contribution
    assert by_doc["node/6"] == [
        frozenset({"CREATION"}),
        frozenset({"GEOMETRY_CHANGE"}),
        frozenset({"GEOMETRY_CHANGE"}),
    ]
    # D1 leading tombstone: only the recreation emits
    assert by_doc["node/8"] == [frozenset({"CREATION"})]
    # E1: collapse lands on a state identical to prev -> empty type set
    assert by_doc["node/9"] == [frozenset({"CREATION"}), frozenset()]
    # N5 pre-interval only doc emits its create
    assert by_doc["node/5"][0] == frozenset({"CREATION"})


def test_filter_relative_deletion():
    """F1: filter 'etype=click' -> losing the tag is a DELETION
    (CellIterator.java:578-595), regaining it a CREATION."""
    tbl, kt = scenario_corpus()
    tf = TagFilter("etype", "click")
    got = _contrib_list(contributions(tbl, YEAR_US[2006], YEAR_US[2018], _mask(tf, tbl, kt)))
    seq = [a for d, _, a in got if d == "node/7"]
    assert seq == [
        frozenset({"CREATION"}),
        frozenset({"DELETION"}),
        frozenset({"CREATION"}),
    ]


def test_snapshot_pre_interval_state():
    """N5: all edits before the query timestamps -> snapshots return
    the last state at every timestamp."""
    tbl, _kt = scenario_corpus()
    got = _snap_set(snapshots(tbl, YEARLY))
    n5 = {(d, t, v) for d, t, v in got if d == "node/5"}
    assert n5 == {("node/5", int(t), 2) for t in YEARLY}


def test_randomized_against_oracle():
    """Seeded randomized histories, both views, with and without filter."""
    rng = np.random.default_rng(42)
    rows = []
    for doc in range(60):
        n = int(rng.integers(1, 12))
        ts = np.sort(rng.choice(np.arange(YEAR_US[2007], YEAR_US[2017], 10**9), n, replace=False))
        for v in range(1, n + 1):
            rows.append(
                dict(
                    doc_id=f"node/{doc}",
                    v=v,
                    ts=int(ts[v - 1]),
                    cs=doc * 1000 + (v - 1) // int(rng.integers(1, 4)),
                    uid=int(rng.integers(0, 5)),
                    visible=bool(rng.random() > 0.25),
                    lon_e7=int(rng.integers(0, 4)),
                    lat_e7=int(rng.integers(0, 4)),
                    tags={"etype": str(rng.choice(["click", "view"])), "k": str(int(rng.integers(0, 3)))},
                )
            )
    tbl, kt = make_versions(rows)
    for tf_spec in [None, ("etype", "click")]:
        tf = TagFilter(*tf_spec) if tf_spec else None
        mask = _mask(tf, tbl, kt)
        got = _snap_set(snapshots(tbl, YEARLY, mask))
        assert got == snapshots_oracle(tbl, YEARLY, tf_spec)
        t0, t1 = YEAR_US[2009], YEAR_US[2015]
        gotc = _contrib_list(contributions(tbl, t0, t1, mask))
        assert gotc == contributions_oracle(tbl, t0, t1, tf_spec)


def test_span_roundtrip_and_decode():
    """Span-sequence invariant: versions -> spans -> decode == versions."""
    tbl, _kt = scenario_corpus()
    docs, kt = versions_to_documents(tbl)
    decoded = decode_spans(docs, tag_lookup(kt))
    want = tbl.to_pandas().sort_values(["doc_id", "v"]).reset_index(drop=True)
    got = decoded.to_pandas().sort_values(["doc_id", "v"]).reset_index(drop=True)
    got = got[want.columns.tolist()]
    import pandas.testing as pdt

    pdt.assert_frame_equal(got, want)


def test_decode_then_views_match_direct():
    """Going through the span encoding must not change view results."""
    tbl, _kt = scenario_corpus()
    docs, kt = versions_to_documents(tbl)
    decoded = decode_spans(docs, tag_lookup(kt))
    assert _snap_set(snapshots(decoded, YEARLY)) == _snap_set(snapshots(tbl, YEARLY))
    t0, t1 = YEAR_US[2008], YEAR_US[2016]
    assert _contrib_list(contributions(decoded, t0, t1)) == _contrib_list(
        contributions(tbl, t0, t1)
    )


def test_aoi_contributions_s1():
    """S1: moving out of the AOI emits a DELETION, re-entry a CREATION
    (CellIterator.java:625-642 clipped-empty semantics)."""
    rows = [
        dict(doc_id="node/50", v=1, ts=YEAR_US[2008], cs=1, lon_e7=10, lat_e7=10),
        dict(doc_id="node/50", v=2, ts=YEAR_US[2010], cs=2, lon_e7=900, lat_e7=900),  # leaves AOI
        dict(doc_id="node/50", v=3, ts=YEAR_US[2012], cs=3, lon_e7=20, lat_e7=20),  # re-enters
        dict(doc_id="node/50", v=4, ts=YEAR_US[2014], cs=4, lon_e7=30, lat_e7=20),  # moves inside
    ]
    tbl, _kt = make_versions(rows)
    lon = tbl["lon_e7"].to_numpy()
    lat = tbl["lat_e7"].to_numpy()
    aoi = (lon >= 0) & (lon <= 100) & (lat >= 0) & (lat <= 100)
    got = _contrib_list(contributions(tbl, YEAR_US[2006], YEAR_US[2018], None, aoi))
    assert [a for _, _, a in got] == [
        frozenset({"CREATION"}),
        frozenset({"DELETION"}),
        frozenset({"CREATION"}),
        frozenset({"GEOMETRY_CHANGE"}),
    ]


def test_match_mask_realigned_after_sort():
    """Masks computed on unsorted input must be realigned by the
    internal sort (latent-bug regression test)."""
    rows = [
        dict(doc_id="node/60", v=2, ts=YEAR_US[2010], cs=2, lon_e7=1, lat_e7=1, tags={"etype": "click"}),
        dict(doc_id="node/60", v=1, ts=YEAR_US[2008], cs=1, lon_e7=1, lat_e7=1, tags={"etype": "view"}),
    ]
    tbl, kt = make_versions(rows)  # deliberately out of order
    tf = TagFilter("etype", "click")
    got = _snap_set(snapshots(tbl, YEARLY, _mask(tf, tbl, kt)))
    # click only exists from 2010 on
    assert got == {("node/60", int(t), 2) for t in YEARLY if t >= YEAR_US[2010]}


def test_reverse_version_runs_invariant_end_to_end():
    """Dirty-history fixture (model.reverse_version_runs): decoding a
    document whose version runs were reversed must yield IDENTICAL
    snapshots — including geometry and the keytable tag ids —
    after the interpolators' per-doc realignment (the reference's
    HEADER_TIMESTAMPS_NOT_IN_ORDER tolerance, OSHNodeImpl.java:30)."""
    import pandas as pd

    from rayhist.ingest import read_documents
    from rayhist.model import DECODE_COLUMNS, reverse_version_runs
    from rayhist.temporal import snapshots as snap_fn

    batch = rio.blocks_table(read_documents("/root/testdata/sf0.001", columns=DECODE_COLUMNS))
    batch = batch.slice(0, 10_000)
    dirty = reverse_version_runs(batch)
    # the versions per doc are preserved, their order is not
    assert batch["ver_ts"].to_pylist() != dirty["ver_ts"].to_pylist()
    tsq = np.array(
        [int(np.datetime64("2024-01-15", "us").astype(np.int64))], dtype=np.int64
    )

    def snap_frame(b):
        d = decode_spans(b)
        s = snap_fn(d, tsq)
        return (
            s.select(["osm_id", "ts_q", "lon_e7", "lat_e7"])
            .to_pandas()
            .sort_values(["osm_id", "ts_q"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(snap_frame(batch), snap_frame(dirty))
    # tag_id alignment: the decoded (osm_id, v) -> tag_id map must match
    key = ["osm_id", "v"]
    a = decode_spans(batch, geom=False).to_pandas()
    b = decode_spans(dirty, geom=False).to_pandas()
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True),
        b.sort_values(key).reset_index(drop=True),
    )


def _history_rows(docs, mode, perm_seed=0):
    """Version rows for ``docs`` (lists of version dicts), timestamps
    tied within a doc and broken by v. ``"sorted"`` keeps ingest order;
    the dirty orders: ``"ties"`` reverses only each run of tied
    versions, ``"reverse"`` each doc's versions, ``"shuffle"`` reverses
    them and shuffles the rows across docs (by ``perm_seed``)."""
    rows = []
    for d_i, versions in enumerate(docs):
        doc = [
            dict(
                doc_id=f"node/{d_i}",
                v=v_n,
                ts=YEAR_US[2007 + vr["ts_i"]],
                cs=vr["cs"],
                uid=1,
                visible=vr["visible"],
                lon_e7=vr["lon"],
                lat_e7=0,
                tags={"etype": vr["etype"]},
            )
            for v_n, vr in enumerate(sorted(versions, key=lambda r: r["ts_i"]), start=1)
        ]
        if mode == "ties":
            doc.sort(key=lambda r: (r["ts"], -r["v"]))
        elif mode != "sorted":
            doc.reverse()
        rows.extend(doc)
    if mode == "shuffle":
        rows = [rows[i] for i in np.random.default_rng(perm_seed).permutation(len(rows))]
    return rows


def test_property_random_histories_match_oracle():
    """Property test (hypothesis): arbitrary small histories, ties on
    ts included, in ingest order or dirty (tied versions in reverse v
    order, docs reversed, rows shuffled across docs: every dirty draw
    with a row out of (doc, ts, v) order takes the lexsort fallback) —
    the vectorized core matches the loop oracle for both views under
    every filter variant, and a ``columns=`` subset (any order) is
    exactly that projection of the full output."""
    from hypothesis import given, settings, strategies as st

    from rayhist.temporal import _STATE_COLS

    version_st = st.fixed_dictionaries(
        {
            "ts_i": st.integers(0, 6),  # narrow range: ties are common
            "visible": st.booleans(),
            "cs": st.integers(0, 3),
            "lon": st.integers(0, 2),
            "etype": st.sampled_from(["click", "view"]),
        }
    )
    doc_st = st.lists(version_st, min_size=1, max_size=7)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(doc_st, min_size=1, max_size=5),
        st.sampled_from(["sorted", "ties", "reverse", "shuffle"]),
        st.integers(0, 2**31),
        st.integers(0, 8),
        st.integers(1, 9),
        st.lists(st.sampled_from(_STATE_COLS), unique=True),
    )
    def run(docs, mode, perm_seed, a, span, cols):
        tbl, kt = make_versions(_history_rows(docs, mode, perm_seed))
        t0 = YEAR_US[2007 + a]
        t1 = YEAR_US[min(2007 + a + span, 2019)]
        for tf_spec in [None, ("etype", "click")]:
            tf = TagFilter(*tf_spec) if tf_spec else None
            mask = _mask(tf, tbl, kt)
            snap = snapshots(tbl, YEARLY, mask)
            assert _snap_set(snap) == snapshots_oracle(tbl, YEARLY, tf_spec)
            assert snapshots(tbl, YEARLY, mask, columns=cols).equals(
                snap.select(cols + ["ts_q"])
            )
            contrib = contributions(tbl, t0, t1, mask)
            assert _contrib_list(contrib) == contributions_oracle(tbl, t0, t1, tf_spec)
            flags = contrib.column_names[len(_STATE_COLS):]
            assert contributions(tbl, t0, t1, mask, columns=cols).equals(
                contrib.select(cols + flags)
            )

    run()


def test_tagfilter_exclude_values():
    """hasTagKeyExcluding (OSMEntity.java:123-137): key present AND
    value not in the excluded set — NOT the same as key-absent."""
    import pyarrow as pa

    from rayhist.temporal import TagFilter

    sigs = pa.array(["a=1|k=2", "a=1", "k=5", "k=3", "kx=5"])
    m = TagFilter("k", exclude_values=("5",))._match_sigs(sigs)
    assert list(m) == [True, False, False, True, False]
    # contrast: key-absent excludes every row with the key
    m2 = TagFilter("k", exclude=True)._match_sigs(sigs)
    assert list(m2) == [False, True, False, False, True]


def test_timestamp_grid_month_end_clamp_from_origin():
    """MONTHLY/YEARLY grids anchored on day 29-31 clamp to each target
    month's end, computed start + i*period FROM THE ORIGIN
    (OSHDBTimestamps.java:185) — chained clamping would turn Jan 31
    into Mar 29."""
    from rayhist.functions.timeutil import format_iso, timestamps

    got = [format_iso(t)[:10] for t in timestamps("2024-01-31", "2024-04-30", "MONTHLY")]
    assert got == ["2024-01-31", "2024-02-29", "2024-03-31", "2024-04-30"]
    got = [format_iso(t)[:10] for t in timestamps("2016-02-29", "2019-01-01", "YEARLY")]
    assert got == ["2016-02-29", "2017-02-28", "2018-02-28"]
    import pytest

    with pytest.raises(ValueError):
        timestamps("2024-01-01", "2024-01-02", "P0D")


# ------------------------------------- review-fix regressions (round 5)


def test_tag_filter_regex_reference_semantics():
    """value_regex applies to the VALUE ALONE with a FULL match
    (valuePattern.matcher(value).matches(), MapReducer.java:559-585):
    metacharacters must not leak across the '|' tag separator, and
    user anchors must work."""
    import pyarrow as pa

    from rayhist.temporal import TagFilter

    sigs = pa.array(["a=x|b=y", "a=xzy", "etype=click", "a=x", ""])
    # '.*' must NOT consume the '|' separator: only a=xzy and a=x have
    # a-values fully matching x.*y / x
    assert TagFilter("a", value_regex="x.*y")._match_sigs(sigs).tolist() == [
        False, True, False, False, False,
    ]
    # anchors are the user's business and must behave like fullmatch
    assert TagFilter("etype", value_regex="^cli.*$")._match_sigs(sigs).tolist() == [
        False, False, True, False, False,
    ]
    # full match, not search: 'lic' is inside 'click' but not all of it
    assert TagFilter("etype", value_regex="lic")._match_sigs(sigs).tolist() == [
        False, False, False, False, False,
    ]


def test_any_tag_filter_empty_matches_nothing():
    import pyarrow as pa

    from rayhist.temporal import AnyTagFilter

    sigs = pa.array(["", "a=1"])
    assert AnyTagFilter(())._match_sigs(sigs).tolist() == [False, False]


def test_tag_filter_rejects_exclude_combinations():
    import pytest

    from rayhist.temporal import TagFilter

    with pytest.raises(ValueError, match="exclude"):
        TagFilter("k", exclude=True, exclude_values=("5",))
    with pytest.raises(ValueError, match="exclude"):
        TagFilter("k", value="x", exclude=True)
    TagFilter("k", exclude=True)  # plain key-absent still fine


def test_dwell_time_invariant_under_unsorted_runs():
    """Dwell-time integrals must survive out-of-order version runs:
    _dwell_stage realigns per doc (_sorted_versions), so a corpus with
    every document's version runs reversed yields IDENTICAL totals."""
    from rayhist.aggregate import combine_partials
    from rayhist.model import reverse_version_runs
    from rayhist.pipelines import _docs, _dwell_stage, _tag_lookup

    docs = _docs("/root/testdata/sf0.001")
    lookup = _tag_lookup("/root/testdata/sf0.001")
    clean = combine_partials(
        rio.map_blocks(docs, lambda b: _dwell_stage(b, lookup)),
        ["etype"], {"dwell_p": "dwell_us"},
    ).sort_values("etype").reset_index(drop=True)
    dirty = combine_partials(
        rio.map_blocks(docs, lambda b: _dwell_stage(reverse_version_runs(b), lookup)),
        ["etype"], {"dwell_p": "dwell_us"},
    ).sort_values("etype").reset_index(drop=True)
    assert clean.equals(dirty)
    assert (clean["dwell_us"] > 0).all() and len(clean) == 4


def test_tag_reverts_brute_force_and_unsorted_invariance():
    """Edit-war pipeline vs a pandas reference over the raw events
    derivation (tag state = (event_type, props.k) per version, user
    order = (ts, event_id)), plus the reversed-version-runs invariance
    (_revert_stage realigns per doc before the lag-2 compare)."""
    import json

    import pandas as pd

    from rayhist.aggregate import combine_partials
    from rayhist.model import reverse_version_runs
    from rayhist.pipelines import DAY_US, T0, _docs, _revert_stage, q_tag_reverts

    got = q_tag_reverts("/root/testdata/sf0.001")

    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    ev["kk"] = ev["props"].map(lambda s: int(json.loads(s)["k"]))
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    ev["sig"] = ev["event_type"] + "|" + ev["kk"].astype(str)
    g = ev.groupby("user_id")
    rev = (ev["sig"] == g["sig"].shift(2)) & (ev["sig"] != g["sig"].shift(1))
    r = ev[rev].copy()
    r["day"] = (r["ts"].astype("int64") - T0) // DAY_US
    want = (
        r.groupby("day")
        .agg(n_reverts=("user_id", "size"), n_entities=("user_id", "nunique"))
        .reset_index()
        .astype("int64")
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["n_reverts"].sum() > 0  # corpus exercises real reverts

    docs = _docs("/root/testdata/sf0.001")
    names = {"n_reverts_p": "n_reverts", "n_entities_p": "n_entities"}
    dirty = combine_partials(
        rio.map_blocks(docs, lambda b: _revert_stage(reverse_version_runs(b))),
        ["day"], names,
    ).astype("int64").sort_values("day").reset_index(drop=True)
    pd.testing.assert_frame_equal(dirty, want)


def test_entity_lifespans_brute_force():
    """Entity-age histogram vs a pandas reference over raw events:
    lifespan = first event ts to last event ts when the last event is
    an error (tombstone), else to the window close."""
    import pandas as pd

    from rayhist.pipelines import DAY_US, DWELL_END, q_entity_lifespans

    got = q_entity_lifespans("/root/testdata/sf0.001")
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"])
    ev["t"] = ev["ts"].astype("int64")
    g = ev.groupby("user_id")
    first = g["t"].first()
    last_row = g.tail(1).set_index("user_id")
    deleted = (last_row["event_type"] == "error").astype("int64")
    end = last_row["t"].where(deleted == 1, DWELL_END)
    days = (end - first) // DAY_US
    want = (
        pd.DataFrame({"lifespan_days": days, "deleted": deleted})
        .groupby(["lifespan_days", "deleted"], as_index=False)
        .size()
        .rename(columns={"size": "n_entities"})
        .astype("int64")
        .sort_values(["lifespan_days", "deleted"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["n_entities"].sum() == ev["user_id"].nunique()
    assert (got["deleted"] == 1).any()  # corpus has tombstoned entities


def test_entity_tag_churn_conservation():
    """Grid cells sum to the entity count; version-weighted cells sum
    to the corpus size; n_sigs never exceeds n_versions."""
    import pandas as pd

    from rayhist.pipelines import q_entity_tag_churn

    got = q_entity_tag_churn("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id"])
    assert got["n_entities"].sum() == ev["user_id"].nunique()
    assert (got["n_versions"] * got["n_entities"]).sum() == len(ev)
    assert (got["n_sigs"] <= got["n_versions"]).all()
    assert (got["n_sigs"] < got["n_versions"]).any()  # real churn


def test_snapshot_incremental_merge_brute_force():
    """MERGE-apply vs a pandas-derived direct snapshot at T_DIFF_B,
    asserting the change stream really exercised all three actions
    (upsert of base rows, inserts, deletes)."""
    import json

    import pandas as pd

    from rayhist.pipelines import T_DIFF_B, T_MID, q_snapshot_incremental_merge

    got = q_snapshot_incremental_merge("/root/testdata/sf0.001")

    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    ev["kk"] = ev["props"].map(lambda s: int(json.loads(s)["k"]))
    ev["t"] = ev["ts"].astype("int64")
    ev = ev.sort_values(["user_id", "t", "event_id"])

    def snap_at(t):
        s = ev[ev["t"] <= t].groupby("user_id").tail(1)
        s = s[s["event_type"] != "error"]
        return s.set_index("user_id")

    want = snap_at(T_DIFF_B)
    assert got["osm_id"].tolist() == sorted(want.index)
    w = want.loc[got["osm_id"]]
    assert (got["etype"].to_numpy() == w["event_type"].to_numpy()).all()
    assert (got["kk"].to_numpy() == w["kk"].to_numpy()).all()

    base = snap_at(T_MID)
    changed = ev[(ev["t"] > T_MID) & (ev["t"] <= T_DIFF_B)]["user_id"].unique()
    assert len(set(base.index) - set(want.index)) > 0      # deletes applied
    assert len(set(want.index) - set(base.index)) > 0      # inserts applied
    assert len(set(changed) & set(base.index) & set(want.index)) > 0  # updates


def test_contributor_activity_brute_force():
    """Leaderboard vs raw-events reference (uid = round(value*100)%37)."""
    import pandas as pd

    from rayhist.pipelines import q_contributor_activity

    got = q_contributor_activity("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    ev["uid"] = (ev["value"].mul(100).round().astype("int64")) % 37
    ev["t"] = ev["ts"].astype("int64")
    g = ev.groupby("uid")
    want = pd.DataFrame(
        {
            "n_versions": g.size(),
            "n_entities": g["user_id"].nunique(),
            "first_ts": g["t"].min(),
            "last_ts": g["t"].max(),
        }
    ).reset_index().astype("int64")
    pd.testing.assert_frame_equal(got, want)
    assert (want["n_entities"] > 1).any()


def test_predominant_etype_dwell_invariants():
    """Winners partition the visible-dwell entity set: n_entities sums
    to the count of entities with any positive visible dwell, and the
    unsorted-runs invariance holds for the time-weighted mode too."""
    import pandas as pd

    from rayhist.aggregate import combine_partials
    from rayhist.model import reverse_version_runs
    from rayhist.pipelines import (
        _docs,
        _predominant_stage,
        _tag_lookup,
        q_etype_dwell_time,
        q_predominant_etype_dwell,
    )

    got = q_predominant_etype_dwell("/root/testdata/sf0.001")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["user_id", "event_type"])
    # every user has at least one non-error event in January -> dwell
    has_vis = ev[ev["event_type"] != "error"]["user_id"].nunique()
    assert got["n_entities"].sum() == has_vis
    # winners' dwell is a lower-bounded share of the total dwell
    total = q_etype_dwell_time("/root/testdata/sf0.001")["dwell_us"].sum()
    assert 0 < got["sum_dwell_us"].sum() <= total

    names = {"n_entities_p": "n_entities", "sum_dwell_p": "sum_dwell_us"}
    lookup = _tag_lookup("/root/testdata/sf0.001")
    dirty = combine_partials(
        rio.map_blocks(
            _docs("/root/testdata/sf0.001"),
            lambda b: _predominant_stage(reverse_version_runs(b), lookup),
        ),
        ["etype"], names,
    ).astype({"n_entities": "int64", "sum_dwell_us": "int64"}).sort_values(
        "etype"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(dirty, got)


def test_twa_daily_invariant_under_unsorted_runs():
    """The daily TWA integral must survive out-of-order version runs
    (_twa_stage realigns per doc), and the per-day integrals must sum
    to the dwell-time total integral over the same window (the two
    derivations share the span model, so the identity is exact)."""
    from rayhist.aggregate import combine_partials
    from rayhist.model import reverse_version_runs
    from rayhist.pipelines import _docs, _dwell_stage, _tag_lookup, _twa_stage

    docs = _docs("/root/testdata/sf0.001")
    lookup = _tag_lookup("/root/testdata/sf0.001")
    clean = combine_partials(
        rio.map_blocks(docs, _twa_stage),
        ["day"], {"vis_p": "visible_us"},
    ).sort_values("day").reset_index(drop=True)
    dirty = combine_partials(
        rio.map_blocks(docs, lambda b: _twa_stage(reverse_version_runs(b))),
        ["day"], {"vis_p": "visible_us"},
    ).sort_values("day").reset_index(drop=True)
    assert clean.equals(dirty)
    dwell = combine_partials(
        rio.map_blocks(docs, lambda b: _dwell_stage(b, lookup)),
        ["etype"], {"dwell_p": "dwell_us"},
    )
    assert int(clean["visible_us"].sum()) == int(dwell["dwell_us"].sum())


def _history_scan_stages(sf_dir):
    """The five history_scan stage builders, as the queries build them."""
    from rayhist.ingest import sig_keytable
    from rayhist.pipelines import (
        CELL_ZOOM, CONTRIB_BINS, CONTRIB_FROM, CONTRIB_TO, SNAP_DAILY, SNAP_WEEKLY,
    )
    from rayhist.spatial.grid import cell_id
    from rayhist.views import contribution_stats_stage, snapshot_counts_stage

    kt = sig_keytable(sf_dir)
    return {
        "snapshot_count_daily": snapshot_counts_stage(SNAP_DAILY),
        "snapshot_cells": snapshot_counts_stage(
            SNAP_WEEKLY, cell=functools.partial(cell_id, zoom=CELL_ZOOM)
        ),
        "snapshot_count_daily_click": snapshot_counts_stage(
            SNAP_DAILY, TagFilter("etype", "click"), keytable=kt
        ),
        "contrib_type_counts": contribution_stats_stage(
            CONTRIB_FROM, CONTRIB_TO, None, keytable=kt
        ),
        "contrib_daily": contribution_stats_stage(
            CONTRIB_FROM, CONTRIB_TO, bins=CONTRIB_BINS, flag_cols=["is_creation"]
        ),
    }


def test_history_scan_stages_skip_sort_on_ingest_order(monkeypatch):
    """Ingest writes every document's versions oldest -> newest, so the
    history_scan stages must not sort (the lexsort raises here); on
    reversed version runs they must take the fallback and return the
    same partials."""
    from rayhist.ingest import read_documents
    from rayhist.model import DECODE_COLUMNS, reverse_version_runs

    sf = "/root/testdata/sf0.001"
    batch = rio.blocks_table(read_documents(sf, columns=DECODE_COLUMNS)).slice(0, 100_000)
    dirty = reverse_version_runs(batch)
    stages = _history_scan_stages(sf)
    real_lexsort = np.lexsort

    def boom(*a, **k):
        raise AssertionError("ingest-ordered versions were sorted")

    monkeypatch.setattr(np, "lexsort", boom)
    clean = {name: stage(batch) for name, (stage, _) in stages.items()}
    calls = []

    def counting(*a, **k):
        calls.append(1)
        return real_lexsort(*a, **k)

    monkeypatch.setattr(np, "lexsort", counting)
    for name, (stage, keys) in stages.items():
        n = len(calls)
        got = stage(dirty)
        assert len(calls) > n, f"{name}: reversed runs did not reach the sort"
        assert len(clean[name]) > 0
        if keys:
            by = [(k, "ascending") for k in keys]
            got, want = got.sort_by(by), clean[name].sort_by(by)
        else:
            want = clean[name]
        assert got.equals(want), name


def test_snapshot_composite_key_overflow_raises():
    """Two docs need one doc-code bit; a query 2**60 us past the only
    edit leaves none, so the composite key would mix the docs. It must
    fail loudly instead of returning another document's state."""
    tbl, _kt = make_versions(
        [
            dict(doc_id="node/1", v=1, ts=0, cs=1, lon_e7=1, lat_e7=1),
            dict(doc_id="node/2", v=1, ts=0, cs=2, lon_e7=2, lat_e7=2),
        ]
    )
    assert len(snapshots(tbl, np.array([2**40]))) == 2
    with pytest.raises(ValueError, match="batch too wide for composite key"):
        snapshots(tbl, np.array([2**60]))


def test_snapshot_probe_chunks_keep_output(monkeypatch):
    """The probe runs in chunks of query timestamps; any chunk size
    gives the same rows in the same (T, doc) order, also for unsorted,
    repeated and before-every-edit timestamps."""
    import rayhist.temporal as temporal

    tbl, _kt = scenario_corpus()
    tsq = np.r_[YEARLY[::-1], YEARLY[3], YEAR_US[2006] - 1]
    want = snapshots(tbl, tsq)
    assert len(want) > 0
    assert pa.concat_tables([snapshots(tbl, [t]) for t in tsq]).equals(want)
    for probe_keys in (1, 7, 64):
        monkeypatch.setattr(temporal, "_PROBE_KEYS", probe_keys)
        assert snapshots(tbl, tsq).equals(want)
