"""The view entries (rayhist.views.snapshot_rows / contribution_rows)
and the facade chains compiled onto them.

The entries decode only what the asked columns need and pass the
batch's document codes; each is pinned against the plain kernels over
the full decode. The facade chains are pinned against a result
composed here from the span-text decode (tests/reference_decode.py),
the temporal kernels and pandas, not through rayhist.api or
rayhist.views."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from rayhist import io as rio
from rayhist import pipelines
from rayhist.aggregate import KeyedPartials, combine_partials
from rayhist.model import decode_spans, reverse_version_runs, tag_lookup
from rayhist.spatial import fip
from rayhist.temporal import TagFilter, contributions, snapshots
from rayhist.views import (
    AOI, CONTRIBUTION_COLUMNS, SNAPSHOT_COLUMNS, TAG_STRINGS, contribution_rows,
    contribution_stage, contribution_stats_stage, snapshot_counts_stage, snapshot_rows,
    snapshot_stage,
)
from tests.fixtures import YEAR_US, make_versions, versions_to_documents

SF = "/root/testdata/sf0.001"
YEARS = [YEAR_US[y] for y in range(2007, 2019)]


def _documents(docs, reverse: bool):
    rows = []
    for d, versions in enumerate(docs):
        for v, r in enumerate(sorted(versions, key=lambda r: r["ts_i"]), start=1):
            tags = {"etype": r["etype"], "k": str(r["k"])} if r["tagged"] else {}
            rows.append({
                "doc_id": f"node/{d + 1}", "v": v, "ts": YEARS[r["ts_i"]], "cs": r["cs"],
                "uid": r["uid"], "visible": r["visible"], "lon_e7": r["lon"],
                "lat_e7": r["lat"], "tags": tags,
            })
    batch, kt = versions_to_documents(make_versions(rows)[0])
    return (reverse_version_runs(batch) if reverse else batch), kt


def _even_uid(versions: pa.Table) -> np.ndarray:
    return versions["uid"].to_numpy(zero_copy_only=False) % 2 == 0


def _inside(lon, lat):
    return (lon >= 0) & (lon <= 1) & (lat >= 1)


_version = st.fixed_dictionaries({
    "ts_i": st.integers(0, 5),
    "visible": st.booleans(),
    "cs": st.integers(0, 2),
    "uid": st.integers(0, 3),
    "lon": st.integers(0, 2),
    "lat": st.integers(0, 2),
    "tagged": st.booleans(),
    "etype": st.sampled_from(["click", "view"]),
    "k": st.integers(0, 1),
})


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(_version, min_size=1, max_size=6), min_size=1, max_size=5),
    st.booleans(),
    st.sampled_from(["none", "tag", "uid"]),
    st.booleans(),
    st.booleans(),
    st.lists(st.sampled_from(CONTRIBUTION_COLUMNS), unique=True),
    st.lists(st.sampled_from(SNAPSHOT_COLUMNS), unique=True),
    st.integers(0, 6),
    st.integers(1, 6),
)
def test_view_entries_equal_the_kernels_over_the_full_decode(
    docs, reverse, match_kind, with_lookup, with_aoi, c_cols, s_cols, a, span
):
    """Over dirty (reversed) and clean histories, with random column
    subsets, a tag filter or a callable filter, with and without a
    lookup and an AOI: an entry's rows are the plain kernels' rows over
    the full decode (no document codes) projected on the columns."""
    batch, kt = _documents(docs, reverse)
    lookup = tag_lookup(kt) if with_lookup else None
    if not with_lookup:  # a tag-string read needs the lookup
        c_cols = [c for c in c_cols if c not in TAG_STRINGS]
        s_cols = [c for c in s_cols if c not in TAG_STRINGS]
    full = decode_spans(batch, tag_lookup(kt))
    lut = TagFilter("etype", "click").sig_lut(kt)
    match, mask = None, None
    if match_kind == "tag":
        match, mask = lut, lut[full["tag_id"].to_numpy(zero_copy_only=False)]
    elif match_kind == "uid":
        match, mask = _even_uid, _even_uid(full)
    aoi = _inside if with_aoi else None

    want = snapshots(full, YEARS, mask)
    if with_aoi:
        lon, lat = (want[c].to_numpy(zero_copy_only=False) for c in ("lon_e7", "lat_e7"))
        want = want.filter(pa.array(_inside(lon, lat)))
    got = snapshot_rows(batch, YEARS, s_cols, lookup, match, aoi)
    assert got.equals(want.select(s_cols))

    t0, t1 = YEARS[a], YEARS[min(a + span, len(YEARS) - 1)]
    inside = None
    if with_aoi:
        lon, lat = (full[c].to_numpy(zero_copy_only=False) for c in ("lon_e7", "lat_e7"))
        inside = _inside(lon, lat)
    want = contributions(full, t0, t1, mask, aoi=inside)
    got = contribution_rows(batch, t0, t1, c_cols, lookup, match, aoi)
    assert got.equals(want.select(c_cols))


def test_a_tag_string_read_without_a_lookup_raises():
    """A view read of tag_sig, etype or kk without the keytable's
    lookup raises instead of returning constant-filled strings; a stage
    built without a keytable leaves those columns out."""
    batch, kt = _documents([[{
        "ts_i": 0, "visible": True, "cs": 0, "uid": 0, "lon": 0, "lat": 0,
        "tagged": True, "etype": "click", "k": 1,
    }]], False)
    for col in sorted(TAG_STRINGS):
        with pytest.raises(ValueError, match="tag lookup"):
            snapshot_rows(batch, YEARS, ["osm_id", col])
        with pytest.raises(ValueError, match="tag lookup"):
            contribution_rows(batch, YEARS[0], YEARS[-1], [col])
    got = snapshot_rows(batch, YEARS[:1], ["etype"], tag_lookup(kt))
    assert got["etype"].to_pylist() == ["click"]
    for stage in (snapshot_stage(YEARS[:1], None), contribution_stage(YEARS[0], YEARS[-1], None)):
        assert TAG_STRINGS.isdisjoint(stage(batch).column_names)
        assert stage(batch).num_rows == 1


# ------------------------------------------- keyed partials differential

_FLAG_COLUMNS = ["is_creation", "is_deletion", "is_tag_change", "is_geom_change"]


def _cell(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """A cell indexer fine enough for the fixtures' 3 x 3 coordinates."""
    return lon * 3 + lat


def _grouped(rows: pa.Table, keys: list[str], flags: list[str], cell: bool, bins) -> pd.DataFrame:
    """The partial count and flag sums per key of the view rows, by a
    pandas group-by."""
    df = rows.to_pandas()
    if bins is not None:
        idx = np.searchsorted(bins, df["ts"].to_numpy(), side="right") - 1
        df["ts_q"] = np.where(idx >= 0, np.asarray(bins)[np.clip(idx, 0, None)], -1)
    if cell:
        df["cell"] = _cell(df["lon_e7"].to_numpy(), df["lat_e7"].to_numpy())
    df = df.assign(n_part=1, **{f + "_part": df[f].astype("int64") for f in flags})
    sums = ["n_part", *(f + "_part" for f in flags)]
    if not keys:
        return df[sums].sum().to_frame().T.astype("int64")
    return df.groupby(keys, dropna=False, as_index=False)[sums].sum()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_version, min_size=1, max_size=6), min_size=1, max_size=5),
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(0, len(YEARS) - 1), min_size=1, max_size=6, unique=True),
    st.booleans(),
    st.sampled_from([(), ("etype",), ("osm_type",)]),
    st.booleans(),
    st.lists(st.sampled_from(_FLAG_COLUMNS), unique=True),
    st.sampled_from(["none", "tag", "uid"]),
    st.booleans(),
)
def test_keyed_partials_equal_a_pandas_group_by(
    docs, reverse, snapshot, picks, by_time, extra, with_cell, flags, match_kind, with_aoi
):
    """Both views, at random timestamps or bins, with an extra key
    column, flag sums, no / tag filter and with and without a bbox AOI,
    and snapshots with and without a cell indexer and a uid filter: the
    stage's partials are a pandas group-by of the view entry's rows."""
    if not snapshot:  # the contribution builder takes neither
        with_cell = False
        match_kind = "none" if match_kind == "uid" else match_kind
    batch, kt = _documents(docs, reverse)
    lookup = tag_lookup(kt)
    lut = TagFilter("etype", "click").sig_lut(kt)
    tag_filter = TagFilter("etype", "click") if match_kind == "tag" else None
    match = _even_uid if match_kind == "uid" else None
    row_match = lut if match_kind == "tag" else match
    aoi = AOI(bbox=(0, 1, 1, 2)) if with_aoi else None
    cell = _cell if with_cell else None
    times = sorted(YEARS[i] for i in picks)
    geo = ["lon_e7", "lat_e7"] if with_cell else []
    by = [*(["ts_q"] if by_time else []), *extra]
    if snapshot:  # ts_q is a view column
        stage, got_keys = snapshot_counts_stage(
            times, tag_filter, cell, kt, match=match, aoi=aoi, keys=tuple(by)
        )
        rows = snapshot_rows(batch, times, list(dict.fromkeys(by + geo)), lookup, row_match, aoi)
        flags, bins = [], None
    else:  # ts_q is the rows' ts floor-binned
        t0, t1 = YEARS[0], times[-1] if len(times) > 1 else YEARS[-1]
        bins = times[:-1] if by_time and len(times) > 1 else None
        by = [*(["ts_q"] if bins is not None else []), *extra]
        stage, got_keys = contribution_stats_stage(
            t0, t1, tag_filter, bins, flags, kt, aoi=aoi, keys=extra
        )
        reads = [*(["ts"] if bins is not None else []), *extra, *flags]
        rows = contribution_rows(batch, t0, t1, reads, lookup, row_match, aoi)
    keys = by + (["cell"] if with_cell else [])
    assert got_keys == keys
    want = _grouped(rows, keys, flags, with_cell, bins)
    got = stage(batch).to_pandas()
    assert list(got.columns) == list(want.columns)
    if keys:
        got = got.sort_values(keys, kind="mergesort").reset_index(drop=True)
        want = want.sort_values(keys, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert all(got[c].dtype == np.int64 for c in got.columns if c.endswith("_part"))


_PLAIN = pa.schema([("k_int", pa.int64()), ("k_str", pa.string()), ("flag", pa.bool_()),
                    ("x", pa.int64())])
_plain_row = st.fixed_dictionaries({
    "k_int": st.one_of(st.none(), st.integers(0, 3)),
    "k_str": st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    "flag": st.booleans(),
    "x": st.integers(-5, 5),
})


def _as_is(t: pa.Table) -> pa.Table:
    return t


def _with_square(t: pa.Table) -> pa.Table:
    """A row function: the rows with ``x2`` = x * x."""
    return t.append_column("x2", pc.multiply(t["x"], t["x"]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_plain_row, max_size=30),
    st.sampled_from([(), ("k_int",), ("k_str",), ("k_int", "k_str"), ("flag",)]),
    st.sampled_from([(), ("flag",), ("x",), ("flag", "x")]),
    st.booleans(),
    st.integers(1, 3),
)
def test_keyed_partials_over_plain_tables_equal_a_pandas_group_by(
    records, keys, sums, with_row_fn, n_blocks
):
    """Over plain tables split in blocks: int, string, null and bool
    keys or none, bool and int sums, the block as it is or a row
    function; the partials combined by ``combine_partials`` are a
    pandas ``groupby(dropna=False)`` of the rows (null keys kept)."""
    t = pa.Table.from_pylist(records, schema=_PLAIN)
    sums = tuple(c for c in sums if c not in keys) + (("x2",) if with_row_fn else ())
    stage = KeyedPartials(_with_square if with_row_fn else _as_is, keys=keys, sums=sums)
    cuts = np.linspace(0, t.num_rows, n_blocks + 1).astype(int)
    partials = pa.concat_tables([stage(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])])
    got = combine_partials(partials, list(keys), {"n_part": "n", **{c + "_part": c for c in sums}})
    df = stage.rows(t).to_pandas()
    aggs = {"n": ("x", "size"), **{c: (c, "sum") for c in sums}}
    if keys:
        want = df.groupby(list(keys), dropna=False, sort=True).agg(**aggs).reset_index()
    else:
        want = pd.DataFrame([{"n": len(df), **{c: df[c].sum() for c in sums}}])

    def records_of(frame):
        return sorted(
            (tuple(None if pd.isna(v) else v for v in r) for r in frame.itertuples(index=False)),
            key=repr,
        )

    assert list(got.columns) == list(want.columns)
    assert records_of(got) == records_of(want)
    assert all(got[c].dtype == np.int64 for c in ["n", *sums])


def test_a_polygon_aoi_builds_its_index_once_per_process(monkeypatch):
    """snapshot_pip_poly's stage over four blocks in one process builds
    the ``.poly`` boundary's band index at most once (the stage ships
    only the rings), and gives the query's counts."""
    want = pipelines.QUERIES["snapshot_pip_poly"][0](SF)
    built = []
    init = fip.Polygon.__post_init__
    monkeypatch.setattr(fip.Polygon, "__post_init__", lambda self: built.append(1) or init(self))

    def in_process(ds, stage, batch_size=None):
        t = rio.blocks_table(ds)
        cuts = np.linspace(0, t.num_rows, 5).astype(int)
        return pa.concat_tables([stage(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])])

    monkeypatch.setattr(rio, "map_blocks", in_process)
    got = pipelines.QUERIES["snapshot_pip_poly"][0](SF)
    assert len(built) <= 1
    pd.testing.assert_frame_equal(got, want)


# ------------------------------------------------ facade chain differential

_FLAGS = ["is_creation", "is_deletion", "is_tag_change", "is_geom_change"]


@pytest.fixture(scope="module")
def reference_versions():
    """The sf0.001 node versions parsed from the span text, with each
    version's tags as a dict."""
    import pyarrow.parquet as pq

    from rayhist.ingest import ensure_documents
    from tests.reference_decode import decode_text

    versions = decode_text(pq.read_table(ensure_documents(SF)))
    sigs = versions["tag_sig"].to_pylist()
    tags = [dict(t.split("=", 1) for t in s.split("|") if t) for s in sigs]
    return versions, tags


def _tag_mask(tags: list[dict], key: str, value=None, exclude=False, exclude_values=None):
    """osmTag semantics per version (MapReducer.java:424-632,
    OSMEntity.java:123-137), over the parsed tags."""
    if exclude:
        return np.array([key not in t for t in tags])
    if exclude_values is not None:
        return np.array([key in t and t[key] not in exclude_values for t in tags])
    return np.array([t.get(key) == value for t in tags])


def _reference(chain, versions, tags):
    """The chain's result from the kernels and pandas."""
    from rayhist.pipelines import AOI_BBOX

    x0, y0, x1, y1 = AOI_BBOX
    m = np.ones(versions.num_rows, dtype=bool)
    for f in chain["filters"]:
        m &= _tag_mask(tags, **f)
    if chain["node"]:
        m &= pc.equal(versions["osm_type"], "node").to_numpy(zero_copy_only=False)
    lon = versions["lon_e7"].to_numpy(zero_copy_only=False)
    lat = versions["lat_e7"].to_numpy(zero_copy_only=False)
    ts = sorted(chain["ts"])
    if chain["view"] == "snapshot":
        rows = snapshots(versions, ts, m).to_pandas()
        if chain["bbox"]:
            rows = rows[rows["lon_e7"].between(x0, x1) & rows["lat_e7"].between(y0, y1)]
        grid = ts
    else:
        inside = (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1) if chain["bbox"] else None
        rows = contributions(versions, ts[0], ts[-1], m, aoi=inside).to_pandas()
        grid = ts[:-1]
        rows["ts_q"] = np.asarray(grid)[np.searchsorted(grid, rows["ts"], side="right") - 1]
    term = chain["terminal"]
    if term == "count":
        agg = rows.groupby("ts_q").size()
        total = len(rows)
    elif term == "uniq":
        agg = rows.groupby("ts_q")["uid"].nunique()
        total = rows["uid"].nunique()
    else:
        agg = rows.groupby("ts_q")[term].sum()
        total = int(rows[term].sum())
    if not chain["agg_ts"]:
        return int(total)
    return [int(agg.get(t, 0)) for t in grid]


_filter = st.sampled_from([
    {"key": "etype", "value": "click"},
    {"key": "etype", "value": "view"},
    {"key": "etype", "exclude": True},
    {"key": "building", "exclude": True},
    {"key": "etype", "exclude_values": ("click", "view")},
    {"key": "k", "exclude_values": ("26", "61", "0")},
])


@st.composite
def _chains(draw):
    view = draw(st.sampled_from(["snapshot", "contribution"]))
    from rayhist.pipelines import SNAP_DAILY

    return {
        "view": view,
        "ts": draw(st.lists(st.sampled_from(SNAP_DAILY), min_size=2, max_size=6, unique=True)),
        "filters": draw(st.lists(_filter, max_size=2)),
        "bbox": draw(st.booleans()),
        "node": draw(st.booleans()),
        "agg_ts": draw(st.booleans()),
        "terminal": draw(st.sampled_from(
            ["count", "uniq"] + (_FLAGS if view == "contribution" else [])
        )),
    }


def _run(chain):
    from rayhist.api import OSMContributionView, OSMEntitySnapshotView
    from rayhist.pipelines import AOI_BBOX

    view = OSMEntitySnapshotView if chain["view"] == "snapshot" else OSMContributionView
    mr = view.on(SF).timestamps(chain["ts"])
    for f in chain["filters"]:
        mr = mr.osmTag(**f)
    if chain["bbox"]:
        mr = mr.areaOfInterest(bbox=AOI_BBOX)
    if chain["node"]:
        mr = mr.osmType("node")
    if chain["agg_ts"]:
        mr = mr.aggregateByTimestamp()
    term = chain["terminal"]
    if term == "count":
        out = mr.count(alias="n")
    elif term == "uniq":
        out = mr.countUniq("uid", alias="n")
    else:
        out = mr.sum(term, alias="n")
    return [int(n) for n in out["n"]] if chain["agg_ts"] else int(out)


def test_facade_chains_equal_the_composed_reference(reference_versions):
    """Random fluent chains (a view, a timestamp subset, osmTag value
    and exclude filters, areaOfInterest(bbox), osmType("node"),
    aggregateByTimestamp, then count / sum(flag) / countUniq("uid"))
    give the result composed from the span-text decode, the kernels and
    pandas."""
    versions, tags = reference_versions

    @settings(max_examples=30, deadline=None)
    @given(_chains())
    def run(chain):
        assert _run(chain) == _reference(chain, versions, tags), chain

    run()
