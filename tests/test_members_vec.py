"""Differential equivalence of the compound member engine
(rayhist.members_vec, over the typed compound columns) against the
per-document reference engine (tests/reference_members.py, over the
span text) — on the real cached corpora, on adversarial hand-built
documents, and on Hypothesis-generated ones hitting the edge semantics
(duplicate members, equal-ts versions, tag keep-last dedup, deleted
and missing children, two-level nesting, empty member lists) — plus
the guards of the typed contract."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayhist import api, ingest, pipelines
from rayhist import io as rio
from rayhist.model import format_version_text, pack_child_id, pack_version_columns
from rayhist.members_vec import (
    ParsedBatch,
    contribution_stats_batch_vec,
    old_style_tags,
    role_id,
    snapshot_geoms_batch_vec,
    snapshots_old_style_batch_vec,
    tag_match,
)
from tests import reference_members as ref
from tests.fixtures import make_compound_doc, pack_compound_docs

SF = "/root/testdata/sf0.001"
TS = [
    int(np.datetime64(f"2024-01-{d:02d}", "us").astype(np.int64))
    for d in (1, 8, 15, 22, 29)
] + [int(np.datetime64("2024-02-02", "us").astype(np.int64))]


def _ref_match(match_kv):
    return None if match_kv is None else (lambda v: v.tags.get(match_kv[0]) == match_kv[1])


def _lut(kt, match_kv):
    return None if match_kv is None else tag_match(kt, *match_kv)


def _assert_contrib_ab(tbl, kt, match_kv, t_from=0, t_to=1 << 61):
    old = ref.contribution_stats_batch(tbl, t_from, t_to, _ref_match(match_kv))
    new = contribution_stats_batch_vec(tbl, t_from, t_to, _lut(kt, match_kv))
    assert new.to_pydict() == old


def _snapshot_rows(tbl, ts, match=None, id_name="way_id"):
    out = snapshot_geoms_batch_vec(tbl, ts, match, id_name=id_name)
    cols = (id_name, "ts_q", "n_nodes", "sum_lon", "sum_lat")
    return sorted(zip(*(out[c].to_pylist() for c in cols)))


def _assert_snap_ab(tbl, kt, ts=TS, match_kv=None, id_name="way_id"):
    old = ref.snapshot_geoms_batch(tbl, ts, _ref_match(match_kv))
    assert _snapshot_rows(tbl, ts, _lut(kt, match_kv), id_name) == old


def _assert_oldstyle_ab(tbl, kt, match_kv, ts=TS):
    new = snapshots_old_style_batch_vec(
        tbl, ts, old_style_tags(kt), role_id(kt, "outer"), role_id(kt, "inner"), _lut(kt, match_kv)
    )
    got = sorted(zip(*(new[c].to_pylist() for c in ("ts_q", "n_holes", "sum_lon", "sum_lat"))))
    assert got == ref.snapshots_old_style_batch(tbl, ts, _ref_match(match_kv))


def _load(ensure) -> tuple[pa.Table, dict]:
    path = ensure(SF)
    tbl = pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(path + "/*.parquet"))])
    return tbl.combine_chunks(), ingest.compound_keytable(path)


@pytest.fixture(scope="module")
def way_tbl():
    return _load(ingest.ensure_way_documents)


@pytest.fixture(scope="module")
def rel_tbl():
    return _load(ingest.ensure_relation_documents)


@pytest.fixture(scope="module")
def oldstyle_tbl():
    return _load(ingest.ensure_oldstyle_documents)


def test_way_corpus_contrib_ab(way_tbl):
    _assert_contrib_ab(*way_tbl, None)


def test_way_corpus_contrib_filtered_ab(way_tbl):
    _assert_contrib_ab(*way_tbl, ("k", "3"))


def test_way_corpus_snapshots_ab(way_tbl):
    _assert_snap_ab(*way_tbl)


def test_relation_corpus_contrib_ab(rel_tbl):
    _assert_contrib_ab(*rel_tbl, None)


def test_relation_corpus_contrib_filtered_ab(rel_tbl):
    _assert_contrib_ab(*rel_tbl, ("k", "3"))


def test_relation_corpus_snapshots_ab(rel_tbl):
    _assert_snap_ab(*rel_tbl, id_name="rel_id")


def test_oldstyle_corpus_ab(oldstyle_tbl):
    _assert_oldstyle_ab(*oldstyle_tbl, None)


def test_oldstyle_corpus_filtered_ab(oldstyle_tbl):
    _assert_oldstyle_ab(*oldstyle_tbl, ("k", "3"))


def _adversarial_docs() -> tuple[pa.Table, dict]:
    """Edge-semantics documents: duplicate member entries, equal-ts
    parent versions (last (ts,v) wins for state AND changeset map),
    duplicate tag keys (keep-last), members referencing missing
    children, a version with NO members (snapshot skip rule), and a
    child whose visible flag toggles (coords drop mid-history)."""
    d1 = make_compound_doc(
        "way/1",
        [
            {"v": 1, "ts": 100, "cs": 11, "uid": 1, "visible": True,
             "tags": {"a": "1"}, "members": [("node/10", ""), ("node/10", ""), ("node/11", "")]},
            # equal-ts second version: state + cs-map must take v=2
            {"v": 2, "ts": 100, "cs": 12, "uid": 2, "visible": True,
             "tags": {"a": "2"}, "members": [("node/10", ""), ("node/11", "")]},
            # no members at all: snapshot skip rule; missing child ref
            {"v": 3, "ts": 300, "cs": 13, "uid": 3, "visible": True,
             "tags": {"a": "2"}, "members": []},
            {"v": 4, "ts": 400, "cs": 14, "uid": 4, "visible": True,
             "tags": {"a": "2"}, "members": [("node/10", ""), ("node/99", "")]},
        ],
        {
            "node/10": [
                {"v": 1, "ts": 100, "cs": 50, "uid": 7, "visible": True, "lon": 5, "lat": 6},
                {"v": 2, "ts": 150, "cs": 51, "uid": 8, "visible": False, "lon": 0, "lat": 0},
                {"v": 3, "ts": 350, "cs": 52, "uid": 9, "visible": True, "lon": 7, "lat": 8},
            ],
            "node/11": [
                {"v": 1, "ts": 100, "cs": 60, "uid": 5, "visible": True, "lon": 1, "lat": 2},
                {"v": 2, "ts": 250, "cs": 61, "uid": 6, "visible": True, "lon": 3, "lat": 4},
            ],
        },
    )
    # duplicate tag key in the span stream: dict keeps the LAST value
    d2 = make_compound_doc(
        "way/2",
        [
            {"v": 1, "ts": 100, "cs": 21, "uid": 1, "visible": True,
             "tags": {}, "members": [("node/20", "")]},
            {"v": 2, "ts": 200, "cs": 22, "uid": 2, "visible": False,
             "tags": {}, "members": [("node/20", "")]},
            {"v": 3, "ts": 300, "cs": 23, "uid": 3, "visible": True,
             "tags": {"k": "3"}, "members": [("node/20", "")]},
        ],
        {
            "node/20": [
                {"v": 1, "ts": 100, "cs": 70, "uid": 4, "visible": True, "lon": 9, "lat": 9},
                {"v": 2, "ts": 250, "cs": 71, "uid": 5, "visible": True, "lon": 9, "lat": 10},
            ]
        },
    )
    dup = {"kind": "tag", "text": "k=OVERRIDDEN", "media_ref": "", "offset": -1}
    # splice a duplicate "k=..." before the real one for version 3 of d2
    idx = next(i for i, s in enumerate(d2) if s["text"] == "k=3")
    d2.insert(idx, dup)
    for i, s in enumerate(d2):
        s["offset"] = i
    return pack_compound_docs([d1, d2], ids=[1, 2])


def test_adversarial_contrib_ab():
    tbl, kt = _adversarial_docs()
    _assert_contrib_ab(tbl, kt, None)
    _assert_contrib_ab(tbl, kt, ("k", "3"))
    _assert_contrib_ab(tbl, kt, ("a", "2"))


def test_adversarial_snapshots_ab():
    tbl, kt = _adversarial_docs()
    for ts in ([50], [100], [150, 250, 350], [125, 500]):
        _assert_snap_ab(tbl, kt, ts)


def test_vec_handles_empty_batch():
    tbl, kt = pack_compound_docs([])
    out = contribution_stats_batch_vec(tbl, 0, 1 << 61)
    assert out["n_part"].to_pylist() == [0]
    assert snapshot_geoms_batch_vec(tbl, TS).num_rows == 0
    assert snapshots_old_style_batch_vec(tbl, TS, old_style_tags(kt), -1, -1).num_rows == 0


def test_separator_adversarial_tag_values_and_roles_ab():
    """Tag VALUES containing ';'/'=' must not collide distinct tag
    dicts in the signature ids (a ';' join read {'a':'1;b=2'} and
    {'a':'1','b':'2'} as equal -> missed TAG_CHANGE), and a role
    containing '@role=' splits on the FIRST marker like the
    per-document parser."""
    d = make_compound_doc(
        "way/9",
        [
            {"v": 1, "ts": 100, "cs": 1, "uid": 1, "visible": True,
             "tags": {"a": "1;b=2"},
             "members": [("node/90", "x@role=y")]},
            # same ';'-joined signature, DIFFERENT tag dict: TAG_CHANGE
            {"v": 2, "ts": 200, "cs": 2, "uid": 2, "visible": True,
             "tags": {"a": "1", "b": "2"},
             "members": [("node/90", "x@role=y")]},
        ],
        {
            "node/90": [
                {"v": 1, "ts": 100, "cs": 5, "uid": 3, "visible": True, "lon": 1, "lat": 2},
            ]
        },
    )
    tbl, kt = pack_compound_docs([d], ids=[9])
    assert kt["roles"] == ["x@role=y"]
    _assert_contrib_ab(tbl, kt, None)
    new = contribution_stats_batch_vec(tbl, 0, 1 << 61)
    assert new.to_pydict()["tag_part"][0] == 1  # the change IS detected


def test_oldstyle_adversarial_ab():
    """Edge shapes: multiple outers (disqualify), interesting relation
    tag (disqualify), missing outer child, node as inner member (no
    points), invisible inner way, and a plain qualifying relation."""
    T1, T2 = TS[1], TS[3]

    def ver(off, **kw):
        d = dict(v=1, ts=T1 - 1, cs=1, uid=1, vis=1)
        d.update(kw)
        return {
            "kind": "version",
            "text": (
                f"child={d['child']};" if "child" in d else ""
            )
            + f"v={d['v']};ts={d['ts']};cs={d['cs']};uid={d['uid']};vis={d['vis']}",
            "offset": off,
        }

    def tag(off, k, v):
        return {"kind": "tag", "text": f"{k}={v}", "offset": off}

    def mem(off, ent, role):
        return {"kind": "member", "text": f"{ent}@role={role}", "offset": off}

    def geom(off, lon, lat):
        return {
            "kind": "geom",
            "text": "",
            "media_ref": f"geom:v=1;lon={lon};lat={lat}",
            "offset": off,
        }

    def node(cid, off, lon, lat, vis=1):
        return [ver(off, child=cid, vis=vis), geom(off + 1, lon, lat)]

    def way(cid, off, nodes, vis=1):
        spans = [ver(off, child=cid, vis=vis)]
        spans += [mem(off + 1 + i, n, "node") for i, n in enumerate(nodes)]
        return spans

    def rel(off, tags, membs):
        spans = [ver(off)]
        spans += [tag(off + 1 + i, k, v) for i, (k, v) in enumerate(tags)]
        spans += [
            mem(off + 10 + i, e, r) for i, (e, r) in enumerate(membs)
        ]
        return spans

    docs = []
    # qualifying: one outer way (k=3), one inner way with 2 nodes
    docs.append(
        rel(0, [("type", "multipolygon")], [("way/1", "outer"), ("way/2", "inner")])
        + way("way/1", 20, ["node/1"])
        + [tag(22, "k", "3")]  # attaches to the most recent version (way/1)
        + way("way/2", 30, ["node/2", "node/3"])
        + node("node/1", 40, 1, 2)
        + node("node/2", 50, 10, 20)
        + node("node/3", 60, 30, 40)
    )
    # multiple outers: disqualified
    docs.append(
        rel(0, [("type", "multipolygon")], [("way/1", "outer"), ("way/2", "outer")])
        + way("way/1", 20, ["node/1"])
        + way("way/2", 30, ["node/2"])
        + node("node/1", 40, 1, 2)
        + node("node/2", 50, 3, 4)
    )
    # interesting relation tag: disqualified
    docs.append(
        rel(0, [("type", "multipolygon"), ("building", "yes")], [("way/1", "outer")])
        + way("way/1", 20, ["node/1"])
        + node("node/1", 40, 1, 2)
    )
    # outer child missing from doc: skipped
    docs.append(
        rel(0, [("type", "multipolygon")], [("way/99", "outer"), ("way/2", "inner")])
        + way("way/2", 30, ["node/2"])
        + node("node/2", 50, 3, 4)
    )
    # node as inner member: ring resolves one level down -> no points
    docs.append(
        rel(0, [("type", "boundary")], [("way/1", "outer"), ("node/9", "inner")])
        + way("way/1", 20, ["node/1"])
        + node("node/1", 40, 1, 2)
        + node("node/9", 50, 7, 8)
    )
    # invisible inner way at T2: ring dropped from T2 on
    docs.append(
        rel(0, [("type", "multipolygon")], [("way/1", "outer"), ("way/2", "inner")])
        + way("way/1", 20, ["node/1"])
        + way("way/2", 30, ["node/2"])
        + [ver(33, child="way/2", v=2, ts=T2, vis=0)]
        + node("node/1", 40, 1, 2)
        + node("node/2", 50, 5, 6)
    )
    tbl, kt = pack_compound_docs(docs)
    _assert_oldstyle_ab(tbl, kt, None)
    _assert_oldstyle_ab(tbl, kt, ("k", "3"))


# ------------------------------------------- randomized differential
_T = st.integers(1, 12)
_TAGS = st.lists(
    st.tuples(st.sampled_from(["k", "type", "source", "a"]),
              st.sampled_from(["3", "4", "multipolygon", "x"])),
    max_size=3,
)  # duplicate keys in one list: the span stream keeps the last


@st.composite
def _history(draw, members=None, tags=False):
    """One entity's versions (v = 1..n, ts non-decreasing: equal-ts
    versions included), each optionally with tags and members."""
    n = draw(st.integers(1, 4))
    out = []
    for i, t in enumerate(sorted(draw(st.lists(_T, min_size=n, max_size=n)))):
        out.append({
            "v": i + 1, "ts": t, "cs": draw(st.integers(0, 3)), "uid": draw(st.integers(0, 9)),
            "vis": draw(st.booleans()),
            "lon": draw(st.integers(-9, 9)), "lat": draw(st.integers(-9, 9)),
            "tags": draw(_TAGS) if tags else [],
            "members": draw(members) if members is not None else [],
        })
    return out


_NODE_REFS = st.sampled_from([f"node/{i}" for i in range(1, 7)])  # 5, 6 never have a history
_ROLES = st.sampled_from(["", "outer", "inner"])


@st.composite
def _compound_doc(draw):
    """A document's span stream: parent versions, then two-level
    children — way children (whose versions list node members) and node
    children — in a drawn order, as ingest writes them; or every version
    record in a drawn order (interleaved entities, unsorted histories).
    Members may repeat, name missing children or be empty; child
    versions may be deleted."""
    way_members = st.lists(st.tuples(_NODE_REFS, st.just("")), max_size=3)
    children = {f"node/{i}": draw(_history()) for i in draw(st.sets(st.integers(1, 4)))}
    children |= {f"way/{i}": draw(_history(way_members, tags=True))
                 for i in draw(st.sets(st.integers(1, 2)))}
    refs = st.one_of(_NODE_REFS, st.sampled_from(["way/1", "way/2", "way/3"]))
    parent = draw(_history(st.lists(st.tuples(refs, _ROLES), max_size=4), tags=True))
    spans = []

    def emit(kind, text="", ref=""):
        spans.append({"kind": kind, "text": text, "media_ref": ref, "offset": len(spans)})

    def versions(records):
        for child, r in records:
            prefix = "" if child is None else f"child={child};"
            text = format_version_text(r["v"], r["ts"], r["cs"], r["uid"], int(r["vis"]))
            emit("version", prefix + text)
            for k, v in r["tags"]:
                emit("tag", f"{k}={v}")
            for m, role in r["members"]:
                emit("member", f"{m}@role={role}")
            if child is not None and child.startswith("node/") and r["vis"]:
                emit("geom", ref=f"geom:child={child};v={r['v']};lon={r['lon']};lat={r['lat']}")

    records = [(None, r) for r in parent]
    for c in draw(st.permutations(sorted(children))):
        records += [(c, r) for r in children[c]]
    versions(draw(st.permutations(records)) if draw(st.booleans()) else records)
    return spans


@settings(max_examples=120, deadline=None)
@given(
    st.lists(_compound_doc(), min_size=1, max_size=3),
    st.lists(st.integers(0, 13), min_size=1, max_size=4),
)
def test_random_compound_documents_match_the_reference(docs, ts):
    """The batch engine equals the per-document reference on generated
    batches (documents share child ids, so entities must stay per
    document): contributions (whole history and a window), snapshot
    geometries and old-style holes, each with and without a tag
    filter."""
    tbl, kt = pack_compound_docs(docs)
    for match_kv in (None, ("k", "3")):
        _assert_contrib_ab(tbl, kt, match_kv)
        _assert_contrib_ab(tbl, kt, match_kv, 4, 9)
        _assert_snap_ab(tbl, kt, ts, match_kv)
        _assert_oldstyle_ab(tbl, kt, match_kv, ts)


# --------------------------------------------------- typed contract
def test_parsed_batch_needs_the_typed_columns(way_tbl):
    """A batch without the typed compound columns raises; it is never
    parsed from span text."""
    tbl, _ = way_tbl
    with pytest.raises(ValueError, match="not a typed compound batch"):
        ParsedBatch(tbl.select(["osm_id", "spans"]))
    with pytest.raises(ValueError, match="not a typed compound batch"):
        snapshot_geoms_batch_vec(tbl.drop_columns(["mem_child"]), TS)


def test_child_id_guard():
    assert pack_child_id(2, (1 << 60) - 1) == (2 << 60) | ((1 << 60) - 1)
    for bad in (1 << 60, -1):
        with pytest.raises(OverflowError, match="child id"):
            pack_child_id(0, [0, bad])


def test_member_edges_must_name_their_own_versions():
    typed = dict(v=[1, 1], ts=[1, 1], cs=[1, 1], uid=[1, 1], visible=[True, True],
                 lon_e7=[0, 0], lat_e7=[0, 0], child=[-1, -1])
    pack_version_columns([1, 1], **typed, members=([1, 0], [0], [5], [0]))
    with pytest.raises(ValueError, match="outside its document"):
        pack_version_columns([1, 1], **typed, members=([1, 0], [1], [5], [0]))
    with pytest.raises(ValueError, match="together"):
        pack_version_columns([1, 1], **{k: v for k, v in typed.items() if k != "child"},
                             members=([1, 0], [0], [5], [0]))


COMPOUND_QUERIES = [
    "contrib_type_counts_ways", "contrib_type_counts_ways_k3", "contrib_type_counts_relations",
    "snapshot_way_geoms", "snapshot_relation_geoms", "snapshot_old_style",
    "snapshot_count_by_type", "snapshot_count_three_types",
]


def test_compound_queries_parse_no_span_text(monkeypatch):
    """Every compound query gives the same frame with the Arrow text
    parsers (``extract_regex``, ``split_pattern``) patched to raise
    inside its block tasks."""
    import pandas.testing as pdt

    expected = {q: getattr(pipelines, "q_" + q)(SF) for q in COMPOUND_QUERIES}
    map_blocks = rio.map_blocks

    def no_text(ds, stage, batch_size=None):
        def guarded(batch):
            import pyarrow.compute as worker_pc

            def refuse(*_a, **_k):
                raise AssertionError("a compound stage called an Arrow text parser")

            saved = worker_pc.extract_regex, worker_pc.split_pattern
            worker_pc.extract_regex = worker_pc.split_pattern = refuse
            try:
                return stage(batch)
            finally:
                worker_pc.extract_regex, worker_pc.split_pattern = saved

        return map_blocks(ds, guarded, batch_size=batch_size)

    monkeypatch.setattr(rio, "map_blocks", no_text)
    monkeypatch.setattr(api, "map_blocks", no_text)
    for q in COMPOUND_QUERIES:
        pdt.assert_frame_equal(getattr(pipelines, "q_" + q)(SF), expected[q], obj=q)
