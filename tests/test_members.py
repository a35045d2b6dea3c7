"""Way/relation member-history semantics + geometry builder tests
(scenarios W1/W2/W3/R1/R2 from FIXTURES.md §2)."""

import numpy as np
import pytest

from tests.fixtures import YEAR_US, make_compound_doc, scenario_way_w1, scenario_way_w2_ring
from rayhist.geometry import (
    Geom,
    build_multipolygon,
    build_node,
    build_way,
    clip_segments_to_bbox,
    is_area,
)
from tests.reference_members import (
    contributions_doc,
    modification_timestamps,
    parse_doc,
    snapshots_doc,
)

T = YEAR_US


def test_w1_member_motion_contributions():
    """Child node edits produce GEOMETRY_CHANGE contributions without a
    new way version (OSHEntities.java:315-393); contributor uid comes
    from the child (OSMContribution.java:211-257)."""
    doc = parse_doc(scenario_way_w1())
    mods = modification_timestamps(doc)
    # way created 2008; node/100 moved 2010 and 2013 (2007 child edits
    # predate the way's validity window start == way ts? window is
    # [2008, +inf); child edits at 2007 excluded, 2010/2013 included)
    assert mods == [T[2008], T[2010], T[2013]]
    contribs = contributions_doc(doc, T[2006], T[2018])
    acts = [c["activities"] for c in contribs]
    assert acts == [
        frozenset({"CREATION"}),
        frozenset({"GEOMETRY_CHANGE"}),
        frozenset({"GEOMETRY_CHANGE"}),
    ]
    # contributor of the pure member edits = child version uid
    assert contribs[1]["uid"] == 8
    assert contribs[2]["uid"] == 9
    # geometry at the last contribution reflects the moved node
    assert contribs[2]["coords"][0] == (20_000_000, 0)


def test_w1_snapshots_track_member_motion():
    doc = parse_doc(scenario_way_w1())
    snaps = snapshots_doc(doc, [T[2009], T[2011], T[2014]])
    assert [s[2][0] for s in snaps] == [(0, 0), (10_000_000, 0), (20_000_000, 0)]


def test_w2_ring_area_decision():
    doc = parse_doc(scenario_way_w2_ring())
    (ts, st, coords) = snapshots_doc(doc, [T[2009]])[0]
    g = build_way(np.array(coords), st.tags)
    assert g.kind == "polygon"
    # ~1.1e6 m x 1.1e6 m square (10 degrees at equator)
    assert g.area_m2() == pytest.approx((6_371_000 * np.pi / 180) ** 2, rel=0.02)
    # open variant -> linestring; area=no -> linestring
    g2 = build_way(np.array(coords[:-1]), st.tags)
    assert g2.kind == "linestring"
    g3 = build_way(np.array(coords), {"building": "yes", "area": "no"})
    assert g3.kind == "linestring"
    assert not is_area({"highway": "residential"})


def test_w3_degenerate_ways():
    assert build_way(np.empty((0, 2)), {}).is_empty
    g = build_way(np.array([[5, 6]]), {})
    assert g.kind == "point"


def test_member_deleted_node_skipped():
    """A deleted member node drops out of the geometry
    (OSHDBGeometryBuilder.java:89-96 tolerance)."""
    versions = [dict(v=1, ts=T[2008], cs=1, members=[("node/1", ""), ("node/2", "")])]
    children = {
        "node/1": [dict(v=1, ts=T[2007], lon=0, lat=0)],
        "node/2": [
            dict(v=1, ts=T[2007], lon=5, lat=5),
            dict(v=2, ts=T[2010], visible=False, lon=0, lat=0),
        ],
    }
    doc = parse_doc(make_compound_doc("way/9", versions, children))
    snaps = snapshots_doc(doc, [T[2009], T[2011]])
    assert len(snaps[0][2]) == 2
    assert len(snaps[1][2]) == 1  # node/2 deleted -> skipped
    # and the deletion shows up as a GEOMETRY_CHANGE contribution
    contribs = contributions_doc(doc, T[2006], T[2018])
    assert contribs[-1]["activities"] == frozenset({"GEOMETRY_CHANGE"})


def test_changeset_collapse_across_parent_and_child():
    """Parent changeset wins at equal ts; consecutive same-changeset
    modifications collapse to the last."""
    versions = [
        dict(v=1, ts=T[2008], cs=50, members=[("node/1", "")]),
        dict(v=2, ts=T[2010], cs=60, members=[("node/1", "")]),
    ]
    children = {
        "node/1": [
            dict(v=1, ts=T[2007], cs=40, lon=0, lat=0),
            dict(v=2, ts=T[2009], cs=60, lon=1, lat=0),  # same cs as way v2
        ],
    }
    doc = parse_doc(make_compound_doc("way/10", versions, children))
    mods = modification_timestamps(doc)
    # child edit at 2009 (cs 60) collapses into way v2 at 2010 (cs 60)
    assert mods == [T[2008], T[2010]]


def test_r1_multipolygon_assembly():
    """Outer ring from two joined way segments + one inner hole."""
    seg1 = np.array([[0, 0], [10, 0], [10, 10]], dtype=np.int64) * 10_000_000
    seg2 = np.array([[10, 10], [0, 10], [0, 0]], dtype=np.int64) * 10_000_000
    hole = np.array([[4, 4], [6, 4], [6, 6], [4, 6], [4, 4]], dtype=np.int64) * 10_000_000
    g = build_multipolygon([seg1, seg2], [hole])
    assert g.kind == "multipolygon"
    assert len(g.parts) == 1 and len(g.holes[0]) == 1
    full = build_multipolygon([seg1, seg2], []).area_m2()
    assert g.area_m2() < full
    assert g.area_m2() == pytest.approx(full * (1 - 0.04), rel=0.01)


def test_r2_incomplete_relation_no_crash():
    """Missing member ways -> unclosable chains dropped, no crash
    (OSHDBGeometryBuilder.java:140-185)."""
    seg1 = np.array([[0, 0], [10, 0], [10, 10]], dtype=np.int64) * 10_000_000
    g = build_multipolygon([seg1], [])
    assert g.is_empty


def test_clip_segments_invariant():
    """aggregateByGeometry invariant: len(total) == len(left)+len(right)
    when the regions partition the bbox (TestMapAggregateByGeometry.java:73-121)."""
    rng = np.random.default_rng(4)
    # short steps: equirectangular length is only near-additive for
    # short segments (splitting at the chord changes each half's
    # cos(mid-lat) term)
    lons = np.cumsum(rng.uniform(-0.6, 0.6, 50)) - 2.0
    lats = np.cumsum(rng.uniform(-0.3, 0.3, 50))
    total = clip_segments_to_bbox(lons, lats, (-10, -5, 10, 5))
    left = clip_segments_to_bbox(lons, lats, (-10, -5, 0, 5))
    right = clip_segments_to_bbox(lons, lats, (0, -5, 10, 5))
    assert total > 0.0  # the bug this test failed to catch in round 1
    assert total == pytest.approx(left + right, rel=1e-4)
    outside = clip_segments_to_bbox(lons, lats, (50, 50, 60, 60))
    assert outside == 0.0


def test_relation_with_way_members_full_chain():
    """R1 end-to-end: relation -> member ways -> nodes, geometry
    assembled from the resolved rings at a timestamp; a node edit deep
    in the chain changes the relation's geometry."""
    from tests.reference_members import resolve_member_rings

    # nodes of the outer ring (one node moves in 2012)
    node_hist = {
        "node/1": [dict(v=1, ts=T[2007], lon=0, lat=0)],
        "node/2": [dict(v=1, ts=T[2007], lon=100_000_000, lat=0)],
        "node/3": [
            dict(v=1, ts=T[2007], lon=100_000_000, lat=100_000_000),
            dict(v=2, ts=T[2012], lon=120_000_000, lat=120_000_000),
        ],
        "node/4": [dict(v=1, ts=T[2007], lon=0, lat=100_000_000)],
    }
    # two way members, each half the ring; the ways carry member spans
    rel_spans = make_compound_doc(
        "relation/1",
        [
            dict(
                v=1, ts=T[2008], cs=1, tags={"type": "multipolygon"},
                members=[("way/10", "outer"), ("way/11", "outer")],
            )
        ],
        node_hist,
    )
    # append the way children with their own member lists (built
    # manually: child way versions carrying member spans)
    off = rel_spans[-1]["offset"] + 1
    for wid, nds in (("way/10", ["node/1", "node/2", "node/3"]), ("way/11", ["node/3", "node/4", "node/1"])):
        rel_spans.append(
            {"kind": "version", "text": f"child={wid};v=1;ts={T[2007]};cs=5;uid=1;vis=1",
             "media_ref": "", "offset": off}
        )
        off += 1
        for nd in nds:
            rel_spans.append({"kind": "member", "text": f"{nd}@role=", "media_ref": "", "offset": off})
            off += 1
    doc = parse_doc(rel_spans)
    st = doc.versions[0]

    rings_2009 = resolve_member_rings(doc, st, T[2009], "outer")
    g1 = build_multipolygon(rings_2009, [])
    assert g1.kind == "multipolygon"
    a_2009 = g1.area_m2()

    rings_2013 = resolve_member_rings(doc, st, T[2013], "outer")
    a_2013 = build_multipolygon(rings_2013, []).area_m2()
    assert a_2013 > a_2009 * 1.1  # node/3 moved outward -> bigger ring

    # and the recursive modification timestamps see the node edit
    mods = modification_timestamps(doc)
    assert T[2012] in mods


def test_old_style_multipolygon():
    """R3: old-style multipolygon (CellIterator.java:260-318 +
    BaseTagInterpreter.isOldStyleMultipolygon :111-136) — filter is
    tested on the OUTER way's tags, geometry emitted is ONLY the inner
    holes, and the hole grows when a deep node moves."""
    from tests.fixtures import scenario_relation_old_style
    from rayhist.geometry import build_multipolygon
    from tests.reference_members import (
        is_old_style_multipolygon,
        parse_doc,
        snapshots_old_style,
    )

    doc = parse_doc(scenario_relation_old_style())
    st = doc.versions[0]
    assert is_old_style_multipolygon(st)

    # a second outer way disqualifies (the "new-style" shape)
    st2 = type(st)(**{**st.__dict__})
    st2.members = st.members + [("way/22", "outer")]
    assert not is_old_style_multipolygon(st2)
    # an interesting tag on the relation disqualifies
    st3 = type(st)(**{**st.__dict__, "tags": {"type": "multipolygon", "building": "yes"}})
    st3.members = st.members
    assert not is_old_style_multipolygon(st3)

    # filter on the OUTER WAY's tags, not the relation's
    snaps = snapshots_old_style(doc, [T[2009]], match=lambda v: v.tags.get("building") == "yes")
    assert len(snaps) == 1
    snaps_no = snapshots_old_style(doc, [T[2009]], match=lambda v: v.tags.get("building") == "no")
    assert snaps_no == []

    # geometry = holes only; hole grows after the 2012 node move
    _, _, holes_2009 = snaps[0]
    g09 = build_multipolygon(holes_2009, [])
    a09 = g09.area_m2()
    assert g09.kind == "multipolygon" and a09 > 0
    _, _, holes_2013 = snapshots_old_style(doc, [T[2013]])[0]
    a13 = build_multipolygon(holes_2013, []).area_m2()
    assert a13 > a09 * 1.2

def test_pinched_ring_repair():
    """R4: a figure-eight outer ring pinched at one shared vertex is
    split into two simple CCW rings — the buffer(0)-analog repair
    (OSHDBGeometryBuilder.java:187-301). Area is preserved as the sum
    of the two lobes; previously the invalid ring was kept as-is."""
    import numpy as np

    from rayhist.geometry import _shoelace_e7, build_multipolygon, normalize_ring
    from rayhist.functions.geo import ring_area

    M = 1_000_000  # 0.1 degree in e7 units
    eight = np.array(
        [(0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2), (0, 0)],
        dtype=np.int64,
    ) * M
    pieces = normalize_ring(eight)
    assert len(pieces) == 2
    for p in pieces:
        assert np.array_equal(p[0], p[-1])  # closed
        body = p[:-1]
        assert len(np.unique(body, axis=0)) == len(body)  # vertex-simple
        assert _shoelace_e7(p) > 0  # CCW
    sq_a = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], dtype=np.int64) * M
    sq_b = np.array([(2, 2), (4, 2), (4, 4), (2, 4), (2, 2)], dtype=np.int64) * M
    want = abs(ring_area(sq_a[:, 0] / 1e7, sq_a[:, 1] / 1e7)) + abs(
        ring_area(sq_b[:, 0] / 1e7, sq_b[:, 1] / 1e7)
    )
    g = build_multipolygon([eight], [])
    assert g.kind == "multipolygon" and len(g.parts) == 2
    assert abs(g.area_m2() - want) < 1e-6 * want


def test_spike_sliver_dropped_and_cw_reoriented():
    """Zero-area spike pieces are dropped (buffer(0) removes slivers)
    and a CW-traced simple ring is re-oriented CCW."""
    import numpy as np

    from rayhist.geometry import _shoelace_e7, normalize_ring

    M = 1_000_000
    spiked = np.array(
        [(0, 0), (2, 0), (2, 2), (0, 2), (0, 4), (0, 2), (0, 0)], dtype=np.int64
    ) * M
    pieces = normalize_ring(spiked)
    assert len(pieces) == 1  # the spike (0,2)-(0,4) sliver is gone
    assert len(pieces[0]) == 5 and _shoelace_e7(pieces[0]) > 0

    cw = np.array([(0, 0), (0, 2), (2, 2), (2, 0), (0, 0)], dtype=np.int64) * M
    (fixed,) = normalize_ring(cw)
    assert _shoelace_e7(fixed) > 0
    (hole,) = normalize_ring(cw, ccw=False)
    assert _shoelace_e7(hole) < 0


def test_relation_geometry_collection_fallback():
    """R5: a relation whose type is NOT multipolygon/boundary degrades
    to a GeometryCollection of member geometries
    (OSHDBGeometryBuilder.java:140-185) instead of losing geometry."""
    import numpy as np

    from rayhist.functions.geo import length_of_line
    from tests.reference_members import DocHistory, Version, build_relation_geom

    M = 1_000_000

    def node(ts, lon, lat):
        return Version(v=1, ts=ts, cs=1, uid=1, visible=True, lon_e7=lon * M, lat_e7=lat * M)

    children = {
        "node/1": [node(0, 0, 0)],
        "node/2": [node(0, 2, 0)],
        "node/3": [node(0, 2, 2)],
        "node/4": [node(0, 5, 5)],
        "way/10": [
            Version(v=1, ts=0, cs=1, uid=1, visible=True,
                    members=[("node/1", ""), ("node/2", ""), ("node/3", "")])
        ],
    }
    rel = Version(
        v=1, ts=0, cs=1, uid=1, visible=True, tags={"type": "route"},
        members=[("way/10", "forward"), ("node/4", "stop"), ("way/99", "")],
    )
    doc = DocHistory("relation/1", [rel], children)
    g = build_relation_geom(doc, rel, 10)
    assert g.kind == "collection" and len(g.subs) == 2  # missing way/99 tolerated
    kinds = sorted(s.kind for s in g.subs)
    assert kinds == ["linestring", "point"]
    lons = np.array([0.0, 0.2, 0.2])
    lats = np.array([0.0, 0.0, 0.2])
    assert abs(g.length_m() - length_of_line(lons, lats)) < 1e-9

    # multipolygon-typed relation still takes the ring-assembly path
    rel_mp = Version(
        v=1, ts=0, cs=1, uid=1, visible=True, tags={"type": "multipolygon"},
        members=[("way/10", "outer")],
    )
    g2 = build_relation_geom(DocHistory("relation/2", [rel_mp], children), rel_mp, 10)
    assert g2.kind in ("multipolygon", "empty")  # open chain -> no ring
