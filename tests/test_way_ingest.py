"""Way-document ingest: span layout, member recursion over the real
corpus, and determinism.

The DuckDB oracle gate (tools/check_queries.py) proves value equality;
these tests pin the STRUCTURE of the compound documents and the
engine-internal invariants the oracle can't see (span ordering,
parse round-trip, child-history completeness).
"""

from pathlib import Path

import numpy as np
import pyarrow.parquet as pq
import pytest

from rayhist.ingest import (
    WAY_BLOCK,
    ensure_oldstyle_documents,
    ensure_relation_documents,
    ensure_way_documents,
)
from rayhist.members import COMPOUND_BATCH
from tests.reference_members import contributions_doc, parse_doc, snapshots_doc

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def way_docs():
    path = ensure_way_documents(SF)
    return pq.read_table(path).to_pylist()


def test_way_doc_structure(way_docs):
    assert len(way_docs) == 3  # 15 users / WAY_BLOCK
    for row in way_docs:
        assert row["osm_type"] == "way"
        assert row["doc_id"] == f"way/{row['osm_id']}"
        doc = parse_doc(row["spans"])
        # two parent versions, oldest -> newest, members ascending
        assert [v.v for v in doc.versions] == [1, 2]
        assert doc.versions[0].ts < doc.versions[1].ts
        w = row["osm_id"]
        exp_members = [f"node/{w * WAY_BLOCK + i}" for i in range(WAY_BLOCK)]
        assert [m for m, _ in doc.versions[0].members] == exp_members
        assert doc.versions[1].visible == (w % 3 != 0)
        # denormalized children: every member has a full history whose
        # timestamps bound the parent's [ts1, ts2-1] window
        assert sorted(doc.children) == exp_members
        all_ts = [cv.ts for h in doc.children.values() for cv in h]
        assert min(all_ts) == doc.versions[0].ts
        assert max(all_ts) == doc.versions[1].ts - 1
        # child versions sorted and 1..n per child
        for h in doc.children.values():
            assert [cv.v for cv in h] == list(range(1, len(h) + 1))
            assert all(a.ts < b.ts for a, b in zip(h, h[1:]))


def test_member_recursion_on_corpus(way_docs):
    """Member edits surface as way contributions between parent
    versions — the defining OSHDB behavior (OSHEntities.java:330-393)."""
    doc = parse_doc(way_docs[1]["spans"])  # way 1: visible v2
    t1, t2 = doc.versions[0].ts, doc.versions[1].ts
    contribs = contributions_doc(doc, t1, t2 + 1)
    # creation at ts1, tag change at ts2, member-driven changes between
    assert contribs[0]["ts"] == t1 and "CREATION" in contribs[0]["activities"]
    assert contribs[-1]["ts"] == t2 and "TAG_CHANGE" in contribs[-1]["activities"]
    mid = [c for c in contribs if t1 < c["ts"] < t2]
    assert len(mid) > 50  # dense member-driven timeline
    assert any("GEOMETRY_CHANGE" in c["activities"] for c in mid)
    assert any(not c["activities"] for c in mid)  # empty sets (collapse/no-op)
    # pure member edits attribute the CHILD contributor uid
    child_uids = {cv.uid for h in doc.children.values() for cv in h}
    assert all(c["uid"] in child_uids for c in mid if c["activities"])


def test_way_deletion_and_snapshots(way_docs):
    doc0 = parse_doc(way_docs[0]["spans"])  # way 0: w%3==0 -> deleted at ts2
    t2 = doc0.versions[1].ts
    contribs = contributions_doc(doc0, doc0.versions[0].ts, t2 + 1)
    assert contribs[-1]["activities"] == frozenset({"DELETION"})
    # snapshot after deletion: way gone
    assert snapshots_doc(doc0, [t2 + 1]) == []
    # snapshot between: members resolve to their latest visible state
    mid_ts = (doc0.versions[0].ts + t2) // 2
    snaps = snapshots_doc(doc0, [mid_ts])
    assert len(snaps) == 1
    _, st, coords = snaps[0]
    assert st.v == 1 and 0 <= len(coords) <= WAY_BLOCK


@pytest.mark.parametrize("sf", [SF, str(Path(SF).with_name("sf0.01"))])
@pytest.mark.parametrize(
    "ensure",
    [ensure_way_documents, ensure_relation_documents, ensure_oldstyle_documents],
    ids=["ways", "relations", "oldstyle"],
)
def test_compound_row_groups_hold_compound_batches(ensure, sf):
    """A compound row group (the member-recursion stage's call unit)
    holds up to COMPOUND_BATCH documents, never one per pack bucket."""
    metas = [pq.ParquetFile(f).metadata for f in sorted(Path(ensure(sf)).glob("*.parquet"))]
    sizes = [m.row_group(i).num_rows for m in metas for i in range(m.num_row_groups)]
    assert sum(sizes) > 1
    assert all(1 < n <= COMPOUND_BATCH for n in sizes)
    assert len(sizes) == -(-sum(sizes) // COMPOUND_BATCH)


def test_way_ingest_deterministic(tmp_path):
    import os

    from rayhist.ingest import build_way_documents

    t1 = build_way_documents(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    t2 = build_way_documents(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert t1.equals(t2)
    assert os.path.isdir(ensure_way_documents(SF))  # cache path exists


def test_oldstyle_doc_structure():
    """Old-style multipolygon table: relation header (type=multipolygon
    + conditional disqualifiers), role assignment, closed member rings,
    and the is_old_style predicate over the packed docs."""
    import pyarrow.parquet as pq

    from rayhist.ingest import OS_BLOCK, ensure_oldstyle_documents
    from tests.reference_members import is_old_style_multipolygon, parse_doc

    rows = pq.read_table(ensure_oldstyle_documents(SF)).to_pylist()
    assert rows, "no old-style docs packed"
    for row in rows:
        o = row["osm_id"]
        assert row["osm_type"] == "relation"
        doc = parse_doc(row["spans"])
        st = doc.versions[0]
        assert st.visible and st.tags.get("type") == "multipolygon"
        # disqualifier branches mirror the SQL predicate
        assert is_old_style_multipolygon(st) == (o % 5 != 0 and o % 11 != 0)
        if o % 5 == 0:
            assert st.tags.get("k") == "9"
        outer_ways = [m for m, r in st.members if r == "outer"]
        assert f"way/{2 * o}" in outer_ways
        # outer way: closed ring over ids %8 < 4, carries the filter tag
        ow = doc.children[f"way/{2 * o}"][0]
        assert ow.tags.get("k") == str(o % 7)
        mids = [int(m.split("/")[1]) for m, _ in ow.members]
        assert mids[0] == mids[-1] and len(set(mids)) == len(mids) - 1
        assert all(i // OS_BLOCK == o and i % OS_BLOCK < 4 for i in set(mids))
        # inner way (if present): closed ring over ids %8 >= 4
        iw_key = f"way/{2 * o + 1}"
        if iw_key in doc.children:
            iw = doc.children[iw_key][0]
            nids = [int(m.split("/")[1]) for m, _ in iw.members]
            assert nids[0] == nids[-1]
            assert all(i % OS_BLOCK >= 4 for i in set(nids))
        # every ring node has a denormalized child history
        for m, _ in ow.members:
            assert m in doc.children
