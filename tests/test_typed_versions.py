"""Typed per-version columns (decode once): the column gather in
decode_spans must equal the span-text parse, which stays the
differential reference, on every fixture family."""

import importlib.util
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayhist import ingest
from tests.fixtures import make_versions, pack_compound_docs, scenario_corpus, versions_to_documents
from rayhist.model import (
    DECODE_COLUMNS,
    VERSION_COLUMNS,
    decode_spans,
    doc_codes,
    pack_version_columns,
    reverse_version_runs,
)
from rayhist.temporal import _doc_codes
from tests.test_ingest import SF

FLAGS = [(t, g) for t in (False, "ids", True) for g in (False, True)]


def _text_only(docs: pa.Table) -> pa.Table:
    return docs.drop_columns(list(VERSION_COLUMNS))


def _assert_typed_equals_text(docs: pa.Table) -> None:
    for tags, geom in FLAGS:
        typed = decode_spans(docs, tags=tags, geom=geom)
        text = decode_spans(_text_only(docs), tags=tags, geom=geom)
        assert typed.equals(text), (tags, geom)
        if tags is not True:  # no tag strings: the span text is never read
            lean = decode_spans(docs.select(DECODE_COLUMNS), tags=tags, geom=geom)
            assert lean.equals(text), (tags, geom)


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01"])
def test_node_table_typed_decode_equals_text(sf):
    docs = pq.read_table(ingest.ensure_documents(f"/root/testdata/{sf}"))
    lengths = pa.compute.list_value_length(docs["ver_v"]).to_numpy()
    assert (lengths == docs["n_versions"].to_numpy()).all()
    _assert_typed_equals_text(docs)


def test_reversed_node_table_keeps_typed_columns_unsorted():
    """snapshot_count_daily_unsorted reads typed ints: reversing must
    reorder them exactly like the version-span runs, or the query would
    silently read sorted histories and stop testing the realignment."""
    docs = pq.read_table(ingest.ensure_documents("/root/testdata/sf0.001"))
    rev = reverse_version_runs(docs)
    _assert_typed_equals_text(rev)
    lean = reverse_version_runs(docs.select(DECODE_COLUMNS))
    assert decode_spans(lean, tags="ids").equals(decode_spans(_text_only(rev), tags="ids"))
    sorted_ts = decode_spans(docs, tags=False)["ts"]
    assert not decode_spans(rev, tags=False)["ts"].equals(sorted_ts)


def test_scenario_corpus_typed_decode_equals_text():
    docs = versions_to_documents(scenario_corpus())
    assert pa.compute.min(pa.compute.list_value_length(docs["ver_v"])).as_py() > 0
    _assert_typed_equals_text(docs)
    _assert_typed_equals_text(reverse_version_runs(docs))


@pytest.mark.parametrize(
    "ensure", ["ensure_way_documents", "ensure_relation_documents", "ensure_oldstyle_documents"]
)
def test_compound_tables_pack_typed_columns_equal_to_their_spans(ensure):
    """The typed compound columns ingest writes equal the ones packed
    from the span text (tests/fixtures.pack_compound_docs), tag
    signatures and roles compared through their keytables; and
    decode_spans refuses the compound documents."""
    path = getattr(ingest, ensure)("/root/testdata/sf0.001")
    docs, kt = pq.read_table(path), ingest.compound_keytable(path)
    packed, packed_kt = pack_compound_docs(
        docs["spans"].to_pylist(), ids=docs["osm_id"].to_pylist()
    )
    for c in ("n_versions", *VERSION_COLUMNS, "ver_child", "mem_ver", "mem_child"):
        assert docs[c].equals(packed[c]), c
    assert pa.compute.min(pa.compute.list_value_length(docs["ver_v"])).as_py() > 0
    for col, vocab in (("tag_ids", "tags"), ("mem_role", "roles")):
        def names(t, k):
            return [[k[vocab][i] for i in ids] for ids in t[col].to_pylist()]
        assert names(docs, kt) == names(packed, packed_kt), col
    for batch in (docs, docs.drop_columns(["spans"])):
        with pytest.raises(ValueError, match="members_vec"):
            decode_spans(batch, tags=False)


def test_tag_strings_need_the_spans_column():
    docs = versions_to_documents(scenario_corpus())
    with pytest.raises(ValueError, match="spans column"):
        decode_spans(docs.select(DECODE_COLUMNS), tags=True)


def test_typed_columns_that_disagree_with_the_spans_fail_loudly():
    docs = versions_to_documents(scenario_corpus())
    bad = pack_version_columns([1] * docs.num_rows, v=[1] * docs.num_rows,
                               ts=[0] * docs.num_rows, cs=[0] * docs.num_rows,
                               uid=[0] * docs.num_rows, visible=[True] * docs.num_rows,
                               lon_e7=[0] * docs.num_rows, lat_e7=[0] * docs.num_rows)
    for c in VERSION_COLUMNS:
        docs = docs.set_column(docs.schema.get_field_index(c), c, bad[c])
    with pytest.raises(ValueError, match="disagree"):
        decode_spans(docs, tags=True)


def test_pack_version_columns_guards():
    fields = dict(ts=[1], cs=[1], uid=[1], visible=[True], lon_e7=[1], lat_e7=[1])
    with pytest.raises(ValueError, match="visibility"):
        pack_version_columns([1], v=[0], **fields)
    with pytest.raises(ValueError, match="all typed"):
        pack_version_columns([1], v=[1], ts=[1])
    with pytest.raises(ValueError, match="per-version values"):
        pack_version_columns([2], v=[1], **fields)
    out = pack_version_columns([1], v=[3], **{**fields, "visible": [False]})
    assert out["ver_v"].to_pylist() == [[-3]]
    assert out["ver_lon_e7"].to_pylist() == [[0]]  # deleted: no geometry
    assert out["tag_ids"].to_pylist() == [[]]


_TAGS = st.fixed_dictionaries(
    {},
    optional={
        "etype": st.sampled_from(["click", "view", "error", "a;b"]),
        "k": st.integers(0, 12).map(str),
    },
)
_COORD = st.integers(-1_800_000_000, 1_799_999_999)


@st.composite
def _histories(draw):
    rows = []
    for d in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        for v in range(1, n + 1):
            rows.append(
                {
                    "doc_id": f"node/{d + 1}",
                    "v": v,
                    "ts": draw(st.integers(0, 2**53)),
                    "cs": draw(st.integers(0, 2**40)),
                    "uid": draw(st.integers(0, 2**31)),
                    "visible": draw(st.booleans()),
                    "lon_e7": draw(_COORD),
                    "lat_e7": draw(st.integers(-900_000_000, 899_999_999)),
                    "tags": draw(_TAGS),
                }
            )
    return rows


@settings(max_examples=60, deadline=None)
@given(_histories())
def test_random_histories_typed_decode_equals_text(rows):
    """Random histories, deleted versions and negative coordinates
    included, packed by the fixture builder (the model helper)."""
    docs = versions_to_documents(make_versions(rows))
    _assert_typed_equals_text(docs)
    _assert_typed_equals_text(reverse_version_runs(docs))


def test_ingest_key_covers_relational_module(tmp_path, monkeypatch):
    """derive_version_columns rounds uid through
    ops.relational.round_half_away, so an edit there must re-key every
    node/way/relation table instead of serving the old bytes."""
    import rayhist.io as rio
    from rayhist.ops import relational

    copy = tmp_path / "relational_copy.py"
    shutil.copy(relational.__file__, copy)
    # backdated: the edited-after-import guard must not fire for the copy
    os.utime(copy, (0, 0))
    spec = importlib.util.spec_from_file_location("relational_copy", copy)
    monkeypatch.setattr(ingest, "relational", importlib.util.module_from_spec(spec))
    rio.code_fingerprint.cache_clear()
    before = ingest._fp()
    copy.write_text(copy.read_text() + "\n# edited\n")
    os.utime(copy, (0, 0))
    rio.code_fingerprint.cache_clear()
    after = ingest._fp()
    rio.code_fingerprint.cache_clear()
    assert before != after, "a round_half_away edit must re-key the document caches"


@pytest.mark.parametrize(
    "ensure",
    ["ensure_documents", "ensure_way_documents", "ensure_relation_documents",
     "ensure_oldstyle_documents"],
)
def test_doc_id_is_unique_per_row(ensure):
    """The invariant model.doc_codes relies on: one row per document in
    every document table, so a document's versions form one contiguous
    run of any decode."""
    ids = pq.read_table(getattr(ingest, ensure)(SF), columns=["doc_id"])["doc_id"]
    assert ids.null_count == 0 and pc.count_distinct(ids).as_py() == len(ids)


def test_doc_codes_equal_the_doc_id_codes():
    """model.doc_codes (read off the list offsets) equals the doc_id
    dictionary codes the temporal kernels derive by hashing, on the node
    table: typed, lean, text-only, reversed histories and a slice."""
    docs = pq.read_table(ingest.ensure_documents(SF))
    batches = [docs, docs.select(DECODE_COLUMNS), _text_only(docs), reverse_version_runs(docs),
               docs.slice(3, 40)]
    for batch in batches:
        want = _doc_codes(decode_spans(batch, tags=False, geom=False))
        assert np.array_equal(doc_codes(batch), want)


def test_doc_codes_on_scenario_corpus():
    docs = versions_to_documents(scenario_corpus())
    for batch in (docs, reverse_version_runs(docs), _text_only(docs)):
        want = _doc_codes(decode_spans(batch, tags=False, geom=False))
        assert np.array_equal(doc_codes(batch), want)
