"""Typed per-version columns (decode once): the column gather in
decode_spans, tag strings looked up through the keytable, must equal
the span-text parse of tests/reference_decode.py, the differential
reference, on every fixture family."""

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
from tests.reference_decode import decode_text, doc_codes_text, reverse_span_runs
from rayhist.model import (
    DECODE_COLUMNS,
    VERSION_COLUMNS,
    decode_spans,
    doc_codes,
    pack_version_columns,
    reverse_version_runs,
    tag_lookup,
)
from rayhist.temporal import _doc_codes
from tests.test_ingest import SF

TAG_STRINGS = ["tag_sig", "etype", "kk"]


def _text_only(docs: pa.Table) -> pa.Table:
    return docs.drop_columns(list(VERSION_COLUMNS))


def _reversed(docs: pa.Table) -> pa.Table:
    """Both encodings of every history reversed: the typed columns
    (model.reverse_version_runs) and the span text."""
    return reverse_version_runs(docs).append_column("spans", reverse_span_runs(docs))


def _assert_typed_equals_text(docs: pa.Table, keytable: list[str]) -> None:
    """The lookup decode equals the span-text parse, with and without
    the spans column and the coordinates; without a lookup only the tag
    strings differ, constant-filled."""
    lookup = tag_lookup(keytable)
    for geom in (False, True):
        text = decode_text(docs, geom=geom)
        for batch in (docs, docs.select(DECODE_COLUMNS)):
            assert decode_spans(batch, lookup, geom=geom).equals(text), geom
        bare = decode_spans(docs.select(DECODE_COLUMNS), geom=geom)
        assert bare.drop_columns(TAG_STRINGS).equals(text.drop_columns(TAG_STRINGS)), geom
        assert set(bare["etype"].to_pylist()) <= {""} and set(bare["kk"].to_pylist()) <= {-1}


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01"])
def test_node_table_typed_decode_equals_text(sf):
    sf_dir = f"/root/testdata/{sf}"
    docs = pq.read_table(ingest.ensure_documents(sf_dir))
    lengths = pa.compute.list_value_length(docs["ver_v"]).to_numpy()
    assert (lengths == docs["n_versions"].to_numpy()).all()
    _assert_typed_equals_text(docs, ingest.sig_keytable(sf_dir))


def test_reversed_node_table_keeps_typed_columns_unsorted():
    """snapshot_count_daily_unsorted reads typed ints: reversing must
    reorder them exactly like the version-span runs, or the query would
    silently read sorted histories and stop testing the realignment."""
    docs = pq.read_table(ingest.ensure_documents("/root/testdata/sf0.001"))
    rev = _reversed(docs)
    _assert_typed_equals_text(rev, ingest.sig_keytable("/root/testdata/sf0.001"))
    lean = reverse_version_runs(docs.select(DECODE_COLUMNS))
    assert decode_spans(lean).equals(decode_spans(rev))
    sorted_ts = decode_spans(docs)["ts"]
    assert not decode_spans(rev)["ts"].equals(sorted_ts)


def test_scenario_corpus_typed_decode_equals_text():
    docs, kt = versions_to_documents(scenario_corpus()[0])
    assert pa.compute.min(pa.compute.list_value_length(docs["ver_v"])).as_py() > 0
    _assert_typed_equals_text(docs, kt)
    _assert_typed_equals_text(_reversed(docs), kt)


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
            decode_spans(batch)


def test_tag_strings_need_the_tag_ids():
    """A lookup resolves tag strings from tag ids only: a batch without
    them raises instead of constant-filling; without a lookup the ids
    are -1."""
    docs, kt = versions_to_documents(scenario_corpus()[0])
    no_ids = docs.select(DECODE_COLUMNS).drop_columns(["tag_ids"])
    with pytest.raises(ValueError, match="tag_ids"):
        decode_spans(no_ids, tag_lookup(kt))
    assert set(decode_spans(no_ids)["tag_id"].to_pylist()) == {-1}
    with pytest.raises(IndexError):  # an id past the keytable
        decode_spans(docs, tag_lookup(kt[:1]))


def test_span_only_documents_raise():
    """decode_spans has no text branch: documents without typed
    columns raise, with or without their spans."""
    docs, kt = versions_to_documents(scenario_corpus()[0])
    for batch in (_text_only(docs), _text_only(docs).select(["doc_id", "spans"])):
        with pytest.raises(ValueError, match="typed version columns"):
            decode_spans(batch, tag_lookup(kt))
        with pytest.raises(ValueError, match="typed version columns"):
            doc_codes(batch)


def test_typed_columns_that_disagree_with_the_spans_fail_loudly():
    """The differential reference catches typed columns that are not
    the span text's (the decode itself never reads the spans)."""
    docs, kt = versions_to_documents(scenario_corpus()[0])
    bad = pack_version_columns([1] * docs.num_rows, v=[1] * docs.num_rows,
                               ts=[0] * docs.num_rows, cs=[0] * docs.num_rows,
                               uid=[0] * docs.num_rows, visible=[True] * docs.num_rows,
                               lon_e7=[0] * docs.num_rows, lat_e7=[0] * docs.num_rows)
    for c in VERSION_COLUMNS:
        docs = docs.set_column(docs.schema.get_field_index(c), c, bad[c])
    with pytest.raises((AssertionError, ValueError)):  # counts no longer match the tag ids
        _assert_typed_equals_text(docs, kt)
    keep_ids = docs.set_column(
        docs.schema.get_field_index("tag_ids"), "tag_ids",
        pack_version_columns([1] * docs.num_rows, tag_ids=[0] * docs.num_rows)["tag_ids"],
    )
    with pytest.raises(AssertionError):
        _assert_typed_equals_text(keep_ids, kt)


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
    docs, kt = versions_to_documents(make_versions(rows)[0])
    _assert_typed_equals_text(docs, kt)
    _assert_typed_equals_text(_reversed(docs), kt)


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
    dictionary codes the temporal kernels derive by hashing, and the
    codes read off the span text, on the node table: typed, lean,
    reversed histories and a slice."""
    docs = pq.read_table(ingest.ensure_documents(SF))
    batches = [docs, docs.select(DECODE_COLUMNS), reverse_version_runs(docs), docs.slice(3, 40)]
    for batch in batches:
        want = _doc_codes(decode_spans(batch, geom=False))
        assert np.array_equal(doc_codes(batch), want)
    assert np.array_equal(doc_codes_text(docs), doc_codes(docs))


def test_doc_codes_on_scenario_corpus():
    docs, _kt = versions_to_documents(scenario_corpus()[0])
    for batch in (docs, _reversed(docs)):
        want = _doc_codes(decode_spans(batch, geom=False))
        assert np.array_equal(doc_codes(batch), want)
        assert np.array_equal(doc_codes_text(batch), want)
