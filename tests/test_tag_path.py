"""One tag path: node tags are keytable ids on every query. Tag
filters are bool lookup tables over the keytable, tag strings a gather
through ``model.tag_lookup``, and no query reads or parses span text —
checked at run time on the queries that used to, on the resident
tables every query leaves, and by a randomized differential of the
lookup decode and filters against the span text."""

import re
from collections import OrderedDict

import pandas.testing as pdt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayhist import api, pipelines
from rayhist import io as rio
from rayhist.ingest import ensure_documents
from rayhist.model import DECODE_COLUMNS, decode_spans, tag_lookup
from rayhist.temporal import AnyTagFilter, TagFilter
from tests.fixtures import make_versions, versions_to_documents
from tests.reference_decode import decode_text

SF = "/root/testdata/sf0.001"

# the queries that read the span text for their tag strings before tags
# were keytable ids on every query
FORMER_SPAN_READERS = [
    "contrib_type_counts_bbox", "contrib_type_counts_poly", "etype_dwell_time",
    "hexcell_location_quotient", "keytable_freqs", "knn_majority_label",
    "predominant_etype_dwell", "snapshot_diameter_by_type", "snapshot_diff",
    "snapshot_hull_by_type", "snapshot_incremental_merge", "snapshot_latest_state",
    "snapshot_latest_state_written",
]
TEXT_KERNELS = ("split_pattern", "extract_regex", "binary_join", "utf8_slice_codeunits")


def _no_text(fn):
    """``fn`` with the Arrow text kernels patched to raise while it runs
    (inside the block task that calls it)."""
    if fn is None:
        return None

    def guarded(*args):
        import pyarrow.compute as worker_pc

        def refuse(*_a, **_k):
            raise AssertionError("a query stage called an Arrow text kernel")

        saved = {k: getattr(worker_pc, k) for k in TEXT_KERNELS}
        for k in TEXT_KERNELS:
            setattr(worker_pc, k, refuse)
        try:
            return fn(*args)
        finally:
            for k, f in saved.items():
                setattr(worker_pc, k, f)

    return guarded


def test_former_span_readers_parse_no_span_text(monkeypatch):
    """Each former span reader gives the same frame with the Arrow text
    kernels patched to raise inside its block tasks."""
    expected = {q: getattr(pipelines, "q_" + q)(SF) for q in FORMER_SPAN_READERS}
    map_blocks, materialize_blocks, reduce_by_key = (
        rio.map_blocks, rio.materialize_blocks, rio.reduce_by_key
    )
    monkeypatch.setattr(
        rio, "map_blocks",
        lambda ds, stage, batch_size=None: map_blocks(ds, _no_text(stage), batch_size),
    )
    monkeypatch.setattr(
        rio, "materialize_blocks", lambda ds, stage: materialize_blocks(ds, _no_text(stage))
    )
    monkeypatch.setattr(
        rio, "reduce_by_key",
        lambda ds, keys, reduce, stage=None: reduce_by_key(
            ds, keys, _no_text(reduce), stage=_no_text(stage)
        ),
    )
    for q in FORMER_SPAN_READERS:
        pdt.assert_frame_equal(getattr(pipelines, "q_" + q)(SF), expected[q], obj=q)


def test_no_query_keeps_the_span_text_resident(monkeypatch):
    """One pass of every query leaves no resident table holding the
    ``spans`` column: every node-document read is DECODE_COLUMNS."""
    monkeypatch.setattr(rio, "_resident", OrderedDict())
    for fn, _oracle in pipelines.QUERIES.values():
        fn(SF)
    held = {
        key[1]: entry.columns or tuple(rio.schema(entry.blocks).names)
        for key, entry in rio._resident.items()
    }
    assert held and not [path for path, cols in held.items() if "spans" in cols]


def test_dataset_source_raises_on_tags():
    """A facade over a Dataset source has no keytable: a tag filter or
    a tag read raises; a chain that reads no tags runs."""
    docs = rio.read_resident(ensure_documents(SF), columns=DECODE_COLUMNS)
    mr = api.MapReducer("snapshot", docs).timestamps([pipelines.T_MID])
    for chain in (
        mr.osmTag("etype", "click"), mr.osmTag([("etype", "view")]), mr.aggregateBy("etype"),
    ):
        with pytest.raises(ValueError, match="keytable"):
            chain.count()
    assert mr.count() == api.OSMEntitySnapshotView.on(SF).timestamps([pipelines.T_MID]).count()


# ------------------------------------------------ randomized differential
KEYS = ["etype", "k", "name", "a"]
VALUE = st.text(
    st.characters(blacklist_characters="|", blacklist_categories=("Cs",)), max_size=4
)
TAGS = st.dictionaries(st.sampled_from(KEYS), VALUE, max_size=3).flatmap(
    lambda d: st.just(d) if "k" not in d
    else st.integers(-50, 50).map(lambda k: {**d, "k": str(k)})
)


@st.composite
def _histories(draw):
    rows = []
    for d in range(draw(st.integers(1, 4))):
        for v in range(1, draw(st.integers(1, 5)) + 1):
            rows.append(
                {
                    "doc_id": f"node/{d}", "v": v, "ts": 1000 * v, "cs": v,
                    "visible": draw(st.booleans()), "lon_e7": v, "lat_e7": d,
                    "tags": draw(TAGS),
                }
            )
    return rows


FILTERS = st.one_of(
    st.builds(TagFilter, st.sampled_from(KEYS)),
    st.builds(TagFilter, st.sampled_from(KEYS), VALUE),
    st.builds(lambda k, vs: TagFilter(k, values=tuple(vs)), st.sampled_from(KEYS),
              st.lists(VALUE, max_size=3)),
    st.builds(lambda k, p: TagFilter(k, value_regex=p), st.sampled_from(KEYS),
              st.sampled_from([".*", "[0-9]+", "-?[0-9]", "a|b", ".=.*", ""])),
    st.builds(lambda k: TagFilter(k, exclude=True), st.sampled_from(KEYS)),
    st.builds(lambda k, vs: TagFilter(k, exclude_values=tuple(vs)), st.sampled_from(KEYS),
              st.lists(VALUE, max_size=3)),
    st.builds(lambda ps: AnyTagFilter(tuple(ps)),
              st.lists(st.tuples(st.sampled_from(KEYS), VALUE), max_size=3)),
)


def _holds(f, tags: dict) -> bool:
    """The filter's predicate over one version's tags, in Python."""
    if isinstance(f, AnyTagFilter):
        return any(tags.get(k) == v for k, v in f.pairs)
    val = tags.get(f.key)
    if f.exclude:
        return val is None
    if val is None:
        return False
    if f.value is not None:
        return val == f.value
    if f.values is not None:
        return val in f.values
    if f.value_regex is not None:
        return re.fullmatch(f.value_regex, val) is not None
    if f.exclude_values is not None:
        return val not in f.exclude_values
    return True


@settings(max_examples=150, deadline=None)
@given(_histories(), st.lists(FILTERS, min_size=1, max_size=4))
def test_lookup_decode_and_filters_equal_the_span_text(rows, filters):
    """Generated node histories (0-3 tags per version, values without
    the '|' separator) packed with a fixture keytable: the lookup
    decode equals the span-text parse on tag_sig, etype, kk and tag_id,
    and every filter's LUT mask equals its predicate over the tags."""
    docs, kt = versions_to_documents(make_versions(rows)[0])
    decoded = decode_spans(docs, tag_lookup(kt))
    text = decode_text(docs)
    for c in ("tag_sig", "etype", "kk", "tag_id"):
        assert decoded[c].equals(text[c]), c
    tags = {(r["doc_id"], r["v"]): r["tags"] for r in rows}
    keys = zip(decoded["doc_id"].to_pylist(), decoded["v"].to_pylist())
    version_tags = [tags[k] for k in keys]
    ids = decoded["tag_id"].to_numpy()
    for f in filters:
        got = f.sig_lut(kt)[ids].tolist()
        assert got == [_holds(f, t) for t in version_tags], f
