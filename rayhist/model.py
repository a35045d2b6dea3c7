"""Data model: the interleaved span-document table and its codec.

The primary table (per ``BASELINE.json.input_hint``) holds one row per
entity history ("OSH entity" in the reference,
``oshdb/src/main/java/org/heigit/bigspatialdata/oshdb/osh/OSHEntity.java:11-34``):

    doc_id: string          -- "{type}/{osm_id}", type in {node, way, relation}
    spans:  list<struct<
        kind:      string   -- 'version' | 'tag' | 'member' | 'geom'
        text:      string   -- see SPAN TEXT FORMATS below
        media_ref: string   -- geom spans: self-describing blob key; '' otherwise
        offset:    int32    -- 0-based position in the document's span stream
    >>
    tag_ids, ver_v, ver_ts, ver_cs, ver_uid, ver_lon_e7, ver_lat_e7:
            list<int>       -- TYPED PER-VERSION COLUMNS, one entry per
                               version span, same order (see below)

SPAN TEXT FORMATS (one 'version' span, then its 'tag' spans sorted by
key, then 'member' spans in ref order, then one 'geom' span when the
version is visible; versions oldest->newest; ``offset`` is the total
order — the per-row invariant vs the generator is span-sequence
equality on ``(kind, text, media_ref, offset)``):

    version:  "v={v};ts={ts_us};cs={changeset};uid={uid};vis={0|1}"
    tag:      "{key}={value}"
    member:   "{type}/{ref_id}@role={role}"
    geom:     text='', media_ref="geom:v={v};lon={lon_e7};lat={lat_e7}"

Timestamps are int64 unix MICROSECONDS. Coordinates are fixed-point
int64, degrees * 1e7, mirroring the reference's
``GEOM_PRECISION_TO_LONG = 10_000_000`` (``oshdb/.../OSHDB.java:8-9``).

TYPED PER-VERSION COLUMNS (decode once): the ints of every version
span are also stored as list columns packed by ``pack_version_columns``
— the one helper every producer calls. ``ver_v`` is the version number
SIGNED by visibility (negative = deleted, the reference's tombstone
convention, ``osm/OSMEntity.java:25``); ``ver_lon_e7``/``ver_lat_e7``
are 0 for deleted versions, as a geom span records. ``tag_ids`` holds
one tag-signature id per version into the table's signature keytable
(``ingest.sig_keytable`` for the node table). ``decode_spans`` reads
only these columns, never the span text (``DECODE_COLUMNS``): tags stay
keytable ids, and tag strings are a gather through a ``tag_lookup``
built once per keytable, as the reference resolves them through its
keytable (TagTranslator.java:36-111). The spans column is what ingest
writes and the source of truth for span-sequence equality; the
span-text parser is the tests' differential reference
(``tests/reference_decode.py``).

COMPOUND DOCUMENTS (the way, relation and old-style tables,
``COMPOUND_SCHEMA``) denormalize their members' histories into the
span stream (FIXTURES.md §1): a child version span reads
``child={type}/{id};v=..``, and its geom ``media_ref`` reads
``geom:child={type}/{id};v=..;lon=..;lat=..``. Their typed columns hold
EVERY version record of the document in span order, the parent's own
and the children's, plus ``COMPOUND_COLUMNS``: the packed child id of
each version (``pack_child_id``; -1 = the parent's own) and the member
edges as flat per-document lists (owning version index, packed child
id, role keytable id). ``tag_ids`` holds one tag-signature id per
version, into the table's own keytable (``ingest.compound_keytable``).
``rayhist.members_vec`` reads these columns and never the span text;
``decode_spans`` refuses them (a child version is not a version of the
document's entity).

The reference packs one history into a delta/varint byte blob
(``impl/osh/OSHNodeImpl.java:145-275``); here the equivalent payload is
the spans list plus the typed columns, and the heavy lifting
(dictionary/RLE encodings) is done by Arrow/Lance/Parquet column
encodings. ``media_ref`` is
self-describing in the sandbox generator (no external blob store); a
production deployment would key a blob-store object instead — the
decode below only touches the string, so swapping the resolver is a
one-stage change.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Fixed-point coordinate convention (reference: OSHDB.java:8-9).
GEOM_PRECISION_TO_LONG = 10_000_000
LON_MOD = 3_600_000_000  # 360 degrees in 1e-7 units
LAT_MOD = 1_800_000_000  # 180 degrees in 1e-7 units

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("offset", pa.int32()),
    ]
)

VERSION_COLUMNS = ("ver_v", "ver_ts", "ver_cs", "ver_uid", "ver_lon_e7", "ver_lat_e7")

DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("osm_type", pa.string()),  # node | way | relation
        pa.field("osm_id", pa.int64()),
        pa.field("n_versions", pa.int32()),
        # bbox over all versions (prefilter index, like OSHEntity.getBoundingBox)
        pa.field("min_lon_e7", pa.int64()),
        pa.field("max_lon_e7", pa.int64()),
        pa.field("min_lat_e7", pa.int64()),
        pa.field("max_lat_e7", pa.int64()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
        # int-keytable tag storage (osm/OSMEntity.java:29,97-152): one
        # keytable id per VERSION (order-aligned with the version
        # spans), indexing the Extract pass's signature dictionary
        # (ingest.sig_keytable); -1 = no tags. Filters and tag strings
        # go through these ints only. Empty list = a reader given no
        # keytable; compound tables index their own keytable.
        pa.field("tag_ids", pa.list_(pa.int32())),
        # typed per-version ints, order-aligned with the version spans
        # like tag_ids (OSHNodeImpl.java:145-182 decodes the same fields
        # from binary): v signed by visibility, ts/cs/uid as in the
        # version text, coordinates 0 when deleted. Packed only by
        # pack_version_columns; compound documents list every version
        # record, children too.
        *(pa.field(c, pa.list_(pa.int64())) for c in VERSION_COLUMNS),
    ]
)

# Compound documents: a child id packs its type above CHILD_ID_BITS
# (the reference's OSMMember type + id, osm/OSMMember.java:12-27)
CHILD_TYPES = ("node", "way", "relation")
CHILD_ID_BITS = 60

COMPOUND_COLUMNS = ("ver_child", "mem_ver", "mem_child", "mem_role")
COMPOUND_SCHEMA = pa.schema(
    [
        *DOCUMENTS_SCHEMA,
        # per version, order-aligned with ver_*: packed child id, -1 for
        # the parent's own versions
        pa.field("ver_child", pa.list_(pa.int64())),
        # member edges (OSMWay.refs / OSMRelation.members), in span
        # order: the owning version's index in the document's ver_*
        # lists, the packed child id, the role's keytable id
        pa.field("mem_ver", pa.list_(pa.int32())),
        pa.field("mem_child", pa.list_(pa.int64())),
        pa.field("mem_role", pa.list_(pa.int32())),
    ]
)
# every compound column but spans: all that rayhist.members_vec reads
COMPOUND_READ_COLUMNS = [f.name for f in COMPOUND_SCHEMA if f.name != "spans"]

# every column but spans: all that decode_spans reads, and all that any
# query reads of the node table (the span text stays on disk)
DECODE_COLUMNS = [f.name for f in DOCUMENTS_SCHEMA if f.name != "spans"]

# Flat per-version table produced by decode_spans (the analog of the
# reference's decoded OSMEntity stream, osm/OSMEntity.java:13-39).
VERSIONS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("osm_type", pa.string()),
        pa.field("osm_id", pa.int64()),
        pa.field("v", pa.int64()),
        pa.field("ts", pa.int64()),  # unix microseconds
        pa.field("cs", pa.int64()),  # changeset id
        pa.field("uid", pa.int64()),  # contributor user id
        pa.field("visible", pa.bool_()),
        pa.field("lon_e7", pa.int64()),  # 0 when not visible (ref: OSHNodeImpl.java:173-175)
        pa.field("lat_e7", pa.int64()),
        pa.field("tag_sig", pa.string()),  # '|'-joined "k=v" tag spans (sorted by key)
        pa.field("etype", pa.string()),  # value of the 'etype' tag ('' if absent)
        pa.field("kk", pa.int64()),  # value of the 'k' tag (-1 if absent)
        pa.field("tag_id", pa.int32()),  # keytable id (-1 when absent/undecoded)
    ]
)

def format_version_text(v: int, ts: int, cs: int, uid: int, vis: int) -> str:
    return f"v={v};ts={ts};cs={cs};uid={uid};vis={vis}"


def format_geom_ref(v: int, lon_e7: int, lat_e7: int) -> str:
    return f"geom:v={v};lon={lon_e7};lat={lat_e7}"


def pack_child_id(type_code, osm_id) -> np.ndarray:
    """``type_code << CHILD_ID_BITS | osm_id`` (type_code indexes
    CHILD_TYPES). Loud guard: an id outside [0, 2**CHILD_ID_BITS) would
    collide with another type's ids."""
    ids = np.asarray(osm_id, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >> CHILD_ID_BITS):
        raise OverflowError(f"child id outside [0, 2**{CHILD_ID_BITS})")
    return (np.asarray(type_code, dtype=np.int64) << CHILD_ID_BITS) | ids


def pack_version_columns(
    counts: np.ndarray,
    *,
    v=None,
    ts=None,
    cs=None,
    uid=None,
    visible=None,
    lon_e7=None,
    lat_e7=None,
    tag_ids=None,
    child=None,
    members=None,
) -> dict[str, pa.ListArray]:
    """The per-version list columns of a DOCUMENTS_SCHEMA table
    (``tag_ids`` + ``VERSION_COLUMNS``) from flat per-version arrays in
    version-span order (documents in row order, versions oldest ->
    newest); ``counts`` = versions per document.

    Pass all seven typed fields or none: none packs EMPTY ver_* lists,
    a span-only document that decode_spans refuses.
    ``tag_ids=None`` packs empty tag_ids lists.

    A COMPOUND document (``COMPOUND_SCHEMA``) also passes ``child``, the
    packed child id of every version record (-1 = the parent's own),
    and ``members`` = (edges per document, owning version index within
    its document, packed child id, role id), which add
    ``COMPOUND_COLUMNS``. Loud guards: a version number < 1 cannot
    carry visibility as its sign, int32 list offsets must not wrap, and
    a member edge must name a version of its own document."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total >= 2**31:
        raise OverflowError(f"{total} versions exceed int32 list offsets")
    offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32))
    no_lists = pa.array(np.zeros(len(counts) + 1, dtype=np.int32))

    def lists(values, typ, offs=offsets, n=total) -> pa.ListArray:
        if values is None:
            return pa.ListArray.from_arrays(no_lists, pa.array([], type=typ))
        values = np.asarray(values)
        if len(values) != n:
            raise ValueError(f"{len(values)} per-version values for {n} versions")
        return pa.ListArray.from_arrays(offs, pa.array(values, type=typ))

    fields = (v, ts, cs, uid, visible, lon_e7, lat_e7)
    out = {"tag_ids": lists(tag_ids, pa.int32())}
    if all(f is None for f in fields) and child is None and members is None:
        return out | {c: lists(None, pa.int64()) for c in VERSION_COLUMNS}
    if any(f is None for f in fields):
        raise ValueError("pack all typed version fields or none")
    if (child is None) != (members is None):
        raise ValueError("a compound document packs child ids and members together")
    if child is not None:
        m_counts, m_ver, m_child, m_role = (np.asarray(x, dtype=np.int64) for x in members)
        m_total = int(m_counts.sum())
        if m_total >= 2**31:
            raise OverflowError(f"{m_total} member edges exceed int32 list offsets")
        if len(m_ver) and (m_ver.min() < 0 or (m_ver >= np.repeat(counts, m_counts)).any()):
            raise ValueError("a member edge names a version outside its document")
        m_offs = pa.array(np.r_[0, np.cumsum(m_counts)].astype(np.int32))
        out |= {
            "ver_child": lists(child, pa.int64()),
            "mem_ver": lists(m_ver, pa.int32(), m_offs, m_total),
            "mem_child": lists(m_child, pa.int64(), m_offs, m_total),
            "mem_role": lists(m_role, pa.int32(), m_offs, m_total),
        }
    v = np.asarray(v, dtype=np.int64)
    vis = np.asarray(visible, dtype=bool)
    if len(v) and v.min() < 1:
        raise ValueError("version numbers must be >= 1 to carry visibility as their sign")
    typed = (
        np.where(vis, v, -v),
        ts,
        cs,
        uid,
        np.where(vis, lon_e7, 0),  # deleted versions carry no geometry
        np.where(vis, lat_e7, 0),
    )
    return out | {c: lists(x, pa.int64()) for c, x in zip(VERSION_COLUMNS, typed)}


def _combined(batch: pa.Table, name: str) -> pa.Array:
    col = batch[name].combine_chunks()
    return col.chunk(0) if isinstance(col, pa.ChunkedArray) else col


def _check_typed(batch: pa.Table) -> None:
    """Loud guard: every document of the batch carries its typed
    per-version columns (an empty batch passes). Compound documents
    raise, as their version records include the children's; so do
    span-only documents (empty typed lists)."""
    if "ver_child" in batch.column_names:
        raise ValueError("compound documents decode through rayhist.members_vec")
    if (
        VERSION_COLUMNS[0] not in batch.column_names
        or pc.min(pc.list_value_length(batch[VERSION_COLUMNS[0]])).as_py() == 0
    ):
        raise ValueError("documents without typed version columns cannot be decoded")


def tag_lookup(keytable) -> pa.Table:
    """The tag strings of every id of a signature keytable (sorted
    ``k=v`` pairs joined with '|'), built once on the driver and
    gathered per version by ``decode_spans``, as the reference resolves
    tag strings through its keytable (TagTranslator.java:36-111): one
    row per id, plus a trailing row for id -1 (no tags), of ``tag_sig``,
    ``etype`` (the 'etype' tag's value, '' if absent) and ``kk`` (the
    'k' tag's int value, -1 if absent); a repeated key keeps its last
    value."""
    sigs = [*keytable, ""]
    tags = [dict(t.split("=", 1) for t in sig.split("|") if t) for sig in sigs]
    return pa.table(
        {
            "tag_sig": pa.array(sigs, pa.string()),
            "etype": pa.array([t.get("etype", "") for t in tags], pa.string()),
            "kk": pa.array([int(t.get("k", -1)) for t in tags], pa.int64()),
        }
    )


def decode_spans(batch: pa.Table, lookup: pa.Table | None = None, geom: bool = True) -> pa.Table:
    """Decode a batch of documents into the flat per-version table.

    A column gather: v/ts/cs/uid/visible and the coordinates come from
    the typed per-version columns (``VERSION_COLUMNS``) and ``tag_id``
    from ``tag_ids`` (-1 when the batch packs no ids); no span text is
    read, so callers read the table without it (``DECODE_COLUMNS``).
    All versions of a document land in the same output batch (the
    versions of one row flatten contiguously), which the temporal
    stages rely on. Documents without typed columns raise.

    Tag strings (``tag_sig``/``etype``/``kk``) are gathered through
    ``lookup`` (the ``tag_lookup`` of the table's keytable); with none
    they are constant-filled ('', '', -1). Filters and the TAG_CHANGE
    compare need no strings: they read ``tag_id``
    (osm/OSMEntity.java:29,97-152). ``geom=False`` constant-fills the
    coordinates, for a query that never reads them.

    Mirrors the reference's per-entity decode
    (``impl/osh/OSHNodeImpl.java:145-182``) but over Arrow columns.
    """
    _check_typed(batch)
    vcol = _combined(batch, "ver_v")
    ver_parent = pc.list_parent_indices(vcol)
    signed = pc.list_flatten(vcol)
    n_ver = len(signed)
    ts, cs, uid = (pc.list_flatten(_combined(batch, c)) for c in ("ver_ts", "ver_cs", "ver_uid"))
    if geom:
        lon = pc.list_flatten(_combined(batch, "ver_lon_e7"))
        lat = pc.list_flatten(_combined(batch, "ver_lat_e7"))
    else:
        lon = lat = pa.array(np.zeros(n_ver, dtype=np.int64))

    ids = None  # a reader given no keytable packs empty tag_ids lists
    if "tag_ids" in batch.column_names:
        ids = pc.list_flatten(_combined(batch, "tag_ids")).to_numpy(zero_copy_only=False)
    if ids is not None and len(ids) == n_ver:
        tag_id = ids.astype(np.int32, copy=False)
    elif lookup is None:
        tag_id = np.full(n_ver, -1, dtype=np.int32)
    else:
        raise ValueError("tag strings need the per-version tag_ids")
    if lookup is None:
        strings = {"tag_sig": pa.repeat("", n_ver), "etype": pa.repeat("", n_ver),
                   "kk": pa.array(np.full(n_ver, -1, dtype=np.int64))}
    else:  # id -1 takes the trailing no-tags row; an id past the keytable raises
        strings = lookup.take(pa.array(np.where(tag_id < 0, len(lookup) - 1, tag_id)))

    return pa.table(
        {
            "doc_id": _combined(batch, "doc_id").take(ver_parent),
            "osm_type": _combined(batch, "osm_type").take(ver_parent),
            "osm_id": _combined(batch, "osm_id").take(ver_parent),
            "v": pc.abs(signed),
            "ts": ts,
            "cs": cs,
            "uid": uid,
            "visible": pc.greater(signed, 0),
            "lon_e7": lon,
            "lat_e7": lat,
            "tag_sig": strings["tag_sig"],
            "etype": strings["etype"],
            "kk": strings["kk"],
            "tag_id": pa.array(tag_id, type=pa.int32()),
        },
        schema=VERSIONS_SCHEMA,
    )


def doc_codes(batch: pa.Table) -> np.ndarray:
    """The document code of every row ``decode_spans(batch)`` returns:
    the batch row of its document (decode's ``ver_parent``), read off
    the list offsets with no string work.

    ``doc_id`` is unique per row of every document table, so each
    document's versions form one contiguous run of the decode and these
    codes equal the first-appearance dictionary codes of the versions'
    ``doc_id`` (``temporal._doc_codes``, which hashes every version's
    string)."""
    _check_typed(batch)
    parent = pc.list_parent_indices(_combined(batch, "ver_v"))
    return parent.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _reverse_per_doc(lists: pa.ListArray) -> pa.ListArray:
    """Reverse the element order inside every list."""
    flat = pc.list_flatten(lists)
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    order = np.lexsort((-np.arange(len(parent), dtype=np.int64), parent))
    lengths = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    offsets = pa.array(np.r_[0, np.cumsum(lengths)], type=pa.int32())
    return pa.ListArray.from_arrays(offsets, flat.take(pa.array(order)))


def reverse_version_runs(batch: pa.Table) -> pa.Table:
    """Dirty-history fixture transform: reverse the version order of
    every document's per-version list columns (``tag_ids`` and the
    typed ``VERSION_COLUMNS``) — producing the unsorted histories the
    reference tolerates via HEADER_TIMESTAMPS_NOT_IN_ORDER
    (impl/osh/OSHNodeImpl.java:30, OSHDB.sortOrder). The temporal
    interpolators realign per doc, so every downstream result must be
    INVARIANT under this transform (pinned by the
    snapshot_count_daily_unsorted oracle query and
    tests/test_temporal.py). The span text is dropped: the reversed
    columns would disagree with it."""
    cols = {c: batch[c] for c in batch.column_names if c != "spans"}
    for c in ("tag_ids", *VERSION_COLUMNS):
        if c in cols:
            cols[c] = _reverse_per_doc(_combined(batch, c))
    return pa.table(cols)
