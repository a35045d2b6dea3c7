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
are 0 for deleted versions, as the geom-span decode emits. When they
are filled, ``decode_spans`` gathers them and parses no version or
geom text; the spans column is then only needed for tag strings
(``tags=True``), so a query that reads no tag strings reads the table
without it (``DECODE_COLUMNS``). Span-only tables (compound documents,
wire sources without typed fields) pack EMPTY lists and decode through
the text parser, which stays the differential reference. The spans
column remains the source of truth for span-sequence equality.

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
        # spans), indexing the Extract pass's tag dictionary
        # (ingest.ensure_keytable). Filters scan these ints instead of
        # tag_sig strings; the string spans stay for oracle parity.
        # Empty list = no per-version ids (compound tables).
        pa.field("tag_ids", pa.list_(pa.int32())),
        # typed per-version ints, order-aligned with the version spans
        # like tag_ids (OSHNodeImpl.java:145-182 decodes the same fields
        # from binary): v signed by visibility, ts/cs/uid as in the
        # version text, coordinates 0 when deleted. Packed only by
        # pack_version_columns; empty lists = span-only document.
        *(pa.field(c, pa.list_(pa.int64())) for c in VERSION_COLUMNS),
    ]
)

# every column but spans: all that decode_spans reads unless tags=True
# (read_documents(columns=DECODE_COLUMNS) skips the span text on disk)
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

_VERSION_RE = r"^v=(\d+);ts=(\d+);cs=(\d+);uid=(\d+);vis=([01])$"
_GEOM_RE = r"^geom:v=(\d+);lon=(-?\d+);lat=(-?\d+)$"


def format_version_text(v: int, ts: int, cs: int, uid: int, vis: int) -> str:
    return f"v={v};ts={ts};cs={cs};uid={uid};vis={vis}"


def format_geom_ref(v: int, lon_e7: int, lat_e7: int) -> str:
    return f"geom:v={v};lon={lon_e7};lat={lat_e7}"


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
) -> dict[str, pa.ListArray]:
    """The per-version list columns of a DOCUMENTS_SCHEMA table
    (``tag_ids`` + ``VERSION_COLUMNS``) from flat per-version arrays in
    version-span order (documents in row order, versions oldest ->
    newest); ``counts`` = versions per document.

    Pass all seven typed fields or none: none packs EMPTY ver_* lists,
    the span-only document that decode_spans parses from text
    (compound tables). ``tag_ids=None`` packs empty tag_ids lists.
    Loud guards: a version number < 1 cannot carry visibility as its
    sign, and int32 list offsets must not wrap."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total >= 2**31:
        raise OverflowError(f"{total} versions exceed int32 list offsets")
    offsets = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32))
    no_lists = pa.array(np.zeros(len(counts) + 1, dtype=np.int32))

    def lists(values, typ) -> pa.ListArray:
        if values is None:
            return pa.ListArray.from_arrays(no_lists, pa.array([], type=typ))
        values = np.asarray(values)
        if len(values) != total:
            raise ValueError(f"{len(values)} per-version values for {total} versions")
        return pa.ListArray.from_arrays(offsets, pa.array(values, type=typ))

    fields = (v, ts, cs, uid, visible, lon_e7, lat_e7)
    out = {"tag_ids": lists(tag_ids, pa.int32())}
    if all(f is None for f in fields):
        return out | {c: lists(None, pa.int64()) for c in VERSION_COLUMNS}
    if any(f is None for f in fields):
        raise ValueError("pack all typed version fields or none")
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


def _typed_versions(batch: pa.Table) -> bool:
    """True when every document in the batch carries its typed
    per-version columns (an empty batch counts as typed)."""
    typed = False
    if VERSION_COLUMNS[0] in batch.column_names:
        shortest = pc.min(pc.list_value_length(batch[VERSION_COLUMNS[0]])).as_py()
        typed = shortest is None or shortest > 0
    if not typed and "spans" not in batch.column_names:
        raise ValueError(
            "span-only documents (empty typed version columns) need the spans column"
        )
    return typed


def _extract_ints(texts: pa.Array, pattern: str, names: list[str]) -> dict[str, np.ndarray]:
    """Vectorized regex field extraction -> int64 numpy arrays.

    ``pattern`` may already carry named groups (``(?P<...>``); plain
    groups are named positionally from ``names``."""
    if "(?P<" in pattern:
        named = pattern
    else:
        parts = pattern.split("(")
        named = parts[0]
        for i, p in enumerate(parts[1:]):
            named += f"(?P<{names[i]}>" + p
    struct = pc.extract_regex(texts, named)
    return {
        n: struct.field(n).cast(pa.int64()).to_numpy(zero_copy_only=False)
        for n in names
    }


def _parse_fixed(
    texts: pa.Array,
    fields: list[tuple[str, str]],
    pattern: str,
) -> dict[str, np.ndarray]:
    """Delimiter parse of the fixed ``k=v;k=v;...`` span layout:
    split on ';', take the i-th element, verify its ``k=`` prefix,
    slice, cast. ~2x faster than ``extract_regex`` on the same input
    (measured 82 vs 162 ms per 200k version spans) — the span parse is
    the single hottest kernel in every history query. Falls back to
    the anchored regex if the part count, any key prefix, or a cast
    rejects (ingest always emits the fixed form; the fallback keeps
    malformed input on the strict path instead of misparsing it —
    e.g. swapped same-length keys must NOT silently transpose values).

    ``fields``: (output name, exact key prefix incl. '=') per part, in
    span order.
    """
    lists = pc.split_pattern(texts, ";")
    n_parts = pc.sum(pc.list_value_length(lists)).as_py() or 0
    if n_parts != len(texts) * len(fields):
        return _extract_ints(texts, pattern, [n for n, _ in fields])
    try:
        out = {}
        for i, (name, prefix) in enumerate(fields):
            elem = pc.list_element(lists, i)
            if not pc.all(pc.starts_with(elem, prefix)).as_py():
                return _extract_ints(texts, pattern, [n for n, _ in fields])
            out[name] = (
                pc.utf8_slice_codeunits(elem, len(prefix))
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        return out
    except pa.ArrowInvalid:
        return _extract_ints(texts, pattern, [n for n, _ in fields])


_VERSION_FIELDS = [("v", "v="), ("ts", "ts="), ("cs", "cs="), ("uid", "uid="), ("vis", "vis=")]
_GEOM_FIELDS = [("v", "geom:v="), ("lon", "lon="), ("lat", "lat=")]


def decode_spans(batch: pa.Table, tags: bool | str = True, geom: bool = True) -> pa.Table:
    """Decode a batch of span-documents into the flat per-version table.

    Vectorized: list_flatten + column gathers + numpy scatter/gather.
    All versions of a document land in the same output batch (the
    versions of one row flatten contiguously), which the temporal
    stages rely on.

    Decode once: when the batch carries the typed per-version columns
    (``VERSION_COLUMNS``, packed at ingest), v/ts/cs/uid/visible and the
    coordinates are a column gather and no version or geom text is
    parsed — the spans column is not even read unless ``tags=True``.
    Span-only documents (empty typed lists: compound tables, wire
    sources without typed fields) go through the text parser, which
    stays the differential reference for the typed path.

    ``tags=False`` / ``geom=False`` PRUNE the decode: the tag-signature
    join / coordinate columns are skipped and the columns are
    constant-filled. Callers set them per query — a snapshot COUNT
    needs neither, a cell aggregation needs only geom — the decode
    analog of ``read_parquet(columns=...)``; memory traffic is the
    scaling wall (BASELINE.md), so decoding unread fields is wasted
    bandwidth.

    ``tags="ids"`` is the int-keytable path (osm/OSMEntity.java:29,
    97-152): the per-version ``tag_ids`` column (packed at ingest from
    the Extract keytable) is flattened into ``tag_id`` and NO tag
    string work runs at all — filters compare small ints per version,
    never strings. tag_sig/etype/kk stay constant-filled.

    Mirrors the reference's per-entity decode
    (``impl/osh/OSHNodeImpl.java:145-182``) but over Arrow columns.
    """
    typed = _typed_versions(batch)
    if typed:
        vcol = _combined(batch, "ver_v")
        ver_parent = pc.list_parent_indices(vcol)
        signed = pc.list_flatten(vcol)
        n_ver = len(signed)
        v = pc.abs(signed)
        visible = pc.greater(signed, 0)
        ts, cs, uid = (pc.list_flatten(_combined(batch, c)) for c in ("ver_ts", "ver_cs", "ver_uid"))
        if geom:
            lon = pc.list_flatten(_combined(batch, "ver_lon_e7"))
            lat = pc.list_flatten(_combined(batch, "ver_lat_e7"))
        else:
            lon = lat = pa.array(np.zeros(n_ver, dtype=np.int64))

    if not typed or tags is True:
        if "spans" not in batch.column_names:
            raise ValueError("tags=True decodes tag strings: read the spans column")
        spans = _combined(batch, "spans")
        flat = pc.list_flatten(spans)
        kind = flat.field("kind")
        text = flat.field("text")
        is_ver = pc.equal(kind, "version").to_numpy(zero_copy_only=False)
        # global version ordinal for every span: index of the version
        # span that precedes it (spans are ordered by (doc, offset))
        gid = np.cumsum(is_ver) - 1
        if typed and int(is_ver.sum()) != n_ver:
            raise ValueError("typed version columns disagree with the version spans")

    if not typed:
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        ver_parent = pa.array(parent[is_ver])
        n_ver = int(is_ver.sum())
        vf = _parse_fixed(pc.filter(text, pa.array(is_ver)), _VERSION_FIELDS, _VERSION_RE)
        v, ts, cs, uid = (pa.array(vf[c]) for c in ("v", "ts", "cs", "uid"))
        visible = pa.array(vf["vis"] == 1)
        lon_np = np.zeros(n_ver, dtype=np.int64)
        lat_np = np.zeros(n_ver, dtype=np.int64)
        if geom:
            is_geom = pc.equal(kind, "geom").to_numpy(zero_copy_only=False)
            if is_geom.any():
                geom_ref = pc.filter(flat.field("media_ref"), pa.array(is_geom))
                gf = _parse_fixed(geom_ref, _GEOM_FIELDS, _GEOM_RE)
                geom_gid = gid[is_geom]
                lon_np[geom_gid] = gf["lon"]
                lat_np[geom_gid] = gf["lat"]
        lon, lat = pa.array(lon_np), pa.array(lat_np)

    # tag signature per version: join tag texts with '|' — fully
    # vectorized: a ListArray over the group boundaries + binary_join
    tag_sig = etype = pa.repeat("", n_ver)  # constant fill unless tags=True
    kk = np.full(n_ver, -1, dtype=np.int64)
    tag_id = np.full(n_ver, -1, dtype=np.int32)
    # the FULL decode exposes tag_id too (the flatten is cheap int
    # work next to the string decode): an arbitrary entity filter
    # reading decoded['tag_id'] under tags=True previously saw the
    # constant -1 and silently matched nothing
    if tags in ("ids", True) and "tag_ids" in batch.column_names:
        flat_ids = pc.list_flatten(_combined(batch, "tag_ids")).to_numpy(zero_copy_only=False)
        if len(flat_ids) == n_ver:  # compound tables pack empty lists
            tag_id = flat_ids.astype(np.int32)
    is_tag = (
        pc.equal(kind, "tag").to_numpy(zero_copy_only=False)
        if tags is True
        else np.zeros(1, dtype=bool)
    )
    if is_tag.any():
        tag_sig = np.full(n_ver, "", dtype=object)
        etype = np.full(n_ver, "", dtype=object)
        tag_gid = gid[is_tag]
        tag_texts = pc.filter(text, pa.array(is_tag))
        bounds = np.flatnonzero(np.r_[True, np.diff(tag_gid) != 0])
        keys = tag_gid[bounds]  # one entry per version that has tags
        offsets = np.r_[bounds, len(tag_gid)].astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), tag_texts)
        joined = pc.binary_join(lists, "|").to_numpy(zero_copy_only=False)
        tag_sig[keys] = joined

        et_mask = pc.starts_with(tag_texts, "etype=").to_numpy(zero_copy_only=False)
        if et_mask.any():
            vals = pc.utf8_slice_codeunits(
                pc.filter(tag_texts, pa.array(et_mask)), 6
            ).to_numpy(zero_copy_only=False)
            etype[tag_gid[et_mask]] = vals
        kk_mask = pc.starts_with(tag_texts, "k=").to_numpy(zero_copy_only=False)
        if kk_mask.any():
            vals = (
                pc.utf8_slice_codeunits(pc.filter(tag_texts, pa.array(kk_mask)), 2)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            kk[tag_gid[kk_mask]] = vals
        tag_sig, etype = pa.array(tag_sig, pa.string()), pa.array(etype, pa.string())

    return pa.table(
        {
            "doc_id": _combined(batch, "doc_id").take(ver_parent),
            "osm_type": _combined(batch, "osm_type").take(ver_parent),
            "osm_id": _combined(batch, "osm_id").take(ver_parent),
            "v": v,
            "ts": ts,
            "cs": cs,
            "uid": uid,
            "visible": visible,
            "lon_e7": lon,
            "lat_e7": lat,
            "tag_sig": tag_sig,
            "etype": etype,
            "kk": pa.array(kk),
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
    if _typed_versions(batch):
        parent = pc.list_parent_indices(_combined(batch, "ver_v"))
    else:
        spans = _combined(batch, "spans")
        is_ver = pc.equal(pc.list_flatten(spans).field("kind"), "version")
        parent = pc.list_parent_indices(spans).filter(is_ver)
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
    """Dirty-history fixture transform: reverse the VERSION-RUN order
    inside every document's span list (a run = one 'version' span plus
    its trailing tag/geom spans) and every per-version list column
    (``tag_ids`` and the typed ``VERSION_COLUMNS``) to match —
    producing the unsorted histories the reference tolerates via
    HEADER_TIMESTAMPS_NOT_IN_ORDER (impl/osh/OSHNodeImpl.java:30,
    OSHDB.sortOrder). The temporal interpolators realign per doc, so
    every downstream result must be INVARIANT under this transform
    (pinned by the snapshot_count_daily_unsorted oracle query and
    tests/test_temporal.py). A batch read without spans reverses only
    the per-version columns."""
    cols = {c: batch[c] for c in batch.column_names}
    if "spans" in batch.column_names:
        spans = _combined(batch, "spans")
        flat = pc.list_flatten(spans)
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
        is_ver = pc.equal(flat.field("kind"), "version").to_numpy(zero_copy_only=False)
        gid = np.cumsum(is_ver) - 1  # global version-run id per span
        idx = np.arange(len(parent), dtype=np.int64)
        # primary: doc; then runs in REVERSED order; spans within a run
        # keep their relative order (version span stays first)
        order = np.lexsort((idx, -gid, parent))
        offsets = pa.array(np.r_[0, np.cumsum(lengths)], type=pa.int32())
        cols["spans"] = pa.ListArray.from_arrays(offsets, flat.take(pa.array(order)))
    for c in ("tag_ids", *VERSION_COLUMNS):
        if c in batch.column_names:
            cols[c] = _reverse_per_doc(_combined(batch, c))
    return pa.table(cols)
