"""Span-text decode of node documents: the differential reference of
``rayhist.model.decode_spans``, which reads only the typed per-version
columns and gathers tag strings through a keytable lookup.

``decode_text`` parses every field from the span text (FIXTURES.md §1:
version text, tag spans, geom ``media_ref``) and emits the same
``VERSIONS_SCHEMA`` table, ``tag_id`` flattened from ``tag_ids`` when
the documents pack them (-1 otherwise). Tests pin
``decode_spans(docs, tag_lookup(keytable)) == decode_text(docs)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayhist.model import VERSIONS_SCHEMA

_VERSION_RE = r"^v=(\d+);ts=(\d+);cs=(\d+);uid=(\d+);vis=([01])$"
_GEOM_RE = r"^geom:v=(\d+);lon=(-?\d+);lat=(-?\d+)$"
_VERSION_FIELDS = [("v", "v="), ("ts", "ts="), ("cs", "cs="), ("uid", "uid="), ("vis", "vis=")]
_GEOM_FIELDS = [("v", "geom:v="), ("lon", "lon="), ("lat", "lat=")]


def _combined(batch: pa.Table, name: str) -> pa.Array:
    col = batch[name].combine_chunks()
    return col.chunk(0) if isinstance(col, pa.ChunkedArray) else col


def _extract_ints(texts: pa.Array, pattern: str, names: list[str]) -> dict[str, np.ndarray]:
    """Vectorized regex field extraction -> int64 numpy arrays; the
    plain groups of ``pattern`` are named positionally from ``names``."""
    parts = pattern.split("(")
    named = parts[0]
    for i, p in enumerate(parts[1:]):
        named += f"(?P<{names[i]}>" + p
    struct = pc.extract_regex(texts, named)
    return {
        n: struct.field(n).cast(pa.int64()).to_numpy(zero_copy_only=False) for n in names
    }


def _parse_fixed(
    texts: pa.Array, fields: list[tuple[str, str]], pattern: str
) -> dict[str, np.ndarray]:
    """Delimiter parse of the fixed ``k=v;k=v;...`` span layout: split
    on ';', take the i-th element, verify its ``k=`` prefix, slice,
    cast. Falls back to the anchored regex if the part count, any key
    prefix, or a cast rejects, so malformed input takes the strict path
    instead of misparsing (swapped same-length keys must NOT silently
    transpose values). ``fields``: (output name, exact key prefix incl.
    '=') per part, in span order."""
    names = [n for n, _ in fields]
    lists = pc.split_pattern(texts, ";")
    n_parts = pc.sum(pc.list_value_length(lists)).as_py() or 0
    if n_parts != len(texts) * len(fields):
        return _extract_ints(texts, pattern, names)
    try:
        out = {}
        for i, (name, prefix) in enumerate(fields):
            elem = pc.list_element(lists, i)
            if not pc.all(pc.starts_with(elem, prefix)).as_py():
                return _extract_ints(texts, pattern, names)
            out[name] = (
                pc.utf8_slice_codeunits(elem, len(prefix))
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        return out
    except pa.ArrowInvalid:
        return _extract_ints(texts, pattern, names)


def decode_text(batch: pa.Table, geom: bool = True) -> pa.Table:
    """The flat per-version table of a batch of node documents, every
    field parsed from the span text. ``geom=False`` constant-fills the
    coordinates, as ``decode_spans`` does."""
    spans = _combined(batch, "spans")
    flat = pc.list_flatten(spans)
    kind = flat.field("kind")
    text = flat.field("text")
    is_ver = pc.equal(kind, "version").to_numpy(zero_copy_only=False)
    gid = np.cumsum(is_ver) - 1  # the version each span follows
    parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    ver_parent = pa.array(parent[is_ver])
    n_ver = int(is_ver.sum())
    vf = _parse_fixed(pc.filter(text, pa.array(is_ver)), _VERSION_FIELDS, _VERSION_RE)

    lon = np.zeros(n_ver, dtype=np.int64)
    lat = np.zeros(n_ver, dtype=np.int64)
    is_geom = pc.equal(kind, "geom").to_numpy(zero_copy_only=False)
    if geom and is_geom.any():
        gf = _parse_fixed(
            pc.filter(flat.field("media_ref"), pa.array(is_geom)), _GEOM_FIELDS, _GEOM_RE
        )
        lon[gid[is_geom]] = gf["lon"]
        lat[gid[is_geom]] = gf["lat"]

    # tag signature per version: its tag texts joined with '|'; etype
    # and kk from the 'etype=' and 'k=' tags (a repeated key keeps its
    # last value)
    tag_sig = np.full(n_ver, "", dtype=object)
    etype = np.full(n_ver, "", dtype=object)
    kk = np.full(n_ver, -1, dtype=np.int64)
    is_tag = pc.equal(kind, "tag").to_numpy(zero_copy_only=False)
    if is_tag.any():
        tag_gid = gid[is_tag]
        tag_texts = pc.filter(text, pa.array(is_tag))
        bounds = np.flatnonzero(np.r_[True, np.diff(tag_gid) != 0])
        offsets = np.r_[bounds, len(tag_gid)].astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), tag_texts)
        tag_sig[tag_gid[bounds]] = pc.binary_join(lists, "|").to_numpy(zero_copy_only=False)
        for prefix, out, cast in (("etype=", etype, None), ("k=", kk, pa.int64())):
            m = pc.starts_with(tag_texts, prefix).to_numpy(zero_copy_only=False)
            if m.any():
                vals = pc.utf8_slice_codeunits(pc.filter(tag_texts, pa.array(m)), len(prefix))
                out[tag_gid[m]] = (vals if cast is None else vals.cast(cast)).to_numpy(
                    zero_copy_only=False
                )

    tag_id = np.full(n_ver, -1, dtype=np.int32)
    if "tag_ids" in batch.column_names:
        ids = pc.list_flatten(_combined(batch, "tag_ids")).to_numpy(zero_copy_only=False)
        if len(ids) == n_ver:
            tag_id = ids.astype(np.int32)

    return pa.table(
        {
            "doc_id": _combined(batch, "doc_id").take(ver_parent),
            "osm_type": _combined(batch, "osm_type").take(ver_parent),
            "osm_id": _combined(batch, "osm_id").take(ver_parent),
            "v": pa.array(vf["v"]),
            "ts": pa.array(vf["ts"]),
            "cs": pa.array(vf["cs"]),
            "uid": pa.array(vf["uid"]),
            "visible": pa.array(vf["vis"] == 1),
            "lon_e7": pa.array(lon),
            "lat_e7": pa.array(lat),
            "tag_sig": pa.array(tag_sig, pa.string()),
            "etype": pa.array(etype, pa.string()),
            "kk": pa.array(kk),
            "tag_id": pa.array(tag_id, pa.int32()),
        },
        schema=VERSIONS_SCHEMA,
    )


def doc_codes_text(batch: pa.Table) -> np.ndarray:
    """``model.doc_codes`` read off the span text: the batch row of
    every version span."""
    spans = _combined(batch, "spans")
    is_ver = pc.equal(pc.list_flatten(spans).field("kind"), "version")
    return pc.list_parent_indices(spans).filter(is_ver).to_numpy(zero_copy_only=False).astype(
        np.int64
    )


def reverse_span_runs(batch: pa.Table) -> pa.Array:
    """The spans column with the version runs of every document in
    reverse order (a run = one 'version' span plus its trailing tag and
    geom spans), the span-text twin of ``model.reverse_version_runs``."""
    spans = _combined(batch, "spans")
    flat = pc.list_flatten(spans)
    parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    lengths = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    gid = np.cumsum(pc.equal(flat.field("kind"), "version").to_numpy(zero_copy_only=False)) - 1
    # primary: doc; then runs in REVERSED order; spans within a run keep
    # their relative order (the version span stays first)
    order = np.lexsort((np.arange(len(parent)), -gid, parent))
    offsets = pa.array(np.r_[0, np.cumsum(lengths)], type=pa.int32())
    return pa.ListArray.from_arrays(offsets, flat.take(pa.array(order)))
