"""Format-faithful binary history ingest: the ``.rosh`` block codec.

The reference's real entry point is ``.osh.pbf`` — length-delimited
blocks, each a string table plus delta/varint-encoded entity histories
(``oshdb-tool/etl/.../oshpbf/parser/rx/RxOshPbfReader.java:70-102``
block split; per-entity header bit-flags + per-version CHANGED_* flags
with varint-delta fields, ``oshdb/.../impl/osh/OSHNodeImpl.java:25-32``
header constants, ``:145-182`` sequential decode, ``:197-275`` build).
The sandbox has no external OSM data, so this module defines a
format-FAITHFUL analog exercised on synthetic bytes: the generator
(``ensure_pbfish``) ENCODES the span-document corpus into ``.rosh``
block files, and ``read_pbfish`` is the real ingest pipeline —
``ray.data.read_binary_files -> map_batches(decode)`` — producing
DOCUMENTS_SCHEMA rows byte-identical to ``ensure_documents``'s, typed
per-version columns included (round-trip asserted in tests; an oracle
query runs off the decoded table).

Block layout (all ints unsigned LEB128 varints; signed values zigzag):

    magic  b"ROSH1\\n"
    n_strings, then per string: byte_len, utf8 bytes   (pbf-style
        per-block string table — tag spans reference it by index)
    n_entities
    per entity:
        id_delta        zigzag vs previous entity id (first: vs 0)
        header byte     bit0 MULTIVERSION  bit1 TS_NOT_IN_ORDER
                        bit2 HAS_TAGS      bit3 HAS_BBOX
                        (OSHNodeImpl.java:25-32 flag set)
        if HAS_BBOX:    min_lon zz, (max-min) lon, min_lat zz,
                        (max-min) lat                  [e7 ints]
        n_versions
        per version NEWEST -> OLDEST (the reference's iteration order,
        OSHEntity.getVersions; deltas vs the previously-decoded newer
        version, first version absolute):
            vflags byte bit0 CHANGED_USER_ID  bit1 CHANGED_TAGS
                        bit2 CHANGED_LOCATION bit3 VISIBLE
            ts delta    zigzag
            cs delta    zigzag
            if CHANGED_USER_ID:  uid zigzag
            if CHANGED_TAGS:     n_tags, then string-table idx each
            if CHANGED_LOCATION: lon delta zz, lat delta zz
        (deleted versions carry NO location — decoded lon/lat are 0,
        the OSHNodeImpl.java:173-175 convention)

Scale shape: the byte-level varint decode is ONE vectorized numpy pass
per block (boundary scan + <=10 shift-or passes); the flag-driven
interpretation is sequential per entity — exactly like the reference's
iterator — and parallelism comes from BLOCK fan-out (one block file per
map task), which is also how real .osh.pbf ingest scales: millions of
independent blocks streaming through the decode stage.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .. import io as rio
from ..model import DOCUMENTS_SCHEMA, pack_version_columns

MAGIC = b"ROSH1\n"

H_MULTIVERSION = 1
H_TS_NOT_IN_ORDER = 2
H_HAS_TAGS = 4
H_HAS_BBOX = 8

V_CHANGED_UID = 1
V_CHANGED_TAGS = 2
V_CHANGED_LOC = 4
V_VISIBLE = 8


# ------------------------------------------------------------- varints
def _zigzag(v: np.ndarray | int):
    v = np.asarray(v, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    return ((u >> np.uint64(1)).view(np.int64)) ^ -((u & np.uint64(1)).view(np.int64))


def _encode_varints(vals: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a uint64 array: 10 masked passes
    (one per possible byte position), then a stable ravel by (value,
    position) — no per-value Python loop."""
    vals = np.asarray(vals, dtype=np.uint64)
    n = len(vals)
    if n == 0:
        return b""
    nbytes = np.ones(n, dtype=np.int64)
    v = vals >> np.uint64(7)
    while v.any():
        nbytes += (v != 0).astype(np.int64)
        v >>= np.uint64(7)
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    pos_of = np.repeat(np.cumsum(nbytes) - nbytes, nbytes)
    local = np.arange(total) - pos_of
    src = np.repeat(np.arange(n), nbytes)
    chunk = (vals[src] >> (np.uint64(7) * local.astype(np.uint64))) & np.uint64(0x7F)
    is_last = local == np.repeat(nbytes, nbytes) - 1
    out[:] = chunk.astype(np.uint8) | np.where(is_last, 0, 0x80).astype(np.uint8)
    return out.tobytes()


def _decode_varints(buf: np.ndarray) -> np.ndarray:
    """Vectorized LEB128 decode of a pure-varint byte region -> uint64
    array. Boundary scan + <=10 shift-or passes."""
    if len(buf) == 0:
        return np.zeros(0, dtype=np.uint64)
    is_last = buf < 0x80
    ends = np.flatnonzero(is_last)
    starts = np.r_[0, ends[:-1] + 1]
    lens = ends - starts + 1
    vals = np.zeros(len(ends), dtype=np.uint64)
    for p in range(int(lens.max())):
        sel = lens > p
        vals[sel] |= (buf[starts[sel] + p] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * p)
    return vals


# ------------------------------------------------------------- encoder
def encode_block(versions: pd.DataFrame) -> bytes:
    """Encode one block of COMPLETE entity histories (flat per-version
    rows: osm_id, v, ts, cs, uid, visible, lon_e7, lat_e7, tags
    (tuple of tag strings), plus per-entity bbox columns) into .rosh
    bytes. Entities ordered by osm_id; versions newest->oldest on the
    wire (build order mirrors OSHNodeImpl.java:197-275)."""
    g = versions.sort_values(["osm_id", "v"], kind="mergesort")
    strings: dict[str, int] = {}
    for tags in g["tags"]:
        for t in tags:
            if t not in strings:
                strings[t] = len(strings)

    head = bytearray()
    head += MAGIC
    head += _encode_varints(np.array([len(strings)], dtype=np.uint64))
    for s in strings:  # insertion-ordered
        b = s.encode()
        head += _encode_varints(np.array([len(b)], dtype=np.uint64))
        head += b

    ints: list[int] = []  # the uniform varint stream after the strings
    prev_id = 0
    for osm_id, ent in g.groupby("osm_id", sort=True):
        ent = ent.sort_values("v")  # oldest -> newest
        nv = len(ent)
        vis = ent["visible"].to_numpy(dtype=bool)
        ts = ent["ts"].to_numpy(dtype=np.int64)
        header = 0
        if nv > 1:
            header |= H_MULTIVERSION
        if np.any(np.diff(ts) < 0):
            header |= H_TS_NOT_IN_ORDER
        if any(len(t) for t in ent["tags"]):
            header |= H_HAS_TAGS
        has_bbox = bool(vis.any())
        if has_bbox:
            header |= H_HAS_BBOX
        ints += [int(_zigzag(int(osm_id) - prev_id)), header]
        prev_id = int(osm_id)
        if has_bbox:
            mn_lon = int(ent["min_lon_e7"].iloc[0])
            mx_lon = int(ent["max_lon_e7"].iloc[0])
            mn_lat = int(ent["min_lat_e7"].iloc[0])
            mx_lat = int(ent["max_lat_e7"].iloc[0])
            ints += [
                int(_zigzag(mn_lon)),
                mx_lon - mn_lon,
                int(_zigzag(mn_lat)),
                mx_lat - mn_lat,
            ]
        ints.append(nv)
        # wire order: newest -> oldest; deltas vs the previously-written
        # (newer) version, first written version absolute
        rows = list(ent.itertuples(index=False))[::-1]
        prev = None
        for r in rows:
            vflags = 0
            if r.visible:
                vflags |= V_VISIBLE
            changed_uid = prev is None or r.uid != prev.uid
            changed_tags = prev is None or tuple(r.tags) != tuple(prev.tags)
            # deleted versions carry no location (OSHNodeImpl.java:173-175)
            changed_loc = bool(r.visible) and (
                prev is None
                or not prev.visible
                or (r.lon_e7, r.lat_e7) != (prev.lon_e7, prev.lat_e7)
            )
            if changed_uid:
                vflags |= V_CHANGED_UID
            if changed_tags:
                vflags |= V_CHANGED_TAGS
            if changed_loc:
                vflags |= V_CHANGED_LOC
            ints.append(vflags)
            ints.append(int(_zigzag(r.ts - (prev.ts if prev else 0))))
            ints.append(int(_zigzag(r.cs - (prev.cs if prev else 0))))
            if changed_uid:
                ints.append(int(_zigzag(r.uid)))
            if changed_tags:
                ints.append(len(r.tags))
                ints += [strings[t] for t in r.tags]
            if changed_loc:
                base_lon = prev.lon_e7 if (prev is not None and prev.visible) else 0
                base_lat = prev.lat_e7 if (prev is not None and prev.visible) else 0
                ints.append(int(_zigzag(r.lon_e7 - base_lon)))
                ints.append(int(_zigzag(r.lat_e7 - base_lat)))
            prev = r

    n_entities = g["osm_id"].nunique()
    body = _encode_varints(np.array([n_entities, *ints], dtype=np.uint64))
    return bytes(head) + body


# ------------------------------------------------------------- decoder
def decode_block(data: bytes, keytable: dict[str, int] | None = None) -> pa.Table:
    """One .rosh block -> DOCUMENTS_SCHEMA rows. Byte-level varint
    decode is one vectorized pass; flag interpretation is sequential
    per version (the reference's iterator shape) over small ints.
    ``keytable`` (sig -> id) fills per-version tag_ids; None packs -1."""
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a .rosh block (bad magic)")
    buf = np.frombuffer(data, dtype=np.uint8)
    pos = len(MAGIC)

    def read_varint_at(p: int) -> tuple[int, int]:
        v, shift = 0, 0
        while True:
            b = int(buf[p])
            v |= (b & 0x7F) << shift
            p += 1
            if b < 0x80:
                return v, p
            shift += 7

    n_strings, pos = read_varint_at(pos)
    strings: list[str] = []
    for _ in range(n_strings):
        ln, pos = read_varint_at(pos)
        strings.append(bytes(buf[pos : pos + ln]).decode())
        pos += ln

    ints = _decode_varints(buf[pos:])
    ip = 0

    def take() -> int:
        nonlocal ip
        v = int(ints[ip])
        ip += 1
        return v

    n_entities = take()
    # accumulated per-version columns (oldest->newest per entity)
    col_id: list[int] = []
    col_v: list[int] = []
    col_ts: list[int] = []
    col_cs: list[int] = []
    col_uid: list[int] = []
    col_vis: list[bool] = []
    col_lon: list[int] = []
    col_lat: list[int] = []
    col_tags: list[tuple[str, ...]] = []
    ent_ids: list[int] = []
    ent_bbox: list[tuple[int, int, int, int]] = []
    ent_nv: list[int] = []

    prev_id = 0
    for _ in range(n_entities):
        osm_id = prev_id + int(_unzigzag(np.uint64(take())))
        prev_id = osm_id
        header = take()
        if header & H_HAS_BBOX:
            mn_lon = int(_unzigzag(np.uint64(take())))
            mx_lon = mn_lon + take()
            mn_lat = int(_unzigzag(np.uint64(take())))
            mx_lat = mn_lat + take()
            bbox = (mn_lon, mx_lon, mn_lat, mx_lat)
        else:
            bbox = (0, 0, 0, 0)
        nv = take()
        vs, tss, css, uids, viss, lons, lats, tagss = [], [], [], [], [], [], [], []
        p_ts = p_cs = p_uid = 0
        p_lon = p_lat = 0
        p_vis = False
        p_tags: tuple[str, ...] = ()
        first = True
        for wire_i in range(nv):
            vflags = take()
            ts = (0 if first else p_ts) + int(_unzigzag(np.uint64(take())))
            cs = (0 if first else p_cs) + int(_unzigzag(np.uint64(take())))
            vis = bool(vflags & V_VISIBLE)
            uid = int(_unzigzag(np.uint64(take()))) if vflags & V_CHANGED_UID else p_uid
            if vflags & V_CHANGED_TAGS:
                ntags = take()
                tags = tuple(strings[take()] for _ in range(ntags))
            else:
                tags = p_tags
            if vflags & V_CHANGED_LOC:
                base_lon = p_lon if (not first and p_vis) else 0
                base_lat = p_lat if (not first and p_vis) else 0
                lon = base_lon + int(_unzigzag(np.uint64(take())))
                lat = base_lat + int(_unzigzag(np.uint64(take())))
            elif vis:
                lon, lat = p_lon, p_lat
            else:
                lon = lat = 0  # tombstones carry no geometry
            vs.append(nv - wire_i)  # wire is newest->oldest
            tss.append(ts)
            css.append(cs)
            uids.append(uid)
            viss.append(vis)
            lons.append(lon)
            lats.append(lat)
            tagss.append(tags)
            p_ts, p_cs, p_uid, p_vis, p_tags, p_lon, p_lat = ts, cs, uid, vis, tags, lon, lat
            first = False
        # flip to oldest->newest (document span order)
        col_id += [osm_id] * nv
        col_v += vs[::-1]
        col_ts += tss[::-1]
        col_cs += css[::-1]
        col_uid += uids[::-1]
        col_vis += viss[::-1]
        col_lon += lons[::-1]
        col_lat += lats[::-1]
        col_tags += tagss[::-1]
        ent_ids.append(osm_id)
        ent_bbox.append(bbox)
        ent_nv.append(nv)

    return _pack_documents(
        np.asarray(col_id, dtype=np.int64),
        np.asarray(col_v, dtype=np.int64),
        np.asarray(col_ts, dtype=np.int64),
        np.asarray(col_cs, dtype=np.int64),
        np.asarray(col_uid, dtype=np.int64),
        np.asarray(col_vis, dtype=bool),
        np.asarray(col_lon, dtype=np.int64),
        np.asarray(col_lat, dtype=np.int64),
        col_tags,
        np.asarray(ent_ids, dtype=np.int64),
        ent_bbox,
        np.asarray(ent_nv, dtype=np.int32),
        keytable,
    )


def _pack_documents(
    osm, v, ts, cs, uid, vis, lon, lat, tags, ent_ids, ent_bbox, ent_nv, keytable=None
) -> pa.Table:
    """Vectorized span assembly from decoded per-version arrays —
    mirrors ingest._pack_bucket's span layout exactly (version span,
    tag spans in stored order, geom span when visible; offsets are the
    per-document total order) but takes DECODED values, not the
    synthetic derivation."""
    n = len(osm)
    s = pd.Series
    ver_text = (
        "v=" + s(v).astype(str) + ";ts=" + s(ts).astype(str) + ";cs=" + s(cs).astype(str)
        + ";uid=" + s(uid).astype(str) + ";vis=" + s(vis.astype(np.int64)).astype(str)
    ).to_numpy()
    geom_ref = (
        "geom:v=" + s(v).astype(str) + ";lon=" + s(lon).astype(str) + ";lat=" + s(lat).astype(str)
    ).to_numpy()
    n_tags = np.asarray([len(t) for t in tags], dtype=np.int64)
    flat_tags = np.asarray([t for tt in tags for t in tt], dtype=object)

    n_slots = 1 + n_tags + vis.astype(np.int64)
    total = int(n_slots.sum())
    ver_of_span = np.repeat(np.arange(n), n_slots)
    span_start = np.cumsum(n_slots) - n_slots
    slot = np.arange(total) - span_start[ver_of_span]
    kinds = np.where(
        slot == 0, "version", np.where(slot <= n_tags[ver_of_span], "tag", "geom")
    ).astype(object)
    texts = np.full(total, "", dtype=object)
    refs = np.full(total, "", dtype=object)
    texts[slot == 0] = ver_text[ver_of_span[slot == 0]]
    is_tag = (slot >= 1) & (slot <= n_tags[ver_of_span])
    # tag j of version i -> flat_tags[tag_start[i] + (slot-1)]
    tag_start = np.cumsum(n_tags) - n_tags
    texts[is_tag] = flat_tags[tag_start[ver_of_span[is_tag]] + slot[is_tag] - 1]
    is_geom = slot == n_tags[ver_of_span] + 1
    refs[is_geom] = geom_ref[ver_of_span[is_geom]]

    # per-document span list offsets
    doc_of_ver = np.repeat(np.arange(len(ent_ids)), ent_nv)
    doc_of_span = doc_of_ver[ver_of_span]
    doc_first = np.r_[True, doc_of_span[1:] != doc_of_span[:-1]]
    doc_span_start = np.maximum.accumulate(np.where(doc_first, np.arange(total), 0))
    offsets = (np.arange(total) - doc_span_start).astype(np.int32)

    spans_flat = pa.StructArray.from_arrays(
        [
            pa.array(kinds, type=pa.string()),
            pa.array(texts, type=pa.string()),
            pa.array(refs, type=pa.string()),
            pa.array(offsets, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    list_offsets = np.r_[np.flatnonzero(doc_first), total].astype(np.int32)
    spans_col = pa.ListArray.from_arrays(pa.array(list_offsets), spans_flat)

    # per-version keytable ids from the tag strings ('|'-joined sig) —
    # the Extract-pass dictionary applied at decode time, like the
    # reference's TagTranslator resolving pbf strings to keytable ints
    if keytable:
        sigs = ["|".join(t) for t in tags]
        tid = np.asarray([keytable.get(x, -1) for x in sigs], dtype=np.int32)
    else:
        tid = np.full(n, -1, dtype=np.int32)
    bbox = np.asarray(ent_bbox, dtype=np.int64).reshape(len(ent_ids), 4)
    return pa.table(
        {
            "doc_id": pa.array(["node/" + str(i) for i in ent_ids], type=pa.string()),
            "osm_type": pa.array(np.full(len(ent_ids), "node", dtype=object), type=pa.string()),
            "osm_id": pa.array(ent_ids),
            "n_versions": pa.array(ent_nv, type=pa.int32()),
            "min_lon_e7": pa.array(bbox[:, 0]),
            "max_lon_e7": pa.array(bbox[:, 1]),
            "min_lat_e7": pa.array(bbox[:, 2]),
            "max_lat_e7": pa.array(bbox[:, 3]),
            "spans": spans_col,
            # the decoded ints, typed (no text round trip on the read side)
            **pack_version_columns(
                ent_nv, v=v, ts=ts, cs=cs, uid=uid, visible=vis,
                lon_e7=lon, lat_e7=lat, tag_ids=tid,
            ),
        },
        schema=DOCUMENTS_SCHEMA,
    )


# ---------------------------------------------------------- corpus I/O
def ensure_pbfish(sf_dir: str, rep: int = 1) -> str:
    """Materialize (once) the .rosh-encoded corpus of ``sf_dir``'s node
    documents: read the document cache without its span text, decode
    the tags through the signature keytable, re-encode each batch as
    one block file (workers write in parallel; block name = the
    batch's min osm_id, unique because batches partition the id set).
    Returns the block directory."""
    from ..ingest import ensure_documents, sig_keytable
    from ..model import DECODE_COLUMNS, decode_spans, tag_lookup

    def build(staging: str) -> None:
        lookup = tag_lookup(sig_keytable(sf_dir))

        def write_block(batch: pa.Table) -> pa.Table:
            vers = decode_spans(batch, lookup).to_pandas()
            # tag tuple per version from the '|'-joined sig string
            vers["tags"] = [
                tuple(x.split("|")) if x else () for x in vers["tag_sig"].tolist()
            ]
            doc_meta = batch.select(
                ["osm_id", "min_lon_e7", "max_lon_e7", "min_lat_e7", "max_lat_e7"]
            ).to_pandas()
            vers = vers.merge(doc_meta, on="osm_id", how="left")
            blob = encode_block(vers)
            name = f"block-{int(vers['osm_id'].min()):012d}.rosh"
            (Path(staging) / name).write_bytes(blob)
            return pa.table({"file": pa.array([name]), "bytes": pa.array([len(blob)])})

        manifest = (
            rio.read_table(src, columns=DECODE_COLUMNS)
            .map_batches(write_block, batch_format="pyarrow")
            .to_pandas()
        )
        assert len(manifest) > 0

    src = ensure_documents(sf_dir, rep)
    # code-fingerprinted version suffix (io.code_fingerprint): any edit
    # to this codec or the span decoder forces a cold rebuild
    fp = rio.code_fingerprint(sys.modules[__name__], sys.modules[decode_spans.__module__])
    # src is a published (immutable) cache dir whose path already holds
    # its key: key on the path, not on a stat of each of its shards
    return rio.ensure("rosh_blocks", [], [src, fp], build)


def read_pbfish(block_dir: str, keytable: dict[str, int] | None = None) -> ray.data.Dataset:
    """The binary ingest pipeline: read_binary_files over the block
    directory -> one vectorized+sequential decode per block -> span
    documents. ``keytable`` (sig -> id) fills per-version tag_ids like
    the Extract pass; None packs -1. The keytable is closure-captured
    (small, bounded by the tag-sig universe); a large dictionary would
    go through ``ray.put``."""
    files = ray.data.read_binary_files(block_dir)
    kt = keytable

    def stage(batch: pa.Table) -> pa.Table:
        tables = [
            decode_block(b.as_py() if hasattr(b, "as_py") else b, kt)
            for b in batch["bytes"]
        ]
        return pa.concat_tables(tables) if tables else decode_block(_EMPTY_BLOCK, kt)

    return files.map_batches(stage, batch_format="pyarrow")


_EMPTY_BLOCK = MAGIC + _encode_varints(np.array([0, 0], dtype=np.uint64))
