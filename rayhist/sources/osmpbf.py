"""Real OSM PBF wire-format reader/writer (``.osm.pbf`` / ``.osh.pbf``).

The reference ingests full-history ``.osh.pbf`` planet files
(``oshdb-tool/etl/.../oshpbf/parser/rx/RxOshPbfReader.java:70-102``
reads the blob stream; ``.../OsmPbfIterator.java`` flattens
PrimitiveBlocks into per-version entity rows). This module implements
the SAME public wire format from the published spec (OSM wiki "PBF
Format"; fileformat.proto / osmformat.proto) with no protobuf library:

  file   := repeat [ int32-BE header_len | BlobHeader | Blob payload ]
  BlobHeader := 1:type(string "OSMHeader"|"OSMData") 3:datasize(int32)
  Blob       := 2:raw_size(int32)  oneof{ 1:raw  3:zlib_data }
  HeaderBlock    := 1:bbox(HeaderBBox)  4:required_features*  5:optional*
  PrimitiveBlock := 1:stringtable  2:primitivegroup*
                    17:granularity(=100)  18:date_granularity(=1000)
                    19:lat_offset  20:lon_offset
  PrimitiveGroup := 1:Node*  2:DenseNodes  3:Way*  4:Relation*
  DenseNodes := 1:id(packed sint64 DELTA)  5:DenseInfo
                8:lat(packed sint64 DELTA)  9:lon(packed sint64 DELTA)
                10:keys_vals(packed int32, 0-terminated runs)
  DenseInfo  := 1:version(packed int32)  2:timestamp(packed sint64 DELTA)
                3:changeset(packed sint64 DELTA)  4:uid(packed sint32 DELTA)
                5:user_sid(packed sint32 DELTA)  6:visible(packed bool)
  Node     := 1:id(sint64) 2:keys(packed) 3:vals(packed) 4:Info
              8:lat(sint64) 9:lon(sint64)
  Way      := 1:id(int64) 2:keys 3:vals 4:Info 8:refs(packed sint64 DELTA)
  Relation := 1:id(int64) 2:keys 3:vals 4:Info 8:roles_sid(packed int32)
              9:memids(packed sint64 DELTA) 10:types(packed enum)
  Info     := 1:version 2:timestamp 3:changeset 4:uid 5:user_sid 6:visible

Units: coordinates are nanodegrees ``lat_offset + granularity*raw``
(granularity=100 makes raw == our e7 ints exactly); timestamps are
``date_granularity * raw`` MILLISECONDS since the epoch. The engine's
internal unit is microseconds, so decoded ts = millis * 1000 — wire
resolution is ms, which is exact for real OSM data (whole seconds) and
documented-lossy for the synthetic µs corpus (the oracle twin
truncates identically, see oracles.DERIVE_MS).

History semantics (.osh.pbf): multiple versions of one element appear
as consecutive rows of the same id (id delta 0) with
``DenseInfo.visible`` carrying tombstones; "HistoricalInformation" is
declared in required_features. Deleted versions encode lon/lat 0 — the
OSHNodeImpl.java:173-175 tombstones-carry-no-geometry convention.

Scale shape: ``scan_blobs`` is a header-only driver pass (4 bytes +
~16-byte BlobHeader per blob, payloads seeked over — the planet file
has ~40k blobs); decode fans out as ``from_items(blob index) ->
map_batches(decode)`` with each task range-reading only its blobs, so
ingest parallelism is blob-count wide, exactly like the reference's
RxOshPbfReader block fan-out. Inside a block the packed arrays (ids,
coords, timestamps, keys_vals) decode with the vectorized LEB128
kernel shared with the .rosh codec.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..model import DOCUMENTS_SCHEMA
from .pbfish import _decode_varints, _encode_varints, _pack_documents, _unzigzag, _zigzag

MAX_HEADER = 64 * 1024  # spec: BlobHeader <= 64 KiB
MAX_BLOB = 32 * 1024 * 1024  # spec: uncompressed Blob <= 32 MiB
SUPPORTED_FEATURES = {"OsmSchema-V0.6", "DenseNodes", "HistoricalInformation"}

_MEMBER_TYPES = np.array(["node", "way", "relation"], dtype=object)


# ----------------------------------------------------- wire primitives
def _uv(v: int) -> bytes:
    """Single unsigned LEB128 varint."""
    out = bytearray()
    v = int(v) & 0xFFFFFFFFFFFFFFFF
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _rv(buf: np.ndarray, p: int) -> tuple[int, int]:
    """Read one varint at position p -> (value, next position)."""
    v, shift = 0, 0
    while True:
        b = int(buf[p])
        p += 1
        v |= (b & 0x7F) << shift
        if b < 0x80:
            return v, p
        shift += 7
        if shift > 63:
            raise ValueError("varint overflow")


def _field(fno: int, wire: int) -> bytes:
    return _uv(fno << 3 | wire)


def _fv(fno: int, v: int) -> bytes:
    """Varint field (wire 0). Negative values sign-extend to 64-bit
    (protobuf int32/int64 convention)."""
    return _field(fno, 0) + _uv(np.int64(v).view(np.uint64))


def _ld(fno: int, payload: bytes) -> bytes:
    return _field(fno, 2) + _uv(len(payload)) + payload


def _packed(fno: int, vals: np.ndarray, zz: bool = False) -> bytes:
    """Packed repeated varint field; omitted when empty."""
    vals = np.asarray(vals, dtype=np.int64)
    if len(vals) == 0:
        return b""
    u = _zigzag(vals) if zz else vals.view(np.uint64)
    return _ld(fno, _encode_varints(u))


def _fields(buf: np.ndarray, s: int, e: int):
    """Scan one message's fields: yields (field_no, wire_type, a, b) —
    wire 0: a = varint value; wire 2: [a, b) = payload slice;
    wire 1/5: [a, b) = fixed bytes."""
    p = s
    while p < e:
        key, p = _rv(buf, p)
        fno, wt = key >> 3, key & 7
        if wt == 0:
            v, p = _rv(buf, p)
            yield fno, 0, v, 0
        elif wt == 2:
            ln, p = _rv(buf, p)
            yield fno, 2, p, p + ln
            p += ln
        elif wt == 1:
            yield fno, 1, p, p + 8
            p += 8
        elif wt == 5:
            yield fno, 5, p, p + 4
            p += 4
        else:
            raise ValueError(f"unsupported protobuf wire type {wt}")
    if p != e:
        raise ValueError("message field ran past its end")


def _packed_u64(buf, s, e) -> np.ndarray:
    return _decode_varints(buf[s:e])


def _packed_i64(buf, s, e) -> np.ndarray:
    return _decode_varints(buf[s:e]).view(np.int64)


def _packed_s64(buf, s, e) -> np.ndarray:
    return _unzigzag(_decode_varints(buf[s:e]))


# ------------------------------------------------------------ encoder
def _info(version, ts_ms, cs, uid, user_sid, visible) -> bytes:
    out = _fv(1, version) + _fv(2, ts_ms) + _fv(3, cs) + _fv(4, uid) + _fv(5, user_sid)
    out += _fv(6, 1 if visible else 0)
    return out


class _StringTable:
    """Per-block string table; index 0 is the reserved empty string."""

    def __init__(self):
        self.idx: dict[str, int] = {"": 0}

    def add(self, s: str) -> int:
        i = self.idx.get(s)
        if i is None:
            i = self.idx[s] = len(self.idx)
        return i

    def encode(self) -> bytes:
        body = b"".join(_ld(1, s.encode()) for s in self.idx)
        return _ld(1, body)


def _kv_ids(st: _StringTable, tag_k, tag_v):
    ks = [st.add(k) for k in tag_k]
    vs = [st.add(v) for v in tag_v]
    return ks, vs


def _encode_dense(st: _StringTable, rows: pd.DataFrame) -> bytes:
    """DenseNodes from per-version node rows (already in file order)."""
    ids = rows["osm_id"].to_numpy(dtype=np.int64)
    # granularity=100: nano = 100*raw, so raw == e7 exactly
    lat = rows["lat_e7"].to_numpy(dtype=np.int64)
    lon = rows["lon_e7"].to_numpy(dtype=np.int64)
    ts_ms = rows["ts"].to_numpy(dtype=np.int64) // 1000
    cs = rows["cs"].to_numpy(dtype=np.int64)
    uid = rows["uid"].to_numpy(dtype=np.int64)
    ver = rows["v"].to_numpy(dtype=np.int64)
    vis = rows["visible"].to_numpy(dtype=bool)
    usid = np.array([st.add(u) for u in rows["user"]], dtype=np.int64)

    kv: list[int] = []
    for ks, vs in zip(rows["tag_k"], rows["tag_v"]):
        for k, v in zip(ks, vs):
            if k == "" or v == "":
                # string-table index 0 ("") IS the keys_vals run
                # terminator — an empty key/value would corrupt the
                # stream (the decoder sees a short run + an extra run).
                # Fail at encode time instead.
                raise ValueError(
                    "DenseNodes keys_vals cannot represent empty tag "
                    f"keys/values (node {int(rows['osm_id'].iloc[0])}+: "
                    f"{k!r}={v!r}); drop the tag or use dense=False"
                )
            kv.append(st.add(k))
            kv.append(st.add(v))
        kv.append(0)
    kv_arr = np.asarray(kv, dtype=np.int64)
    has_tags = bool((kv_arr != 0).any())

    def delta(a):
        return np.diff(a, prepend=np.int64(0))

    info = (
        _packed(1, ver)
        + _packed(2, delta(ts_ms), zz=True)
        + _packed(3, delta(cs), zz=True)
        + _packed(4, delta(uid), zz=True)
        + _packed(5, delta(usid), zz=True)
        + _packed(6, vis.astype(np.int64))
    )
    dense = (
        _packed(1, delta(ids), zz=True)
        + _ld(5, info)
        + _packed(8, delta(lat), zz=True)
        + _packed(9, delta(lon), zz=True)
    )
    if has_tags:
        dense += _packed(10, kv_arr)
    return _ld(2, dense)


def _encode_plain_nodes(st: _StringTable, rows: pd.DataFrame) -> bytes:
    """Non-dense repeated Node messages (decode-coverage twin of
    DenseNodes; real writers emit dense)."""
    out = b""
    for r in rows.itertuples(index=False):
        ks, vs = _kv_ids(st, r.tag_k, r.tag_v)
        node = (
            _field(1, 0)
            + _uv(_zigzag(int(r.osm_id)))
            + _packed(2, np.asarray(ks, dtype=np.int64))
            + _packed(3, np.asarray(vs, dtype=np.int64))
            + _ld(4, _info(r.v, r.ts // 1000, r.cs, r.uid, st.add(r.user), r.visible))
            + _field(8, 0)
            + _uv(_zigzag(int(r.lat_e7)))
            + _field(9, 0)
            + _uv(_zigzag(int(r.lon_e7)))
        )
        out += _ld(1, node)
    return out


def _encode_ways(st: _StringTable, rows: pd.DataFrame) -> bytes:
    out = b""
    for r in rows.itertuples(index=False):
        ks, vs = _kv_ids(st, r.tag_k, r.tag_v)
        refs = np.asarray(r.refs, dtype=np.int64)
        way = (
            _fv(1, r.osm_id)
            + _packed(2, np.asarray(ks, dtype=np.int64))
            + _packed(3, np.asarray(vs, dtype=np.int64))
            + _ld(4, _info(r.v, r.ts // 1000, r.cs, r.uid, st.add(r.user), r.visible))
            + _packed(8, np.diff(refs, prepend=np.int64(0)), zz=True)
        )
        out += _ld(3, way)
    return out


def _encode_relations(st: _StringTable, rows: pd.DataFrame) -> bytes:
    tcode = {"node": 0, "way": 1, "relation": 2}
    out = b""
    for r in rows.itertuples(index=False):
        ks, vs = _kv_ids(st, r.tag_k, r.tag_v)
        mem = np.asarray(r.member_ids, dtype=np.int64)
        roles = np.asarray([st.add(x) for x in r.member_roles], dtype=np.int64)
        types = np.asarray([tcode[t] for t in r.member_types], dtype=np.int64)
        rel = (
            _fv(1, r.osm_id)
            + _packed(2, np.asarray(ks, dtype=np.int64))
            + _packed(3, np.asarray(vs, dtype=np.int64))
            + _ld(4, _info(r.v, r.ts // 1000, r.cs, r.uid, st.add(r.user), r.visible))
            + _packed(8, roles)
            + _packed(9, np.diff(mem, prepend=np.int64(0)), zz=True)
            + _packed(10, types)
        )
        out += _ld(4, rel)
    return out


def encode_primitive_block(
    rows: pd.DataFrame,
    granularity: int = 100,
    date_granularity: int = 1,
    lat_offset: int = 0,
    lon_offset: int = 0,
    dense: bool = True,
) -> bytes:
    """One PrimitiveBlock from flat per-version rows (columns: etype,
    osm_id, v, ts[µs], cs, uid, user, visible, lon_e7, lat_e7, tag_k,
    tag_v, refs, member_ids/roles/types). Nodes/ways/relations each go
    into their own PrimitiveGroup (the spec requires one element type
    per group). granularity must evenly represent the e7 coords
    (default 100 nanodeg == e7 exactly); date_granularity=1 stores
    whole milliseconds."""
    if granularity != 100 or lat_offset or lon_offset:
        raise NotImplementedError(
            "writer pins granularity=100 / zero offsets (e7-exact); "
            "the READER handles arbitrary values"
        )
    st = _StringTable()
    groups = b""
    nodes = rows[rows["etype"] == "node"]
    if len(nodes):
        groups += _ld(2, _encode_dense(st, nodes) if dense else _encode_plain_nodes(st, nodes))
    ways = rows[rows["etype"] == "way"]
    if len(ways):
        groups += _ld(2, _encode_ways(st, ways))
    rels = rows[rows["etype"] == "relation"]
    if len(rels):
        groups += _ld(2, _encode_relations(st, rels))
    block = st.encode() + groups
    # granularity != 100 raises NotImplementedError above, so field 17
    # (non-default granularity) is never emitted; readers default to 100
    block += _fv(18, date_granularity)
    return block


def _header_block(history: bool) -> bytes:
    feats = ["OsmSchema-V0.6", "DenseNodes"] + (["HistoricalInformation"] if history else [])
    return b"".join(_ld(4, f.encode()) for f in feats) + _ld(16, b"rayhist")


def _frame_blob(btype: str, payload: bytes, compress: bool = True) -> bytes:
    if len(payload) > MAX_BLOB:
        raise ValueError("Blob exceeds the 32 MiB spec limit — shrink the block")
    blob = _fv(2, len(payload)) + (
        _ld(3, zlib.compress(payload)) if compress else _ld(1, payload)
    )
    header = _ld(1, btype.encode()) + _fv(3, len(blob))
    return struct.pack(">i", len(header)) + header + blob


def write_osmpbf(
    path: str,
    rows: pd.DataFrame,
    block_elems: int = 8000,
    history: bool = True,
    dense: bool = True,
    compress: bool = True,
) -> str:
    """Write flat per-version rows as one .osm.pbf/.osh.pbf file.
    Blocks split on ENTITY boundaries (never mid-history) near
    block_elems rows — the reference's reader merges split runs
    (OshMerger.java), ours doesn't need to because the documents
    bridge regroups by id anyway."""
    order = {"node": 0, "way": 1, "relation": 2}
    rows = rows.sort_values(
        ["etype", "osm_id", "v"],
        key=lambda c: c.map(order) if c.name == "etype" else c,
        kind="mergesort",
    ).reset_index(drop=True)
    ent_key = (rows["etype"].astype(str) + "/" + rows["osm_id"].astype(str)).to_numpy()
    new_ent = np.r_[True, ent_key[1:] != ent_key[:-1]]
    ent_of_row = np.cumsum(new_ent) - 1
    with open(path, "wb") as f:
        f.write(_frame_blob("OSMHeader", _header_block(history), compress))
        start = 0
        while start < len(rows):
            end = start + block_elems
            if end < len(rows):
                # extend to the current entity's last row
                e = ent_of_row[end - 1]
                end = int(np.searchsorted(ent_of_row, e, side="right"))
            chunk = rows.iloc[start:end]
            f.write(
                _frame_blob(
                    "OSMData", encode_primitive_block(chunk, dense=dense), compress
                )
            )
            start = end
    return path


# ------------------------------------------------------------ decoder
def scan_blobs(path: str) -> list[dict]:
    """Header-only blob index: [{path, type, offset, size}] where
    offset/size frame the Blob payload. Reads 4 bytes + the (tiny)
    BlobHeader per blob and SEEKS over payloads — the driver-side cost
    is O(blobs), not O(bytes)."""
    out = []
    with open(path, "rb") as f:
        while True:
            lenb = f.read(4)
            if not lenb:
                break
            (hlen,) = struct.unpack(">i", lenb)
            if not 0 < hlen <= MAX_HEADER:
                raise ValueError(f"BlobHeader length {hlen} out of spec")
            hb = np.frombuffer(f.read(hlen), dtype=np.uint8)
            btype, datasize = "", -1
            for fno, wt, a, b in _fields(hb, 0, hlen):
                if fno == 1 and wt == 2:
                    btype = bytes(hb[a:b]).decode()
                elif fno == 3 and wt == 0:
                    datasize = a
            if datasize < 0:
                raise ValueError("BlobHeader missing datasize")
            out.append(
                {"path": path, "type": btype, "offset": f.tell(), "size": datasize}
            )
            f.seek(datasize, 1)
    return out


def _blob_payload(raw: bytes) -> bytes:
    buf = np.frombuffer(raw, dtype=np.uint8)
    data, raw_size = None, None
    for fno, wt, a, b in _fields(buf, 0, len(buf)):
        if fno == 1 and wt == 2:
            data = bytes(buf[a:b])
        elif fno == 2 and wt == 0:
            raw_size = a
        elif fno == 3 and wt == 2:
            data = zlib.decompress(bytes(buf[a:b]))
        elif fno in (4, 5, 6, 7) and wt == 2:
            raise NotImplementedError(
                "only raw and zlib Blob encodings are supported "
                "(lzma/bzip2/lz4/zstd blob seen)"
            )
    if data is None:
        raise ValueError("Blob carries no data field")
    if raw_size is not None and len(data) != raw_size:
        raise ValueError("Blob raw_size mismatch")
    if len(data) > MAX_BLOB:
        raise ValueError("Blob exceeds the 32 MiB spec limit")
    return data


def check_header(payload: bytes) -> list[str]:
    """Parse HeaderBlock; loud-fail on unknown required features (the
    spec's forward-compat contract: a reader MUST reject files whose
    required features it doesn't implement)."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    feats = []
    for fno, wt, a, b in _fields(buf, 0, len(buf)):
        if fno == 4 and wt == 2:
            feats.append(bytes(buf[a:b]).decode())
    unknown = [f for f in feats if f not in SUPPORTED_FEATURES]
    if unknown:
        raise ValueError(f"unsupported required_features: {unknown}")
    return feats


def _decode_stringtable(buf, s, e) -> list[str]:
    return [bytes(buf[a:b]).decode() for fno, wt, a, b in _fields(buf, s, e) if fno == 1]


_EMPTY = {
    "etype": [], "osm_id": [], "v": [], "ts": [], "cs": [], "uid": [],
    "user": [], "visible": [], "lon_e7": [], "lat_e7": [],
    "tag_k": [], "tag_v": [], "refs": [], "member_ids": [],
    "member_roles": [], "member_types": [],
}


def _rows_schema() -> pa.Schema:
    return pa.schema(
        [
            ("etype", pa.string()),
            ("osm_id", pa.int64()),
            ("v", pa.int32()),
            ("ts", pa.int64()),
            ("cs", pa.int64()),
            ("uid", pa.int64()),
            ("user", pa.string()),
            ("visible", pa.bool_()),
            ("lon_e7", pa.int64()),
            ("lat_e7", pa.int64()),
            ("tag_k", pa.list_(pa.string())),
            ("tag_v", pa.list_(pa.string())),
            ("refs", pa.list_(pa.int64())),
            ("member_ids", pa.list_(pa.int64())),
            ("member_roles", pa.list_(pa.string())),
            ("member_types", pa.list_(pa.string())),
        ]
    )


def _empty_rows() -> pa.Table:
    return pa.table({k: pa.array(v) for k, v in _EMPTY.items()}, schema=_rows_schema())


class _Acc:
    """Column accumulator for decoded per-version rows."""

    def __init__(self):
        self.c = {k: [] for k in _EMPTY}

    def node(self, osm_id, v, ts_ms, cs, uid, user, vis, lon_e7, lat_e7, tk, tv):
        c = self.c
        c["etype"].append("node")
        c["osm_id"].append(osm_id)
        c["v"].append(v)
        c["ts"].append(ts_ms * 1000)
        c["cs"].append(cs)
        c["uid"].append(uid)
        c["user"].append(user)
        c["visible"].append(vis)
        c["lon_e7"].append(lon_e7)
        c["lat_e7"].append(lat_e7)
        c["tag_k"].append(tk)
        c["tag_v"].append(tv)
        c["refs"].append([])
        c["member_ids"].append([])
        c["member_roles"].append([])
        c["member_types"].append([])

    def compound(self, etype, osm_id, v, ts_ms, cs, uid, user, vis, tk, tv,
                 refs, mids, mroles, mtypes):
        c = self.c
        c["etype"].append(etype)
        c["osm_id"].append(osm_id)
        c["v"].append(v)
        c["ts"].append(ts_ms * 1000)
        c["cs"].append(cs)
        c["uid"].append(uid)
        c["user"].append(user)
        c["visible"].append(vis)
        c["lon_e7"].append(0)
        c["lat_e7"].append(0)
        c["tag_k"].append(tk)
        c["tag_v"].append(tv)
        c["refs"].append(refs)
        c["member_ids"].append(mids)
        c["member_roles"].append(mroles)
        c["member_types"].append(mtypes)

    def table(self) -> pa.Table:
        if not self.c["osm_id"]:
            return _empty_rows()
        return pa.table({k: pa.array(v) for k, v in self.c.items()}, schema=_rows_schema())


def _nano_to_e7(raw: np.ndarray, gran: int, offset: int) -> np.ndarray:
    nano = offset + gran * raw.astype(np.int64)
    e7 = nano // 100
    return e7


def _decode_info(buf, s, e, strings, date_gran):
    v = ts_ms = cs = uid = 0
    user, vis = "", True
    for fno, wt, a, b in _fields(buf, s, e):
        if fno == 1:
            v = a
        elif fno == 2:
            ts_ms = np.int64(np.uint64(a)) * date_gran
        elif fno == 3:
            cs = np.int64(np.uint64(a))
        elif fno == 4:
            uid = np.int64(np.uint64(a))
        elif fno == 5:
            user = strings[a]
        elif fno == 6:
            vis = bool(a)
    return v, int(ts_ms), int(cs), int(uid), user, vis


def _decode_dense(buf, s, e, strings, gran, lat_off, lon_off, date_gran, acc: _Acc):
    ids = lat = lon = kv = None
    ver = ts = cs = uid = usid = vis = None
    for fno, wt, a, b in _fields(buf, s, e):
        if fno == 1:
            ids = np.cumsum(_packed_s64(buf, a, b))
        elif fno == 5:
            for f2, w2, a2, b2 in _fields(buf, a, b):
                if f2 == 1:
                    ver = _packed_i64(buf, a2, b2)
                elif f2 == 2:
                    ts = np.cumsum(_packed_s64(buf, a2, b2))
                elif f2 == 3:
                    cs = np.cumsum(_packed_s64(buf, a2, b2))
                elif f2 == 4:
                    uid = np.cumsum(_packed_s64(buf, a2, b2))
                elif f2 == 5:
                    usid = np.cumsum(_packed_s64(buf, a2, b2))
                elif f2 == 6:
                    vis = _packed_i64(buf, a2, b2).astype(bool)
        elif fno == 8:
            lat = np.cumsum(_packed_s64(buf, a, b))
        elif fno == 9:
            lon = np.cumsum(_packed_s64(buf, a, b))
        elif fno == 10:
            kv = _packed_i64(buf, a, b)
    if ids is None:
        return
    n = len(ids)
    lat_e7 = _nano_to_e7(lat, gran, lat_off) if lat is not None else np.zeros(n, np.int64)
    lon_e7 = _nano_to_e7(lon, gran, lon_off) if lon is not None else np.zeros(n, np.int64)
    z = np.zeros(n, dtype=np.int64)
    ver = ver if ver is not None else z
    ts = (ts if ts is not None else z) * date_gran
    cs = cs if cs is not None else z
    uid = uid if uid is not None else z
    vis = vis if vis is not None else np.ones(n, dtype=bool)
    users = [strings[i] for i in (usid if usid is not None else z)]
    # keys_vals: runs terminated by 0; exactly one run per node
    if kv is not None and len(kv):
        zeros = np.flatnonzero(kv == 0)
        if len(zeros) != n:
            raise ValueError("keys_vals runs do not match node count")
        run_start = np.r_[0, zeros[:-1] + 1]
        tks, tvs = [], []
        for st_, en_ in zip(run_start, zeros):
            pairs = kv[st_:en_]
            tks.append([strings[i] for i in pairs[0::2]])
            tvs.append([strings[i] for i in pairs[1::2]])
    else:
        tks = [[]] * n
        tvs = [[]] * n
    # bulk column extend — no per-node Python loop for the scalars
    c = acc.c
    c["etype"].extend(["node"] * n)
    c["osm_id"].extend(ids.tolist())
    c["v"].extend(ver.tolist())
    c["ts"].extend((ts * 1000).tolist())
    c["cs"].extend(cs.tolist())
    c["uid"].extend(uid.tolist())
    c["user"].extend(users)
    c["visible"].extend(vis.tolist())
    c["lon_e7"].extend(lon_e7.tolist())
    c["lat_e7"].extend(lat_e7.tolist())
    c["tag_k"].extend(tks)
    c["tag_v"].extend(tvs)
    empty = [[]] * n
    c["refs"].extend(empty)
    c["member_ids"].extend(empty)
    c["member_roles"].extend(empty)
    c["member_types"].extend(empty)


def _decode_plain_node(buf, s, e, strings, gran, lat_off, lon_off, date_gran, acc: _Acc):
    osm_id = lat = lon = 0
    ks = vs = None
    info = (0, 0, 0, 0, "", True)
    for fno, wt, a, b in _fields(buf, s, e):
        if fno == 1:
            osm_id = int(_unzigzag(np.uint64(a)))
        elif fno == 2:
            ks = _packed_u64(buf, a, b)
        elif fno == 3:
            vs = _packed_u64(buf, a, b)
        elif fno == 4:
            info = _decode_info(buf, a, b, strings, date_gran)
        elif fno == 8:
            lat = int(_unzigzag(np.uint64(a)))
        elif fno == 9:
            lon = int(_unzigzag(np.uint64(a)))
    v, ts_ms, cs, uid, user, vis = info
    acc.node(
        osm_id, v, ts_ms, cs, uid, user, vis,
        int(_nano_to_e7(np.array([lon]), gran, lon_off)[0]),
        int(_nano_to_e7(np.array([lat]), gran, lat_off)[0]),
        [strings[i] for i in (ks if ks is not None else [])],
        [strings[i] for i in (vs if vs is not None else [])],
    )


def _decode_way(buf, s, e, strings, date_gran, acc: _Acc):
    osm_id = 0
    ks = vs = refs = None
    info = (0, 0, 0, 0, "", True)
    for fno, wt, a, b in _fields(buf, s, e):
        if fno == 1:
            osm_id = int(np.int64(np.uint64(a)))
        elif fno == 2:
            ks = _packed_u64(buf, a, b)
        elif fno == 3:
            vs = _packed_u64(buf, a, b)
        elif fno == 4:
            info = _decode_info(buf, a, b, strings, date_gran)
        elif fno == 8:
            refs = np.cumsum(_packed_s64(buf, a, b))
    v, ts_ms, cs, uid, user, vis = info
    acc.compound(
        "way", osm_id, v, ts_ms, cs, uid, user, vis,
        [strings[i] for i in (ks if ks is not None else [])],
        [strings[i] for i in (vs if vs is not None else [])],
        ([] if refs is None else [int(x) for x in refs]), [], [], [],
    )


def _decode_relation(buf, s, e, strings, date_gran, acc: _Acc):
    osm_id = 0
    ks = vs = roles = mids = types = None
    info = (0, 0, 0, 0, "", True)
    for fno, wt, a, b in _fields(buf, s, e):
        if fno == 1:
            osm_id = int(np.int64(np.uint64(a)))
        elif fno == 2:
            ks = _packed_u64(buf, a, b)
        elif fno == 3:
            vs = _packed_u64(buf, a, b)
        elif fno == 4:
            info = _decode_info(buf, a, b, strings, date_gran)
        elif fno == 8:
            roles = _packed_u64(buf, a, b)
        elif fno == 9:
            mids = np.cumsum(_packed_s64(buf, a, b))
        elif fno == 10:
            types = _packed_u64(buf, a, b)
    v, ts_ms, cs, uid, user, vis = info
    acc.compound(
        "relation", osm_id, v, ts_ms, cs, uid, user, vis,
        [strings[i] for i in (ks if ks is not None else [])],
        [strings[i] for i in (vs if vs is not None else [])],
        [],
        ([] if mids is None else [int(x) for x in mids]),
        [strings[i] for i in (roles if roles is not None else [])],
        [str(x) for x in _MEMBER_TYPES[types]] if types is not None else [],
    )


def decode_primitive_block(payload: bytes) -> pa.Table:
    """One PrimitiveBlock -> flat per-version rows (engine units:
    e7 coords, µs timestamps)."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    gran, date_gran = 100, 1000
    lat_off = lon_off = 0
    strings: list[str] = []
    groups: list[tuple[int, int]] = []
    for fno, wt, a, b in _fields(buf, 0, len(buf)):
        if fno == 1 and wt == 2:
            strings = _decode_stringtable(buf, a, b)
        elif fno == 2 and wt == 2:
            groups.append((a, b))
        elif fno == 17:
            gran = a
        elif fno == 18:
            date_gran = a
        elif fno == 19:
            lat_off = np.int64(np.uint64(a))
        elif fno == 20:
            lon_off = np.int64(np.uint64(a))
    acc = _Acc()
    for gs, ge in groups:
        for fno, wt, a, b in _fields(buf, gs, ge):
            if fno == 1:
                _decode_plain_node(buf, a, b, strings, gran, lat_off, lon_off, date_gran, acc)
            elif fno == 2:
                _decode_dense(buf, a, b, strings, gran, lat_off, lon_off, date_gran, acc)
            elif fno == 3:
                _decode_way(buf, a, b, strings, date_gran, acc)
            elif fno == 4:
                _decode_relation(buf, a, b, strings, date_gran, acc)
    return acc.table()


# ----------------------------------------------------------- pipeline
def _blob_index(paths: str | list[str]) -> list[dict]:
    """Driver-side header-only blob scan: validates every OSMHeader,
    returns the OSMData blob descriptors (path/offset/size)."""
    if isinstance(paths, str):
        p = Path(paths)
        paths = sorted(str(x) for x in p.iterdir()) if p.is_dir() else [paths]
    index: list[dict] = []
    for path in paths:
        blobs = scan_blobs(path)
        for bl in blobs:
            if bl["type"] == "OSMHeader":
                with open(path, "rb") as f:
                    f.seek(bl["offset"])
                    check_header(_blob_payload(f.read(bl["size"])))
            elif bl["type"] == "OSMData":
                index.append(bl)
            # unknown blob types are skipped per spec
    return index


def _decode_blocks(index: list[dict]) -> ray.data.Dataset:
    """from_items(blob index) -> map_batches(range-read + decode),
    with the io.auto_num_blocks sizing philosophy applied to BLOBS:
    one decode task per ~64 MB of compressed input, a cpu-count fan
    -out only when there is >= 1 MB of work per task, and never more
    tasks than blobs. Ray's from_items default would otherwise make
    one block per blob — hundreds of sub-ms tasks on a small fixture
    set (measured 6 s -> sub-second for 150 x 1.7 KB files)."""
    if not index:
        return ray.data.from_arrow(_empty_rows())
    total = sum(bl["size"] for bl in index)
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 8)
    except Exception:
        ncpu = os.cpu_count() or 8
    nb = min(
        len(index),
        max(min(ncpu, -(-total // (1 << 20))), -(-total // (64 << 20))),
    )

    def decode(batch: pa.Table) -> pa.Table:
        tables = []
        for path, off, size in zip(
            batch["path"].to_pylist(), batch["offset"].to_pylist(), batch["size"].to_pylist()
        ):
            with open(path, "rb") as f:
                f.seek(off)
                raw = f.read(size)
            tables.append(decode_primitive_block(_blob_payload(raw)))
        return pa.concat_tables(tables) if tables else _empty_rows()

    return ray.data.from_items(index, override_num_blocks=max(1, nb)).map_batches(
        decode, batch_format="pyarrow"
    )


def read_osmpbf(paths: str | list[str]) -> ray.data.Dataset:
    """Parallel .osm.pbf read: header-only blob scan on the driver,
    then byte-sized decode fan-out (_decode_blocks). Accepts a file,
    a list of files, or a directory of .pbf files."""
    return _decode_blocks(_blob_index(paths))


def _pack_node_group(g: pd.DataFrame, keytable: dict[str, int] | None) -> pa.Table:
    """One id-bucket of decoded node rows -> span documents (regroups
    across block boundaries, so split histories are safe). A bucket
    with no node rows packs to the typed empty documents table."""
    if g.empty:
        return DOCUMENTS_SCHEMA.empty_table()
    g = g.sort_values(["osm_id", "v"], kind="mergesort")
    osm = g["osm_id"].to_numpy(dtype=np.int64)
    vis = g["visible"].to_numpy(dtype=bool)
    lon = g["lon_e7"].to_numpy(dtype=np.int64)
    lat = g["lat_e7"].to_numpy(dtype=np.int64)
    tags = [
        tuple((k if v == "" else f"{k}={v}") for k, v in zip(tk, tv))
        for tk, tv in zip(g["tag_k"], g["tag_v"])
    ]
    first = np.r_[True, osm[1:] != osm[:-1]]
    ent_ids = osm[first]
    ent_nv = np.diff(np.r_[np.flatnonzero(first), len(osm)]).astype(np.int32)
    d = np.cumsum(first) - 1
    big = np.int64(np.iinfo(np.int64).max)
    bb = pd.DataFrame(
        {
            "d": d,
            "lon": np.where(vis, lon, big), "lon2": np.where(vis, lon, -big - 1),
            "lat": np.where(vis, lat, big), "lat2": np.where(vis, lat, -big - 1),
            "v": vis.astype(np.int64),
        }
    ).groupby("d").agg(
        mn_lon=("lon", "min"), mx_lon=("lon2", "max"),
        mn_lat=("lat", "min"), mx_lat=("lat2", "max"), anyv=("v", "max"),
    )
    zero = bb["anyv"].to_numpy() == 0
    ent_bbox = []
    for i in range(len(ent_ids)):
        if zero[i]:
            ent_bbox.append((0, 0, 0, 0))
        else:
            r = bb.iloc[i]
            ent_bbox.append((int(r["mn_lon"]), int(r["mx_lon"]), int(r["mn_lat"]), int(r["mx_lat"])))
    return _pack_documents(
        osm,
        g["v"].to_numpy(dtype=np.int64),
        g["ts"].to_numpy(dtype=np.int64),
        g["cs"].to_numpy(dtype=np.int64),
        g["uid"].to_numpy(dtype=np.int64),
        vis, lon, lat, tags, ent_ids, ent_bbox, ent_nv, keytable,
    )


def osmpbf_documents(paths: str | list[str], keytable: dict[str, int] | None = None):
    """Full ingest bridge: .osm.pbf blobs -> decoded node versions ->
    DOCUMENTS_SCHEMA span documents, as the ``io.Blocks`` of one
    ``io.reduce_by_key`` on ``osm_id``, which merges histories split
    across block boundaries (the OshMerger.java:31-68 concern) and is
    the only shuffle; each bucket packs its complete entities. No node
    (an empty path list, a ways-only file) gives the typed empty
    documents table."""
    from .. import io as rio

    def nodes(b: pa.Table) -> pa.Table:
        return b.filter(pa.compute.equal(b["etype"], "node"))

    docs = rio.reduce_by_key(
        _decode_blocks(_blob_index(paths)), ["osm_id"],
        lambda t: _pack_node_group(t.to_pandas(), keytable), stage=nodes,
    )
    return docs if rio.num_rows(docs) else rio.table_blocks(DOCUMENTS_SCHEMA.empty_table())


def _fp() -> str:
    """Cache-key version suffix for this module's ensure_* fixtures:
    fingerprint of the wire codec (this module) + the span decoder —
    any edit forces a cold rebuild (io.code_fingerprint). Replaces the
    hand-bumped ':v1' that served round-4's stale-cache hash mismatch
    (osmpbf_relation_member_sums)."""
    import sys

    from .. import io as rio
    from .. import model

    return rio.code_fingerprint(sys.modules[__name__], model)


def _encode_bucketed(docs: ray.data.Dataset, key_col: str, partial, build_rows, out: str) -> None:
    """Distributed fixture encode: one ``io.reduce_by_key`` on
    ``key_col`` co-locates every per-batch ``partial`` of a key, so
    cross-shard combines happen inside the bucket task. Each non-empty
    bucket builds its rows and writes ONE self-contained .osh.pbf into
    ``out``, named by its smallest key — no corpus-cardinality driver
    materialization. Returns once every file is written: ``io.ensure``
    publishes ``out`` as soon as the build returns. The cache dir is
    assumed posix-shared across workers, the same assumption as the
    span cache (rayhist.io)."""
    from .. import io as rio

    def write_bucket(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"file": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        name = f"part-{pa.compute.min(t[key_col]).as_py():012d}.osh.pbf"
        rows = build_rows(t.to_pandas())
        write_osmpbf(os.path.join(out, name), rows)
        return pa.table({"file": [name], "n": [len(rows)]})

    ray.get(list(rio.reduce_by_key(docs, [key_col], write_bucket, stage=partial).refs))


def ensure_osmpbf_ways(sf_dir: str, rep: int = 1) -> str:
    """Materialize (once) a .osh.pbf file of WAY histories derived
    from the corpus with the ingest derivation (rayhist/ingest.py way
    docstring: way w = member nodes {5w..5w+4}; v1 at min member event
    ts, v2 at max+1 with w%3==0 deleted; tags etype=way / k=w%7(+1)).
    Fully distributed: the member (wid, ts) extraction is a per-batch
    partial, cross-shard combine + message build + encode happen per
    ``wid`` bucket (_encode_bucketed) — nothing corpus-cardinality
    reaches the driver."""
    from ..ingest import WAY_BLOCK, WAY_CS_BASE, ensure_documents
    from ..model import decode_spans

    from .. import io as rio

    def wid_ts(batch: pa.Table) -> pa.Table:
        d = decode_spans(batch, geom=False)
        ids = d["osm_id"].to_numpy(zero_copy_only=False)
        ts = d["ts"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"wid": ids // WAY_BLOCK, "ts": ts, "nid": ids})
        g = df.groupby("wid").agg(ts1=("ts", "min"), ts2=("ts", "max"))
        mem = df.drop_duplicates(["wid", "nid"]).groupby("wid")["nid"].agg(["min", "max", "count"])
        g = g.join(mem.rename(columns={"min": "m0", "max": "m1", "count": "nm"})).reset_index()
        # from arrays: pandas schema metadata is a dict, which Ray
        # cannot hash when it deduplicates block schemas
        return pa.table({c: g[c].to_numpy() for c in g.columns})

    def build(df: pd.DataFrame) -> pd.DataFrame:
        # combine shard partials (a way's members can straddle shards)
        w = df.groupby("wid").agg(
            ts1=("ts1", "min"), ts2=("ts2", "max"), m0=("m0", "min"), m1=("m1", "max")
        ).reset_index()
        rows = []
        for r in w.itertuples(index=False):
            wid = int(r.wid)
            members = list(range(int(r.m0), int(r.m1) + 1))
            vis2 = wid % 3 != 0
            base = {
                "etype": "way", "osm_id": wid, "user": f"u{wid % 37}",
                "lon_e7": 0, "lat_e7": 0, "refs": members,
                "member_ids": [], "member_roles": [], "member_types": [],
            }
            rows.append({**base, "v": 1, "ts": int(r.ts1), "cs": WAY_CS_BASE + wid * 1000 + 1,
                         "uid": wid % 37, "visible": True,
                         "tag_k": ["etype", "k"], "tag_v": ["way", str(wid % 7)]})
            rows.append({**base, "v": 2, "ts": int(r.ts2) + 1, "cs": WAY_CS_BASE + wid * 1000 + 2,
                         "uid": (wid + 1) % 37, "visible": vis2,
                         "tag_k": (["etype", "k"] if vis2 else []),
                         "tag_v": (["way", str(wid % 7 + 1)] if vis2 else []),
                         "user": f"u{(wid + 1) % 37}"})
        return pd.DataFrame(rows)

    def encode(staging: str) -> None:
        _encode_bucketed(rio.read_table(src), "wid", wid_ts, build, staging)

    src = ensure_documents(sf_dir, rep)
    return rio.ensure("osmpbf_ways", [], [src, _fp()], encode)  # src: see ensure_osmpbf


def ensure_osmpbf_relations(sf_dir: str, rep: int = 1) -> str:
    """Materialize (once) a .osh.pbf file of RELATION histories derived
    with the ingest derivation (rayhist/ingest.py _pack_rel_bucket:
    relation r = member ways {2r, 2r+1} (those observed), one version
    v=1 at rts = min member-way ts1, cs = REL_CS_BASE + r*1000 + 1,
    uid = r%37, tags etype=relation / k=r%7, way members with empty
    roles). Proves the PBF Relation message path — delta-coded memids,
    roles_sid (index 0 = empty role), member-type enum — under the
    value-exact oracle (oracles.osmpbf_relation_member_sums). Fully
    distributed like ensure_osmpbf_ways: per-batch (wid, ts1) partials
    route to ``rid`` buckets, combine + message build + encode per
    bucket (_encode_bucketed)."""
    from ..ingest import REL_CS_BASE, WAY_BLOCK, ensure_documents
    from ..model import decode_spans

    from .. import io as rio

    def wid_ts(batch: pa.Table) -> pa.Table:
        d = decode_spans(batch, geom=False)
        ids = d["osm_id"].to_numpy(zero_copy_only=False)
        ts = d["ts"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"wid": ids // WAY_BLOCK, "ts": ts})
        g = df.groupby("wid").agg(ts1=("ts", "min")).reset_index()
        g["rid"] = g["wid"] // 2  # the bucket key: a relation's ways co-locate
        return pa.table({c: g[c].to_numpy() for c in g.columns})  # as for the ways

    def build(df: pd.DataFrame) -> pd.DataFrame:
        w = df.groupby("wid", as_index=False).agg(
            rid=("rid", "first"), ts1=("ts1", "min")
        )
        rows = []
        for rid, g in w.groupby("rid"):
            members = sorted(int(x) for x in g["wid"])
            rows.append(
                {
                    "etype": "relation", "osm_id": int(rid), "v": 1,
                    "ts": int(g["ts1"].min()),
                    "cs": REL_CS_BASE + int(rid) * 1000 + 1,
                    "uid": int(rid) % 37, "user": f"u{int(rid) % 37}",
                    "visible": True, "lon_e7": 0, "lat_e7": 0,
                    "tag_k": ["etype", "k"], "tag_v": ["relation", str(int(rid) % 7)],
                    "refs": [], "member_ids": members,
                    "member_roles": [""] * len(members),
                    "member_types": ["way"] * len(members),
                }
            )
        return pd.DataFrame(rows)

    def encode(staging: str) -> None:
        _encode_bucketed(rio.read_table(src), "rid", wid_ts, build, staging)

    src = ensure_documents(sf_dir, rep)
    return rio.ensure("osmpbf_rels", [], [src, _fp()], encode)  # src: see ensure_osmpbf


# --------------------------------------------------------- corpus I/O
def ensure_osmpbf(sf_dir: str, rep: int = 1) -> str:
    """Materialize (once) the .osh.pbf-encoded corpus of sf_dir's node
    documents — ms-truncated timestamps (the wire format's resolution;
    oracles.DERIVE_MS mirrors the truncation). Workers each write one
    self-contained pbf file per document-cache shard, its tags decoded
    through the signature keytable (no span text is read); the reader
    treats the directory as one logical file set."""
    from ..ingest import ensure_documents, sig_keytable
    from ..model import DECODE_COLUMNS, decode_spans, tag_lookup

    from .. import io as rio

    def write_file(batch: pa.Table, staging: str, lookup) -> pa.Table:
        vers = decode_spans(batch, lookup).to_pandas()
        vers["ts"] = (vers["ts"] // 1000) * 1000  # wire = whole ms
        tag_k, tag_v = [], []
        for sig in vers["tag_sig"]:
            ks, vs = [], []
            for t in (sig.split("|") if sig else []):
                k, _, v = t.partition("=")
                ks.append(k)
                vs.append(v)
            tag_k.append(ks)
            tag_v.append(vs)
        vers["tag_k"] = tag_k
        vers["tag_v"] = tag_v
        vers["etype"] = "node"
        vers["user"] = "u" + vers["uid"].astype(str)
        name = f"part-{int(vers['osm_id'].min()):012d}.osh.pbf"
        write_osmpbf(os.path.join(staging, name), vers)
        return pa.table({"file": pa.array([name])})

    def encode(staging: str) -> None:
        lookup = tag_lookup(sig_keytable(sf_dir))
        manifest = rio.read_table(src, columns=DECODE_COLUMNS).map_batches(
            write_file, batch_format="pyarrow",
            fn_kwargs={"staging": staging, "lookup": lookup},
        ).to_pandas()
        assert len(manifest) > 0

    src = ensure_documents(sf_dir, rep)
    # src is a published (immutable) cache dir whose path already holds
    # its key: key on the path, not on a stat of each of its shards
    return rio.ensure("osmpbf", [], [src, _fp()], encode)
