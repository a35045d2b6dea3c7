"""Ingest: deterministic synthesis of the span-document table.

The reference ingests ``.osh.pbf`` via a 3-pass ETL (extract /
transform / load, ``oshdb-tool/etl/.../transform/Transform.java:57-92``)
that groups version records by entity id and packs per-entity
histories. This sandbox has no external OSM data, so the entity
histories are DERIVED DETERMINISTICALLY from the driver-provided
``events.parquet`` table (TESTDATA.md) with pure integer arithmetic —
the exact same derivation is expressible in ANSI SQL, which is what
makes the DuckDB oracles in ``__ray_entry__.py`` possible.

Derivation (one 'node' document per ``user_id``; all integer-exact):

    versions   = events of the user ordered by (ts, event_id); v = 1..n
    ts         = epoch microseconds of the event (int64)
    visible    = event_type != 'error'          (tombstone convention;
                 reference: version<=0 means deleted, OSMEntity.java:25)
    cs         = user_id * 1_000_000 + (v-1) // 3   (3 consecutive
                 versions share a changeset -> exercises the changeset
                 collapse of OSHEntities.getChangesetTimestamps)
    uid        = round(value * 100) % 37            (contributor id)
    tags       = etype={event_type}, k={props.k}    (sorted by key)
    gv         = (v+1) // 2    (coords change only every 2nd version ->
                 mixes GEOMETRY_CHANGE with pure TAG_CHANGE contribs)
    lon_e7     = (user_id*982_451_653 + gv*373_587_883 + kk*15_485_863)
                   % 3_600_000_000 - 1_800_000_000
    lat_e7     = (user_id*472_882_027 + gv*198_491_317 + kk*32_452_843)
                   % 1_800_000_000 - 900_000_000
    (multipliers are large so coordinates spread over the whole globe;
    all products stay well inside int64)

The ingest pipeline itself is the Ray-Data analog of the reference's
Transform pass: ``read -> io.reduce_by_key(osm_id or parent id,
stage=derive, reduce=pack spans)`` — the reduce_by_key is the one
ingest shuffle (reference: sort-by-id merge, ``Transformer.java:139-260``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from . import io as rio
from . import members as _members
from .model import (
    CHILD_TYPES,
    COMPOUND_SCHEMA,
    DOCUMENTS_SCHEMA,
    LAT_MOD,
    LON_MOD,
    format_version_text,
    pack_child_id,
    pack_version_columns,
)
from .ops import relational


def _fp(*extra) -> str:
    """Cache-key version suffix: fingerprint of THIS module + model +
    ops.relational (derive_version_columns rounds uid through its
    round_half_away) + any extra generating modules — see
    io.code_fingerprint. Replaces the hand-bumped ':vN' strings
    (round-4 stale-cache hazard)."""
    import sys

    from . import model

    return rio.code_fingerprint(sys.modules[__name__], model, relational, *extra)


# span-document cache shard size (docs per parquet file): ~67 versions
# per doc in the synthetic corpus -> ~3-4 MB shards. A shard is written
# as ONE row group, and Ray's parquet reader yields one block per row
# group, so a shard is exactly one call of every fused map_batches
# stage that reads the table.
DOC_SHARD_ROWS = 1500

# ------------------------------------------------------- sig keytable
#
# The int-keytable analog of the reference's Extract pass
# (Extract.java:58-409) at SIGNATURE granularity: every distinct tag
# signature ("etype=X|k=N") gets a small int id, frequency-ordered so
# hot signatures take small ids (data-model.md:29-34). All TagFilter
# predicates are pure functions of the signature, so filtering on the
# per-version sig id is exactly the reference's sorted-int-array scan
# (osm/OSMEntity.java:29,97-152): versions compare small ints, never
# strings. Queries read tag strings only through this keytable
# (model.tag_lookup); the tag spans are what the node table stores.

_SIG_KT_MEM: dict[tuple, list[str]] = {}


def sig_keytable(sf_dir: str) -> list[str]:
    """Frequency-ordered signature keytable; index in the list = id.

    Built once per events file with a distributed count (the partials
    are |distinct sigs| x |batches| — tiny, the signature universe is
    bounded by |etype| x |k|), cached on disk (``io.ensure``) and
    in-process, both keyed on the events file's stat identity.
    Broadcast to the pack/filter stages by closure capture (small); a
    large keytable would go through ``ray.put`` instead.
    """
    import pyarrow.parquet as pq

    src = (Path(sf_dir) / "events.parquet").resolve()
    memkey = rio._stat_identity(src)
    if memkey in _SIG_KT_MEM:
        return _SIG_KT_MEM[memkey]

    def build(staging: str) -> None:
        ev = rio.read_table(str(src), columns=["event_type", "props"])

        def stage(batch: pa.Table) -> pa.Table:
            etype = batch["event_type"].to_pylist()
            kk = [json.loads(p)["k"] for p in batch["props"].to_pylist()]
            sig = pa.array([f"etype={e}|k={k}" for e, k in zip(etype, kk)])
            g = pa.TableGroupBy(pa.table({"sig": sig}), ["sig"]).aggregate([([], "count_all")])
            return g.rename_columns(["sig", "n_part"])

        parts = ev.map_batches(stage, batch_format="pyarrow").to_pandas()
        agg = parts.groupby("sig", as_index=False)["n_part"].sum()
        agg = agg.sort_values(["n_part", "sig"], ascending=[False, True], kind="mergesort")
        sig = pa.array(agg["sig"].to_numpy(), type=pa.string())
        pq.write_table(pa.table({"sig": sig}), os.path.join(staging, "sig_keytable.parquet"))

    out = rio.ensure("sig_keytable", [src], [_fp()], build)
    sigs = pq.read_table(os.path.join(out, "sig_keytable.parquet"))["sig"].to_pylist()
    _SIG_KT_MEM[memkey] = sigs
    return sigs


def derive_version_columns(batch: pa.Table) -> pa.Table:
    """Vectorized derivation of per-version fields from raw events.

    Stateless map_batches stage; ``v`` (the per-entity version number)
    is assigned later, after the group-by-entity shuffle, because it
    needs the full ordered history of each entity.
    """
    user = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)  # us
    etype = batch["event_type"].to_pylist()
    value = batch["value"].to_numpy(zero_copy_only=False)
    props = batch["props"].to_pylist()
    kk = np.array([json.loads(p)["k"] for p in props], dtype=np.int64)
    # np.fmod keeps the dividend's sign like SQL's % (numpy's % does
    # not); identical for the current non-negative values, pinned for
    # any future corpus with negatives
    uid = np.fmod(relational.round_half_away(value * 100).astype(np.int64), 37)
    visible = np.array([e != "error" for e in etype], dtype=bool)
    return pa.table(
        {
            "osm_id": pa.array(user),
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts": pa.array(ts),
            "uid": pa.array(uid),
            "visible": pa.array(visible),
            "etype": pa.array(etype, type=pa.string()),
            "kk": pa.array(kk),
        }
    )


def coords_for(osm_id: np.ndarray, v: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic fixed-point coordinates (int64-exact, SQL-mirrorable)."""
    gv = (v + 1) // 2
    lon = (osm_id * 982451653 + gv * 373587883 + kk * 15485863) % LON_MOD - LON_MOD // 2
    lat = (osm_id * 472882027 + gv * 198491317 + kk * 32452843) % LAT_MOD - LAT_MOD // 2
    return lon.astype(np.int64), lat.astype(np.int64)


def _pack_bucket(group: pd.DataFrame, keytable: dict[str, int] | None = None) -> pa.Table:
    """Pack a bucket of COMPLETE entity histories into span-document
    rows, fully vectorized. ``keytable`` (sig -> small int) fills the
    per-version ``tag_ids`` column — the int-keytable storage analog
    (osm/OSMEntity.java:29); missing/unknown sigs pack -1.

    Mirrors the reference's history packing (delta-encode per entity,
    ``impl/osh/OSHNodeImpl.java:197-275``) with spans instead of a
    varint blob. Span layout per FIXTURES.md: version span, tag spans
    sorted by key ('etype' < 'k'), geom span when visible; ``offset``
    is the per-document total order, versions oldest -> newest.

    Called once per hash bucket (many entities per call) — the
    vectorized alternative to per-entity ``map_groups``, which is
    1000x more Python calls at bench scale.
    """
    g = group.sort_values(["osm_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    osm = g["osm_id"].to_numpy()
    n = len(g)
    doc_start = np.r_[True, osm[1:] != osm[:-1]]
    # per-entity version numbers: global cumcount minus the doc start's
    start_idx = np.maximum.accumulate(np.where(doc_start, np.arange(n), 0))
    v = np.arange(n) - start_idx + 1
    ts = g["ts"].to_numpy()
    uid = g["uid"].to_numpy()
    vis = g["visible"].to_numpy()
    kk = g["kk"].to_numpy()
    cs = osm * 1_000_000 + (v - 1) // 3
    lon, lat = coords_for(osm, v, kk)

    s = pd.Series  # vectorized string building
    vs, tss, css, uids = s(v).astype(str), s(ts).astype(str), s(cs).astype(str), s(uid).astype(str)
    ver_text = ("v=" + vs + ";ts=" + tss + ";cs=" + css + ";uid=" + uids
                + ";vis=" + s(vis.astype(np.int64)).astype(str)).to_numpy()
    tag1 = ("etype=" + g["etype"]).to_numpy()
    tag2 = ("k=" + s(kk).astype(str)).to_numpy()
    geom_ref = ("geom:v=" + vs + ";lon=" + s(lon).astype(str) + ";lat=" + s(lat).astype(str)).to_numpy()

    # interleave spans: slots 0=version 1=tag1 2=tag2 3=geom(if visible)
    n_slots = 3 + vis.astype(np.int64)
    total = int(n_slots.sum())
    ver_of_span = np.repeat(np.arange(n), n_slots)
    span_end = np.cumsum(n_slots)
    slot = np.arange(total) - np.repeat(span_end - n_slots, n_slots)
    kinds = np.array(["version", "tag", "tag", "geom"], dtype=object)[slot]
    texts = np.empty(total, dtype=object)
    refs = np.full(total, "", dtype=object)
    texts[slot == 0] = ver_text[ver_of_span[slot == 0]]
    texts[slot == 1] = tag1[ver_of_span[slot == 1]]
    texts[slot == 2] = tag2[ver_of_span[slot == 2]]
    texts[slot == 3] = ""
    refs[slot == 3] = geom_ref[ver_of_span[slot == 3]]

    # per-document span offsets
    doc_of_span = np.repeat(start_idx, n_slots)  # doc key = start row idx
    doc_first_span = np.r_[True, doc_of_span[1:] != doc_of_span[:-1]]
    doc_span_start = np.maximum.accumulate(np.where(doc_first_span, np.arange(total), 0))
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
    assert total < 2**31, "bucket span total exceeds int32 offsets"
    list_offsets = np.r_[np.flatnonzero(doc_first_span), total].astype(np.int32)
    spans_col = pa.ListArray.from_arrays(pa.array(list_offsets), spans_flat)

    # per-document scalars
    docs_idx = np.flatnonzero(doc_start)
    doc_ids = osm[docs_idx]
    n_versions = np.diff(np.r_[docs_idx, n]).astype(np.int32)

    # per-version keytable ids, one list per doc (aligned with versions)
    if keytable is not None:
        sig = ("etype=" + g["etype"] + "|k=" + s(kk).astype(str))
        tid = sig.map(keytable).fillna(-1).to_numpy().astype(np.int32)
    else:
        tid = np.full(n, -1, dtype=np.int32)
    bb = pd.DataFrame(
        {
            "d": np.repeat(np.arange(len(docs_idx)), n_versions),
            "lon": np.where(vis, lon, np.int64(np.iinfo(np.int64).max)),
            "lon2": np.where(vis, lon, np.int64(np.iinfo(np.int64).min)),
            "lat": np.where(vis, lat, np.int64(np.iinfo(np.int64).max)),
            "lat2": np.where(vis, lat, np.int64(np.iinfo(np.int64).min)),
            "v": vis.astype(np.int64),
        }
    ).groupby("d").agg(mn_lon=("lon", "min"), mx_lon=("lon2", "max"),
                       mn_lat=("lat", "min"), mx_lat=("lat2", "max"), anyv=("v", "max"))
    zero = bb["anyv"].to_numpy() == 0
    for c in ("mn_lon", "mx_lon", "mn_lat", "mx_lat"):
        arr = bb[c].to_numpy().copy()
        arr[zero] = 0
        bb[c] = arr

    return pa.table(
        {
            "doc_id": pa.array(["node/" + str(i) for i in doc_ids], type=pa.string()),
            "osm_type": pa.array(np.full(len(doc_ids), "node", dtype=object), type=pa.string()),
            "osm_id": pa.array(doc_ids),
            "n_versions": pa.array(n_versions, type=pa.int32()),
            "min_lon_e7": pa.array(bb["mn_lon"].to_numpy()),
            "max_lon_e7": pa.array(bb["mx_lon"].to_numpy()),
            "min_lat_e7": pa.array(bb["mn_lat"].to_numpy()),
            "max_lat_e7": pa.array(bb["mx_lat"].to_numpy()),
            "spans": spans_col,
            # the same ints the version/geom spans format, stored typed
            **pack_version_columns(
                n_versions, v=v, ts=ts, cs=cs, uid=uid, visible=vis,
                lon_e7=lon, lat_e7=lat, tag_ids=tid,
            ),
        },
        schema=DOCUMENTS_SCHEMA,
    )


REP_STRIDE = 10_000_000  # replica r gets osm_id + r * REP_STRIDE

# ------------------------------------------------- compound documents
#
# Way, relation and old-style documents denormalize their members'
# full histories (the reference's data-model.md:20-22 strategy) and
# carry the typed compound columns (model.COMPOUND_SCHEMA). Their tag
# signatures and roles are ids of a table-wide keytable
# (compound_keytable), as the reference keeps tags and roles as
# keytable ints (osm/OSMEntity.java:29, osm/OSMMember.java:12-27).

KEYTABLE_META = b"rayhist.keytable"  # a pack bucket's own keytable
KEYTABLE_FILE = "_keytable.json"  # a compound table's keytable (readers skip "_" files)


class _Keytable:
    """The tag-signature and role ids of one pack bucket (all the
    replicas it packs). A signature is the tag dict (keep-last per key)
    as (key, value) pairs sorted by key; ids count up in first-seen
    order."""

    def __init__(self):
        self.sigs: dict[tuple, int] = {}
        self.roles: dict[str, int] = {}

    def tags(self, pairs) -> int:
        return self.sigs.setdefault(tuple(sorted(dict(pairs).items())), len(self.sigs))

    def role(self, role: str) -> int:
        return self.roles.setdefault(role, len(self.roles))

    def metadata(self) -> dict[bytes, str]:
        return {KEYTABLE_META: json.dumps({"tags": list(self.sigs), "roles": list(self.roles)})}


def _node_children(group: pd.DataFrame) -> dict[str, np.ndarray]:
    """The node versions of a compound pack bucket, derived as
    ``_pack_bucket`` derives them (sorted by osm_id, ts, event_id), with
    their child span stream: a ``child=node/<id>;`` version span, then a
    geom span when visible. ``span_at[i]`` is version i's first span."""
    g = group.sort_values(["osm_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    osm = g["osm_id"].to_numpy()
    n = len(g)
    node_start = np.r_[True, osm[1:] != osm[:-1]]
    start_idx = np.maximum.accumulate(np.where(node_start, np.arange(n), 0))
    v = np.arange(n) - start_idx + 1
    ts, uid, vis, kk = (g[c].to_numpy() for c in ("ts", "uid", "visible", "kk"))
    cs = osm * 1_000_000 + (v - 1) // 3
    lon, lat = coords_for(osm, v, kk)

    s = pd.Series
    vs, ids = s(v).astype(str), s(osm).astype(str)
    ver_text = ("child=node/" + ids + ";v=" + vs + ";ts=" + s(ts).astype(str) + ";cs="
                + s(cs).astype(str) + ";uid=" + s(uid).astype(str) + ";vis="
                + s(vis.astype(np.int64)).astype(str)).to_numpy()
    geom_ref = ("geom:child=node/" + ids + ";v=" + vs + ";lon=" + s(lon).astype(str)
                + ";lat=" + s(lat).astype(str)).to_numpy()
    n_slots = 1 + vis.astype(np.int64)
    of_span = np.repeat(np.arange(n), n_slots)
    geom = np.arange(len(of_span)) - np.repeat(np.cumsum(n_slots) - n_slots, n_slots) == 1
    return {
        "osm": osm, "node_start": node_start, "v": v, "ts": ts, "cs": cs, "uid": uid,
        "vis": vis, "lon": lon, "lat": lat,
        "kinds": np.where(geom, "geom", "version").astype(object),
        "texts": np.where(geom, "", ver_text[of_span]).astype(object),
        "refs": np.where(geom, geom_ref[of_span], "").astype(object),
        "span_at": np.r_[0, np.cumsum(n_slots)],
    }


def _runs(key: np.ndarray) -> list[tuple[int, int, int]]:
    """(key, first row, end row) of every run of equal ``key``."""
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else np.array([], int)
    ends = np.r_[starts[1:], len(key)]
    return [(int(key[a]), int(a), int(b)) for a, b in zip(starts, ends)]


class _CompoundDocs:
    """The compound documents of one pack bucket, built in span order.

    A document is its header, then its slice of the bucket's node-child
    histories (``end``). The header is the parent's own versions and
    any way children (``version``), each version span followed by its
    tag spans, then its member spans. ``table`` packs the spans and,
    through ``model.pack_version_columns``, the typed columns; tags and
    roles take ``keytable`` ids."""

    def __init__(self, nodes: dict[str, np.ndarray], keytable: _Keytable):
        self.nodes, self.kt = nodes, keytable
        self.docs: list[tuple] = []
        self.spans: list[tuple] = []  # header spans of the open document
        self.vers: list[tuple] = []  # its header version records
        self.mems: list[tuple] = []  # its member edges

    def version(self, v, ts, cs, uid, vis, *, tags=(), members=(), child=None) -> None:
        """One header version: ``child`` = (type, id) of a child version
        (None: the parent's own), ``tags`` = (key, value) pairs in span
        order, ``members`` = (type, id, role) in ref order."""
        prefix = "" if child is None else f"child={child[0]}/{child[1]};"
        tags = tuple((str(k), str(val)) for k, val in tags)
        self.spans.append(("version", prefix + format_version_text(v, ts, cs, uid, int(vis))))
        self.spans += [("tag", f"{k}={val}") for k, val in tags]
        self.spans += [("member", f"{t}/{i}@role={r}") for t, i, r in members]
        ct, ci = (-1, -1) if child is None else (CHILD_TYPES.index(child[0]), child[1])
        self.mems += [(len(self.vers), CHILD_TYPES.index(t), i, self.kt.role(r))
                      for t, i, r in members]
        self.vers.append((v, ts, cs, uid, bool(vis), ct, ci, self.kt.tags(tags)))

    def end(self, osm_id: int, lo: int, hi: int) -> None:
        """Close the open document: its node children are the bucket's
        node versions [lo, hi)."""
        self.docs.append((osm_id, self.spans, self.vers, self.mems, lo, hi))
        self.spans, self.vers, self.mems = [], [], []

    def table(self, osm_type: str) -> pa.Table:
        nd = self.nodes
        no_tags = self.kt.tags(())
        hspans = [sp for d in self.docs for sp in d[1]]
        hvers = np.array([r for d in self.docs for r in d[2]], dtype=np.int64).reshape(-1, 8)
        mems = np.array([m for d in self.docs for m in d[3]], dtype=np.int64).reshape(-1, 4)
        n_h, n_hv, n_node = len(hspans), len(hvers), len(nd["v"])
        # gather orders over (header pool ++ node pool), document by document
        span_idx, ver_idx, span_n, ver_n = [], [], [], []
        h0 = hv0 = 0
        for _oid, sp, vr, _m, lo, hi in self.docs:
            s0, s1 = nd["span_at"][lo], nd["span_at"][hi]
            span_idx += [np.arange(h0, h0 + len(sp)), n_h + np.arange(s0, s1)]
            ver_idx += [np.arange(hv0, hv0 + len(vr)), n_hv + np.arange(lo, hi)]
            span_n.append(len(sp) + s1 - s0)
            ver_n.append(len(vr) + hi - lo)
            h0, hv0 = h0 + len(sp), hv0 + len(vr)
        cat = (lambda parts, dt: np.concatenate(parts).astype(dt) if parts else np.zeros(0, dt))
        span_idx, ver_idx = cat(span_idx, np.int64), cat(ver_idx, np.int64)
        span_n, ver_n = np.asarray(span_n, dtype=np.int64), np.asarray(ver_n, dtype=np.int64)

        hk, ht = (np.array([sp[j] for sp in hspans], dtype=object) for j in (0, 1))
        kinds = np.r_[hk, nd["kinds"]][span_idx]
        texts = np.r_[ht, nd["texts"]][span_idx]
        refs = np.r_[np.full(n_h, "", dtype=object), nd["refs"]][span_idx]
        # compound docs denormalize full child histories — a huge bucket
        # would silently wrap int32 ListArray offsets and corrupt the table
        assert len(kinds) < 2**31, "bucket span total exceeds int32 offsets"
        offsets = np.arange(len(kinds)) - np.repeat(np.cumsum(span_n) - span_n, span_n)
        spans_flat = pa.StructArray.from_arrays(
            [pa.array(kinds, type=pa.string()), pa.array(texts, type=pa.string()),
             pa.array(refs, type=pa.string()), pa.array(offsets, type=pa.int32())],
            names=["kind", "text", "media_ref", "offset"],
        )
        list_offsets = pa.array(np.r_[0, np.cumsum(span_n)].astype(np.int32))
        spans = pa.ListArray.from_arrays(list_offsets, spans_flat)

        def pool(j, node_col):  # header column j (None: 0) ++ node column, gathered
            head = hvers[:, j] if j is not None else np.zeros(n_hv, dtype=np.int64)
            return np.r_[head, node_col][ver_idx]

        node_child = pack_child_id(np.zeros(n_node, dtype=np.int64), nd["osm"])
        head_child = np.where(hvers[:, 5] < 0, -1, pack_child_id(np.maximum(hvers[:, 5], 0),
                                                                 np.maximum(hvers[:, 6], 0)))
        lists = pack_version_columns(
            ver_n, v=pool(0, nd["v"]), ts=pool(1, nd["ts"]), cs=pool(2, nd["cs"]),
            uid=pool(3, nd["uid"]), visible=pool(4, nd["vis"]).astype(bool),
            lon_e7=pool(None, nd["lon"]), lat_e7=pool(None, nd["lat"]),
            tag_ids=np.r_[hvers[:, 7], np.full(n_node, no_tags)][ver_idx],
            child=np.r_[head_child, node_child][ver_idx],
            members=([len(d[3]) for d in self.docs], mems[:, 0],
                     pack_child_id(mems[:, 1], mems[:, 2]), mems[:, 3]),
        )
        # bbox over every visible node version of the document
        bbox = np.zeros((len(self.docs), 4), dtype=np.int64)
        for i, (*_, lo, hi) in enumerate(self.docs):
            vis = nd["vis"][lo:hi]
            if vis.any():
                lon, lat = nd["lon"][lo:hi][vis], nd["lat"][lo:hi][vis]
                bbox[i] = lon.min(), lon.max(), lat.min(), lat.max()
        oid = np.array([d[0] for d in self.docs], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array([f"{osm_type}/{i}" for i in oid], type=pa.string()),
                "osm_type": pa.array([osm_type] * len(oid), type=pa.string()),
                "osm_id": pa.array(oid),
                "n_versions": pa.array([sum(r[5] < 0 for r in d[2]) for d in self.docs],
                                       type=pa.int32()),
                "min_lon_e7": pa.array(bbox[:, 0]),
                "max_lon_e7": pa.array(bbox[:, 1]),
                "min_lat_e7": pa.array(bbox[:, 2]),
                "max_lat_e7": pa.array(bbox[:, 3]),
                "spans": spans,
                **lists,
            },
            schema=COMPOUND_SCHEMA,
        )


# ------------------------------------------------------- way documents
#
# Compound (way) documents derive deterministically from the same
# events table, so the member-recursion semantics (rayhist.members_vec,
# mirroring OSHEntities.java:315-478) are DuckDB-oracle-checkable:
#
#   way w          : members = nodes {5w .. 5w+4}  (ascending, role "")
#   v1             : ts1 = min(member event ts), visible,
#                    tags etype=way, k=(w%7), cs = 2e9 + w*1000 + 1,
#                    uid = w % 37
#   v2             : ts2 = max(member event ts) + 1us;
#                    if w % 3 == 0 -> INVISIBLE (way deletion)
#                    else visible, tags etype=way, k=(w%7)+1
#                    cs = 2e9 + w*1000 + 2, uid = (w+1) % 37
#   children       : the member nodes' FULL histories, denormalized
#                    into the way document (the reference's
#                    data-model.md:20-22 strategy), identical fields to
#                    the node ingest derivation.
#
# Contribution timeline per way: CREATION at ts1, member-driven
# GEOMETRY_CHANGEs / empty-set contributions at node version
# timestamps (changeset-collapsed, parent changesets win), TAG_CHANGE
# or DELETION at ts2 — the IterateByContributionWaysTest scenario
# family, at corpus scale.

WAY_BLOCK = 5
WAY_CS_BASE = 2_000_000_000


def _way_versions(docs: _CompoundDocs, w: int, lo: int, hi: int, child: bool) -> None:
    """Way w's two versions over the bucket's node versions [lo, hi):
    the parent of a way document, or a child of a relation."""
    nd = docs.nodes
    ts1, ts2 = int(nd["ts"][lo:hi].min()), int(nd["ts"][lo:hi].max()) + 1
    vis2 = w % 3 != 0
    members = [("node", int(m), "") for m in np.unique(nd["osm"][lo:hi])]
    of = ("way", w) if child else None
    tags1 = () if child else (("etype", "way"), ("k", w % 7))
    tags2 = () if child or not vis2 else (("etype", "way"), ("k", w % 7 + 1))
    docs.version(1, ts1, WAY_CS_BASE + w * 1000 + 1, w % 37, True, tags=tags1, members=members,
                 child=of)
    docs.version(2, ts2, WAY_CS_BASE + w * 1000 + 2, (w + 1) % 37, vis2, tags=tags2,
                 members=members, child=of)


def _pack_way_bucket(group: pd.DataFrame, keytable: _Keytable) -> pa.Table:
    """Pack a bucket of COMPLETE way histories (all member-node events
    of each way) into compound documents (derivation above)."""
    nd = _node_children(group)
    docs = _CompoundDocs(nd, keytable)
    for w, lo, hi in _runs(nd["osm"] // WAY_BLOCK):
        _way_versions(docs, w, lo, hi, child=False)
        docs.end(w, lo, hi)
    return docs.table("way")


def _replicas(g: pd.DataFrame, rep: int):
    """rep-fold deterministic corpus amplification: replica r of an
    entity gets osm_id + r*REP_STRIDE. Base ids must stay below the
    stride — a collision would silently MERGE two distinct entities'
    histories into one document (interleaved versions, corrupt cs and
    coordinates), so the guard is loud."""
    hi = g["osm_id"].max()
    if rep > 1 and hi >= REP_STRIDE:
        raise ValueError(f"osm_id {hi} >= REP_STRIDE {REP_STRIDE}: replicas would collide")
    for r in range(rep):
        yield g.assign(osm_id=g["osm_id"] + r * REP_STRIDE)


def _build(sf_dir: str, rep: int, block: int, packer) -> ray.data.Dataset:
    """events.parquet -> span-document Dataset (the ingest pipeline).

    One ``io.reduce_by_key`` co-locates the versions of each packed
    entity: a node (``block`` 1, keyed by ``osm_id``) or a compound
    parent (keyed by its id ``osm_id // block``). Its stage derives the
    version columns; its reduce hands each bucket of complete histories
    to ``packer`` (pandas frame -> documents table), MANY entities a
    call, vectorized (per-entity calls would be 1000x the Python
    overhead at scale). A compound packer also takes the reduce call's
    ``_Keytable``, listed in the bucket's schema metadata
    (``_write_shards`` makes the ids table-wide).

    ``rep`` deterministically amplifies the corpus for benchmarks:
    replica r of an entity gets ``osm_id + r*REP_STRIDE`` — its
    coordinates (a function of osm_id) differ, so replicas spread over
    the grid like independent entities. rep=1 (the default, used by
    all correctness queries) is a byte-stable identity. Only the base
    rows are routed; the reduce packs the replicas of its bucket one
    at a time, so a pack call covers one replica of one bucket at any
    ``rep`` (routing the replicas would put the whole amplified corpus
    into the one bucket of a one-block read).
    """
    # a replica's parents are then the base parents shifted, so each
    # bucket holds every child of the parents it packs in every replica
    assert REP_STRIDE % block == 0, (REP_STRIDE, block)
    key = "osm_id" if block == 1 else "parent_id"

    def stage(batch: pa.Table) -> pa.Table:
        t = derive_version_columns(batch)
        if block == 1:
            return t
        return t.append_column(key, pa.array(t["osm_id"].to_numpy() // block))

    def reduce(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return (DOCUMENTS_SCHEMA if block == 1 else COMPOUND_SCHEMA).empty_table()
        g = t.drop_columns([key] if block > 1 else []).to_pandas()
        if block == 1:
            return pa.concat_tables([packer(r) for r in _replicas(g, rep)])
        kt = _Keytable()
        out = pa.concat_tables([packer(r, kt) for r in _replicas(g, rep)])
        return out.replace_schema_metadata(kt.metadata())

    ev = rio.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value", "props"],
    )
    packed = rio.reduce_by_key(ev, [key], reduce, stage=stage)
    return ray.data.from_arrow_refs(list(packed.refs)).materialize()


def build_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    """events.parquet -> node span-document Dataset (``_build``)."""
    # sig -> id map from the Extract pass; tiny, shipped by closure
    # capture (once per task, not per batch)
    kt = {s: i for i, s in enumerate(sig_keytable(sf_dir))}
    return _build(sf_dir, rep, 1, lambda g: _pack_bucket(g, kt))


# -------------------------------------------------- relation documents
#
# Relation r = way members {2r, 2r+1} (ascending; the last relation may
# hold a single way when the way count is odd), ONE visible version at
# rts = min(member-way ts1), tags etype=relation / k=(r%7),
# cs = 3e9 + r*1000 + 1, uid = r % 37. Children are denormalized TWO
# LEVELS deep: the member ways' own versions (each carrying ITS member
# node list, no tags) plus every node's full history — exercising the
# reference's recursive relation path (OSHEntities.java:395-478 and
# the two-level OSMMember.entity chain). Ways are emitted before nodes
# so the changeset map's first-appearance order sees them first.

REL_BLOCK = 2 * WAY_BLOCK
REL_CS_BASE = 3_000_000_000


def _pack_rel_bucket(group: pd.DataFrame, keytable: _Keytable) -> pa.Table:
    """Pack a bucket of COMPLETE relation histories (all node events of
    each relation's member ways) into 2-level compound documents."""
    nd = _node_children(group)
    docs = _CompoundDocs(nd, keytable)
    ways = {w: (lo, hi) for w, lo, hi in _runs(nd["osm"] // WAY_BLOCK)}
    for r, lo, hi in _runs(nd["osm"] // REL_BLOCK):
        mine = [w for w in (2 * r, 2 * r + 1) if w in ways]
        rts = int(min(nd["ts"][ways[w][0]:ways[w][1]].min() for w in mine))
        docs.version(1, rts, REL_CS_BASE + r * 1000 + 1, r % 37, True,
                     tags=(("etype", "relation"), ("k", r % 7)),
                     members=[("way", w, "") for w in mine])
        for w in mine:  # way children, each version carrying ITS node list
            _way_versions(docs, w, *ways[w], child=True)
        docs.end(r, lo, hi)
    return docs.table("relation")


# ----------------------------------- old-style multipolygon documents
#
# Relation o = node block {8o..8o+7}: outer way wo=2o over the present
# ids with id%8 < 4 (closed ring: smallest id repeated at the end),
# inner way wi=2o+1 over id%8 >= 4 (closed the same way). ONE visible
# relation version at rts = min(node ts), cs = 4e9 + o*1000 + 1,
# uid = o%37; relation tags: type=multipolygon, PLUS the real tag k=9
# when o%5 == 0 (tag disqualifier, BaseTagInterpreter.java:118-129).
# Member roles: wo@outer, wi@inner — except o%11 == 0, where wi is
# ALSO @outer (two-outer disqualifier, :114-117). Outer way: v1 at
# ts1o = min(outer node ts), vis=1, tag k=(o%7) [the query's filter
# target — old-style filters test the OUTER WAY, CellIterator.java:
# 260-318]; inner way: v1 at ts1i, vis=1, no tags. Node children:
# full histories. Relations with no outer node are skipped.
# Mirrored by oracles.snapshot_old_style — change both together.

OS_BLOCK = 8
OS_CS_BASE = 4_000_000_000


def _pack_oldstyle_bucket(group: pd.DataFrame, keytable: _Keytable) -> pa.Table:
    """Pack a bucket of old-style multipolygon relation documents (see
    the derivation comment block above)."""
    nd = _node_children(group)
    docs = _CompoundDocs(nd, keytable)
    for r, lo, hi in _runs(nd["osm"] // OS_BLOCK):
        first = lo + np.flatnonzero(nd["node_start"][lo:hi])  # a node's first = earliest version
        ids, ts1 = nd["osm"][first], nd["ts"][first]
        is_outer = ids % OS_BLOCK < 4
        outer, inner = [int(i) for i in ids[is_outer]], [int(i) for i in ids[~is_outer]]
        if not outer:
            continue
        wo, wi = 2 * r, 2 * r + 1
        # the real tag k=9 makes the relation NOT old-style
        tags = (("type", "multipolygon"),) + ((("k", 9),) if r % 5 == 0 else ())
        members = [("way", wo, "outer")]
        if inner:
            members.append(("way", wi, "outer" if r % 11 == 0 else "inner"))
        docs.version(1, int(ts1.min()), OS_CS_BASE + r * 1000 + 1, r % 37, True, tags=tags,
                     members=members)
        # outer way child (single visible version; tags live HERE)
        docs.version(1, int(ts1[is_outer].min()), OS_CS_BASE + r * 1000 + 2, r % 37, True,
                     tags=(("k", r % 7),), members=[("node", m, "") for m in outer + outer[:1]],
                     child=("way", wo))
        if inner:
            docs.version(1, int(ts1[~is_outer].min()), OS_CS_BASE + r * 1000 + 3, r % 37, True,
                         members=[("node", m, "") for m in inner + inner[:1]], child=("way", wi))
        docs.end(r, lo, hi)
    return docs.table("relation")


def build_way_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, WAY_BLOCK, _pack_way_bucket)


def build_relation_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, REL_BLOCK, _pack_rel_bucket)


def _with_keytable_ids(t: pa.Table, tag_map: np.ndarray, role_map: np.ndarray) -> pa.Table:
    """``t`` with its bucket-local tag and role ids replaced by the
    table-wide ones (``map[local id]``)."""
    for name, m in (("tag_ids", tag_map), ("mem_role", role_map)):
        col = t[name].combine_chunks()
        off = col.offsets.to_numpy()
        ids = m[col.flatten().to_numpy(zero_copy_only=False)].astype(np.int32)
        t = t.set_column(t.schema.get_field_index(name), name,
                         pa.ListArray.from_arrays(pa.array(off - off[0]), pa.array(ids)))
    return t.replace_schema_metadata(None)


@ray.remote
def _shard_task(lo: str, hi: str | None, maps, *buckets: pa.Table) -> pa.Table:
    """The documents of ``buckets`` with ``lo <= doc_id < hi`` (None:
    unbounded), in ``doc_id`` order; ``maps`` (one (tag, role) id map per
    bucket, None for a node table) make compound keytable ids
    table-wide."""

    def inside(ids: pa.ChunkedArray):
        m = pc.greater_equal(ids, lo)
        return m if hi is None else pc.and_(m, pc.less(ids, hi))

    if maps is not None:
        buckets = [_with_keytable_ids(b, *m) for b, m in zip(buckets, maps)]
    t = pa.concat_tables([b.filter(inside(b["doc_id"])) for b in buckets]).combine_chunks()
    return t.take(pc.sort_indices(t["doc_id"]))


def _merged_keytable(buckets: list[pa.Table]) -> tuple[dict, list]:
    """The table-wide keytable (tag signatures and roles, each sorted)
    of compound pack buckets, and each bucket's (tag, role) id map."""
    local = [json.loads((b.schema.metadata or {}).get(KEYTABLE_META, '{"tags":[],"roles":[]}'))
             for b in buckets]
    sigs = sorted({json.dumps(s) for kt in local for s in kt["tags"]})
    roles = sorted({r for kt in local for r in kt["roles"]})
    sig_id, role_id = {s: i for i, s in enumerate(sigs)}, {r: i for i, r in enumerate(roles)}
    maps = [
        (np.array([sig_id[json.dumps(s)] for s in kt["tags"]], dtype=np.int32),
         np.array([role_id[r] for r in kt["roles"]], dtype=np.int32))
        for kt in local
    ]
    return {"tags": [json.loads(s) for s in sigs], "roles": roles}, maps


def _write_shards(
    ds: ray.data.Dataset, path: str, shard_rows: int, min_shards: int = 1, compound: bool = False
) -> None:
    """Write ``ds`` in ``doc_id`` order as ``max(min_shards,
    ceil(rows / shard_rows))`` evenly sized shard files, each ONE
    parquet row group.

    The row group is the read block, so a shard is one call of every
    fused ``map_batches`` stage that reads the table. Left to the
    producer, every pack bucket stays its own file, sized by the
    bucket's share of the corpus. The pack has one bucket per input
    block, so its buckets follow the cpu count: the ``doc_id`` order
    keeps the table the same at any cpu count. The driver reads only
    the ``doc_id`` column, to find each shard's first ``doc_id`` (and
    a compound table's bucket keytables, merged into ``KEYTABLE_FILE``);
    one task per shard gathers its rows from the buckets."""
    refs = ds.to_arrow_refs()
    buckets = [ray.get(r) for r in refs]
    ids = np.sort(np.concatenate([b["doc_id"].to_numpy(zero_copy_only=False) for b in buckets]))
    n = max(min_shards, -(-len(ids) // shard_rows))
    bounds = ["", *ids[[len(ids) * i // n for i in range(1, n)]], None]
    keytable, maps = _merged_keytable(buckets) if compound else (None, None)
    shards = [_shard_task.remote(lo, hi, maps, *refs) for lo, hi in zip(bounds, bounds[1:])]
    rio.write_table(ray.data.from_arrow_refs(shards), str(path), row_group_size=shard_rows)
    if compound:
        with open(os.path.join(path, KEYTABLE_FILE), "w") as f:
            json.dump(keytable, f)


def _ensure_compound(sf_dir: str, rep: int, tag: str, builder) -> str:
    """Materialize (once) a compound table (``io.ensure``, as
    ensure_documents)."""
    # shards of <= COMPOUND_BATCH docs: one member-recursion stage call
    # per shard, at the batch size the stage is tuned for, and as many
    # files as the stage has batches to run in parallel
    return rio.ensure(
        f"documents_{tag}", [Path(sf_dir) / "events.parquet"], [rep, _fp(_members)],
        lambda staging: _write_shards(
            builder(sf_dir, rep), staging, _members.COMPOUND_BATCH, compound=True
        ),
    )


_KEYTABLE_MEM: dict[tuple, dict] = {}


def compound_keytable(path: str) -> dict:
    """The keytable of the compound table at ``path`` (an
    ``ensure_*_documents`` result): ``{"tags": [...], "roles": [...]}``,
    where ``tags[i]`` is tag-signature id i as sorted [key, value]
    pairs and ``roles[i]`` is role id i. Read once per file identity."""
    f = os.path.join(path, KEYTABLE_FILE)
    key = rio._stat_identity(f)
    if key not in _KEYTABLE_MEM:
        with open(f) as fh:
            _KEYTABLE_MEM[key] = json.load(fh)
    return _KEYTABLE_MEM[key]


def build_oldstyle_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, OS_BLOCK, _pack_oldstyle_bucket)


def ensure_oldstyle_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "oldstyle", build_oldstyle_documents)


def read_oldstyle_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> rio.Blocks:
    """Read the (cached) old-style multipolygon relation table."""
    return rio.read_resident(ensure_oldstyle_documents(sf_dir, rep), columns=columns)


def ensure_way_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "ways", build_way_documents)


def ensure_relation_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "relations", build_relation_documents)


def read_way_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> rio.Blocks:
    """Read the (cached) compound way-document table."""
    return rio.read_resident(ensure_way_documents(sf_dir, rep), columns=columns)


def read_relation_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> rio.Blocks:
    """Read the (cached) 2-level compound relation-document table."""
    return rio.read_resident(ensure_relation_documents(sf_dir, rep), columns=columns)


def ensure_documents(sf_dir: str, rep: int = 1) -> str:
    """Materialize (once) and return the span-document table path.

    Cached per (events file identity, rep, code) under ``RAYHIST_CACHE``
    by ``io.ensure``, which builds in a staging directory and publishes
    it with one rename, so concurrent callers and re-runs are safe.
    """
    # uniform ~4 MB shards: the pack's buckets are sized by their hash
    # share of the entities (and there is one per cpu), and any read
    # that maps files to ncpu tasks would inherit that skew as
    # straggler wall time. Floor of 8 shards so even tiny sf_dirs keep
    # a multi-fragment layout (parallel first-read, per-shard resume).
    # At cluster scale the ingest writes shard-keyed partitions instead
    # (checkpoint.py).
    return rio.ensure(
        "documents_spans", [Path(sf_dir) / "events.parquet"], [rep, _fp()],
        lambda staging: _write_shards(
            build_documents(sf_dir, rep), staging, DOC_SHARD_ROWS, min_shards=8
        ),
    )


def read_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> rio.Blocks:
    """Read the (cached) span-document table for a scale-factor dir;
    resident in the object store after the first read per column set
    (``io.read_resident``), as are the way, relation and old-style
    tables."""
    return rio.read_resident(ensure_documents(sf_dir, rep), columns=columns)


def ensure_multizoom_layout(sf_dir: str, rep: int = 1, max_zoom: int = 6) -> str:
    """Materialize (once) the MULTI-ZOOM cell layout of the document
    table: every document is stored under the packed ``zoom<<56|cell``
    id of its whole-history bbox per the XYGridTree insert rule
    (deepest zoom covering the bbox with <=2 cells, stored at the SW
    corner's cell — ``index/XYGridTree.java:89-97``), written as one
    hive partition per packed id so a bbox query can prune THE SCAN by
    enumerating candidate cells at every zoom
    (grid.multizoom_query_cells). This is the reference's per-zoom
    ``grid_*`` cell-table layout (``TableNames.java:10-66`` +
    ``CellId.levelId``) in parquet-partition form.

    ``max_zoom`` bounds the partition count (the reference uses 15; at
    sandbox scale 6 keeps directories O(100); production would pair a
    deeper zoom with the sparse-cell coalescing rule of
    state.checkpoint.write_partitioned_by_cell)."""
    from .spatial import grid
    from .spatial.grid import insert_cell, insert_zoom, pack_cell

    def assign(batch: pa.Table) -> pa.Table:
        iz = insert_zoom(
            batch["min_lon_e7"].to_numpy(zero_copy_only=False),
            batch["max_lon_e7"].to_numpy(zero_copy_only=False),
            batch["min_lat_e7"].to_numpy(zero_copy_only=False),
            batch["max_lat_e7"].to_numpy(zero_copy_only=False),
            max_zoom=max_zoom,
        )
        cell = insert_cell(
            batch["min_lon_e7"].to_numpy(zero_copy_only=False),
            batch["min_lat_e7"].to_numpy(zero_copy_only=False),
            iz,
        )
        mz = pack_cell(iz, cell)
        return batch.append_column("pmz", pa.array(mz, type=pa.int64()))

    def build(staging: str) -> None:
        ds = rio.read_table(ensure_documents(sf_dir, rep))
        # one row group per (shard, partition) file, as in ensure_documents
        ds.map_batches(assign, batch_format="pyarrow").write_parquet(
            staging, partition_cols=["pmz"], row_group_size=DOC_SHARD_ROWS
        )

    return rio.ensure(
        "documents_mz", [Path(sf_dir) / "events.parquet"], [rep, max_zoom, _fp(grid)], build
    )
