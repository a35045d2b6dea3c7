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
from .model import DOCUMENTS_SCHEMA, LAT_MOD, LON_MOD, pack_version_columns
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
# strings. tag_sig strings stay in the spans for oracle parity.

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

# ------------------------------------------------------- way documents
#
# Compound (way) documents derive deterministically from the same
# events table, so the member-recursion semantics (rayhist.members,
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


def _members_by_parent(parent: np.ndarray, child: np.ndarray) -> dict[int, list[int]]:
    """{parent: sorted distinct children} in ONE sorted pass (the rows
    arrive sorted by child already; np.unique keeps it O(n log n) and
    avoids a boolean rescan of the bucket per parent)."""
    pairs = np.unique(np.stack([parent, child], axis=1), axis=0)
    out: dict[int, list[int]] = {}
    for p, c in pairs:
        out.setdefault(int(p), []).append(int(c))
    return out


def _span_only_lists(n_docs: int) -> dict[str, pa.ListArray]:
    """All-empty per-version list columns: compound documents filter on
    parent tag SPANS (filter-relative member recursion) and denormalize
    child versions into the span stream, so they carry no per-version
    keytable ids (decode_spans(tags='ids') falls back to -1) and no
    typed version columns (decoded from the span text)."""
    return pack_version_columns(np.zeros(n_docs, dtype=np.int64))


def _pack_way_bucket(group: pd.DataFrame) -> pa.Table:
    """Pack a bucket of COMPLETE way histories (all member-node events
    of each way) into compound span-document rows.

    Child spans are built vectorized (same string kernel as
    _pack_bucket); only the per-way header (2 parent versions + tags +
    member list) is a Python loop over |ways in bucket|.
    """
    g = group.sort_values(["osm_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    osm = g["osm_id"].to_numpy()
    n = len(g)
    node_start = np.r_[True, osm[1:] != osm[:-1]]
    start_idx = np.maximum.accumulate(np.where(node_start, np.arange(n), 0))
    v = np.arange(n) - start_idx + 1
    ts = g["ts"].to_numpy()
    uid = g["uid"].to_numpy()
    vis = g["visible"].to_numpy()
    kk = g["kk"].to_numpy()
    cs = osm * 1_000_000 + (v - 1) // 3
    lon, lat = coords_for(osm, v, kk)
    wid = osm // WAY_BLOCK

    s = pd.Series
    vs, tss, css, uids = s(v).astype(str), s(ts).astype(str), s(cs).astype(str), s(uid).astype(str)
    child_pfx = ("child=node/" + s(osm).astype(str) + ";").to_numpy()
    ver_text = (child_pfx + ("v=" + vs + ";ts=" + tss + ";cs=" + css + ";uid=" + uids
                + ";vis=" + s(vis.astype(np.int64)).astype(str)).to_numpy())
    geom_ref = ("geom:child=node/" + s(osm).astype(str) + ";v=" + vs
                + ";lon=" + s(lon).astype(str) + ";lat=" + s(lat).astype(str)).to_numpy()

    # interleave child spans: version (+ geom when visible)
    n_slots = 1 + vis.astype(np.int64)
    total = int(n_slots.sum())
    ver_of_span = np.repeat(np.arange(n), n_slots)
    span_end = np.cumsum(n_slots)
    slot = np.arange(total) - np.repeat(span_end - n_slots, n_slots)
    child_kinds = np.where(slot == 0, "version", "geom").astype(object)
    child_texts = np.where(slot == 0, ver_text[ver_of_span], "").astype(object)
    child_refs = np.where(slot == 1, geom_ref[ver_of_span], "").astype(object)
    child_wid = np.repeat(wid, n_slots)

    # per-way slices of the child-span arrays (g sorted by osm_id =>
    # also grouped by wid; spans inherit that order)
    way_first = np.r_[True, child_wid[1:] != child_wid[:-1]]
    way_starts = np.flatnonzero(way_first)
    way_ends = np.r_[way_starts[1:], total]
    way_ids = child_wid[way_starts]

    # per-way scalars for the parent versions
    per_way = pd.DataFrame({"wid": wid, "ts": ts}).groupby("wid").agg(ts1=("ts", "min"), ts2=("ts", "max"))
    bb = pd.DataFrame(
        {
            "wid": wid,
            "lon": np.where(vis, lon, np.int64(np.iinfo(np.int64).max)),
            "lon2": np.where(vis, lon, np.int64(np.iinfo(np.int64).min)),
            "lat": np.where(vis, lat, np.int64(np.iinfo(np.int64).max)),
            "lat2": np.where(vis, lat, np.int64(np.iinfo(np.int64).min)),
            "v": vis.astype(np.int64),
        }
    ).groupby("wid").agg(mn_lon=("lon", "min"), mx_lon=("lon2", "max"),
                         mn_lat=("lat", "min"), mx_lat=("lat2", "max"), anyv=("v", "max"))

    # one sorted pass, not a boolean rescan of the bucket per way
    members_of = _members_by_parent(wid, osm)

    kinds_parts, texts_parts, refs_parts, doc_lens = [], [], [], []
    for w, cs_s, cs_e in zip(way_ids, way_starts, way_ends):
        w = int(w)
        ts1 = int(per_way.loc[w, "ts1"])
        ts2 = int(per_way.loc[w, "ts2"]) + 1
        vis2 = w % 3 != 0
        members = members_of[w]
        hk, ht, hr = [], [], []

        def emit(kind, text="", ref=""):
            hk.append(kind)
            ht.append(text)
            hr.append(ref)

        emit("version", f"v=1;ts={ts1};cs={WAY_CS_BASE + w * 1000 + 1};uid={w % 37};vis=1")
        emit("tag", "etype=way")
        emit("tag", f"k={w % 7}")
        for m in members:
            emit("member", f"node/{m}@role=")
        emit("version", f"v=2;ts={ts2};cs={WAY_CS_BASE + w * 1000 + 2};uid={(w + 1) % 37};vis={int(vis2)}")
        if vis2:
            emit("tag", "etype=way")
            emit("tag", f"k={w % 7 + 1}")
        for m in members:
            emit("member", f"node/{m}@role=")

        kinds_parts.append(np.array(hk, dtype=object))
        kinds_parts.append(child_kinds[cs_s:cs_e])
        texts_parts.append(np.array(ht, dtype=object))
        texts_parts.append(child_texts[cs_s:cs_e])
        refs_parts.append(np.array(hr, dtype=object))
        refs_parts.append(child_refs[cs_s:cs_e])
        doc_lens.append(len(hk) + (cs_e - cs_s))

    all_kinds = np.concatenate(kinds_parts) if kinds_parts else np.array([], dtype=object)
    all_texts = np.concatenate(texts_parts) if texts_parts else np.array([], dtype=object)
    all_refs = np.concatenate(refs_parts) if refs_parts else np.array([], dtype=object)
    doc_lens = np.asarray(doc_lens, dtype=np.int64)
    doc_span_start = np.repeat(np.r_[0, np.cumsum(doc_lens)[:-1]], doc_lens)
    # compound docs denormalize full child histories — a huge bucket
    # would silently wrap int32 ListArray offsets and corrupt the table
    assert len(all_kinds) < 2**31, "bucket span total exceeds int32 offsets"
    offsets = (np.arange(len(all_kinds)) - doc_span_start).astype(np.int32)

    spans_flat = pa.StructArray.from_arrays(
        [
            pa.array(all_kinds, type=pa.string()),
            pa.array(all_texts, type=pa.string()),
            pa.array(all_refs, type=pa.string()),
            pa.array(offsets, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    list_offsets = np.r_[0, np.cumsum(doc_lens)].astype(np.int32)
    spans_col = pa.ListArray.from_arrays(pa.array(list_offsets), spans_flat)

    w_idx = [int(w) for w in way_ids]
    zero = bb.loc[w_idx, "anyv"].to_numpy() == 0
    bcols = {}
    for c in ("mn_lon", "mx_lon", "mn_lat", "mx_lat"):
        arr = bb.loc[w_idx, c].to_numpy().copy()
        arr[zero] = 0
        bcols[c] = arr
    return pa.table(
        {
            "doc_id": pa.array(["way/" + str(w) for w in w_idx], type=pa.string()),
            "osm_type": pa.array(np.full(len(w_idx), "way", dtype=object), type=pa.string()),
            "osm_id": pa.array(np.asarray(w_idx, dtype=np.int64)),
            "n_versions": pa.array(np.full(len(w_idx), 2, dtype=np.int32), type=pa.int32()),
            "min_lon_e7": pa.array(bcols["mn_lon"]),
            "max_lon_e7": pa.array(bcols["mx_lon"]),
            "min_lat_e7": pa.array(bcols["mn_lat"]),
            "max_lat_e7": pa.array(bcols["mx_lat"]),
            "spans": spans_col,
            **_span_only_lists(len(w_idx)),
        },
        schema=DOCUMENTS_SCHEMA,
    )


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
    overhead at scale).

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
            return DOCUMENTS_SCHEMA.empty_table()
        g = t.drop_columns([key] if block > 1 else []).to_pandas()
        return pa.concat_tables([packer(r) for r in _replicas(g, rep)])

    ev = rio.read_table(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value", "props"],
    )
    return ray.data.from_arrow_refs(rio.reduce_by_key(ev, [key], reduce, stage=stage)).materialize()


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
# node list) plus every node's full history — exercising the
# reference's recursive relation path (OSHEntities.java:395-478 and
# the two-level OSMMember.entity chain). Ways are emitted before nodes
# so the changeset map's putIfAbsent order matches parse_doc insertion.

REL_BLOCK = 2 * WAY_BLOCK
REL_CS_BASE = 3_000_000_000


def _pack_rel_bucket(group: pd.DataFrame) -> pa.Table:
    """Pack a bucket of COMPLETE relation histories (all node events of
    each relation's member ways) into 2-level compound documents."""
    g = group.sort_values(["osm_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    osm = g["osm_id"].to_numpy()
    n = len(g)
    node_start = np.r_[True, osm[1:] != osm[:-1]]
    start_idx = np.maximum.accumulate(np.where(node_start, np.arange(n), 0))
    v = np.arange(n) - start_idx + 1
    ts = g["ts"].to_numpy()
    uid = g["uid"].to_numpy()
    vis = g["visible"].to_numpy()
    kk = g["kk"].to_numpy()
    cs = osm * 1_000_000 + (v - 1) // 3
    lon, lat = coords_for(osm, v, kk)
    wid = osm // WAY_BLOCK
    rid = osm // REL_BLOCK

    s = pd.Series
    vs, tss, css, uids = s(v).astype(str), s(ts).astype(str), s(cs).astype(str), s(uid).astype(str)
    child_pfx = ("child=node/" + s(osm).astype(str) + ";").to_numpy()
    ver_text = (child_pfx + ("v=" + vs + ";ts=" + tss + ";cs=" + css + ";uid=" + uids
                + ";vis=" + s(vis.astype(np.int64)).astype(str)).to_numpy())
    geom_ref = ("geom:child=node/" + s(osm).astype(str) + ";v=" + vs
                + ";lon=" + s(lon).astype(str) + ";lat=" + s(lat).astype(str)).to_numpy()

    n_slots = 1 + vis.astype(np.int64)
    total = int(n_slots.sum())
    ver_of_span = np.repeat(np.arange(n), n_slots)
    span_end = np.cumsum(n_slots)
    slot = np.arange(total) - np.repeat(span_end - n_slots, n_slots)
    child_kinds = np.where(slot == 0, "version", "geom").astype(object)
    child_texts = np.where(slot == 0, ver_text[ver_of_span], "").astype(object)
    child_refs = np.where(slot == 1, geom_ref[ver_of_span], "").astype(object)
    child_rid = np.repeat(rid, n_slots)

    rel_first = np.r_[True, child_rid[1:] != child_rid[:-1]]
    rel_starts = np.flatnonzero(rel_first)
    rel_ends = np.r_[rel_starts[1:], total]
    rel_ids = child_rid[rel_starts]

    per_way = pd.DataFrame({"wid": wid, "ts": ts}).groupby("wid").agg(ts1=("ts", "min"), ts2=("ts", "max"))
    bb = pd.DataFrame(
        {
            "rid": rid,
            "lon": np.where(vis, lon, np.int64(np.iinfo(np.int64).max)),
            "lon2": np.where(vis, lon, np.int64(np.iinfo(np.int64).min)),
            "lat": np.where(vis, lat, np.int64(np.iinfo(np.int64).max)),
            "lat2": np.where(vis, lat, np.int64(np.iinfo(np.int64).min)),
            "v": vis.astype(np.int64),
        }
    ).groupby("rid").agg(mn_lon=("lon", "min"), mx_lon=("lon2", "max"),
                         mn_lat=("lat", "min"), mx_lat=("lat2", "max"), anyv=("v", "max"))
    ways_of = _members_by_parent(rid, wid)
    members_of = _members_by_parent(wid, osm)

    kinds_parts, texts_parts, refs_parts, doc_lens = [], [], [], []
    for r, cs_s, cs_e in zip(rel_ids, rel_starts, rel_ends):
        r = int(r)
        ways = ways_of[r]
        rts = int(min(per_way.loc[w, "ts1"] for w in ways))
        hk, ht, hr = [], [], []

        def emit(kind, text="", ref=""):
            hk.append(kind)
            ht.append(text)
            hr.append(ref)

        emit("version", f"v=1;ts={rts};cs={REL_CS_BASE + r * 1000 + 1};uid={r % 37};vis=1")
        emit("tag", "etype=relation")
        emit("tag", f"k={r % 7}")
        for w in ways:
            emit("member", f"way/{w}@role=")
        # way children (before nodes: changeset-map putIfAbsent order),
        # each version carrying the way's OWN member list
        for w in ways:
            ts1 = int(per_way.loc[w, "ts1"])
            ts2 = int(per_way.loc[w, "ts2"]) + 1
            vis2 = w % 3 != 0
            emit("version", f"child=way/{w};v=1;ts={ts1};cs={WAY_CS_BASE + w * 1000 + 1};uid={w % 37};vis=1")
            for m in members_of[w]:
                emit("member", f"node/{m}@role=")
            emit("version", f"child=way/{w};v=2;ts={ts2};cs={WAY_CS_BASE + w * 1000 + 2};uid={(w + 1) % 37};vis={int(vis2)}")
            for m in members_of[w]:
                emit("member", f"node/{m}@role=")

        kinds_parts.append(np.array(hk, dtype=object))
        kinds_parts.append(child_kinds[cs_s:cs_e])
        texts_parts.append(np.array(ht, dtype=object))
        texts_parts.append(child_texts[cs_s:cs_e])
        refs_parts.append(np.array(hr, dtype=object))
        refs_parts.append(child_refs[cs_s:cs_e])
        doc_lens.append(len(hk) + (cs_e - cs_s))

    all_kinds = np.concatenate(kinds_parts) if kinds_parts else np.array([], dtype=object)
    all_texts = np.concatenate(texts_parts) if texts_parts else np.array([], dtype=object)
    all_refs = np.concatenate(refs_parts) if refs_parts else np.array([], dtype=object)
    doc_lens = np.asarray(doc_lens, dtype=np.int64)
    doc_span_start = np.repeat(np.r_[0, np.cumsum(doc_lens)[:-1]], doc_lens)
    # relations duplicate every node history of every member way — guard
    # the int32 ListArray offsets against silent wraparound
    assert len(all_kinds) < 2**31, "bucket span total exceeds int32 offsets"
    offsets = (np.arange(len(all_kinds)) - doc_span_start).astype(np.int32)

    spans_flat = pa.StructArray.from_arrays(
        [
            pa.array(all_kinds, type=pa.string()),
            pa.array(all_texts, type=pa.string()),
            pa.array(all_refs, type=pa.string()),
            pa.array(offsets, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    list_offsets = np.r_[0, np.cumsum(doc_lens)].astype(np.int32)
    spans_col = pa.ListArray.from_arrays(pa.array(list_offsets), spans_flat)

    r_idx = [int(r) for r in rel_ids]
    zero = bb.loc[r_idx, "anyv"].to_numpy() == 0
    bcols = {}
    for c in ("mn_lon", "mx_lon", "mn_lat", "mx_lat"):
        arr = bb.loc[r_idx, c].to_numpy().copy()
        arr[zero] = 0
        bcols[c] = arr
    return pa.table(
        {
            "doc_id": pa.array(["relation/" + str(r) for r in r_idx], type=pa.string()),
            "osm_type": pa.array(np.full(len(r_idx), "relation", dtype=object), type=pa.string()),
            "osm_id": pa.array(np.asarray(r_idx, dtype=np.int64)),
            "n_versions": pa.array(np.full(len(r_idx), 1, dtype=np.int32), type=pa.int32()),
            "min_lon_e7": pa.array(bcols["mn_lon"]),
            "max_lon_e7": pa.array(bcols["mx_lon"]),
            "min_lat_e7": pa.array(bcols["mn_lat"]),
            "max_lat_e7": pa.array(bcols["mx_lat"]),
            "spans": spans_col,
            **_span_only_lists(len(r_idx)),
        },
        schema=DOCUMENTS_SCHEMA,
    )


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


def _pack_oldstyle_bucket(group: pd.DataFrame) -> pa.Table:
    """Pack a bucket of old-style multipolygon relation documents (see
    the derivation comment block above)."""
    g = group.sort_values(["osm_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    osm = g["osm_id"].to_numpy()
    n = len(g)
    node_start = np.r_[True, osm[1:] != osm[:-1]]
    start_idx = np.maximum.accumulate(np.where(node_start, np.arange(n), 0))
    v = np.arange(n) - start_idx + 1
    ts = g["ts"].to_numpy()
    uid = g["uid"].to_numpy()
    vis = g["visible"].to_numpy()
    kk = g["kk"].to_numpy()
    cs = osm * 1_000_000 + (v - 1) // 3
    lon, lat = coords_for(osm, v, kk)
    rid = osm // OS_BLOCK

    s = pd.Series
    vs, tss, css, uids = s(v).astype(str), s(ts).astype(str), s(cs).astype(str), s(uid).astype(str)
    child_pfx = ("child=node/" + s(osm).astype(str) + ";").to_numpy()
    ver_text = (child_pfx + ("v=" + vs + ";ts=" + tss + ";cs=" + css + ";uid=" + uids
                + ";vis=" + s(vis.astype(np.int64)).astype(str)).to_numpy())
    geom_ref = ("geom:child=node/" + s(osm).astype(str) + ";v=" + vs
                + ";lon=" + s(lon).astype(str) + ";lat=" + s(lat).astype(str)).to_numpy()

    n_slots = 1 + vis.astype(np.int64)
    total = int(n_slots.sum())
    ver_of_span = np.repeat(np.arange(n), n_slots)
    span_end = np.cumsum(n_slots)
    slot = np.arange(total) - np.repeat(span_end - n_slots, n_slots)
    child_kinds = np.where(slot == 0, "version", "geom").astype(object)
    child_texts = np.where(slot == 0, ver_text[ver_of_span], "").astype(object)
    child_refs = np.where(slot == 1, geom_ref[ver_of_span], "").astype(object)
    child_rid = np.repeat(rid, n_slots)

    rel_first = np.r_[True, child_rid[1:] != child_rid[:-1]]
    rel_starts = np.flatnonzero(rel_first)
    rel_ends = np.r_[rel_starts[1:], total]
    rel_ids = child_rid[rel_starts]

    per_node = pd.DataFrame({"osm": osm, "rid": rid, "ts": ts}).groupby("osm").agg(
        rid=("rid", "first"), ts1=("ts", "min")
    )
    bb = pd.DataFrame(
        {
            "rid": rid,
            "lon": np.where(vis, lon, np.int64(np.iinfo(np.int64).max)),
            "lon2": np.where(vis, lon, np.int64(np.iinfo(np.int64).min)),
            "lat": np.where(vis, lat, np.int64(np.iinfo(np.int64).max)),
            "lat2": np.where(vis, lat, np.int64(np.iinfo(np.int64).min)),
            "v": vis.astype(np.int64),
        }
    ).groupby("rid").agg(mn_lon=("lon", "min"), mx_lon=("lon2", "max"),
                         mn_lat=("lat", "min"), mx_lat=("lat2", "max"), anyv=("v", "max"))

    kinds_parts, texts_parts, refs_parts, doc_lens, kept_rids = [], [], [], [], []
    by_rid = dict(tuple(per_node.groupby("rid", sort=False)))
    for r, cs_s, cs_e in zip(rel_ids, rel_starts, rel_ends):
        r = int(r)
        nodes = by_rid.get(r, per_node.iloc[0:0])
        ids = nodes.index.to_numpy()
        outer = sorted(int(i) for i in ids if i % OS_BLOCK < 4)
        inner = sorted(int(i) for i in ids if i % OS_BLOCK >= 4)
        if not outer:
            continue
        rts = int(nodes["ts1"].min())
        ts1o = int(nodes.loc[outer, "ts1"].min())
        wo, wi = 2 * r, 2 * r + 1
        inner_role = "outer" if r % 11 == 0 else "inner"
        hk, ht, hr = [], [], []

        def emit(kind, text="", ref=""):
            hk.append(kind)
            ht.append(text)
            hr.append(ref)

        emit("version", f"v=1;ts={rts};cs={OS_CS_BASE + r * 1000 + 1};uid={r % 37};vis=1")
        emit("tag", "type=multipolygon")
        if r % 5 == 0:
            emit("tag", "k=9")  # a real tag -> NOT old-style
        emit("member", f"way/{wo}@role=outer")
        if inner:
            emit("member", f"way/{wi}@role={inner_role}")
        # outer way child (single visible version; tags live HERE)
        emit("version", f"child=way/{wo};v=1;ts={ts1o};cs={OS_CS_BASE + r * 1000 + 2};uid={r % 37};vis=1")
        emit("tag", f"k={r % 7}")
        for m in outer + [outer[0]]:
            emit("member", f"node/{m}@role=")
        if inner:
            ts1i = int(nodes.loc[inner, "ts1"].min())
            emit("version", f"child=way/{wi};v=1;ts={ts1i};cs={OS_CS_BASE + r * 1000 + 3};uid={r % 37};vis=1")
            for m in inner + [inner[0]]:
                emit("member", f"node/{m}@role=")

        kinds_parts.append(np.array(hk, dtype=object))
        kinds_parts.append(child_kinds[cs_s:cs_e])
        texts_parts.append(np.array(ht, dtype=object))
        texts_parts.append(child_texts[cs_s:cs_e])
        refs_parts.append(np.array(hr, dtype=object))
        refs_parts.append(child_refs[cs_s:cs_e])
        doc_lens.append(len(hk) + (cs_e - cs_s))
        kept_rids.append(r)

    all_kinds = np.concatenate(kinds_parts) if kinds_parts else np.array([], dtype=object)
    all_texts = np.concatenate(texts_parts) if texts_parts else np.array([], dtype=object)
    all_refs = np.concatenate(refs_parts) if refs_parts else np.array([], dtype=object)
    doc_lens = np.asarray(doc_lens, dtype=np.int64)
    doc_span_start = np.repeat(np.r_[0, np.cumsum(doc_lens)[:-1]], doc_lens) if len(doc_lens) else np.array([], dtype=np.int64)
    assert len(all_kinds) < 2**31, "bucket span total exceeds int32 offsets"
    offsets = (np.arange(len(all_kinds)) - doc_span_start).astype(np.int32)

    spans_flat = pa.StructArray.from_arrays(
        [
            pa.array(all_kinds, type=pa.string()),
            pa.array(all_texts, type=pa.string()),
            pa.array(all_refs, type=pa.string()),
            pa.array(offsets, type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    list_offsets = np.r_[0, np.cumsum(doc_lens)].astype(np.int32)
    spans_col = pa.ListArray.from_arrays(pa.array(list_offsets), spans_flat)

    zero = bb.loc[kept_rids, "anyv"].to_numpy() == 0 if kept_rids else np.array([], dtype=bool)
    bcols = {}
    for c in ("mn_lon", "mx_lon", "mn_lat", "mx_lat"):
        arr = bb.loc[kept_rids, c].to_numpy().copy() if kept_rids else np.array([], dtype=np.int64)
        arr[zero] = 0
        bcols[c] = arr
    return pa.table(
        {
            "doc_id": pa.array(["relation/" + str(r) for r in kept_rids], type=pa.string()),
            "osm_type": pa.array(np.full(len(kept_rids), "relation", dtype=object), type=pa.string()),
            "osm_id": pa.array(np.asarray(kept_rids, dtype=np.int64)),
            "n_versions": pa.array(np.full(len(kept_rids), 1, dtype=np.int32), type=pa.int32()),
            "min_lon_e7": pa.array(bcols["mn_lon"]),
            "max_lon_e7": pa.array(bcols["mx_lon"]),
            "min_lat_e7": pa.array(bcols["mn_lat"]),
            "max_lat_e7": pa.array(bcols["mx_lat"]),
            "spans": spans_col,
            **_span_only_lists(len(kept_rids)),
        },
        schema=DOCUMENTS_SCHEMA,
    )


def build_way_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, WAY_BLOCK, _pack_way_bucket)


def build_relation_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, REL_BLOCK, _pack_rel_bucket)


@ray.remote
def _shard_task(lo: str, hi: str | None, *buckets: pa.Table) -> pa.Table:
    """The documents of ``buckets`` with ``lo <= doc_id < hi`` (None:
    unbounded), in ``doc_id`` order."""

    def inside(ids: pa.ChunkedArray):
        m = pc.greater_equal(ids, lo)
        return m if hi is None else pc.and_(m, pc.less(ids, hi))

    t = pa.concat_tables([b.filter(inside(b["doc_id"])) for b in buckets]).combine_chunks()
    return t.take(pc.sort_indices(t["doc_id"]))


def _write_shards(ds: ray.data.Dataset, path: str, shard_rows: int, min_shards: int = 1) -> None:
    """Write ``ds`` in ``doc_id`` order as ``max(min_shards,
    ceil(rows / shard_rows))`` evenly sized shard files, each ONE
    parquet row group.

    The row group is the read block, so a shard is one call of every
    fused ``map_batches`` stage that reads the table. Left to the
    producer, every pack bucket stays its own file, sized by the
    bucket's share of the corpus. The pack has one bucket per input
    block, so its buckets follow the cpu count: the ``doc_id`` order
    keeps the table the same at any cpu count. The driver reads only
    the ``doc_id`` column, to find each shard's first ``doc_id``; one
    task per shard gathers its rows from the buckets."""
    refs = ds.to_arrow_refs()
    ids = np.sort(np.concatenate([ray.get(r)["doc_id"].to_numpy(zero_copy_only=False) for r in refs]))
    n = max(min_shards, -(-len(ids) // shard_rows))
    bounds = ["", *ids[[len(ids) * i // n for i in range(1, n)]], None]
    shards = [_shard_task.remote(lo, hi, *refs) for lo, hi in zip(bounds, bounds[1:])]
    rio.write_table(ray.data.from_arrow_refs(shards), str(path), row_group_size=shard_rows)


def _ensure_compound(sf_dir: str, rep: int, tag: str, builder) -> str:
    """Materialize (once) a compound table (``io.ensure``, as
    ensure_documents)."""
    # shards of <= COMPOUND_BATCH docs: one member-recursion stage call
    # per shard, at the batch size the stage is tuned for, and as many
    # files as the stage has batches to run in parallel (the layout
    # reads members.COMPOUND_BATCH, so members.py is in the cache key)
    return rio.ensure(
        f"documents_{tag}", [Path(sf_dir) / "events.parquet"], [rep, _fp(_members)],
        lambda staging: _write_shards(builder(sf_dir, rep), staging, _members.COMPOUND_BATCH),
    )


def build_oldstyle_documents(sf_dir: str, rep: int = 1) -> ray.data.Dataset:
    return _build(sf_dir, rep, OS_BLOCK, _pack_oldstyle_bucket)


def ensure_oldstyle_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "oldstyle", build_oldstyle_documents)


def read_oldstyle_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> ray.data.Dataset:
    """Read the (cached) old-style multipolygon relation table."""
    return rio.read_resident(ensure_oldstyle_documents(sf_dir, rep), columns=columns)


def ensure_way_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "ways", build_way_documents)


def ensure_relation_documents(sf_dir: str, rep: int = 1) -> str:
    return _ensure_compound(sf_dir, rep, "relations", build_relation_documents)


def read_way_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> ray.data.Dataset:
    """Read the (cached) compound way-document table."""
    return rio.read_resident(ensure_way_documents(sf_dir, rep), columns=columns)


def read_relation_documents(
    sf_dir: str, columns: list[str] | None = None, rep: int = 1
) -> ray.data.Dataset:
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
) -> ray.data.Dataset:
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
