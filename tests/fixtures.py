"""Scenario fixtures: deterministic entity lifecycles for unit tests.

Mirrors the reference's hand-written OSM-XML test fixtures
(``oshdb-util/src/test/resources/different-timestamps/*.osm`` — each
entity id is a scenario: geometry change, tag change, visibility
toggles, changeset collapse...) as programmatic builders. See
FIXTURES.md §2 for the taxonomy.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rayhist.model import (
    CHILD_TYPES,
    COMPOUND_SCHEMA,
    DOCUMENTS_SCHEMA,
    SPAN_STRUCT,
    VERSIONS_SCHEMA,
    format_geom_ref,
    format_version_text,
    pack_child_id,
    pack_version_columns,
)

YEAR_US = {y: int(np.datetime64(f"{y}-01-01", "us").astype(np.int64)) for y in range(2006, 2020)}


def fixture_keytable(sigs) -> list[str]:
    """The keytable of a fixture: its distinct non-empty tag
    signatures, sorted (a tagless version packs id -1)."""
    return sorted({s for s in sigs if s})


def _tag_ids(sigs, keytable: list[str]) -> list[int]:
    ids = {s: i for i, s in enumerate(keytable)}
    return [ids[s] if s else -1 for s in sigs]


def make_versions(rows: list[dict]) -> tuple[pa.Table, list[str]]:
    """Build a flat version table from scenario dicts, and its keytable
    (``fixture_keytable``): ``tag_id`` indexes it, as a decode with
    the keytable's lookup emits.

    Each row: doc_id, v, ts, cs, uid, visible, lon_e7, lat_e7, tags
    (dict, optional).
    """
    cols = {
        "doc_id": [],
        "osm_type": [],
        "osm_id": [],
        "v": [],
        "ts": [],
        "cs": [],
        "uid": [],
        "visible": [],
        "lon_e7": [],
        "lat_e7": [],
        "tag_sig": [],
        "etype": [],
        "kk": [],
    }
    for r in rows:
        tags = r.get("tags", {})
        cols["doc_id"].append(r["doc_id"])
        cols["osm_type"].append(r["doc_id"].split("/")[0])
        cols["osm_id"].append(int(r["doc_id"].split("/")[1]))
        cols["v"].append(r["v"])
        cols["ts"].append(r["ts"])
        cols["cs"].append(r.get("cs", r["v"]))
        cols["uid"].append(r.get("uid", 1))
        cols["visible"].append(r.get("visible", True))
        cols["lon_e7"].append(r.get("lon_e7", 0) if r.get("visible", True) else 0)
        cols["lat_e7"].append(r.get("lat_e7", 0) if r.get("visible", True) else 0)
        cols["tag_sig"].append("|".join(f"{k}={v}" for k, v in sorted(tags.items())))
        cols["etype"].append(tags.get("etype", ""))
        cols["kk"].append(int(tags.get("k", -1)))
    keytable = fixture_keytable(cols["tag_sig"])
    cols["tag_id"] = _tag_ids(cols["tag_sig"], keytable)
    return pa.table(cols, schema=VERSIONS_SCHEMA), keytable


def versions_to_documents(versions: pa.Table) -> tuple[pa.Table, list[str]]:
    """Pack a flat version table into span-document rows (test helper,
    same layout as rayhist.ingest._pack_bucket, typed per-version
    columns included), and the keytable (``fixture_keytable`` of the
    versions' signatures) its ``tag_ids`` index."""
    import pandas as pd

    df = versions.to_pandas()
    doc_rows = []
    per_version = []
    for doc_id, g in df.groupby("doc_id", sort=True):
        g = g.sort_values(["ts", "v"], kind="mergesort")
        per_version.append(g)
        spans = []
        off = 0
        for _, r in g.iterrows():
            spans.append(
                {
                    "kind": "version",
                    "text": format_version_text(
                        r["v"], r["ts"], r["cs"], r["uid"], 1 if r["visible"] else 0
                    ),
                    "media_ref": "",
                    "offset": off,
                }
            )
            off += 1
            if r["tag_sig"]:
                for t in r["tag_sig"].split("|"):
                    spans.append({"kind": "tag", "text": t, "media_ref": "", "offset": off})
                    off += 1
            if r["visible"]:
                spans.append(
                    {
                        "kind": "geom",
                        "text": "",
                        "media_ref": format_geom_ref(r["v"], r["lon_e7"], r["lat_e7"]),
                        "offset": off,
                    }
                )
                off += 1
        vis = g[g["visible"]]
        doc_rows.append(
            {
                "doc_id": doc_id,
                "osm_type": doc_id.split("/")[0],
                "osm_id": int(doc_id.split("/")[1]),
                "n_versions": len(g),
                "min_lon_e7": int(vis["lon_e7"].min()) if len(vis) else 0,
                "max_lon_e7": int(vis["lon_e7"].max()) if len(vis) else 0,
                "min_lat_e7": int(vis["lat_e7"].min()) if len(vis) else 0,
                "max_lat_e7": int(vis["lat_e7"].max()) if len(vis) else 0,
                "spans": spans,
            }
        )
    flat = pd.concat(per_version) if per_version else df
    keytable = fixture_keytable(flat["tag_sig"])
    lists = pack_version_columns(
        [len(g) for g in per_version],
        v=flat["v"].to_numpy(), ts=flat["ts"].to_numpy(), cs=flat["cs"].to_numpy(),
        uid=flat["uid"].to_numpy(), visible=flat["visible"].to_numpy(),
        lon_e7=flat["lon_e7"].to_numpy(), lat_e7=flat["lat_e7"].to_numpy(),
        tag_ids=_tag_ids(flat["tag_sig"], keytable),
    )
    scalars = {f.name: [r[f.name] for r in doc_rows] for f in DOCUMENTS_SCHEMA if f.name not in lists}
    return pa.table(scalars | lists, schema=DOCUMENTS_SCHEMA), keytable


def scenario_corpus() -> tuple[pa.Table, list[str]]:
    """The FIXTURES.md §2 node scenarios as one flat version table,
    and its keytable (``make_versions``)."""
    t = YEAR_US
    rows: list[dict] = []
    # N1 geometry-change: create, move, move (tags constant)
    rows += [
        dict(doc_id="node/1", v=1, ts=t[2008], cs=101, lon_e7=10, lat_e7=10, tags={"etype": "view"}),
        dict(doc_id="node/1", v=2, ts=t[2010], cs=102, lon_e7=20, lat_e7=10, tags={"etype": "view"}),
        dict(doc_id="node/1", v=3, ts=t[2012], cs=103, lon_e7=30, lat_e7=10, tags={"etype": "view"}),
    ]
    # N2 tag-change: create, add tag, replace tag (coords constant)
    rows += [
        dict(doc_id="node/2", v=1, ts=t[2008], cs=201, lon_e7=5, lat_e7=5, tags={}),
        dict(doc_id="node/2", v=2, ts=t[2010], cs=202, lon_e7=5, lat_e7=5, tags={"etype": "click"}),
        dict(doc_id="node/2", v=3, ts=t[2012], cs=203, lon_e7=5, lat_e7=5, tags={"etype": "purchase"}),
    ]
    # N3 visibility-cycle: create/delete/recreate/delete/recreate
    rows += [
        dict(doc_id="node/3", v=1, ts=t[2007], cs=301, lon_e7=1, lat_e7=1),
        dict(doc_id="node/3", v=2, ts=t[2009], cs=302, visible=False),
        dict(doc_id="node/3", v=3, ts=t[2011], cs=303, lon_e7=2, lat_e7=2),
        dict(doc_id="node/3", v=4, ts=t[2013], cs=304, visible=False),
        dict(doc_id="node/3", v=5, ts=t[2015], cs=305, lon_e7=3, lat_e7=3),
    ]
    # N4 mixed: create, tag+move, delete, recreate, move
    rows += [
        dict(doc_id="node/4", v=1, ts=t[2008], cs=401, lon_e7=0, lat_e7=0, tags={"etype": "view"}),
        dict(doc_id="node/4", v=2, ts=t[2010], cs=402, lon_e7=9, lat_e7=9, tags={"etype": "click"}),
        dict(doc_id="node/4", v=3, ts=t[2011], cs=403, visible=False),
        dict(doc_id="node/4", v=4, ts=t[2013], cs=404, lon_e7=9, lat_e7=9, tags={"etype": "click"}),
        dict(doc_id="node/4", v=5, ts=t[2014], cs=405, lon_e7=12, lat_e7=9, tags={"etype": "click"}),
    ]
    # N5 pre-interval edits only
    rows += [
        dict(doc_id="node/5", v=1, ts=t[2006], cs=501, lon_e7=7, lat_e7=7),
        dict(doc_id="node/5", v=2, ts=t[2007], cs=502, lon_e7=8, lat_e7=7),
    ]
    # C1 changeset-collapse: 3 consecutive edits in one changeset
    rows += [
        dict(doc_id="node/6", v=1, ts=t[2008], cs=601, lon_e7=1, lat_e7=1),
        dict(doc_id="node/6", v=2, ts=t[2010], cs=777, lon_e7=2, lat_e7=1),
        dict(doc_id="node/6", v=3, ts=t[2010] + 1_000_000, cs=777, lon_e7=3, lat_e7=1),
        dict(doc_id="node/6", v=4, ts=t[2010] + 2_000_000, cs=777, lon_e7=4, lat_e7=1),
        dict(doc_id="node/6", v=5, ts=t[2013], cs=602, lon_e7=5, lat_e7=1),
    ]
    # F1 filter-relative lifecycle: tag appears, disappears, reappears
    rows += [
        dict(doc_id="node/7", v=1, ts=t[2008], cs=701, lon_e7=1, lat_e7=2, tags={"etype": "view"}),
        dict(doc_id="node/7", v=2, ts=t[2010], cs=702, lon_e7=1, lat_e7=2, tags={"etype": "click"}),
        dict(doc_id="node/7", v=3, ts=t[2012], cs=703, lon_e7=1, lat_e7=2, tags={"etype": "view"}),
        dict(doc_id="node/7", v=4, ts=t[2014], cs=704, lon_e7=1, lat_e7=2, tags={"etype": "click"}),
    ]
    # D1 starts deleted (leading tombstone)
    rows += [
        dict(doc_id="node/8", v=1, ts=t[2008], cs=801, visible=False),
        dict(doc_id="node/8", v=2, ts=t[2010], cs=802, lon_e7=6, lat_e7=6),
    ]
    # E1 empty-set contribution: collapse lands on an unchanged state
    rows += [
        dict(doc_id="node/9", v=1, ts=t[2008], cs=901, lon_e7=4, lat_e7=4, tags={"etype": "view"}),
        dict(doc_id="node/9", v=2, ts=t[2010], cs=902, lon_e7=5, lat_e7=4, tags={"etype": "view"}),
        dict(doc_id="node/9", v=3, ts=t[2010] + 1_000_000, cs=902, lon_e7=4, lat_e7=4, tags={"etype": "view"}),
    ]
    return make_versions(rows)


def make_compound_doc(
    doc_id: str,
    versions: list[dict],
    children: dict[str, list[dict]],
) -> list[dict]:
    """Build the span stream of a way/relation document with
    denormalized child histories (FIXTURES.md §1 layout).

    versions: [{v, ts, cs, uid, visible, tags?, members?: [(id, role)]}]
    children: {child_id: [{v, ts, cs?, uid?, visible, lon, lat}]}
    """
    spans: list[dict] = []
    off = 0

    def emit(kind, text="", ref=""):
        nonlocal off
        spans.append({"kind": kind, "text": text, "media_ref": ref, "offset": off})
        off += 1

    for r in versions:
        emit(
            "version",
            format_version_text(
                r["v"], r["ts"], r.get("cs", r["v"]), r.get("uid", 1),
                1 if r.get("visible", True) else 0,
            ),
        )
        for k, v in sorted(r.get("tags", {}).items()):
            emit("tag", f"{k}={v}")
        for child_id, role in r.get("members", []):
            emit("member", f"{child_id}@role={role}")
    for child_id, vs in sorted(children.items()):
        for r in vs:
            emit(
                "version",
                f"child={child_id};"
                + format_version_text(
                    r["v"], r["ts"], r.get("cs", r["v"] + 9000), r.get("uid", 2),
                    1 if r.get("visible", True) else 0,
                ),
            )
            if r.get("visible", True):
                emit("geom", "", f"geom:child={child_id};v={r['v']};lon={r['lon']};lat={r['lat']}")
    return spans


def scenario_way_w1() -> list[dict]:
    """W1 way-node-motion: the way has ONE version; a member node moves
    between way versions -> GEOMETRY_CHANGE contributions without a new
    way version, contributor uid resolved from the child."""
    t = YEAR_US
    versions = [
        dict(v=1, ts=t[2008], cs=11, uid=5, tags={"highway": "residential"},
             members=[("node/100", ""), ("node/101", "")]),
    ]
    children = {
        "node/100": [
            dict(v=1, ts=t[2007], uid=7, lon=0, lat=0),
            dict(v=2, ts=t[2010], uid=8, lon=10_000_000, lat=0),
            dict(v=3, ts=t[2013], uid=9, lon=20_000_000, lat=0),
        ],
        "node/101": [dict(v=1, ts=t[2007], uid=7, lon=0, lat=10_000_000)],
    }
    return make_compound_doc("way/1", versions, children)


def scenario_relation_old_style() -> list[dict]:
    """R3 old-style multipolygon (pre-2008 tagging): the relation
    carries ONLY type=multipolygon; the interesting tag (building=yes)
    lives on the single OUTER way; one inner way punches a hole. The
    inner ring grows in 2012 -> the holes-only geometry grows."""
    t = YEAR_US
    node_hist = {
        # outer square 0..100Me7
        "node/1": [dict(v=1, ts=t[2007], lon=0, lat=0)],
        "node/2": [dict(v=1, ts=t[2007], lon=100_000_000, lat=0)],
        "node/3": [dict(v=1, ts=t[2007], lon=100_000_000, lat=100_000_000)],
        "node/4": [dict(v=1, ts=t[2007], lon=0, lat=100_000_000)],
        # inner square 40..60Me7, node 7 moves outward in 2012
        "node/5": [dict(v=1, ts=t[2007], lon=40_000_000, lat=40_000_000)],
        "node/6": [dict(v=1, ts=t[2007], lon=60_000_000, lat=40_000_000)],
        "node/7": [
            dict(v=1, ts=t[2007], lon=60_000_000, lat=60_000_000),
            dict(v=2, ts=t[2012], lon=70_000_000, lat=70_000_000),
        ],
        "node/8": [dict(v=1, ts=t[2007], lon=40_000_000, lat=60_000_000)],
    }
    spans = make_compound_doc(
        "relation/3",
        [
            dict(
                v=1, ts=t[2008], cs=31, tags={"type": "multipolygon"},
                members=[("way/20", "outer"), ("way/21", "inner")],
            )
        ],
        node_hist,
    )
    off = spans[-1]["offset"] + 1
    way_members = {
        "way/20": (["node/1", "node/2", "node/3", "node/4", "node/1"], "building=yes"),
        "way/21": (["node/5", "node/6", "node/7", "node/8", "node/5"], None),
    }
    for wid, (nds, tag) in way_members.items():
        spans.append(
            {"kind": "version", "text": f"child={wid};v=1;ts={t[2007]};cs=7;uid=1;vis=1",
             "media_ref": "", "offset": off}
        )
        off += 1
        if tag:
            spans.append({"kind": "tag", "text": tag, "media_ref": "", "offset": off})
            off += 1
        for nd in nds:
            spans.append({"kind": "member", "text": f"{nd}@role=", "media_ref": "", "offset": off})
            off += 1
    return spans


def scenario_way_w2_ring() -> list[dict]:
    """W2 ring/area: closed ring with building=yes -> polygon."""
    t = YEAR_US
    ring = [(0, 0), (10_000_000, 0), (10_000_000, 10_000_000), (0, 10_000_000)]
    members = [(f"node/{200+i}", "") for i in range(4)] + [("node/200", "")]
    children = {
        f"node/{200+i}": [dict(v=1, ts=t[2007], lon=lo, lat=la)]
        for i, (lo, la) in enumerate(ring)
    }
    versions = [dict(v=1, ts=t[2008], cs=21, tags={"building": "yes"}, members=members)]
    return make_compound_doc("way/2", versions, children)


def _child_id(ref: str) -> int:
    """'{type}/{id}' -> the packed child id (model.pack_child_id)."""
    typ, oid = ref.split("/", 1)
    return int(pack_child_id(CHILD_TYPES.index(typ), int(oid)))


def pack_compound_docs(span_docs: list[list[dict]], ids=None) -> tuple[pa.Table, dict]:
    """Compound span lists -> (COMPOUND_SCHEMA table, keytable): the
    typed columns are read off the span text (each tag, member and geom
    span attaches to the version span before it, a repeated tag key
    keeps its last value) and packed through model.pack_version_columns,
    as ingest packs them; tag signatures and roles take ids of the
    returned keytable (ingest.compound_keytable format)."""
    sigs: dict[tuple, int] = {}
    roles: dict[str, int] = {}
    vers, counts, n_parent, mems, n_mem = [], [], [], [], []
    for spans in span_docs:
        doc_vers: list[dict] = []
        n_edges = len(mems)
        for s in sorted(spans, key=lambda x: x["offset"]):
            if s["kind"] == "version":
                txt, child = s["text"], -1
                if txt.startswith("child="):
                    ref, txt = txt[6:].split(";", 1)
                    child = _child_id(ref)
                f = dict(p.split("=", 1) for p in txt.split(";"))
                doc_vers.append({"v": int(f["v"]), "ts": int(f["ts"]), "cs": int(f["cs"]),
                                 "uid": int(f["uid"]), "vis": f["vis"] == "1", "child": child,
                                 "lon": 0, "lat": 0, "tags": {}})
            elif not doc_vers:
                continue  # no version span yet to attach to
            elif s["kind"] == "tag":
                k, v = s["text"].split("=", 1)
                doc_vers[-1]["tags"][k] = v
            elif s["kind"] == "member":
                ref, role = s["text"].split("@role=", 1)
                mems.append((len(doc_vers) - 1, _child_id(ref), roles.setdefault(role, len(roles))))
            elif s["kind"] == "geom":
                body = s["media_ref"][len("geom:"):]
                if body.startswith("child="):
                    body = body.split(";", 1)[1]
                f = dict(p.split("=", 1) for p in body.split(";"))
                doc_vers[-1]["lon"], doc_vers[-1]["lat"] = int(f["lon"]), int(f["lat"])
        for r in doc_vers:
            r["tag"] = sigs.setdefault(tuple(sorted(r["tags"].items())), len(sigs))
        vers += doc_vers
        counts.append(len(doc_vers))
        n_parent.append(sum(r["child"] == -1 for r in doc_vers))
        n_mem.append(len(mems) - n_edges)
    fields = ("v", "ts", "cs", "uid", "vis", "lon", "lat", "child", "tag")
    col = {k: [r[k] for r in vers] for k in fields}
    lists = pack_version_columns(
        counts, v=col["v"], ts=col["ts"], cs=col["cs"], uid=col["uid"], visible=col["vis"],
        lon_e7=col["lon"], lat_e7=col["lat"], tag_ids=col["tag"], child=col["child"],
        members=(n_mem, [m[0] for m in mems], [m[1] for m in mems], [m[2] for m in mems]),
    )
    n = len(span_docs)
    ids = list(range(n)) if ids is None else list(ids)
    flat = [dict(s, media_ref=s.get("media_ref", "")) for doc in span_docs for s in doc]
    offs = np.r_[0, np.cumsum([len(d) for d in span_docs])].astype(np.int32)
    spans = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=SPAN_STRUCT))
    table = pa.table(
        {
            "doc_id": [f"way/{i}" for i in ids], "osm_type": ["way"] * n, "osm_id": ids,
            "n_versions": n_parent,
            **{c: [0] * n for c in ("min_lon_e7", "max_lon_e7", "min_lat_e7", "max_lat_e7")},
            "spans": spans, **lists,
        },
        schema=COMPOUND_SCHEMA,
    )
    keytable = {"tags": [[list(kv) for kv in sig] for sig in sigs], "roles": list(roles)}
    return table, keytable
