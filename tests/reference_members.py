"""Per-document reference engine for way/relation histories: the
differential oracle of the vectorized engine (``rayhist.members_vec``,
pinned equal in tests/test_members_vec.py).

Implements the reference's member-history semantics for documents
whose spans carry denormalized child histories (FIXTURES.md §1):

- modification timestamps recurse into child entities within
  member-validity windows (``OSHEntities._getModificationTimestamps``
  for ways :330-393 and relations :395-478): a visible-and-matching
  parent version v_i referencing child c opens the inclusive window
  [ts_i, ts_{i+1}] (next parent version of ANY kind; +inf for the
  last); adjacent windows merge; child modification timestamps (their
  own, unfiltered) inside any window join the parent's own filtered
  timestamps; the union is changeset-collapsed with the parent's
  changesets taking precedence at equal timestamps
  (``getChangesetTimestamps`` putIfAbsent, OSHEntities.java:122-170).
- geometry at time T resolves each member to its latest version
  at-or-before T, skipping missing or deleted members
  (``OSHDBGeometryBuilder.java:72-110``).

It reads the span TEXT of a document (generated by
tests/fixtures.make_compound_doc and by rayhist.ingest):

    version: "v=..;ts=..;cs=..;uid=..;vis=.."      (parent versions)
    tag:     "k=v"
    member:  "{type}/{id}@role={role}"             (in ref order,
             following their version span)
    version: "child={type}/{id};v=..;ts=..;cs=..;uid=..;vis=.."
    geom:    media_ref "geom:child={type}/{id};v=..;lon=..;lat=.."

Filters are arbitrary ``match(version)`` callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rayhist.members import RELATION_AREA_TAGS, UNINTERESTING_TAG_KEYS

INF = 1 << 62


@dataclass
class Version:
    v: int
    ts: int
    cs: int
    uid: int
    visible: bool
    tags: dict[str, str] = field(default_factory=dict)
    members: list[tuple[str, str]] = field(default_factory=list)  # (child_id, role)
    lon_e7: int = 0
    lat_e7: int = 0


@dataclass
class DocHistory:
    doc_id: str
    versions: list[Version]  # oldest -> newest
    children: dict[str, list[Version]] = field(default_factory=dict)


def parse_doc(spans: list[dict]) -> DocHistory:
    """Parse an interleaved span stream (incl. child histories) into a
    structured history. Inverse of the fixture generators."""
    doc_versions: list[Version] = []
    children: dict[str, list[Version]] = {}
    cur: Version | None = None
    for s in sorted(spans, key=lambda x: x["offset"]):
        kind = s["kind"]
        if kind == "version":
            txt = s["text"]
            child = None
            if txt.startswith("child="):
                child, txt = txt[6:].split(";", 1)
            f = dict(p.split("=", 1) for p in txt.split(";"))
            cur = Version(
                v=int(f["v"]), ts=int(f["ts"]), cs=int(f["cs"]), uid=int(f["uid"]),
                visible=f["vis"] == "1",
            )
            if child is None:
                doc_versions.append(cur)
            else:
                children.setdefault(child, []).append(cur)
        elif kind == "tag":
            k, v = s["text"].split("=", 1)
            cur.tags[k] = v
        elif kind == "member":
            ent, role = s["text"].split("@role=", 1)
            cur.members.append((ent, role))
        elif kind == "geom":
            ref = s["media_ref"]
            assert ref.startswith("geom:")
            body = ref[5:]
            if body.startswith("child="):
                body = body.split(";", 1)[1]
            f = dict(p.split("=", 1) for p in body.split(";"))
            cur.lon_e7 = int(f["lon"])
            cur.lat_e7 = int(f["lat"])
    for vs in children.values():
        vs.sort(key=lambda x: (x.ts, x.v))
    doc_versions.sort(key=lambda x: (x.ts, x.v))
    return DocHistory("", doc_versions, children)


def version_at(versions: list[Version], ts: int) -> Version | None:
    """Latest version at-or-before ts (OSHEntities.getByTimestamp)."""
    state = None
    for v in versions:
        if v.ts <= ts:
            state = v
        else:
            break
    return state


def resolve_coords(doc: DocHistory, parent: Version, ts: int) -> list[tuple[int, int]]:
    """Member coordinates at ts, skipping missing/deleted members
    (OSHDBGeometryBuilder.java:89-96). Members that are themselves
    ways (relation members) resolve RECURSIVELY through their own
    member list — relation -> way version at ts -> node versions at ts
    (the reference's two-level OSMMember.entity chain,
    osm/OSMMember.java:12-27)."""
    coords: list[tuple[int, int]] = []
    for child_id, _role in parent.members:
        hist = doc.children.get(child_id)
        if not hist:
            continue
        st = version_at(hist, ts)
        if st is None or not st.visible:
            continue
        if st.members:  # a way member: recurse into its nodes
            coords.extend(resolve_coords(doc, st, ts))
        else:
            coords.append((st.lon_e7, st.lat_e7))
    return coords


def resolve_member_rings(doc: DocHistory, parent: Version, ts: int, role: str) -> list:
    """Per-member coordinate arrays for ring assembly: one (n,2) array
    per way member with the given role (multipolygon outer/inner),
    resolved at ts (OSHDBGeometryBuilder.java:187-301 input shape)."""
    import numpy as np

    rings = []
    for child_id, r in parent.members:
        if r != role:
            continue
        hist = doc.children.get(child_id)
        if not hist:
            continue
        st = version_at(hist, ts)
        if st is None or not st.visible:
            continue
        pts = resolve_coords(doc, st, ts)
        if pts:
            rings.append(np.asarray(pts, dtype=np.int64))
    return rings


def build_relation_geom(doc: DocHistory, st: Version, ts: int, interpreter=None):
    """Relation geometry ladder (``OSHDBGeometryBuilder.java:140-301``):
    a relation whose type tag is multipolygon/boundary gets ring
    assembly (with the buffer(0)-analog pinch repair inside
    build_multipolygon); every OTHER relation degrades to a
    GeometryCollection of its members' own geometries (:140-185) —
    previously such relations silently lost geometry."""
    import numpy as np

    from rayhist.geometry import (
        build_geometry_collection,
        build_multipolygon,
        build_node,
        build_way,
    )

    if st.tags.get("type") in ("multipolygon", "boundary"):
        return build_multipolygon(
            resolve_member_rings(doc, st, ts, "outer"),
            resolve_member_rings(doc, st, ts, "inner"),
        )
    subs = []
    for child_id, _role in st.members:
        hist = doc.children.get(child_id)
        if not hist:
            continue
        cv = version_at(hist, ts)
        if cv is None or not cv.visible:
            continue
        if cv.members:  # way member -> its own line/area decision
            pts = resolve_coords(doc, cv, ts)
            if pts:
                subs.append(build_way(np.asarray(pts, dtype=np.int64), cv.tags, interpreter))
        else:  # node member -> Point
            subs.append(build_node(cv.lon_e7, cv.lat_e7))
    return build_geometry_collection(subs)


def _recursive_mod_ts(doc: DocHistory, versions: list[Version], match) -> set[int]:
    """Recursive modification timestamps of one (sub-)entity —
    ``OSHEntities._getModificationTimestamps`` (:330-478): own kept
    timestamps (visible-and-matching, plus the first non-match after a
    match) union child timestamps inside member validity windows.
    Way children recurse into THEIR node members (the reference calls
    the recursive ``getModificationTimestamps(child)``); leaf node
    children contribute every version timestamp (no visibility rule,
    :208-215)."""
    m = [v.visible and (match is None or match(v)) for v in versions]
    result: set[int] = set()
    for i, v in enumerate(versions):
        if m[i] or (i > 0 and m[i - 1]):
            result.add(v.ts)

    windows: dict[str, list[list[int]]] = {}
    for i, v in enumerate(versions):
        if not m[i]:
            continue
        to_ts = versions[i + 1].ts if i + 1 < len(versions) else INF
        for child_id, _role in v.members:
            w = windows.setdefault(child_id, [])
            if w and w[-1][1] == v.ts:
                w[-1][1] = to_ts  # merge adjacent
            else:
                w.append([v.ts, to_ts])

    for child_id, ws in windows.items():
        hist = doc.children.get(child_id)
        if not hist:
            continue
        if any(cv.members for cv in hist):  # way member: recurse
            child_ts = _recursive_mod_ts(doc, hist, None)
        else:  # node member: every version timestamp
            child_ts = {cv.ts for cv in hist}
        for t in child_ts:
            if any(lo <= t <= hi for lo, hi in ws):
                result.add(t)
    return result


def modification_timestamps(
    doc: DocHistory, match=None
) -> list[int]:
    """Filtered + changeset-collapsed modification timestamps with
    member recursion — see module docstring for the reference mapping."""
    result = _recursive_mod_ts(doc, doc.versions, match)

    # changeset map: parent versions win at equal ts (putIfAbsent)
    cs_map: dict[int, int] = {}
    for v in doc.versions:
        cs_map[v.ts] = v.cs
    for hist in doc.children.values():
        for cv in hist:
            cs_map.setdefault(cv.ts, cv.cs)

    ordered = sorted(result)
    if len(ordered) <= 1:
        return ordered
    # keep the LAST of each consecutive same-changeset run
    collapsed = [
        t
        for j, t in enumerate(ordered)
        if j + 1 >= len(ordered) or cs_map.get(ordered[j + 1]) != cs_map.get(t)
    ]
    return collapsed


# ------------------------------------------- old-style multipolygons
def is_old_style_multipolygon(st: Version) -> bool:
    """BaseTagInterpreter.isOldStyleMultipolygon (:111-136): EXACTLY one
    way member with role 'outer', and every relation tag is either a
    relation-area tag or uninteresting (pre-2008 OSM tagging, where the
    real tags live on the outer way)."""
    outer = [m for m, role in st.members if role == "outer"]
    if len(outer) != 1:
        return False
    for k, v in st.tags.items():
        if (k, v) in RELATION_AREA_TAGS:
            continue
        if k not in UNINTERESTING_TAG_KEYS:
            return False
    return True


def snapshots_old_style(doc: DocHistory, timestamps, match=None):
    """Snapshot rows for old-style multipolygon relations
    (CellIterator.java:260-318): the FILTER is tested against the
    resolved OUTER WAY (not the relation), and the emitted geometry is
    ONLY THE INNER HOLES — used to 'fix' results computed on the outer
    way, which doesn't know about the relation's inner members.

    Returns [(ts, relation_version, hole_rings)], hole_rings being the
    resolved 'inner'-role rings at ts."""
    out = []
    for t in timestamps:
        st = version_at(doc.versions, int(t))
        if st is None or not st.visible or (doc.children and not st.members):
            continue
        if not is_old_style_multipolygon(st):
            continue
        outer_id = next(m for m, role in st.members if role == "outer")
        ohist = doc.children.get(outer_id)
        ow = version_at(ohist, int(t)) if ohist else None
        if ow is None or not ow.visible:
            continue
        if match is not None and not match(ow):  # filter on the outer way
            continue
        holes = resolve_member_rings(doc, st, int(t), "inner")
        out.append((int(t), st, holes))
    return out


# ------------------------------------------------------ batch wrappers
def contribution_stats_batch(batch, t_from: int, t_to: int, match=None) -> dict:
    """The partial row of members_vec.contribution_stats_batch_vec, per
    document from the span text."""
    n = cre = dele = tag = geo = usum = 0
    for spans in batch["spans"].to_pylist():
        for c in contributions_doc(parse_doc(spans), int(t_from), int(t_to), match):
            n += 1
            acts = c["activities"]
            cre += "CREATION" in acts
            dele += "DELETION" in acts
            tag += "TAG_CHANGE" in acts
            geo += "GEOMETRY_CHANGE" in acts
            usum += c["uid"]
    return {"n_part": [n], "creation_part": [cre], "deletion_part": [dele],
            "tag_part": [tag], "geom_part": [geo], "uid_part": [usum]}


def snapshot_geoms_batch(batch, timestamps, match=None) -> list[tuple]:
    """The (osm_id, ts_q, n_nodes, sum_lon, sum_lat) rows of
    members_vec.snapshot_geoms_batch_vec, sorted."""
    rows = []
    for oid, spans in zip(batch["osm_id"].to_pylist(), batch["spans"].to_pylist()):
        for t, _st, coords in snapshots_doc(parse_doc(spans), timestamps, match):
            rows.append((oid, t, len(coords), sum(c[0] for c in coords), sum(c[1] for c in coords)))
    return sorted(rows)


def snapshots_old_style_batch(batch, timestamps, match=None) -> list[tuple]:
    """The (ts_q, n_holes, sum_lon, sum_lat) rows of
    members_vec.snapshots_old_style_batch_vec, sorted."""
    rows = []
    for spans in batch["spans"].to_pylist():
        for t, _st, holes in snapshots_old_style(parse_doc(spans), timestamps, match):
            rows.append((int(t), len(holes), int(sum(int(r[:, 0].sum()) for r in holes)),
                         int(sum(int(r[:, 1].sum()) for r in holes))))
    return sorted(rows)


# ------------------------------------------------------------------ views
def snapshots_doc(doc: DocHistory, timestamps, match=None):
    """Snapshot view for a compound document: one (ts_q, version,
    coords) per query timestamp where the parent state is visible,
    matching, and has members (CellIterator.java:250-258 skips empty
    ways/relations)."""
    out = []
    for t in timestamps:
        st = version_at(doc.versions, int(t))
        if st is None or not st.visible:
            continue
        if match is not None and not match(st):
            continue
        if doc.children and not st.members:
            continue
        out.append((int(t), st, resolve_coords(doc, st, int(t))))
    return out


def contributions_doc(doc: DocHistory, t_from: int, t_to: int, match=None):
    """Contribution view for a compound document, including member-
    driven GEOMETRY_CHANGEs (CellIterator.java:437-712 with the
    recursive modification timestamps). The contributor uid comes from
    the child version when the modification is a pure member edit
    (OSMContribution.getContributorUserId, OSMContribution.java:211-257).
    """
    mod_ts = modification_timestamps(doc, match)
    out = []
    prev = None  # (version, coords, present)
    for ts in mod_ts:
        st = version_at(doc.versions, ts)
        if st is None:
            continue
        present = st.visible and (match is None or match(st))
        acts: set[str] = set()
        coords = None
        if not present:
            if prev is not None and prev[2]:
                acts = {"DELETION"}
            else:
                continue
        else:
            coords = resolve_coords(doc, st, ts)
            if prev is None or not prev[2]:
                acts = {"CREATION"}
            else:
                if prev[0].tags != st.tags:
                    acts.add("TAG_CHANGE")
                if prev[1] != coords:
                    acts.add("GEOMETRY_CHANGE")
        uid = st.uid
        if present and st.ts != ts:
            # pure member edit: attribute to the child contributor
            for child_id, _role in st.members:
                hist = doc.children.get(child_id)
                if hist:
                    for cv in hist:
                        if cv.ts == ts:
                            uid = cv.uid
                            break
        if t_from <= ts < t_to:
            out.append(
                {
                    "ts": ts,
                    "v": st.v,
                    "uid": uid,
                    "activities": frozenset(acts),
                    "coords": coords,
                }
            )
        prev = (st, coords, present)
    return out
