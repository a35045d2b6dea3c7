"""Geometry builder: entity version + member states -> geometry.

From-scratch rebuild of ``OSHDBGeometryBuilder``
(``oshdb-util/.../geometry/OSHDBGeometryBuilder.java:64-362``) without
JTS, on plain numpy coordinate arrays:

- node -> Point (:66-70)
- way  -> LineString, or Polygon when the ring is closed AND the tag
  interpreter says "area" (:72-110); degenerate ways (1/0 nodes) fall
  back point/empty (:101-110)
- relation (type=multipolygon) -> MultiPolygon via ring assembly: join
  adjacent member ways into closed rings (join(), :304-362), match
  inner rings to the outer ring that contains them (STRtree in the
  reference; direct containment test here), tolerate missing members
  (:140-185). Invalid/unclosable rings are dropped (the reference's
  buffer(0)-repair ladder collapses to drop-or-keep without JTS; the
  fallback ladder polygon->linestring->point->empty is preserved).

- TagInterpreter: the area decision (``BaseTagInterpreter.java:74-97``
  driven by polygon-features.json): a closed way is a polygon iff it
  has an area tag (here: the 'area' key or any key in AREA_TAGS) and
  not area=no.

Geometries are plain dataclasses over numpy arrays — cheap to build
per version inside a map_batches stage, with length/area from
rayhist.functions.geo (reference-identical formulas).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functions.geo import area_of_polygon, length_of_line

# analog of polygon-features.json (DefaultTagInterpreter.java:23-191)
AREA_TAGS = {"building", "landuse", "natural", "leisure", "amenity", "area"}


class TagInterpreter:
    """Configurable area decision — the engine's DefaultTagInterpreter
    (``oshdb-util/.../taginterpreter/DefaultTagInterpreter.java:23-191``
    driven by polygon-features.json).

    Spec: a list of ``{"key": k, "polygon": "all"}`` /
    ``{"key": k, "polygon": "whitelist", "values": [...]}`` /
    ``{"key": k, "polygon": "blacklist", "values": [...]}`` entries,
    the exact shape of the osm polygon-features dataset. A closed way
    is an area iff some entry accepts one of its tags, and ``area=no``
    always wins (BaseTagInterpreter.java:74-97).
    """

    def __init__(self, spec: list[dict] | None = None):
        if spec is None:
            spec = [{"key": k, "polygon": "all"} for k in sorted(AREA_TAGS)]
        self.all_keys: set[str] = set()
        self.white: dict[str, set[str]] = {}
        self.black: dict[str, set[str]] = {}
        for e in spec:
            mode = e.get("polygon", "all")
            if mode == "all":
                self.all_keys.add(e["key"])
            elif mode == "whitelist":
                self.white[e["key"]] = set(e["values"])
            elif mode == "blacklist":
                self.black[e["key"]] = set(e["values"])
            else:
                raise ValueError(f"unknown polygon mode: {mode!r}")

    def is_area(self, tags: dict[str, str]) -> bool:
        if tags.get("area") == "no":
            return False
        for k, v in tags.items():
            # "all" wraps an InvertedHashSet CONTAINING "no"
            # (DefaultTagInterpreter.java:88-93): every value counts
            # EXCEPT "no" — building=no is a linestring
            if k in self.all_keys and v != "no":
                return True
            # "whitelist" ADDS "no" to the accepted set
            # (DefaultTagInterpreter.java:94-104) — a reference quirk,
            # mirrored verbatim for parity
            if k in self.white and (v in self.white[k] or v == "no"):
                return True
            if k in self.black and v not in self.black[k]:
                return True
        return False


DEFAULT_TAG_INTERPRETER = TagInterpreter()


@dataclass
class Geom:
    kind: str  # point | linestring | polygon | multipolygon | collection | empty
    # parts: list of rings/lines; each (lons_deg, lats_deg) float64
    parts: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    holes: list[list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=list)
    # collection members (GeometryCollection fallback for
    # non-multipolygon relations, OSHDBGeometryBuilder.java:140-185)
    subs: list["Geom"] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        if self.kind == "collection":
            return not self.subs
        return self.kind == "empty" or not self.parts

    def length_m(self) -> float:
        if self.kind == "linestring":
            return sum(length_of_line(x, y) for x, y in self.parts)
        if self.kind == "collection":  # JTS: sum of linear members
            return sum(g.length_m() for g in self.subs)
        return 0.0

    def area_m2(self) -> float:
        if self.kind == "polygon":
            return area_of_polygon(self.parts[0], self.holes[0] if self.holes else ())
        if self.kind == "multipolygon":
            total = 0.0
            for i, outer in enumerate(self.parts):
                total += area_of_polygon(outer, self.holes[i] if i < len(self.holes) else ())
            return total
        if self.kind == "collection":  # JTS: sum of areal members
            return sum(g.area_m2() for g in self.subs)
        return 0.0


def is_area(tags: dict[str, str], interpreter: TagInterpreter | None = None) -> bool:
    """Area decision (BaseTagInterpreter.java:74-97 behavior),
    delegated to the (configurable) TagInterpreter."""
    return (interpreter or DEFAULT_TAG_INTERPRETER).is_area(tags)


def build_node(lon_e7: int, lat_e7: int) -> Geom:
    return Geom("point", [(np.array([lon_e7 / 1e7]), np.array([lat_e7 / 1e7]))])


def build_way(
    coords_e7: np.ndarray,
    tags: dict[str, str],
    interpreter: TagInterpreter | None = None,
) -> Geom:
    """coords_e7: (n, 2) resolved member-node positions in ref order.
    Missing members must already be dropped by the resolver (the
    reference tolerates incomplete data, OSHDBGeometryBuilder.java:89-96)."""
    n = len(coords_e7)
    if n == 0:
        return Geom("empty")
    if n == 1:
        return build_node(int(coords_e7[0, 0]), int(coords_e7[0, 1]))
    lons = coords_e7[:, 0] / 1e7
    lats = coords_e7[:, 1] / 1e7
    closed = coords_e7[0, 0] == coords_e7[-1, 0] and coords_e7[0, 1] == coords_e7[-1, 1]
    if closed and n >= 4 and is_area(tags, interpreter):
        return Geom("polygon", [(lons, lats)], [[]])
    return Geom("linestring", [(lons, lats)])


def _join_rings(ways: list[np.ndarray]) -> list[np.ndarray]:
    """Join way segments endpoint-to-endpoint into closed rings
    (OSHDBGeometryBuilder.join, :304-362). An unjoinable chain (an
    incomplete relation) falls out of the pool implicitly: it is
    popped, matches nothing, and is never re-queued.

    Known divergence: endpoints match by rounded e7 COORDINATE, while
    the reference joins by node identity — distinct stacked nodes at
    the same e7 position would fuse here. The span model carries
    coordinates only at this layer; dirty stacked-node relations are
    out of the synthetic corpus's scope."""
    open_chains = [w.copy() for w in ways if len(w) >= 2]
    rings: list[np.ndarray] = []
    while open_chains:
        chain = open_chains.pop(0)
        if np.array_equal(chain[0], chain[-1]) and len(chain) >= 4:
            rings.append(chain)
            continue
        joined = False
        for i, other in enumerate(open_chains):
            for flip in (False, True):
                o = other[::-1] if flip else other
                if np.array_equal(chain[-1], o[0]):
                    open_chains[i] = np.vstack([chain, o[1:]])
                    joined = True
                    break
                if np.array_equal(o[-1], chain[0]):
                    open_chains[i] = np.vstack([o, chain[1:]])
                    joined = True
                    break
            if joined:
                break
    return rings


def _shoelace_e7(ring: np.ndarray) -> float:
    """Planar signed area x2 of a closed e7 ring; positive = CCW.

    Coordinates are TRANSLATED to the ring's min corner before the
    cross products: full-magnitude e7 values (up to 1.8e9) make the
    products exceed float64's 2^53 exact-integer range, so a truly
    collinear sliver at a high longitude could sum to a nonzero value
    and survive the exact ``== 0`` sliver test; after translation the
    products are exact for any ring under ~0.3 degrees of extent and
    the signed area is translation-invariant."""
    x = ring[:-1, 0].astype(np.float64)
    y = ring[:-1, 1].astype(np.float64)
    x = x - x.min()
    y = y - y.min()
    return float((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())


def _split_crossings(ring: np.ndarray) -> np.ndarray:
    """Insert a vertex at every PROPER edge crossing of a closed ring
    (a bowtie traced without a shared node — the self-intersection
    class the pinch split below cannot see, because no vertex repeats).
    After insertion both crossing edges pass through the SAME rounded
    e7 vertex, so the pinch split decomposes the ring exactly like
    JTS ``buffer(0)`` does (OSHDBGeometryBuilder.java:187-301's repair
    step). Rounding to integer e7 (~1 cm) is the fixed-point analog of
    JTS's precision model snap.

    Pairwise test CHUNKED over the first edge index with an edge-AABB
    prefilter per chunk, so peak memory is O(chunk x m) booleans plus
    the surviving candidate pairs — never the m^2/2 int64 index
    arrays of the naive all-pairs form (a joined 100k-vertex
    admin-boundary ring would have needed ~80 GB of indexes alone).
    """
    body = ring[:-1].astype(np.float64)
    m = len(body)
    if m < 4:
        return ring
    a = body
    b = np.vstack([body[1:], body[:1]])  # edge i: a[i] -> b[i]
    ex0 = np.minimum(a[:, 0], b[:, 0])
    ex1 = np.maximum(a[:, 0], b[:, 0])
    ey0 = np.minimum(a[:, 1], b[:, 1])
    ey1 = np.maximum(a[:, 1], b[:, 1])
    chunk = max(1, 4_000_000 // m)
    ci, cj = [], []
    for s0 in range(0, m, chunk):
        s1 = min(s0 + chunk, m)
        ii = np.arange(s0, s1)
        # j > i + 1 (adjacent edges share an endpoint by construction)
        cand = (
            (ex1[ii][:, None] >= ex0[None, :])
            & (ex0[ii][:, None] <= ex1[None, :])
            & (ey1[ii][:, None] >= ey0[None, :])
            & (ey0[ii][:, None] <= ey1[None, :])
            & (np.arange(m)[None, :] > ii[:, None] + 1)
        )
        ci_, cj_ = np.nonzero(cand)
        ci.append(ii[ci_])
        cj.append(cj_)
    i_idx = np.concatenate(ci) if ci else np.array([], dtype=np.int64)
    j_idx = np.concatenate(cj) if cj else np.array([], dtype=np.int64)
    # pair (0, m-1) is adjacent too (the closure)
    keep = ~((i_idx == 0) & (j_idx == m - 1))
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if len(i_idx) == 0:
        return ring
    p, r = a[i_idx], b[i_idx] - a[i_idx]
    q, s = a[j_idx], b[j_idx] - a[j_idx]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
        u = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / denom
    eps = 1e-12
    cross = (denom != 0) & (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    if not cross.any():
        return ring
    # e7-rounded crossing point, inserted into BOTH edges (ordered by
    # the parametric position within each edge so multi-crossing edges
    # stay sorted)
    pts = np.rint(p[cross] + t[cross, None] * r[cross]).astype(ring.dtype)
    inserts: dict[int, list[tuple[float, np.ndarray]]] = {}
    for e_i, e_j, tt, uu, pt in zip(i_idx[cross], j_idx[cross], t[cross], u[cross], pts):
        inserts.setdefault(int(e_i), []).append((float(tt), pt))
        inserts.setdefault(int(e_j), []).append((float(uu), pt))
    out = []
    for i in range(m):
        out.append(ring[i])
        for _, pt in sorted(inserts.get(i, []), key=lambda x: x[0]):
            out.append(pt)
    out.append(ring[0])
    return np.asarray(out, dtype=ring.dtype)


def normalize_ring(ring: np.ndarray, ccw: bool = True) -> list[np.ndarray]:
    """Self-touching-ring repair — the no-JTS analog of the reference's
    buffer(0) ladder (``OSHDBGeometryBuilder.java:187-301``, which runs
    JTS buffer(0) on invalid assembled rings).

    A closed ring that revisits a vertex (a pinch point: e.g. a
    figure-eight traced through one shared node — the most common
    invalid-multipolygon shape in dirty OSM data) is split AT the
    repeated vertex into the enclosed sub-ring and the remainder,
    recursively, until every piece is vertex-simple. Each surviving
    piece is re-oriented by shoelace sign (``ccw=True`` for outers,
    ``False`` for holes — the GeoJSON winding) and degenerate pieces
    (fewer than 3 distinct vertices, or zero planar area) are dropped.
    That is exactly buffer(0)'s observable effect on pinched rings:
    simple valid polygons out, zero-area slivers gone — instead of the
    previous behavior of keeping the invalid ring as-is.
    """
    out: list[np.ndarray] = []
    # edge-crossing vertices inserted ONCE up front (every crossing of
    # the original ring gets its vertex here; pinch splitting below can
    # only separate existing vertices, never create new crossings)
    stack = [_split_crossings(np.asarray(ring))]
    while stack:
        r = stack.pop()
        if len(r) < 4:  # closed ring needs >= 3 distinct vertices
            continue
        body = r[:-1]
        order = np.lexsort((body[:, 1], body[:, 0]))
        sb = body[order]
        dup = np.flatnonzero((sb[1:] == sb[:-1]).all(axis=1))
        if len(dup):
            i, j = sorted((int(order[dup[0]]), int(order[dup[0] + 1])))
            # body[i] == body[j]: the pinch vertex. Enclosed sub-ring
            # i..j is already closed; the remainder re-closes on body[0].
            stack.append(body[i : j + 1])
            stack.append(np.vstack([body[: i + 1], body[j + 1 :], body[:1]]))
            continue
        sl = _shoelace_e7(r)
        if sl == 0.0:  # zero-area sliver (buffer(0) removes these)
            continue
        if (sl > 0) != ccw:
            r = r[::-1]
        out.append(r)
    return out


def build_geometry_collection(geoms: list[Geom]) -> Geom:
    """Non-multipolygon relation fallback
    (``OSHDBGeometryBuilder.java:140-185``): a relation whose type tag
    is not multipolygon/boundary degrades gracefully to a
    GeometryCollection of its members' own geometries (each built with
    the member's tags) instead of losing geometry entirely. Empty
    members are dropped; an all-empty collection is empty."""
    subs = [g for g in geoms if not g.is_empty]
    return Geom("collection", subs=subs) if subs else Geom("empty")


def _point_in_ring(px: float, py: float, ring: np.ndarray) -> bool:
    x, y = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    cond = (y > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x + (py - y) * (x2 - x) / (y2 - y)
    return int((cond & (px < xint)).sum()) % 2 == 1


def _points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized even-odd crossing test for MANY points against one
    ring (same convention as _point_in_ring)."""
    x, y = ring[:, 0], ring[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    cond = (y[None, :] > py[:, None]) != (y2[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x[None, :] + (py[:, None] - y[None, :]) * (x2 - x)[None, :] / (y2 - y)[None, :]
    return (cond & (px[:, None] < xint)).sum(axis=1) % 2 == 1


def build_multipolygon(
    outer_ways: list[np.ndarray], inner_ways: list[np.ndarray]
) -> Geom:
    """Ring assembly + inner->outer matching
    (OSHDBGeometryBuilder.java:187-301). Joined rings go through the
    buffer(0)-analog repair (normalize_ring): pinched rings split into
    simple pieces, slivers dropped, windings normalized."""
    outers = [p for r in _join_rings(outer_ways) for p in normalize_ring(r, ccw=True)]
    inners = [p for r in _join_rings(inner_ways) for p in normalize_ring(r, ccw=False)]
    if not outers:
        return Geom("empty")
    parts, holes = [], []
    for o in outers:
        parts.append((o[:, 0] / 1e7, o[:, 1] / 1e7))
        holes.append([])
    if len(outers) == 1:
        # the reference attaches ALL inners unconditionally to a
        # single outer (OSHDBGeometryBuilder.java:253-257,
        # createPolygon(outer, allInners)) — even a dirty inner poking
        # outside it keeps its hole
        holes[0] = [(inner[:, 0] / 1e7, inner[:, 1] / 1e7) for inner in inners]
        return Geom("multipolygon", parts, holes)
    for inner in inners:
        # multiple outers: the reference attaches the inner to EVERY
        # outer whose polygon contains it (constructMultipolygonPart,
        # OSHDBGeometryBuilder.java:289-301 outerPolygon::contains —
        # nested outers each get the hole); containment approximated
        # as every inner vertex strictly inside the outer ring.
        pts = inner[:-1]
        attached = False
        for i, o in enumerate(outers):
            if _points_in_ring(pts[:, 0], pts[:, 1], o).all():
                holes[i].append((inner[:, 0] / 1e7, inner[:, 1] / 1e7))
                attached = True
        if not attached:
            # TOUCHING/dirty inner (vertices on an outer's boundary get
            # arbitrary even-odd results): probe fallback, first match
            # wins. The vertex MEAN is used only when it lies inside
            # the inner itself — a non-convex inner's mean can fall in
            # a DIFFERENT outer (horseshoe-mouth case) and would punch
            # the hole into the wrong polygon.
            cx, cy = float(pts[:, 0].mean()), float(pts[:, 1].mean())
            probes = (
                [(cx, cy)] if _point_in_ring(cx, cy, inner) else []
            ) + [(float(x), float(y)) for x, y in pts]
            placed = False
            for px_, py_ in probes:
                for i, o in enumerate(outers):
                    if _point_in_ring(px_, py_, o):
                        holes[i].append((inner[:, 0] / 1e7, inner[:, 1] / 1e7))
                        placed = True
                        break
                if placed:
                    break
            # still unmatched: drop, as in the reference (its own
            # 'todo: what to do with unmatched inner rings??', :278)
    return Geom("multipolygon", parts, holes)


# ------------------------------------------------------------------ clipping
def clip_segments_convex(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    poly_e7,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyrus–Beck parametric clip of segments a->b against a CONVEX CCW
    polygon (e7 coordinates, float64). Returns (t0, t1, ok): the
    clipped parameter interval per segment and whether any part lies
    inside. The polygon∩segment core of FastPolygonOperations
    (fip/FastPolygonOperations.java:15-160), done as half-plane
    t-interval intersection.

    The arithmetic (num/den per edge, max/min of ratios) is mirrored
    LITERALLY by the SQL oracle (rayhist.oracles._cyrus_beck_region), so
    clipped lengths are bit-identical to DuckDB.
    """
    poly = np.asarray(poly_e7, dtype=np.float64)
    dx, dy = bx - ax, by - ay
    t0 = np.zeros(len(ax))
    t1 = np.ones(len(ax))
    ok = np.ones(len(ax), dtype=bool)
    n = len(poly)
    for i in range(n):
        vix, viy = poly[i]
        vjx, vjy = poly[(i + 1) % n]
        nx, ny = -(vjy - viy), (vjx - vix)  # inward normal of a CCW edge
        den = nx * dx + ny * dy
        num = nx * (vix - ax) + ny * (viy - ay)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(den != 0, num / np.where(den != 0, den, 1.0), 0.0)
        t0 = np.where(den > 0, np.maximum(t0, r), t0)
        t1 = np.where(den < 0, np.minimum(t1, r), t1)
        ok &= ~((den == 0) & (num > 0))  # parallel & fully outside
    ok &= t0 <= t1
    return t0, t1, ok


def clip_polygon_convex(ring_e7: np.ndarray, poly_e7) -> np.ndarray:
    """Sutherland–Hodgman: clip an arbitrary subject ring against a
    CONVEX CCW clip polygon. Returns the clipped ring as an (n, 2)
    float64 array in e7 space (possibly empty). The polygon∩polygon
    path of FastPolygonOperations — enables clipped-AREA
    aggregateByGeometry for overlapping regions."""
    subject = [tuple(p) for p in np.asarray(ring_e7, dtype=np.float64)]
    if subject and subject[0] == subject[-1]:
        subject = subject[:-1]
    poly = np.asarray(poly_e7, dtype=np.float64)
    n = len(poly)
    for i in range(n):
        if not subject:
            break
        vix, viy = poly[i]
        vjx, vjy = poly[(i + 1) % n]
        nx, ny = -(vjy - viy), (vjx - vix)

        def inside(p):
            return nx * (p[0] - vix) + ny * (p[1] - viy) >= 0

        def intersect(p, q):
            den = nx * (q[0] - p[0]) + ny * (q[1] - p[1])
            t = (nx * (vix - p[0]) + ny * (viy - p[1])) / den
            return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

        out = []
        for j, cur in enumerate(subject):
            prev = subject[j - 1]
            if inside(cur):
                if not inside(prev):
                    out.append(intersect(prev, cur))
                out.append(cur)
            elif inside(prev):
                out.append(intersect(prev, cur))
        subject = out
    return np.asarray(subject, dtype=np.float64).reshape(-1, 2)


def points_even_odd(
    lon: np.ndarray, lat: np.ndarray, rings
) -> np.ndarray:
    """Crossing-number parity membership over ALL rings (outer + holes)
    of a general polygon — numpy twin of the SQL mirror
    ``oracles._even_odd_condition``: per edge, the crossing test
    ``(y1 > lat) != (y2 > lat) AND lon < x1 + (lat-y1)*(x2-x1)/(y2-y1)``
    is counted; inside iff the count is odd. Identical float64 ops on
    both sides, so boundary decisions agree bit-for-bit."""
    cnt = np.zeros(len(lon), dtype=np.int64)
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        if np.array_equal(r[0], r[-1]):
            r = r[:-1]
        n = len(r)
        for i in range(n):
            x1, y1 = r[i]
            x2, y2 = r[(i + 1) % n]
            crosses = (y1 > lat) != (y2 > lat)
            if y2 != y1:
                xi = x1 + (lat - y1) * (x2 - x1) / (y2 - y1)
                cnt += (crosses & (lon < xi)).astype(np.int64)
    return cnt % 2 == 1


def clip_segments_even_odd(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    rings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GENERAL polygon clip of segments a->b against an arbitrary
    (non-convex, holed, even-odd) polygon given as a list of rings —
    the full polygon∩line path of FastPolygonOperations
    (fip/FastPolygonOperations.java:15-160, used by
    CellIterator.java:361-377 / GeometrySplitter.java:80-203), which
    the convex-only Cyrus–Beck kernel above cannot express.

    Method (mirrored LITERALLY by oracles._even_odd_clip_region so the
    SQL twin is bit-identical): per segment, collect the parameters
    ``t in (0,1)`` where the segment properly crosses any ring edge
    (cross-product solve, strict inequalities on t and u), sort them
    together with {0, 1}, and classify each sub-interval by the
    even-odd membership of its midpoint (``points_even_odd``). Returns
    ``(seg_idx, t_lo, t_hi)`` for every INSIDE sub-interval. Fully
    vectorized: one (segments x edges) parameter solve + one row sort.
    """
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    S = len(ax)
    if S == 0:
        z = np.array([], dtype=np.int64)
        return z, z.astype(np.float64), z.astype(np.float64)
    edges = []
    for ring in rings:
        r = np.asarray(ring, dtype=np.float64)
        if np.array_equal(r[0], r[-1]):
            r = r[:-1]
        nxt = np.roll(r, -1, axis=0)
        edges.append(np.column_stack([r, nxt]))
    E = np.concatenate(edges)  # (E, 4): px py qx qy
    px, py, qx, qy = E[:, 0], E[:, 1], E[:, 2], E[:, 3]
    dx, dy = bx - ax, by - ay
    ex, ey = qx - px, qy - py
    # CHUNKED over segments: the (segments x edges) float64 parameter
    # matrices are bounded at ~4M cells regardless of block size (the
    # fip.Polygon.contains discipline) — identical results, since
    # chunking only partitions rows
    step = max(1, 4_000_000 // max(len(E), 1))
    out_seg, out_lo, out_hi = [], [], []
    for s0 in range(0, S, step):
        sl = slice(s0, min(s0 + step, S))
        n_s = sl.stop - sl.start
        # a + t*d == p + u*e  ->  t = cross(p-a, e)/cross(d, e),
        #                         u = cross(p-a, d)/cross(d, e)
        den = dx[sl][:, None] * ey[None, :] - dy[sl][:, None] * ex[None, :]
        wx = px[None, :] - ax[sl][:, None]
        wy = py[None, :] - ay[sl][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (wx * ey[None, :] - wy * ex[None, :]) / den
            u = (wx * dy[sl][:, None] - wy * dx[sl][:, None]) / den
        valid = (den != 0) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
        tmat = np.where(valid, t, np.inf)
        tmat = np.concatenate([np.zeros((n_s, 1)), np.ones((n_s, 1)), tmat], axis=1)
        tmat.sort(axis=1)  # invalid (inf) entries collect at the end
        ncut = 2 + valid.sum(axis=1)  # per-row count of finite t values
        # explode rows into their (ncut-1) consecutive intervals
        ncols = tmat.shape[1]
        has = np.arange(ncols - 1)[None, :] < (ncut - 1)[:, None]
        lo = tmat[:, :-1][has]
        hi = tmat[:, 1:][has]
        seg = np.broadcast_to(np.arange(sl.start, sl.stop)[:, None], has.shape)[has]
        tm = (lo + hi) / 2.0
        mx = ax[seg] + tm * dx[seg]
        my = ay[seg] + tm * dy[seg]
        inside = points_even_odd(mx, my, rings)
        out_seg.append(seg[inside])
        out_lo.append(lo[inside])
        out_hi.append(hi[inside])
    return np.concatenate(out_seg), np.concatenate(out_lo), np.concatenate(out_hi)


def clip_segments_to_bbox(
    lons: np.ndarray, lats: np.ndarray, bbox: tuple[float, float, float, float]
) -> float:
    """Total length (m) of a polyline's parts inside a bbox —
    Liang-Barsky per segment, vectorized. The clipped-length analog of
    Geo.clip + Geo.lengthOf for the aggregateByGeometry invariant
    (TestMapAggregateByGeometry.java:73-121)."""
    x0, y0, x1, y1 = bbox
    ax, ay = lons[:-1], lats[:-1]
    bx, by = lons[1:], lats[1:]
    dx, dy = bx - ax, by - ay
    t0 = np.zeros(len(ax))
    t1 = np.ones(len(ax))
    for p, q in (
        (-dx, ax - x0),
        (dx, x1 - ax),
        (-dy, ay - y0),
        (dy, y1 - ay),
    ):
        # Liang-Barsky: r = q/p; p<0 tightens the entry parameter,
        # p>0 the exit (the round-1 code negated q, rejecting every
        # segment — caught by the Cyrus-Beck cross-check test)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(p != 0, q / np.where(p != 0, p, 1), 0.0)
        ent = (p < 0)
        t0 = np.where(ent, np.maximum(t0, r), t0)
        t1 = np.where(p > 0, np.minimum(t1, r), t1)
        # p == 0 and q < 0 -> fully outside this edge
        t1 = np.where((p == 0) & (q < 0), -1.0, t1)
    ok = t0 <= t1
    cax = ax + t0 * dx
    cay = ay + t0 * dy
    cbx = ax + t1 * dx
    cby = ay + t1 * dy
    total = 0.0
    for i in np.flatnonzero(ok):
        total += length_of_line(np.array([cax[i], cbx[i]]), np.array([cay[i], cby[i]]))
    return total
