"""Point-in-polygon / bbox-vs-polygon tests, from scratch.

Rebuilds the semantics of the reference's fast-in-polygon family
(``oshdb-util/.../geometry/fip/FastInPolygon.java:21-150`` — banded
crossing-number index; ``FastBboxInPolygon.java:23-72``;
``FastBboxOutsidePolygon.java``) on numpy:

- ``Polygon``: rings as float64 (lon, lat) arrays; outer ring first,
  optional holes. Coordinates are plain degrees-e7 floats — IEEE
  float64 add/mul are exactly specified, so the same sign tests run
  bit-identically in DuckDB SQL oracles.
- ``contains_convex``: half-plane sign tests for convex rings
  (inside := all cross products >= 0 for a CCW ring — boundary
  inclusive). This is the rule mirrored in SQL.
- ``contains``: general even-odd crossing number with a latitude-band
  edge index (the FastInPolygon banding idea): edges are bucketed by
  latitude band once at construction, each point only tests edges of
  its band.
- ``bbox_inside`` / ``bbox_outside``: the cell/entity short-circuit
  tests of CellIterator (:182-195): a bbox is inside if all 4 corners
  are inside and no polygon vertex lies in the bbox interior; outside
  if all corners are outside and no vertex is inside and no edge
  crosses it (conservative: falls back to "partial" when unsure).

A query builds its ``Polygon`` once on the driver and captures it in
its stage function; ``io.map_blocks`` ships the stage once per query
and each block is classified vectorized — the broadcast semi-join the
reference gets from shipping serialized FIP indexes to Ignite nodes
(GeometrySplitter.java:205-250).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Polygon:
    rings: list[np.ndarray]  # each (n,2) float64 [lon, lat]; ring closed or not
    n_bands: int = 16
    _bands: list[np.ndarray] = field(default_factory=list, repr=False)
    _edges: np.ndarray | None = field(default=None, repr=False)
    _band_lo: float = 0.0
    _band_h: float = 1.0

    def __post_init__(self):
        if not self.rings:
            raise ValueError("Polygon: needs at least one ring")
        segs = []
        for i, ring in enumerate(self.rings):
            r = np.asarray(ring, dtype=np.float64)
            if r.ndim != 2 or r.shape[-1] != 2 or len(r) < 3:
                raise ValueError(
                    f"Polygon: ring {i} must be an (n>=3, 2) coordinate "
                    f"array, got shape {r.shape}"
                )
            if not np.array_equal(r[0], r[-1]):
                r = np.vstack([r, r[:1]])
            if len(r) < 4:  # CLOSED form needs >= 3 distinct vertices
                raise ValueError(
                    f"Polygon: ring {i} has fewer than 3 distinct "
                    "vertices (a closed line segment, not a ring)"
                )
            a, b = r[:-1], r[1:]
            segs.append(np.hstack([a, b]))
        self._edges = np.vstack(segs)  # (m, 4): x1 y1 x2 y2
        ys = np.sort(self._edges[:, [1, 3]], axis=1)
        self._band_lo = float(ys[:, 0].min())  # rows sorted: col 0 is the low end
        hi = float(ys[:, 1].max())
        self._band_h = max((hi - self._band_lo) / self.n_bands, 1e-12)
        self._bands = []
        for b in range(self.n_bands):
            lo = self._band_lo + b * self._band_h
            hi_b = lo + self._band_h
            self._bands.append(np.flatnonzero((ys[:, 0] <= hi_b) & (ys[:, 1] >= lo)))

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        e = self._edges
        return (
            float(min(e[:, 0].min(), e[:, 2].min())),
            float(min(e[:, 1].min(), e[:, 3].min())),
            float(max(e[:, 0].max(), e[:, 2].max())),
            float(max(e[:, 1].max(), e[:, 3].max())),
        )

    def contains(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Even-odd crossing number, band-indexed, vectorized over
        points. Boundary points are implementation-defined (as in the
        reference's JTS-based tests) — query fixtures avoid exact
        boundaries."""
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        inside = np.zeros(len(px), dtype=bool)
        band = np.clip(((py - self._band_lo) / self._band_h).astype(np.int64), 0, self.n_bands - 1)
        # cap the (points x band-edges) temporaries: a whole Ray block
        # against a detailed boundary (thousands of edges per band)
        # would otherwise allocate multi-hundred-MB float64 matrices —
        # memory traffic is the scaling wall (CLAUDE.md). Identical
        # results; peak memory bounded at ~3 x 8 B x _CHUNK_CELLS.
        _CHUNK_CELLS = 4_000_000
        for b in range(self.n_bands):
            pts = np.flatnonzero(band == b)
            if len(pts) == 0 or len(self._bands[b]) == 0:
                continue
            e = self._edges[self._bands[b]]
            x1, y1, x2, y2 = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
            step = max(1, _CHUNK_CELLS // max(len(e), 1))
            for s in range(0, len(pts), step):
                sub = pts[s : s + step]
                bx, by = px[sub][:, None], py[sub][:, None]
                cond = (y1[None, :] > by) != (y2[None, :] > by)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xint = x1 + (by - y1) * (x2 - x1) / (y2 - y1)
                cross = cond & (bx < xint)
                inside[sub] = cross.sum(axis=1) % 2 == 1
        return inside


def contains_convex(ring: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Convex CCW ring containment: all edge cross products >= 0.

    float64 throughout — byte-identical to the SQL mirror
    ``(x2-x1)*(py-y1) - (y2-y1)*(px-x1) >= 0`` AND-ed over edges.
    """
    r = np.asarray(ring, dtype=np.float64)
    if np.array_equal(r[0], r[-1]):
        r = r[:-1]
    # a CLOCKWISE ring silently returns all-False under this sign
    # convention — and the byte-identical SQL mirror replicates the
    # mistake, so the oracle gate cannot catch it; refuse loudly
    area2 = float(
        np.sum(r[:, 0] * np.roll(r[:, 1], -1) - np.roll(r[:, 0], -1) * r[:, 1])
    )
    if area2 <= 0:
        raise ValueError(
            "contains_convex: ring must be counter-clockwise "
            f"(signed area {area2 / 2:g} <= 0)"
        )
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ok = np.ones(len(px), dtype=bool)
    n = len(r)
    for i in range(n):
        x1, y1 = r[i]
        x2, y2 = r[(i + 1) % n]
        ok &= (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0.0
    return ok


def _segments_intersect_rect(e: np.ndarray, min_x, min_y, max_x, max_y) -> np.ndarray:
    """Per-edge EXACT segment-rectangle intersection (vectorized
    Liang-Barsky clip against the closed rect): True where any part of
    the segment lies in the rect. The previous conservative edge-AABB
    overlap test classified almost every cell near a long DIAGONAL
    edge as 'boundary', defeating the RegionIndex fully-inside fast
    path for any non-axis-aligned polygon."""
    x1, y1 = e[:, 0], e[:, 1]
    dx, dy = e[:, 2] - x1, e[:, 3] - y1
    n = len(e)
    t0 = np.zeros(n)
    t1 = np.ones(n)
    ok = np.ones(n, dtype=bool)
    for p, q in (
        (-dx, x1 - min_x),
        (dx, max_x - x1),
        (-dy, y1 - min_y),
        (dy, max_y - y1),
    ):
        ok &= ~((p == 0) & (q < 0))  # parallel and fully outside this side
        with np.errstate(divide="ignore", invalid="ignore"):
            r = q / p
        t0 = np.where(p < 0, np.maximum(t0, r), t0)
        t1 = np.where(p > 0, np.minimum(t1, r), t1)
    return ok & (t0 <= t1)


def bbox_outside(poly: Polygon, min_x, min_y, max_x, max_y) -> bool:
    """True only when the bbox provably misses the polygon
    (FastBboxOutsidePolygon analog) — used for cell short-circuits."""
    bx0, by0, bx1, by1 = poly.bbox
    if max_x < bx0 or min_x > bx1 or max_y < by0 or min_y > by1:
        return True
    corners = np.array([[min_x, min_y], [min_x, max_y], [max_x, min_y], [max_x, max_y]])
    if poly.contains(corners[:, 0], corners[:, 1]).any():
        return False
    # any polygon vertex inside the bbox?
    e = poly._edges
    vx, vy = e[:, 0], e[:, 1]
    if ((vx >= min_x) & (vx <= max_x) & (vy >= min_y) & (vy <= max_y)).any():
        return False
    # any edge crossing the bbox? exact segment-rect intersection
    return not _segments_intersect_rect(e, min_x, min_y, max_x, max_y).any()


def bbox_inside(poly: Polygon, min_x, min_y, max_x, max_y) -> bool:
    """True only when the bbox is provably fully inside
    (FastBboxInPolygon analog)."""
    corners = np.array([[min_x, min_y], [min_x, max_y], [max_x, min_y], [max_x, max_y]])
    if not poly.contains(corners[:, 0], corners[:, 1]).all():
        return False
    e = poly._edges
    vx, vy = e[:, 0], e[:, 1]
    # a polygon vertex strictly inside the bbox -> boundary enters it
    if ((vx > min_x) & (vx < max_x) & (vy > min_y) & (vy < max_y)).any():
        return False
    # a polygon EDGE may still cross the bbox with neither endpoint
    # inside (a thin slit / hole notch through the box): exact
    # segment-rect intersection — any crossing means "cannot prove
    # inside", fall through to the exact per-point test
    return not _segments_intersect_rect(e, min_x, min_y, max_x, max_y).any()

