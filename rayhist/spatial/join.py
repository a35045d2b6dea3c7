"""Broadcast spatial joins against many regions — the GeometrySplitter
analog (``oshdb-api/.../GeometrySplitter.java:36-203``: STRtree over
sub-region polygons, candidates -> exact test -> clip).

``RegionIndex`` replaces the STRtree with the engine's own grid: at
build time every region polygon is rasterized to the grid cells its
bbox covers, each cell classified fully-inside / fully-outside /
boundary (the FastBboxInPolygon / FastBboxOutsidePolygon short-
circuits, fip.py). At query time a point looks up its cell:
fully-inside cells skip the exact test entirely; boundary cells run
the exact crossing-number test against only the regions listed for
that cell. A query builds the index once on the driver and captures
it in its stage function, which ``io.map_blocks`` ships once per
query, so the per-block cost is a cell-id computation + exact tests
for boundary points only.
"""

from __future__ import annotations

import numpy as np

from .fip import Polygon, bbox_inside, bbox_outside
from .grid import bbox_cells, cell_bounds, cell_id


class RegionIndex:
    """Grid-bucketed index over many region polygons."""

    def __init__(self, regions: list[tuple[str, list[np.ndarray]]], zoom: int = 6):
        self.zoom = zoom
        self.polys: dict[str, Polygon] = {}
        self.inside: dict[int, list[str]] = {}  # cell -> regions fully covering it
        self.boundary: dict[int, list[str]] = {}  # cell -> regions needing exact test
        for rid, rings in regions:
            poly = Polygon([np.asarray(r, dtype=np.float64) for r in rings])
            self.polys[rid] = poly
            x0, y0, x1, y1 = poly.bbox
            for c in bbox_cells(zoom, int(x0), int(y0), int(x1), int(y1)):
                cx0, cy0, cx1, cy1 = cell_bounds(zoom, int(c))
                if bbox_outside(poly, cx0, cy0, cx1, cy1):
                    continue
                if bbox_inside(poly, cx0, cy0, cx1, cy1):
                    self.inside.setdefault(int(c), []).append(rid)
                else:
                    self.boundary.setdefault(int(c), []).append(rid)

    def classify(
        self, lon_e7: np.ndarray, lat_e7: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """-> (row indices, region ids) arrays, one entry per
        containment. Array-per-cell accumulation: no per-row Python
        tuples (the common fully-inside cells are pure numpy)."""
        cells = cell_id(lon_e7.astype(np.int64), lat_e7.astype(np.int64), self.zoom)
        row_parts: list[np.ndarray] = []
        rid_parts: list[np.ndarray] = []
        order = np.argsort(cells, kind="mergesort")
        sc = cells[order]
        uniq, starts = np.unique(sc, return_index=True)
        ends = np.r_[starts[1:], len(sc)]
        for c, s, e in zip(uniq, starts, ends):
            rows = order[s:e]
            for rid in self.inside.get(int(c), ()):
                row_parts.append(rows)
                rid_parts.append(np.full(len(rows), rid, dtype=object))
            for rid in self.boundary.get(int(c), ()):
                hit = self.polys[rid].contains(
                    lon_e7[rows].astype(np.float64), lat_e7[rows].astype(np.float64)
                )
                sub = rows[hit]
                row_parts.append(sub)
                rid_parts.append(np.full(len(sub), rid, dtype=object))
        if not row_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=object)
        return (
            np.concatenate(row_parts).astype(np.int64),
            np.concatenate(rid_parts),
        )

