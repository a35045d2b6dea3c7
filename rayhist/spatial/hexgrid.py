"""Hexagonal grid index — the H3-style partition key of the north
star, beside the S2-style one (spatial/s2.py) and the equal-degree
XYGrid (spatial/grid.py).

Reference analog: OSHDB assigns every entity version to a z-order grid
cell (oshdb/src/main/java/.../grid/XYGrid.java:37-116); the north rule
replaces that with an H3/S2 cell id. True H3 is a geodesic icosahedral
projection (not reproducible bit-for-bit in an oracle), so this module
implements the PLANAR half of the contract exactly: a hexagonal
Bravais lattice over (lon_e7, lat_e7) microdegrees with integer basis
a = (2w, 0), b = (w, h), h ~ w*sqrt(3), whose Voronoi cells are
hexagons. Assignment = EXACT nearest lattice center:

- the containing fundamental parallelogram is located with two integer
  floor divisions (j = floor(y/h), i = floor((x - w*j)/2w));
- the nearest center of a reduced 2D lattice basis is one of that
  parallelogram's 4 corners (validated exhaustively against a 16-
  candidate ring in tests/test_spatial.py), so 4 exact int64 squared
  distances decide the cell;
- ties (points on hexagon edges exist at integer coordinates) break
  deterministically by (d2, i, j) ascending — the same ORDER BY the
  SQL oracle uses.

Everything is int64 arithmetic: with w = 2.5e6 (0.25 degrees), the
candidate offsets are < 3w so d2 < 9e13, and the packed cell id covers
i in +-720, j in +-416 with room to spare. No floats anywhere — the
assignment is bit-stable across partitionings, which is what makes it
usable as a shuffle key at 10^12 rows.
"""

from __future__ import annotations

import numpy as np

HEX_W = 2_500_000  # half the horizontal center spacing, 1e-7 deg (0.25 deg)
HEX_H = 4_330_127  # vertical row spacing ~ HEX_W * sqrt(3)
_PACK_OFF = 1 << 12  # |i| <= 720, |j| <= 416 at world extent: 12 bits + sign room
_PACK_MUL = 1 << 13


def hex_cell(
    x: np.ndarray, y: np.ndarray, w: int = HEX_W, h: int = HEX_H
) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest-center hex assignment: (i, j) lattice coordinates
    of the hexagon containing each integer point (vectorized, int64)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    d2s, iis, jjs = [], [], []
    j0 = np.floor_divide(y, h)
    for dj in (0, 1):
        j = j0 + dj
        bi = np.floor_divide(x - w * j, 2 * w)
        for di in (0, 1):
            i = bi + di
            dx = x - (2 * w * i + w * j)
            dy = y - h * j
            d2s.append(dx * dx + dy * dy)
            iis.append(i)
            jjs.append(j)
    D = np.stack(d2s, axis=1)
    I = np.stack(iis, axis=1)
    J = np.stack(jjs, axis=1)
    m = D.min(axis=1, keepdims=True)
    # among distance ties, smallest (i, j) lexicographically — candidate
    # i/j spans are tiny (offsets 0/1 around the base), so a packed rank
    # in int64 is safe
    rank = np.where(
        D == m, (I + _PACK_OFF) * _PACK_MUL + (J + _PACK_OFF), np.iinfo(np.int64).max
    )
    k = rank.argmin(axis=1)
    r = np.arange(len(k))
    return I[r, k], J[r, k]


def pack_hex(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Bijective (i, j) -> int64 cell id (the cluster shuffle key)."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if len(i) and (
        int(np.abs(i).max(initial=0)) >= _PACK_OFF
        or int(np.abs(j).max(initial=0)) >= _PACK_OFF
    ):
        raise OverflowError("pack_hex: lattice coordinate exceeds pack range")
    return (i + _PACK_OFF) * _PACK_MUL + (j + _PACK_OFF)


def hex_id(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The packed id of each point's hexagon (``pack_hex`` of
    ``hex_cell``), at the default lattice."""
    return pack_hex(*hex_cell(x, y))


def unpack_hex(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cell = np.asarray(cell, dtype=np.int64)
    return cell // _PACK_MUL - _PACK_OFF, cell % _PACK_MUL - _PACK_OFF
