"""Raster-tile <-> vector-feature join on the shared grid key.

Target-only component (north_rule). Raster tiles are keyed by the same
grid cell ids as the vector side (rayhist.spatial.grid), so the join
is an equi-join on the cell key. Two execution strategies:

- ``raster_value_for`` / ``join_raster_broadcast``: the sandbox's
  synthetic raster (band value = deterministic hash of the cell id) is
  computed inline / looked up from a broadcast dict — the "small side
  broadcast via ray.put" pattern. Used when the tile set at the join
  zoom fits in memory (zoom<=8: <=32k tiles).
- at scale, both sides carry the same int64 cell key, so the join is a
  co-partitioned hash join: ``groupby(cell)`` both datasets on the ONE
  shared partitioning key (no re-keying shuffle on the vector side —
  the cell is already the spatial partition key everywhere else).

The synthetic band formula (Knuth multiplicative hash mod 251) is
integer-exact and mirrored in the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import io as rio

RASTER_HASH = 2654435761  # Knuth multiplicative constant
RASTER_MOD = 251


def raster_value_for(cell: np.ndarray, band: int = 0) -> np.ndarray:
    """Deterministic synthetic raster band value for a cell id.

    Modular multiply (reduce BEFORE the product): mathematically
    identical to ``(c * HASH + band) % MOD`` in exact arithmetic but
    cannot wrap int64 for large/packed cell ids — a silent wrap would
    diverge from the DuckDB oracle, which computes exactly."""
    c = np.asarray(cell, dtype=np.int64)
    return ((c % RASTER_MOD) * (RASTER_HASH % RASTER_MOD) + band) % RASTER_MOD


def make_raster_tiles(zoom: int, band: int = 0) -> pa.Table:
    """The full synthetic raster table at one zoom (driver-side; tiny
    for coarse zooms; written to Lance/Parquet for the scale path)."""
    from .grid import grid_dims

    nx, ny = grid_dims(zoom)
    cells = np.arange(nx * ny, dtype=np.int64)
    return pa.table(
        {
            "cell": cells,
            "band": np.full(len(cells), band, dtype=np.int32),
            "value": raster_value_for(cells, band),
        }
    )


def join_raster_broadcast(ds: rio.Blocks, zoom: int, band: int = 0) -> rio.Blocks:
    """Attach the raster band value to every row carrying a ``cell``
    column — broadcast lookup, no shuffle (the raster side is small at
    the join zoom; at finer zooms switch to the co-partitioned join)."""

    def stage(batch: pa.Table) -> pa.Table:
        cell = batch["cell"].to_numpy(zero_copy_only=False)
        return batch.append_column("raster_value", pa.array(raster_value_for(cell, band)))

    return rio.materialize_blocks(ds, stage)
