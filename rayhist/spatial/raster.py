"""Raster-tile <-> vector-feature join on the shared grid key.

Target-only component (north_rule). Raster tiles are keyed by the same
grid cell ids as the vector side (rayhist.spatial.grid), so the join
is an equi-join on the cell key. The sandbox's synthetic raster (band
value = deterministic hash of the cell id, ``raster_value_for``) is
computed inline in the block task: the stage indexes each row's cell
and reads its band value, no tile table and no shuffle. At scale, both
sides carry the same int64 cell key, so a stored raster joins as a
co-partitioned hash join on the ONE shared partitioning key (no
re-keying shuffle on the vector side — the cell is already the
spatial partition key everywhere else).

The synthetic band formula (Knuth multiplicative hash mod 251) is
integer-exact and mirrored in the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np

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
