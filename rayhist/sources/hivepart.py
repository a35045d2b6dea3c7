"""Hive-partitioned parquet sink + partition-pruned reader.

The resumable-output story made concrete: ``ensure_partitioned_events``
writes the event log as ``day=N/`` hive directories (one partition per
day — the unit a failed 100-TB run skips on retry, and the unit a
time-ranged query prunes at the READ, never scanning the other 96% of
the corpus). ``read_partition_days`` then reads ONLY the requested
day directories — pruning by directory selection, not by post-read
filter. The ``day`` key is ALSO carried as a regular column inside the
files, so a pruned read returns complete rows without re-deriving the
partition value from the path.

Cached by ``io.ensure``: the key covers the source file identity, the
day grid (``t0``, ``day_us``) and code_fingerprint(this module and
ops.relational, whose ``cents`` rounds every value), following the
fixture-cache convention (no hand-bumped :vN).

Reference parity: the reference's Load step writes per-cell tables
(oshdb-tool ETL; TableNames.java) — per-key directories are the same
idea with the time axis as the key.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pyarrow as pa
import ray.data

from .. import io as rio
from ..ops import relational


def _fp() -> str:
    # derive() below rounds through relational.cents: its source is an
    # input of the cached bytes as much as this module's
    return rio.code_fingerprint(sys.modules[__name__], relational)


def ensure_partitioned_events(sf_dir: str, t0: int, day_us: int) -> str:
    """Build (once) and return the hive-partitioned (by whole day)
    parquet twin of ``{sf_dir}/events.parquet``: columns (event_id,
    user_id, ts_us, event_type, value_c, day) — all int64 or string,
    exact round-trip. The hive key is written as a DUPLICATE column
    ``day_k`` (partition writes strip their key from the data files;
    the in-file ``day`` copy keeps pruned reads self-contained)."""
    src = Path(sf_dir) / "events.parquet"

    def derive(b: pa.Table) -> pa.Table:
        b2 = relational.cents(b, "value", "value_c")  # pinned half-away rounding
        ts = b2["ts"].cast(pa.int64())
        import pyarrow.compute as pc

        day = pc.divide(pc.subtract(ts, t0), day_us)
        return pa.table(
            {
                "event_id": b2["event_id"].cast(pa.int64()),
                "user_id": b2["user_id"].cast(pa.int64()),
                "ts_us": ts,
                "event_type": b2["event_type"],
                "value_c": b2["value_c"],
                "day": day,
                "day_k": day,
            }
        )

    def build(staging: str) -> None:
        ds = rio.read_table(
            str(src), columns=["event_id", "user_id", "ts", "event_type", "value"]
        )
        ds.map_batches(derive, batch_format="pyarrow").write_parquet(
            staging, partition_cols=["day_k"]
        )

    return rio.ensure("hive_events", [src], [t0, day_us, _fp()], build)


def read_partition_days(root: str, days: list[int]) -> ray.data.Dataset:
    """Partition-pruned read: ONLY the ``day=N`` directories named in
    ``days`` are opened (missing partitions raise loudly — a silent
    skip would undercount). The hive key column is re-selected from
    the in-file copy, so rows come back complete."""
    dirs = []
    for d in sorted(set(int(x) for x in days)):
        p = Path(root) / f"day_k={d}"
        if not p.is_dir():
            raise FileNotFoundError(
                f"read_partition_days: partition day_k={d} missing under {root}"
            )
        dirs.append(str(p))
    files = [str(f) for d in dirs for f in sorted(Path(d).rglob("*.parquet"))]
    if not files:
        raise FileNotFoundError(f"read_partition_days: no parquet under {dirs}")
    # rio.read_table owns the read-task sizing (auto_num_blocks takes
    # file lists) — never a bare ray.data.read_parquet (CLAUDE.md)
    return rio.read_table(files)
