"""Hive-partitioned parquet sink + day-filtered resident reader.

The resumable-output story made concrete: ``ensure_partitioned_events``
writes the event log as ``day=N/`` hive directories (one partition per
day — the unit a failed 100-TB run skips on retry, and the unit a
time-ranged query prunes). ``read_partition_days`` then keeps ONLY the
requested days, a filter that each block task over the resident table
applies first. The ``day`` key is ALSO carried as a regular column
inside the files, so the filter reads the rows themselves, without
re-deriving the partition value from the path.

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
import pyarrow.compute as pc
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
    """The rows of the ``day_k=N`` partitions named in ``days``
    (missing partitions raise loudly — a silent skip would
    undercount): the resident table (``io.read_resident``) with a
    filter on the in-file ``day`` copy, which every block task applies
    first (a table over the resident budget hands it to the parquet
    read instead)."""
    wanted = sorted(set(int(x) for x in days))
    for d in wanted:
        p = Path(root) / f"day_k={d}"
        if not p.is_dir():
            raise FileNotFoundError(
                f"read_partition_days: partition day_k={d} missing under {root}"
            )
        if not any(p.rglob("*.parquet")):
            raise FileNotFoundError(f"read_partition_days: no parquet under {p}")
    return rio.read_resident(root, filter=pc.field("day").isin(wanted))
