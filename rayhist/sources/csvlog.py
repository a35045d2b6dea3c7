"""CSV source — the third text-log ingest format (see sources/jsonl.py
for the pattern: code-fingerprinted ensure_* fixture derived from
events.parquet with integer-clean columns, read back with the
read_table task-sizing rule). CSV stringifies everything, so the
fixture schema is ints + a plain-word enum column — exact round-trip
by construction (no quoting/float ambiguity in the synthetic data,
and the loud count check in tests would catch a parse drift)."""

from __future__ import annotations

import sys
from pathlib import Path

import pyarrow as pa
import ray.data

from .. import io as rio
from ..ops import relational


def _fp() -> str:
    # the build rounds every value through relational.cents: its source
    # is an input of the cached bytes as much as this module's
    return rio.code_fingerprint(sys.modules[__name__], relational)


def ensure_csv_events(sf_dir: str) -> str:
    """Build (once) and return the sharded CSV twin of
    ``{sf_dir}/events.parquet`` (event_id, user_id, ts_us, event_type,
    value_c — same layout as the JSONL twin)."""
    src = Path(sf_dir) / "events.parquet"

    def to_log(b: pa.Table) -> pa.Table:
        b2 = relational.cents(b, "value", "value_c")
        return pa.table(
            {
                "event_id": b2["event_id"].cast(pa.int64()),
                "user_id": b2["user_id"].cast(pa.int64()),
                "ts_us": b2["ts"].cast(pa.int64()),
                "event_type": b2["event_type"],
                "value_c": b2["value_c"],
            }
        )

    def build(staging: str) -> None:
        ds = rio.read_table(str(src), columns=["event_id", "user_id", "ts", "event_type", "value"])
        ds.map_batches(to_log, batch_format="pyarrow").write_csv(staging)

    return rio.ensure("csv_events", [src], [_fp()], build)


def read_csv_log(path: str, **kwargs) -> ray.data.Dataset:
    """read_csv with the read_table sizing rule (``io.auto_num_blocks``
    over the ``.csv`` files — never Ray's 200-block floor)."""
    if "override_num_blocks" not in kwargs:
        kwargs["override_num_blocks"] = rio.auto_num_blocks(path, ".csv")
    return ray.data.read_csv(path, **kwargs)
