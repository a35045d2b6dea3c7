"""Arrow IPC (Feather v2 / RecordBatch file) source — the binary
columnar interchange format.

Third wire format behind the one reader surface (after the PBF family
and the JSONL/CSV text logs; the reference ships multiple formats
behind oshdb-etl the same way): a code-fingerprinted ``ensure_*``
cache derives a sharded ``.arrow`` twin of the sf_dir's
events.parquet (integer-clean columns, exact round-trip by
construction — IPC is Arrow's own memory layout, so there is no parse
ambiguity at all), and ``read_arrow_ipc`` streams it back as one
Dataset: ``read_binary_files`` (one shard per block) + an in-pipeline
decode ``map_batches`` that fuses with the consumer.

Each shard is named by the sha256 of its serialized bytes
(content-addressed); the shard directory is built and published whole
by ``io.ensure``, so a reader never sees a partial build.
"""

from __future__ import annotations

import hashlib
import os
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


def ensure_arrow_events(sf_dir: str) -> str:
    """Build (once) and return the sharded Arrow-IPC twin of
    ``{sf_dir}/events.parquet``: columns (event_id, user_id, ts_us,
    event_type, value_c), one ``.arrow`` file per input block."""
    src = Path(sf_dir) / "events.parquet"

    def build(staging: str) -> None:
        def write_shard(b: pa.Table) -> pa.Table:
            b2 = relational.cents(b, "value", "value_c")  # pinned half-away rounding
            t = pa.table(
                {
                    "event_id": b2["event_id"].cast(pa.int64()),
                    "user_id": b2["user_id"].cast(pa.int64()),
                    "ts_us": b2["ts"].cast(pa.int64()),
                    "event_type": b2["event_type"],
                    "value_c": b2["value_c"],
                }
            )
            sink = pa.BufferOutputStream()
            with pa.ipc.new_file(sink, t.schema) as w:
                w.write_table(t)
            buf = sink.getvalue().to_pybytes()
            name = hashlib.sha256(buf).hexdigest()[:24]
            with open(os.path.join(staging, f"part-{name}.arrow"), "wb") as f:
                f.write(buf)
            return pa.table({"rows": pa.array([len(t)], pa.int64())})

        ds = rio.read_table(
            str(src), columns=["event_id", "user_id", "ts", "event_type", "value"]
        )
        n = sum(
            r["rows"]
            for r in ds.map_batches(write_shard, batch_format="pyarrow").take_all()
        )
        if n != ds.count():
            raise RuntimeError(f"arrow ipc fixture wrote {n} rows, expected {ds.count()}")

    return rio.ensure("arrow_events", [src], [_fp()], build)


def _decode(b: pa.Table) -> pa.Table:
    """Binary-file block -> decoded Arrow table(s). Runs inside the
    consumer pipeline (fuses with the next map_batches); one IPC file
    per input row."""
    tables = [
        pa.ipc.open_file(pa.BufferReader(raw)).read_all()
        for raw in b["bytes"].to_pylist()
    ]
    return pa.concat_tables(tables) if tables else pa.table({})


def read_arrow_ipc(path: str) -> ray.data.Dataset:
    """Dataset over a sharded ``.arrow`` directory: one binary block
    per shard file + in-pipeline IPC decode. Shard count was fixed at
    fixture build (>= cluster CPUs), so the read parallelizes without
    Ray's 200-block splitting."""
    files = ray.data.read_binary_files(path, file_extensions=["arrow"])
    return files.map_batches(_decode, batch_format="pyarrow")
