"""JSONL (newline-delimited JSON) source — the text-log ingest format.

The reference ships multiple wire formats behind one reader surface
(oshdb-etl: PBF and keytable streams); this module adds the log-shaped
text format the same way the osmpbf/pbfish fixtures do: a
code-fingerprinted ``ensure_*`` cache deterministically derives a
sharded JSONL corpus from the sf_dir's events.parquet (integer-clean
columns — epoch-microsecond timestamps and cent values — so the JSON
round-trip is exact by construction, no float re-parse ambiguity),
and ``read_jsonl`` reads it back with the same task-sizing rule as
rayhist.io.read_table (Arrow JSON reader, block count scaled to bytes
and cluster CPUs — never Ray's 200-block floor).

Cached by ``io.ensure``: the key covers the source file identity and
code_fingerprint(this module and ops.relational, whose ``cents``
rounds every value), so an edit to the derivation forces a cold
rebuild, never a hand-bumped :vN.
"""

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


def ensure_jsonl_events(sf_dir: str) -> str:
    """Build (once) and return the sharded JSONL twin of
    ``{sf_dir}/events.parquet``: columns (event_id, user_id, ts_us,
    event_type, value_c) — all int64 or string, exact round-trip."""
    src = Path(sf_dir) / "events.parquet"

    def to_log(b: pa.Table) -> pa.Table:
        b2 = relational.cents(b, "value", "value_c")  # pinned half-away rounding
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
        ds.map_batches(to_log, batch_format="pyarrow").write_json(staging, force_ascii=False)

    return rio.ensure("jsonl_events", [src], [_fp()], build)


def read_jsonl(path: str, **kwargs) -> ray.data.Dataset:
    """read_json with the read_table sizing rule (``io.auto_num_blocks``
    over the ``.json`` files) so reads fuse with the first map_batches
    instead of splitting into Ray's 200-block default."""
    if "override_num_blocks" not in kwargs:
        kwargs["override_num_blocks"] = rio.auto_num_blocks(path, ".json")
    return ray.data.read_json(path, **kwargs)
