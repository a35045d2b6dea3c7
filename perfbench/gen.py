"""Seeded synthetic ``events.parquet``: the one input every history table
is derived from (``rayhist.ingest``).

Same schema and distributions as the repository's reference fixtures:
one row per event, ~66.7 events per user, January 2024 timestamps in
event-id order, five event types, exponential ``value`` with two
decimals and a ``props`` JSON string ``{"k": 0..99}``. The seed changes
the values, never the size, so every seed does the same amount of work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

T0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
SPAN_US = 30 * 86_400_000_000  # events fall in 2024-01-01 .. 2024-01-31
EVENT_TYPES = np.array(["click", "purchase", "error", "signup", "view"])


def write_events(path: str, n_events: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n_users = max(1, n_events * 3 // 200)
    ts = np.sort(T0_US + rng.integers(0, SPAN_US, n_events))
    value = np.round(rng.exponential(50.0, n_events), 2)
    props = [f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]
    table = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n_events, dtype=np.int64)),
            "event_type": pa.array(rng.choice(EVENT_TYPES, n_events).tolist(), type=pa.string()),
            "value": pa.array(value),
            "props": pa.array(props, type=pa.string()),
        }
    )
    pq.write_table(table, path)
