"""Event-time sessionization — the stream-shaped operator.

Ray Data has no event-time windows (SURVEY.md §2.11); stream-shaped
semantics are implemented as ordered, partitioned-log processing: the
events table is bucketed by key hash (complete keys per bucket, like
the ingest packer), sorted by time within the bucket, and the gap rule
is applied vectorized. Session = maximal run of one user's events with
inter-event gap < ``gap_us``.

The same definition is SQL-expressible (lag + cumulative sum of
session starts), so the operator is oracle-checked.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import io as rio
from .relational import _per_key


def _session_frame(g: pd.DataFrame, gap_us: int, key_col: str, ts_col: str):
    """Shared gap rule: sort by (key, ts), return (keys, ts_us,
    new_key mask, global session ids). The ONE definition of a session
    boundary — both public operators derive from it."""
    g = g.sort_values([key_col, ts_col], kind="mergesort")
    k = g[key_col].to_numpy()
    t = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
    new_key = np.ones(len(k), dtype=bool)
    new_key[1:] = k[1:] != k[:-1]
    gap = np.zeros(len(t), dtype=np.int64)
    gap[1:] = t[1:] - t[:-1]
    new_session = new_key | (gap >= gap_us)
    sid_global = np.cumsum(new_session) - 1
    return k, t, new_key, sid_global


def sessionize(
    events: rio.Blocks,
    gap_us: int,
    key_col: str = "user_id",
    ts_col: str = "ts",
) -> rio.Blocks:
    """-> one row per (key, session): session_id (0-based per key),
    n_events, start ts, end ts, duration."""

    def bucket_sessions(g: pd.DataFrame) -> pd.DataFrame:
        k, t, new_key, sid_global = _session_frame(g, gap_us, key_col, ts_col)
        # per-key 0-based session ids
        first_sid_of_key = np.maximum.accumulate(np.where(new_key, sid_global, 0))
        sid = sid_global - first_sid_of_key
        df = pd.DataFrame({key_col: k, "session_id": sid, "_ts": t})
        out = df.groupby([key_col, "session_id"], as_index=False).agg(
            n_events=("_ts", "size"), start_us=("_ts", "min"), end_us=("_ts", "max")
        )
        out["duration_us"] = out["end_us"] - out["start_us"]
        return out

    return _per_key(events, [key_col], bucket_sessions)


def user_session_stats(
    events: rio.Blocks,
    gap_us: int,
    key_col: str = "user_id",
    ts_col: str = "ts",
) -> rio.Blocks:
    """Per-user session stats (session count, events, total session
    time) computed ENTIRELY inside the bucket stage: each hash bucket
    holds complete users, so the per-user aggregate is final there and
    only |users| small rows stream out — no driver-side groupby (user
    count scales with data)."""

    def bucket_user_stats(g: pd.DataFrame) -> pd.DataFrame:
        k, t, _new_key, sid = _session_frame(g, gap_us, key_col, ts_col)
        df = pd.DataFrame({key_col: k, "_sid": sid, "_ts": t})
        per_sess = df.groupby([key_col, "_sid"], as_index=False).agg(
            n=("_ts", "size"), lo=("_ts", "min"), hi=("_ts", "max")
        )
        per_sess["dur"] = per_sess["hi"] - per_sess["lo"]
        return per_sess.groupby(key_col, as_index=False).agg(
            n_sessions=("_sid", "size"), n_events=("n", "sum"), total_session_us=("dur", "sum")
        )

    return _per_key(events, [key_col], bucket_user_stats)


def interval_union_length(
    intervals: rio.Blocks,
    key_col: str,
    s_col: str,
    e_col: str,
) -> rio.Blocks:
    """Per-key UNION length of half-open intervals [s, e): overlapping
    and touching intervals merge (coverage counted once), and the
    merged-span count comes along for free. The stabbing-coverage
    complement of sessionize's gap rule: one complete-keys bucket
    shuffle, in-bucket vectorized sweep (sort by (key, s, e); an
    interval opens a new span iff its start exceeds the running max
    end of everything before it in its key). Returns one row per key:
    (key, covered, n_spans). Malformed intervals (e < s) raise."""

    def bucket_union(g: pd.DataFrame) -> pd.DataFrame:
        if (g[e_col].to_numpy() < g[s_col].to_numpy()).any():
            raise ValueError("interval_union_length: interval end < start")
        g = g.sort_values([key_col, s_col, e_col], kind="mergesort")
        # fill_value keeps the shift in int64 — a NaN fill would coerce
        # microsecond timestamps to float64 and lose low bits
        pmax = (
            g.groupby(key_col, sort=False)[e_col]
            .cummax()
            .shift(1, fill_value=np.iinfo(np.int64).min)
        )
        first = ~g[key_col].duplicated()
        new_span = first | (g[s_col] > pmax)
        isl = new_span.cumsum()
        spans = g.assign(_isl=isl).groupby([key_col, "_isl"], sort=False).agg(
            _s=(s_col, "min"), _e=(e_col, "max")
        )
        spans["_len"] = spans["_e"] - spans["_s"]
        out = spans.groupby(level=0, sort=False).agg(
            covered=("_len", "sum"), n_spans=("_len", "size")
        )
        return out.reset_index().astype(
            {key_col: "int64", "covered": "int64", "n_spans": "int64"}
        )

    return _per_key(intervals, [key_col], bucket_union)
