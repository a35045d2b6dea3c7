"""Dataset profiling — the data-quality "describe" sweep.

ONE pass over the table computes, for every requested column, the row
count, null count and EXACT distinct count. Each batch emits two row
kinds into one stream: per-column COUNT partials (routed by
hash(column), so a column's partials meet in one bucket) and
per-batch-DISTINCT (column, canonical-value) pairs (per-batch
np.unique first — the pre-aggregation that keeps the shuffle
O(distincts), not O(rows)); a single ``io.reduce_by_key`` on
(column, value) then both sums the count partials and counts
bucket-unique pairs. Canonical value strings
are injective per distinct value (ints and strings verbatim; floats
via shortest-roundtrip repr), so the distinct count equals SQL's
count(DISTINCT native) without shipping native types through the
shuffle. Output is |columns| rows; the input is read exactly once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio


def profile_columns(ds: rio.Blocks, cols: list[str]) -> pd.DataFrame:
    """(column, n, n_null, n_distinct) per requested column — exact."""

    def stage(b: pa.Table) -> pa.Table:
        frames = []
        for c in cols:
            col = b[c]
            nn = col.null_count
            frames.append(
                pd.DataFrame(
                    {"column": [c], "sval": [None], "n_p": [len(b)], "null_p": [nn]}
                )
            )
            if nn:
                col = col.drop_null()
            v = col.to_numpy(zero_copy_only=False)
            u = np.unique(v)
            if np.issubdtype(u.dtype, np.floating):
                sval = np.array([repr(float(x)) for x in u], dtype=object)
            else:
                sval = u.astype(str)
            frames.append(
                pd.DataFrame(
                    {
                        "column": c,
                        "sval": sval,
                        "n_p": np.int64(0),
                        "null_p": np.int64(0),
                    }
                )
            )
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False)

    def bucket_final(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g[g["sval"].isna()]
        pairs = g[g["sval"].notna()]
        parts = []
        if len(cnt):
            parts.append(
                cnt.groupby("column", as_index=False)
                .agg(n=("n_p", "sum"), n_null=("null_p", "sum"))
                .assign(d_p=np.int64(0))
            )
        if len(pairs):
            d = pairs[["column", "sval"]].drop_duplicates()
            vc = d["column"].value_counts()
            parts.append(
                pd.DataFrame(
                    {
                        "column": vc.index.to_numpy(),
                        "n": np.int64(0),
                        "n_null": np.int64(0),
                        "d_p": vc.to_numpy(dtype=np.int64),
                    }
                )
            )
        if not parts:
            return pd.DataFrame(
                {
                    "column": pd.Series(dtype=object),
                    "n": pd.Series(dtype="int64"),
                    "n_null": pd.Series(dtype="int64"),
                    "d_p": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(parts, ignore_index=True)

    # routed by (column, value): a column's count partials (null sval)
    # meet in one bucket, and so do the copies of one distinct pair
    refs = rio.reduce_by_key(ds, ["column", "sval"], rio.on_pandas(bucket_final), stage=stage)
    parts = rio.blocks_table(refs).to_pandas()
    out = parts.groupby("column", as_index=False).agg(
        n=("n", "sum"), n_null=("n_null", "sum"), n_distinct=("d_p", "sum")
    )
    out = out.astype({"n": "int64", "n_null": "int64", "n_distinct": "int64"})
    return out.sort_values("column").reset_index(drop=True)
