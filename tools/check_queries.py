"""Local mini-driver: run every queries() pipeline against its DuckDB
oracle at a given sf_dir and report row-count / schema / value match —
an approximation of the real driver's CORRECTNESS check.

Usage: PYTHONPATH=/root/repo python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> bool:
    a, b = canon(pd.DataFrame(ray_df)), canon(sql_df)
    if list(a.columns) != list(b.columns):
        print(f"  [{name}] SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}")
        return False
    if len(a) != len(b):
        print(f"  [{name}] ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}")
        return False
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f":
            ok = np.array_equal(av, bv) or np.allclose(av, bv, rtol=0, atol=0, equal_nan=True)
        else:
            ok = np.array_equal(av, bv)
        if not ok:
            bad = np.flatnonzero(av != bv)[:5]
            print(f"  [{name}] VALUE MISMATCH col={c} rows={bad.tolist()}")
            print("   ray:", av[bad][:5], "\n   sql:", bv[bad][:5])
            return False
    return True


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("CHECK_CPUS", "8")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e
    from rayhist.io import resident_tables

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, os_ = e.queries(), e.oracle_sql()
    unknown = only - set(qs)
    if unknown:  # fail loud: a typo must not print a green 0/0 result
        raise SystemExit(f"unknown query names: {sorted(unknown)}")
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = fn(sf_dir)
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: ray pipeline raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        t_ray = time.time() - t0
        if name not in os_:
            print(f"pass {name} (rows-only, {len(pd.DataFrame(ray_df))} rows, {t_ray:.1f}s)")
            n_pass += 1
            continue
        try:
            sql_df = con.sql(os_[name]).df()
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: oracle SQL raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        if compare(name, ray_df, sql_df):
            print(f"pass {name} ({len(sql_df)} rows, ray {t_ray:.1f}s)")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    # the cached tables the queries read: identity digest, size, reuse
    for t in resident_tables():
        cols = "all columns" if t["columns"] is None else f"{len(t['columns'])} columns"
        where = "resident" if t["resident"] else "over budget, read from disk"
        print(
            f"table {t['path']} ({cols}) id={t['identity']} {t['mb']:.2f} MB"
            f" hits={t['hits']} misses={t['misses']} {where}"
        )
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
