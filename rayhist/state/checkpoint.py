"""Per-partition checkpointing with lineage + metrics — the resumable
batch-pipeline contract of the north rule.

Design (SURVEY.md §4 "checkpoint / resume" row): a large job is split
into independent input shards (e.g. the parquet fragments of the
span-document table, or cell-id key ranges). Each shard's output is a
separate directory written ATOMICALLY (temp dir + rename), and a
manifest line (JSON) records:

    partition id, input lineage (paths + fingerprints), output row
    count, output checksum, wall time, engine version

On resume, shards whose manifest line exists AND whose output
directory is present are skipped — a re-submitted job re-does only
missing work and the final output is byte-identical (checksums prove
it). The reference has no query-time checkpointing (a failed thread
fails the query); its ETL is resumable only at step granularity
(Transform.java:125-170) — this is strictly stronger and is what a
10^12-document run needs.

Ray-level note: each shard is itself a full Ray Data pipeline (block-
parallel inside); shard granularity only bounds re-done work, it does
not serialize execution.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
import time
from collections.abc import Callable
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


from ..ingest import DOC_SHARD_ROWS
from ..io import Blocks, _stat_identity, blocks_table, dataset
from ..ops.relational import combine_by_key

ENGINE_VERSION = "rayhist-0.1"


def _fingerprint(path: str) -> str:
    """Lineage digest of an input: its stat identity, so an input
    rewritten in place (even with size and mtime restored) is redone.
    Raises FileNotFoundError for a vanished input (``run_sharded``
    serves a completed shard from its manifest then)."""
    ident = _stat_identity(path)
    if not ident:
        raise FileNotFoundError(path)
    return hashlib.sha256(repr(ident).encode()).hexdigest()[:16]


def _table_checksum(tbl: pa.Table) -> str:
    """Order-insensitive content checksum of an Arrow table.

    Deterministic ACROSS processes and runs (the resume contract says
    re-submitted jobs produce byte-identical output and checksums prove
    it): values are hashed with pandas' fixed-key hash, never Python's
    per-process-salted builtin ``hash()``.
    """
    import numpy as np
    import pandas as pd

    cols = sorted(tbl.schema.names)
    row_hashes = None
    for c in cols:
        try:
            vals = tbl[c].cast(pa.string()).to_numpy(zero_copy_only=False)
        except pa.lib.ArrowNotImplementedError:
            # nested columns (list/struct/map) have no utf8 cast —
            # fall back to their Python repr (slow, nested-only) so a
            # checkpointed pipeline keeping e.g. a tags list does not
            # crash AFTER its distributed work finished
            vals = np.array([repr(v) for v in tbl[c].to_pylist()], dtype=object)
        h = pd.util.hash_pandas_object(
            pd.Series(vals, dtype=object), index=False, hash_key=c.ljust(16, "_")[:16]
        ).to_numpy()
        row_hashes = h if row_hashes is None else row_hashes * np.uint64(31) + h
    total = int(row_hashes.sum()) if row_hashes is not None and len(row_hashes) else 0
    return f"{total & ((1 << 64) - 1):016x}"


def _files_stats(paths: list[str]) -> tuple[int, str]:
    """(rows, checksum) over a shard's parquet files WITHOUT
    concatenating them into driver memory: the checksum is a sum of
    per-row hashes, which is additive across files, so it accumulates
    file-by-file (bounded by the largest single file, not the shard)."""
    rows, total = 0, 0
    for f in paths:
        tbl = pq.read_table(f)
        rows += tbl.num_rows
        if tbl.num_rows:
            total = (total + int(_table_checksum(tbl), 16)) & ((1 << 64) - 1)
    return rows, (f"{total:016x}" if rows else "0" * 16)


def shard_rows(files: list[str]) -> pc.Expression:
    """A filter keeping the rows of a cached document table that its
    shard ``files`` hold, so a shard of ``run_sharded`` reads them from
    the resident table: ``ingest._write_shards`` cuts the table in
    ``doc_id`` order, so each file is one ``doc_id`` range, read from
    its parquet footer statistics."""
    doc_id = pc.field("doc_id")
    ranges = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        j = md.schema.names.index("doc_id")
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(j).statistics
            if st is not None and st.has_min_max:
                ranges.append((doc_id >= st.min) & (doc_id <= st.max))
    return functools.reduce(operator.or_, ranges, pc.scalar(False))


def read_outputs(manifest: dict[str, dict], out_dir: str) -> pa.Table:
    """The rows ``run_sharded`` wrote for the shards of ``manifest``,
    in partition order, read on the driver file by file (a read-back,
    not kept resident)."""
    files = [f for pid in manifest for f in sorted((Path(out_dir) / pid).glob("*.parquet"))]
    return pa.concat_tables([pq.read_table(f) for f in files])


def _read_manifest(manifest_path: Path) -> dict[str, dict]:
    """Last-line-wins manifest parse, tolerating a torn trailing line
    (SIGKILL / ENOSPC mid-append): an unparseable line is skipped and
    its shard simply gets redone — the resumable log must never be the
    thing that prevents resuming."""
    prior: dict[str, dict] = {}
    if manifest_path.exists():
        for line in manifest_path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            prior[rec["partition"]] = rec
    return prior


def run_sharded(
    shards: dict[str, list[str]],
    process: Callable[[list[str]], Blocks],
    out_dir: str,
) -> dict:
    """Run ``process(input_paths) -> Blocks`` once per shard with
    per-shard checkpointing.

    shards: {partition_id: [input paths]}. Returns the manifest dict.
    Already-completed shards (manifest entry + output present AND the
    recorded input lineage matching the current inputs) are skipped; a
    shard whose inputs changed since its manifest line was written
    (different files, sizes or mtimes under the same partition id) is
    INVALIDATED and redone — resume is keyed on lineage, not on the
    partition name. Partial outputs (temp dirs) from a killed run are
    ignored and redone.
    """
    import shutil

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.jsonl"
    prior = _read_manifest(manifest_path)

    def _lost_race(pid: str, tmp: Path, rec: dict) -> dict:
        """A concurrent run published this shard first. Our tmp is
        discarded; describe the SURVIVING content (the winner's
        manifest line if landed, else a re-checksum — a racing run on
        a different engine version may differ from our rec)."""
        shutil.rmtree(tmp, ignore_errors=True)
        winner = _read_manifest(manifest_path).get(pid)
        if winner is None:
            surv = sorted(str(f) for f in (out / pid).glob("*.parquet"))
            rows, csum = _files_stats(surv)
            winner = {**rec, "rows_out": rows, "checksum": csum}
        return {**winner, "lost_race": True}

    done: dict[str, dict] = {}
    for pid, inputs in sorted(shards.items()):
        rec = prior.get(pid)
        try:
            lineage = {p: _fingerprint(p) for p in inputs}
        except FileNotFoundError:
            # an input vanished (e.g. cache GC) after the shard
            # completed: the output + manifest are the only record —
            # serve them ONLY if the recorded lineage covers exactly
            # the CURRENT input set and every still-existing input's
            # fingerprint matches (a remapped shard under the same id
            # must NOT be served from the old output). Without a
            # matching completed output the shard is unservable, so
            # re-raise.
            if (
                rec is not None
                and (out / pid).exists()
                and set(rec.get("lineage", {})) == set(inputs)
                and all(
                    rec["lineage"][p] == _fingerprint(p)
                    for p in inputs
                    if os.path.exists(p)
                )
            ):
                done[pid] = rec
                continue
            raise
        if rec is not None and rec.get("lineage") == lineage and (out / pid).exists():
            done[pid] = rec
            continue
        if (out / pid).exists():  # stale output (lineage changed): redo
            shutil.rmtree(out / pid)
        t0 = time.perf_counter()
        ds = dataset(process(inputs))
        tmp = out / f".tmp_{pid}_{os.getpid()}"
        # a stale tmp dir (same-pid retry, or pid reuse after a kill)
        # would MERGE leftover partial files into this run's output —
        # write_parquet appends uniquely-named files, it does not clear
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(str(tmp))
        parts = sorted(str(f) for f in tmp.glob("*.parquet"))
        rows_out, csum = _files_stats(parts)  # file-by-file: no driver concat
        rec = {
            "partition": pid,
            "lineage": lineage,
            "rows_out": rows_out,
            "checksum": csum,
            "wall_s": round(time.perf_counter() - t0, 3),
            "engine": ENGINE_VERSION,
        }
        final = out / pid
        if final.exists():  # lost the rename race to a concurrent run
            done[pid] = _lost_race(pid, tmp, rec)
            continue
        try:
            tmp.rename(final)
        except OSError:
            # TOCTOU: the winner renamed between our exists() check
            # and ours — same lost-race path, not a crash
            if not final.exists():
                raise
            done[pid] = _lost_race(pid, tmp, rec)
            continue
        with open(manifest_path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        done[pid] = rec
    return done


# ------------------------------------------------------------------ skew
def salted_count_by(
    ds: Blocks,
    keys: list[str],
    salt_col: str,
    n_salt: int = 16,
    alias: str = "n",
):
    """Two-stage aggregation with deterministic salting for skewed
    keys: per-(keys, salt) counts in one ``io.reduce_by_key``, then
    the per-keys final in a second one over its buckets — a single
    mega-key (dense urban cell) is spread over ``n_salt`` reducers.
    Returns the blocks of (keys, ``alias``).
    Deterministic (salt = row key mod n) so results and resume
    behavior are identical across runs — the requirement the
    reference meets by shuffling cell order
    (MapReducerIgniteLocalPeek.java:185-233).
    """
    import numpy as np

    def salted(batch: pa.Table) -> pa.Table:
        base = batch[salt_col].to_numpy(zero_copy_only=False)
        t = batch.select(keys).append_column("_salt", pa.array((base % n_salt).astype(np.int64)))
        g = pa.TableGroupBy(t, [*keys, "_salt"]).aggregate([([], "count_all")])
        return g.rename_columns([*keys, "_salt", alias])

    partial = combine_by_key(ds, [*keys, "_salt"], {alias: "sum"}, stage=salted)
    return combine_by_key(partial, keys, {alias: "sum"})


def write_partitioned_by_cell(
    ds: Blocks,
    out_dir: str,
    zoom: int,
    min_rows_per_cell: int = 100,
) -> dict:
    """The Load-pass analog (load/LoaderNode.java:44-100): write rows
    partitioned by grid cell, COALESCING sparse cells into their parent
    cell (one zoom up) until each output partition has at least
    ``min_rows_per_cell`` rows or reaches zoom 0 — the reference's
    minEntitiesPerCell rule. Output: one directory per (zoom, cell)
    with a manifest (resumable layout).

    Expects a ``cell`` column at ``zoom`` plus lon/lat columns for
    re-assignment on promotion.
    """
    import numpy as np

    def cell_counts(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["cell"]), ["cell"]).aggregate([([], "count_all")])
        return g.rename_columns(["cell", "n"])

    counts = blocks_table(combine_by_key(ds, ["cell"], {"n": "sum"}, stage=cell_counts))
    small = dict(zip(counts["cell"].to_pylist(), counts["n"].to_pylist()))

    # decide the final (zoom, cell) for every input cell, driver-side
    # (cheap: one entry per occupied cell, not per row). Ancestor sums
    # are aggregated bottom-up ONCE per zoom level — O(cells * zoom),
    # not O(cells^2) dict scans per promotion step.
    level_counts: dict[int, dict[int, int]] = {zoom: dict(small)}
    for z in range(zoom - 1, -1, -1):
        agg: dict[int, int] = {}
        for c, n in level_counts[z + 1].items():
            parent = _ancestor_cell(c, z + 1, z)
            agg[parent] = agg.get(parent, 0) + n
        level_counts[z] = agg

    final_level: dict[int, tuple[int, int]] = {}
    for c in small:
        z, cc = zoom, c
        while level_counts[z][cc] < min_rows_per_cell and z > 0:
            cc = _ancestor_cell(cc, z, z - 1)
            z -= 1
        final_level[c] = (z, cc)

    # vectorized per-batch mapping: sorted key array + searchsorted
    # fancy-index (every batch cell is in final_level by construction
    # — it came from the count over the same dataset); a per-row
    # Python dict lookup here would be the hot Load stage's bottleneck
    keys_arr = np.array(sorted(final_level), dtype=np.int64)
    z_map = np.array([final_level[int(k)][0] for k in keys_arr], dtype=np.int64)
    c_map = np.array([final_level[int(k)][1] for k in keys_arr], dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        cells = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys_arr, cells)
        batch = batch.append_column("part_zoom", pa.array(z_map[pos]))
        return batch.append_column("part_cell", pa.array(c_map[pos]))

    import shutil

    assigned = dataset(ds).map_batches(assign, batch_format="pyarrow")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # atomic REPLACE (temp + rename, the run_sharded discipline): a
    # re-run must never append a second copy of every row into
    # surviving partition dirs, and a reader killed mid-write must
    # never see a half-written layout
    tmp = out / f".tmp_cells_{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    # one row group per partition file (up to a document shard's rows),
    # not one per upstream block: the row group is the read's stage-call
    # unit
    assigned.write_parquet(
        str(tmp), partition_cols=["part_zoom", "part_cell"], row_group_size=DOC_SHARD_ROWS
    )
    manifest = {"zoom": zoom, "partitions": sorted(str(p.relative_to(tmp)) for p in tmp.glob("*/*"))}
    final = out / "cells"
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)
    with open(out / "layout.json", "w") as f:
        json.dump(manifest, f)
    return manifest


def _ancestor_cell(cell: int, from_zoom: int, to_zoom: int) -> int:
    c = cell
    for z in range(from_zoom, to_zoom, -1):
        nx_hi = 1 << z
        y, x = divmod(c, nx_hi)
        c = (y // 2) * (1 << (z - 1)) + (x // 2)
    return c
