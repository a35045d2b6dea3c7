"""Storage gate: Lance when available, Parquet otherwise.

The production design stores the document table in Lance (column/
fragment pruning replaces the reference's SQL ``BETWEEN`` on cell id,
``oshdb-api/.../backend/MapReducerJdbc.java:51-114``). The sandbox has
no ``lance`` package, so everything falls back to partitioned Parquet
with the same layout; all call sites go through these two functions so
the swap is transparent.

``read_resident`` is the analog of the reference's Ignite caches
(``OSHDB2Ignite``; ``MapReducerIgniteLocalPeek.java:235-253`` runs each
query over the grid cells already resident in the cluster's memory):
the first read of a cached history table materializes it into the Ray
object store, and every later query maps over those blocks in place
instead of re-planning and re-reading the immutable shard files.

``map_blocks`` is the analog of its fastest backend
(``MapReducerIgniteLocalPeek.java:134-253``: one closure per node over
the locally resident cells, a per-node reduce, the combine on the
client): a query whose partials are combined on the driver runs its
fused stage as one plain Ray task per resident block and concatenates
the outputs in block order, with no Ray Data execution in between.

``reduce_by_key`` is the wide half of that backend: LocalPeek shuffles
its cell-id buffer across the nodes and reduces per node
(``MapReducerIgniteLocalPeek.java:185-233``). Here one task per block
routes its stage output into hash buckets of a key, and one task per
bucket reduces the rows it received, again with no Ray Data execution.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.dataset import MaterializedDataset

try:  # pragma: no cover - lance not present in the sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


_IMPORT_TIME_NS = time.time_ns()


@functools.lru_cache(maxsize=None)
def code_fingerprint(*modules) -> str:
    """12-hex digest of the given modules' SOURCE BYTES — the version
    suffix of every ``ensure_*`` fixture-cache key.

    A hand-bumped ``:v1`` string only invalidates the cache when a
    human remembers to bump it; a mid-round edit to the derivation or
    encoder then silently serves stale bytes to whoever holds the old
    cache (the round-4 ``osmpbf_relation_member_sums`` hash-mismatch
    hazard). Hashing the generating module's source makes the key a
    pure function of the code: any edit — even one that did not need a
    rebuild — forces a cold rebuild, which is the safe direction.
    Per-process ``lru_cache``: a source edit mid-process is invisible,
    matching Python's own already-imported-module semantics.

    LOUD-FAIL GUARD: the hash reads the file from DISK, but the
    process executes what it IMPORTED. A file edited after import but
    before this first call would key OLD-code output under the
    NEW-code fingerprint — the exact stale-serve direction the
    mechanism exists to kill — so a source file younger than this
    process's rayhist import raises instead of poisoning the cache.
    """
    h = hashlib.sha256()
    for m in modules:
        src = Path(inspect.getfile(m))
        if src.stat().st_mtime_ns > _IMPORT_TIME_NS:
            raise RuntimeError(
                f"code_fingerprint: {src} was modified after this process "
                "imported rayhist — the in-memory module may not match the "
                "on-disk source; restart the process before building fixtures"
            )
        h.update(src.read_bytes())
    return h.hexdigest()[:12]


def _local_parquet_stats(path) -> tuple[int, int] | None:
    """(file count, total bytes) for local parquet paths, else None."""
    paths = list(path) if isinstance(path, (list, tuple)) else [path]
    n_files, total = 0, 0
    for p in paths:
        p = str(p)
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                for f in files:
                    if f.endswith(".parquet"):
                        n_files += 1
                        total += os.path.getsize(os.path.join(root, f))
        elif os.path.isfile(p):
            n_files += 1
            total += os.path.getsize(p)
        else:  # remote / missing: let Ray's own heuristic decide
            return None
    return (n_files, total) if n_files else None


def auto_num_blocks(path) -> int | None:
    """Read-task count: one per target-size chunk of input, never fewer
    than the cluster's CPUs.

    Ray Data's default parallelism heuristic carries a 200-block
    minimum (``read_op_min_num_blocks``) sized for large clusters; on a
    modest table it splits every file 4x (``SplitBlocks``), breaking
    read->map fusion and paying ~200 task round-trips per downstream
    stage. Measured at sf0.1 rep=64 (64 files / 320 MB / 32 cpus):
    trivial read+count 1.02s -> 0.19s, fused temporal query
    3.9s -> 1.5s. At cluster scale ``total/target_max_block_size``
    dominates and the policy converges to Ray's own sizing minus the
    200-block floor.
    """
    stats = _local_parquet_stats(path)
    if stats is None:
        return None
    _n_files, total = stats
    if ray.is_initialized():
        ncpu = int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 8)
        target = ray.data.DataContext.get_current().target_max_block_size or (128 << 20)
    else:
        # read_parquet would auto-init right after this returns, so
        # bailing out here hands the FIRST read of an un-initialized
        # process to Ray's 200-block floor (the documented, silent
        # 3-5x regression); auto-init uses all cores, so cpu_count is
        # the correct sizing either way
        ncpu = os.cpu_count() or 8
        target = 128 << 20
    return max(ncpu, -(-total // target))


def _is_lance(path) -> bool:
    """True when EVERY given path names a Lance table (str or Path, a
    single path or a list — the same shapes read_table accepts for
    parquet)."""
    paths = list(path) if isinstance(path, (list, tuple)) else [path]
    return bool(paths) and all(str(p).endswith(".lance") for p in paths)


def read_table(path, **kwargs) -> ray.data.Dataset:
    if HAVE_LANCE and _is_lance(path):  # pragma: no cover
        return ray.data.read_lance(path, **kwargs)
    if "override_num_blocks" not in kwargs:
        blocks = auto_num_blocks(path)
        if blocks is not None:
            kwargs["override_num_blocks"] = blocks
    return ray.data.read_parquet(path, **kwargs)


def write_table(
    ds: ray.data.Dataset, path, *, row_group_size: int | None = None, **kwargs
) -> None:
    """Write ``ds`` as a table at ``path``.

    ``row_group_size`` sets the rows per parquet row group, which is
    the ``map_batches`` call unit of every later read: Ray's parquet
    reader yields one block per row group. Left unset, the layout
    follows whatever blocks the producing stage emitted (one per
    shuffle bucket after a groupby). It is parquet-only: a Lance
    table's read unit is its fragment, so the Lance branch never sees
    it.
    """
    if HAVE_LANCE and _is_lance(path):  # pragma: no cover
        ds.write_lance(str(path), **kwargs)
        return
    if row_group_size is not None:
        kwargs["row_group_size"] = row_group_size
    ds.write_parquet(str(path), **kwargs)


# ------------------------------------------------------------ resident tables

# share of the cluster's object_store_memory the resident tables may
# hold together; a table larger than this is never admitted
RESIDENT_FRACTION = 0.25


@dataclass
class _Resident:
    ds: MaterializedDataset | None  # None: over budget, read from disk
    nbytes: int
    hits: int = 0
    misses: int = 1


# (session, path, columns, stat identity) -> table, least recently used
# first; one lock serializes lookups and loads, so racing first reads
# of a table load it once
_resident: OrderedDict[tuple, _Resident] = OrderedDict()
_resident_lock = threading.Lock()
# filtered reads of resident tables -> (resident table, filter), so
# map_blocks runs the filter inside its block task
_filtered: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# resident tables -> their block refs, taken once at admission: a
# to_arrow_refs() call plans and executes the Dataset again (~1 ms)
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _session() -> tuple[str, str]:
    """Identity of the connected Ray session: a restarted local cluster
    gets a new node id, a reconnect to a running one a new job id, so
    object refs of an ended session are never looked up again."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _stat_identity(path) -> tuple:
    """(name, size, mtime_ns, ctime_ns, ino) of every file under
    ``path``: an in-place rewrite changes at least the ctime, even when
    the writer restores size and mtime."""
    p = str(path)
    files = [p] if os.path.isfile(p) else sorted(
        os.path.join(root, f) for root, _dirs, fs in os.walk(p) for f in fs
    )
    out = []
    for f in files:
        st = os.stat(f)
        out.append((f, st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino))
    return tuple(out)


def _admit(key: tuple, ds: MaterializedDataset) -> None:
    """Keep ``ds`` under ``key`` and evict least recently used tables
    until the resident total fits the budget again. Entries of another
    Ray session go first (their object refs are dead), then a stale
    entry for the same path and columns (an older file identity), whose
    miss count carries over."""
    for dead in [k for k in _resident if k[0] != key[0]]:
        del _resident[dead]
    misses = 1
    for old in [k for k in _resident if k[1:3] == key[1:3]]:
        misses += _resident.pop(old).misses
    nbytes = ds.size_bytes()
    budget = RESIDENT_FRACTION * ray.cluster_resources().get("object_store_memory", 0)
    _resident[key] = _Resident(ds if nbytes <= budget else None, nbytes, misses=misses)
    while sum(e.nbytes for e in _resident.values() if e.ds is not None) > budget:
        oldest = next(k for k, e in _resident.items() if e.ds is not None)
        del _resident[oldest]


def read_resident(path, columns=None, filter=None) -> ray.data.Dataset:
    """Read a cached (``ensure_*``) table directory from the object store.

    The first call per (Ray session, path, columns, file identity)
    materializes ``read_table(path, columns=columns)`` — as many blocks
    as ``auto_num_blocks`` picks read tasks — compacts every block to
    one chunk per column (one block task each; a parquet read leaves
    one chunk per shard file, and each fetch of a block rebuilds every
    chunk) and keeps it with its block refs; later calls return the
    kept ``MaterializedDataset``, so a query's block tasks run over
    in-memory blocks with no read planning and no parquet decode, and
    ``map_blocks``/``reduce_by_key`` take the kept refs instead of a
    ``to_arrow_refs()`` per query. A rewritten file changes the identity and
    reloads. Resident tables are an LRU over ``Dataset.size_bytes()``
    capped at ``RESIDENT_FRACTION`` of the cluster's object store; a
    table over the cap is read from disk on every call, as
    ``read_table`` does.

    ``filter`` is a pyarrow expression over the read columns (same rows
    in the same order as a parquet ``filter=`` read). On a resident
    table ``map_blocks`` applies it inside each block task; any other
    consumer sees a ``Table.filter`` stage that fuses into its
    ``map_batches``. Only immutable cache outputs belong here: input
    files rewritten in place keep ``read_table``.
    """
    ident = _stat_identity(path)
    cols = None if columns is None else tuple(columns)
    with _resident_lock:
        entry = None
        if ray.is_initialized():  # uninitialised: a miss, and the read auto-inits
            key = (_session(), str(path), cols, ident)
            entry = _resident.get(key)
        if entry is None:
            ds = read_table(path, columns=columns).materialize()
            ds = materialize_blocks(ds, pa.Table.combine_chunks)
            _kept[ds] = ds.to_arrow_refs()
            _admit((_session(), str(path), cols, ident), ds)
        elif entry.ds is None:
            entry.misses += 1
            flt = {} if filter is None else {"filter": filter}
            return read_table(path, columns=columns, **flt)
        else:
            entry.hits += 1
            _resident.move_to_end(key)
            ds = entry.ds
    if filter is not None:
        base = ds
        ds = base.map_batches(lambda b: b.filter(filter), batch_format="pyarrow")
        _filtered[ds] = (base, filter)
    return ds


def _arrow(block) -> pa.Table:
    """A block as Arrow: ``to_arrow_refs`` hands blocks through as they
    are when the Dataset schema is Arrow, and ``map_batches`` passes an
    empty input block through unconverted, so a pandas-block source can
    leave empty pandas blocks among the Arrow ones."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


@ray.remote
def _block_task(stage, block: pa.Table, flt, batch_size: int | None) -> pa.Table:
    block = _arrow(block)
    if flt is not None:
        block = block.filter(flt)
    n = block.num_rows
    if batch_size is None or n <= batch_size:
        return stage(block)
    return _concat([stage(block.slice(i, batch_size)) for i in range(0, n, batch_size)])


def _concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def blocks_table(blocks: ray.data.Dataset | list) -> pa.Table:
    """The rows of a Dataset, or of a list of table refs
    (a ``reduce_by_key`` result), as one table in block order, read
    from the blocks: ``to_pandas()`` or ``iter_batches()`` would start
    a streaming execution even on a materialized Dataset."""
    if isinstance(blocks, ray.data.Dataset):
        blocks = _refs(blocks)
    return _concat(ray.get(blocks))


def _refs(ds: ray.data.Dataset) -> list:
    """The block refs of ``ds``: the ones kept when a resident table was
    admitted, else ``to_arrow_refs()``."""
    refs = _kept.get(ds)
    return ds.to_arrow_refs() if refs is None else refs


def _block_refs(ds: ray.data.Dataset | list, stage, batch_size: int | None) -> list | None:
    """One ``_block_task`` per block of a materialized ``ds`` (filtered
    or not) or per table ref of a list: the output refs in block order.
    None for any other Dataset."""
    if isinstance(ds, list):
        blocks, flt = ds, None
    else:
        base, flt = _filtered.get(ds, (ds, None))
        if not isinstance(base, MaterializedDataset):
            return None
        blocks = _refs(base)
    fn = ray.put(stage)
    return [_block_task.remote(fn, ref, flt, batch_size) for ref in blocks]


def map_blocks(ds: ray.data.Dataset | list, stage, batch_size: int | None = None) -> pa.Table:
    """Run ``stage`` (pyarrow table -> pyarrow table) over ``ds`` and
    return its outputs as one table, for partials combined on the
    driver.

    On a list of table refs (a ``reduce_by_key`` result) or a
    materialized Dataset (a ``read_resident`` table, filtered or
    not, or any ``materialize()`` result) the stage is ``ray.put``
    once and runs as one Ray task per block; the outputs are
    concatenated in block order, so two runs give the same rows in
    the same order, and a block whose rows are all filtered out still
    yields the stage's typed empty output. A
    streaming execution costs tens of milliseconds of fixed executor
    time per query (planning, operator start-up, a polling consumer);
    a task over a block already in the object store costs a few. Any
    other Dataset runs ``ds.map_batches(stage)`` as before; Ray drops
    empty blocks there, so an all-empty result arrives without
    columns. ``batch_size`` is the stage's call unit as in
    ``map_batches``: None is the whole block.
    """
    refs = _block_refs(ds, stage, batch_size)
    if refs is None:
        # stream the outputs as to_pandas does: a materialize() first
        # would re-plan the executed Dataset and copy its block list
        out = ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)
        return _concat(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return _concat(ray.get(refs))


def materialize_blocks(ds: ray.data.Dataset | list, stage) -> MaterializedDataset:
    """``ds.map_batches(stage).materialize()`` for an output that stays
    distributed (it feeds a Dataset groupby or join, not a driver
    combine): on a materialized ``ds`` or a list of table refs the same
    block tasks as
    ``map_blocks``, whose outputs stay in the object store as the
    blocks of the returned Dataset, in block order. Any other Dataset
    runs ``map_batches`` and ``materialize`` as before."""
    refs = _block_refs(ds, stage, None)
    if refs is None:
        return ds.map_batches(stage, batch_format="pyarrow").materialize()
    # materialize() pins the plan as executed: a bare from_arrow_refs
    # Dataset re-plans on every later read of it
    return ray.data.from_arrow_refs(refs).materialize()


def _key_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """uint64 hash of each row's ``keys``, equal in every process and
    every block for equal keys: a null hashes as 0 whatever its
    column's type, and int keys are hashed as int64 (numpy would widen
    an int column that holds nulls to float)."""
    cols = {}
    for k in keys:
        c = t[k]
        nulls = c.is_null().to_numpy(zero_copy_only=False)
        if pa.types.is_integer(c.type) or pa.types.is_boolean(c.type):
            c = pc.fill_null(c, 0).cast(pa.int64(), safe=False)
        h = pd.util.hash_array(c.to_numpy(zero_copy_only=False))
        h[nulls] = 0
        cols[k] = h
    return pd.util.hash_pandas_object(pd.DataFrame(cols), index=False).to_numpy()


@ray.remote
def _route_task(stage, block: pa.Table, flt, keys: list[str], n: int):
    block = _arrow(block)
    if flt is not None:
        block = block.filter(flt)
    # Ray's schema-less empty block (a materialized map_batches
    # output) has no columns for the stage to read: pass it on
    t = block if stage is None or not block.num_columns else stage(block)
    if not t.num_columns:
        slices = [t] * n
    else:
        bucket = _key_hash(t, keys) % np.uint64(n)
        t = t.take(np.argsort(bucket, kind="stable"))
        ends = np.cumsum(np.bincount(bucket.astype(np.int64), minlength=n))
        slices = [t.slice(e - c, c) for e, c in zip(ends, np.diff(ends, prepend=0))]
    return slices if n > 1 else slices[0]  # num_returns=1 returns one value


@ray.remote
def _reduce_task(reduce, *slices: pa.Table) -> pa.Table:
    typed = [s for s in slices if s.num_columns]
    # no typed slice: every input block was schema-less, so no rows
    return reduce(_concat(typed)) if typed else pa.table({})


def reduce_by_key(ds: ray.data.Dataset | list, keys: list[str], reduce, stage=None) -> list:
    """Group the rows of ``ds`` (after ``stage``) by ``keys`` and run
    ``reduce`` (pyarrow table -> pyarrow table) over each bucket of
    keys: the refs of the reduce outputs, one table per bucket in
    bucket order, still in the object store (read them on the driver
    with ``blocks_table``, or pass them to another ``reduce_by_key``).

    ``reduce(table)`` must be correct for any table that holds ALL rows
    of every key it contains, and must return its typed empty output
    for an empty table. Then the result holds the rows Ray Data's
    ``groupby(keys)`` + ``map_groups`` of ``reduce`` over
    ``ds.map_batches(stage)`` would give.

    ``ds`` is a list of table refs or a materialized Dataset (a
    ``read_resident`` table, filtered or not, or a
    ``materialize_blocks`` result) with ``n`` blocks: one task per
    block applies the filter and ``stage`` and routes its rows by a
    hash of ``keys`` into ``n`` slices (rows keep their order within a
    slice); one task per bucket concatenates its slices in block order
    and applies ``reduce``, also to a bucket that received no rows, so
    two runs give the same rows in the same order. Any other Dataset
    (a table over the resident budget) runs ``stage`` through
    ``map_batches`` and ``materialize`` first, then the same tasks over
    its blocks.
    """
    if isinstance(ds, list):
        blocks, flt = ds, None
    else:
        base, flt = _filtered.get(ds, (ds, None))
        if not isinstance(base, MaterializedDataset):
            if stage is not None:
                ds = ds.map_batches(stage, batch_format="pyarrow")
            base, flt, stage = ds.materialize(), None, None
        blocks = _refs(base)
    n = len(blocks)
    fn = ray.put(stage)
    routed = [
        _route_task.options(num_returns=n).remote(fn, ref, flt, keys, n) for ref in blocks
    ]
    if n == 1:
        routed = [[r] for r in routed]
    red = ray.put(reduce)
    return [_reduce_task.remote(red, *[r[j] for r in routed]) for j in range(n)]


def on_pandas(fn):
    """``fn`` (pandas frame -> pandas frame) as a ``reduce_by_key``
    ``reduce`` (pyarrow table -> pyarrow table): the one pandas <->
    Arrow adapter. ``fn`` sees every row of its bucket's keys in one
    frame, and an empty typed frame for a bucket that received no
    rows."""
    return lambda t: pa.Table.from_pandas(fn(t.to_pandas()), preserve_index=False)


def resident_tables() -> list[dict]:
    """One record per table read through ``read_resident`` in this
    session, least recently used first: path, columns, a short digest
    of the file identity, in-memory MB, hits and misses (disk reads),
    and whether it is resident (False: over budget)."""
    with _resident_lock:
        items = list(_resident.items())
    return [
        {
            "path": k[1],
            "columns": k[2],
            "identity": hashlib.sha256(repr(k[3]).encode()).hexdigest()[:12],
            "mb": e.nbytes / (1 << 20),
            "hits": e.hits,
            "misses": e.misses,
            "resident": e.ds is not None,
        }
        for k, e in items
    ]
