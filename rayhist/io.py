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
every query-time read, of a cached history table or of a plain input,
materializes the table into the Ray object store once (one copy per
table, holding the union of the columns its reads ask for), and every
later query maps over those blocks in place instead of re-planning and
re-reading the files. Ray Data is the read and write layer
(``read_table``, ``write_table``); every query step is a block task.

``map_blocks`` is the analog of its fastest backend
(``MapReducerIgniteLocalPeek.java:134-253``: one closure per node over
the locally resident cells, a per-node reduce, the combine on the
client): a query whose partials are combined on the driver runs its
fused stage as one plain Ray task per resident block and concatenates
the outputs in block order, with no Ray Data execution in between. A
task is shipped only what its worker lacks: a query of one task carries
its stage in the task's arguments (a query of several ``ray.put``s it
once), and a worker keeps each resident block it fetches, so a later
query's task over that block takes the worker's copy, a zero-copy view
of the object store, instead of resolving the block again.

``reduce_by_key`` is the wide half of that backend: LocalPeek shuffles
its cell-id buffer across the nodes and reduces per node
(``MapReducerIgniteLocalPeek.java:185-233``). Here one task per block
routes its stage output into hash buckets of a key, and one task per
bucket reduces the rows it received, again with no Ray Data execution.

``map_blocks``, ``materialize_blocks``, ``reduce_by_key`` and
``blocks_table`` take their blocks through one rule (``_blocks``): a
list of table refs or a materialized Dataset as it is, and any other
Dataset (a table over the resident budget, a Dataset source's output)
``materialize()``d once, one Ray Data execution, then the same tasks.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import shutil
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from stat import S_ISDIR

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


# ------------------------------------------------------------ fixture cache


def cache_root() -> Path:
    """The fixture cache directory: ``RAYHIST_CACHE``, read at each
    call (a test or a benchmark run may point it elsewhere after
    import), else ``/tmp/rayhist_cache``."""
    return Path(os.environ.get("RAYHIST_CACHE", "/tmp/rayhist_cache"))


def _staging(out: Path) -> Path:
    """The directory this process builds ``out`` in: next to it, hidden
    from a parquet read of the key directory, named by the pid."""
    return out.parent / f".tmp_{out.name}_{os.getpid()}"


def ensure(name: str, inputs, key_parts, build) -> str:
    """Build (once) the cached table ``name`` and return its directory.

    Every ``ensure_*`` fixture goes through here, the analog of the
    reference's ETL, which builds its derived tables once and leaves
    queries only to read them (``oshdb-tool`` Extract/Transform/Load).
    The key is a sha256 over ``name``, the stat identity of each
    ``inputs`` path (``_stat_identity``: an in-place rewrite changes
    the ctime and inode even when size and mtime are restored) and
    ``key_parts``: the rep and layout parameters and the generating
    modules' ``code_fingerprint``. A hit costs the inputs' ``resolve()``,
    one stat per input file and one ``exists()``.

    On a miss ``build(staging)`` writes the table into an empty
    directory of this process, which is then renamed to the returned
    path: a reader sees the whole table or none of it. A staging
    directory a killed build left under a reused pid is cleared first,
    so its files never join the new ones; the loser of a race between
    processes removes its own copy and returns the winner's.
    """
    idents = []
    for p in inputs:
        ident = _stat_identity(Path(p).resolve())
        if not ident:
            raise FileNotFoundError(f"ensure({name!r}): no input files at {p}")
        idents.append(ident)
    key = hashlib.sha256(repr((name, idents, tuple(key_parts))).encode()).hexdigest()[:16]
    hit = os.path.join(cache_root(), key, name)  # str ops: the hit runs on every query
    if os.path.exists(hit):
        return hit
    out = Path(hit)
    staging = _staging(out)
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    build(str(staging))
    try:
        staging.rename(out)
    except OSError:  # lost the race: another process published first
        if not out.exists():
            raise
        shutil.rmtree(staging, ignore_errors=True)
    return str(out)


def _local_file_stats(path, suffix: str) -> tuple[int, int] | None:
    """(file count, total bytes) of the ``suffix`` files under local
    paths (a path naming a file counts whatever its suffix), else
    None."""
    paths = list(path) if isinstance(path, (list, tuple)) else [path]
    n_files, total = 0, 0
    for p in paths:
        p = str(p)
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                for f in files:
                    if f.endswith(suffix):
                        n_files += 1
                        total += os.path.getsize(os.path.join(root, f))
        elif os.path.isfile(p):
            n_files += 1
            total += os.path.getsize(p)
        else:  # remote / missing: let Ray's own heuristic decide
            return None
    return (n_files, total) if n_files else None


def auto_num_blocks(path, suffix: str = ".parquet") -> int | None:
    """Read-task count of the ``suffix`` files at ``path``: one per
    target-size chunk of input, never fewer than the cluster's CPUs.
    Every reader takes it (``read_table``, the CSV and JSONL sources).

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
    stats = _local_file_stats(path, suffix)
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
    columns: tuple | None  # the columns held (None: every column)
    nbytes: int
    hits: int = 0
    misses: int = 1
    # the views of fewer columns, by column list: building one plans a
    # Dataset (~1 ms)
    views: dict = field(default_factory=dict)


# (session, path, stat identity) -> table, least recently used first;
# one lock serializes lookups and loads, so racing first reads of a
# table load it once
_resident: OrderedDict[tuple, _Resident] = OrderedDict()
_resident_lock = threading.Lock()
# views of resident tables (a filter, fewer columns) -> (resident
# table, view), so a block task applies the view first
_views: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# resident tables -> their block refs, taken once at admission: a
# to_arrow_refs() call plans and executes the Dataset again (~1 ms)
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# a new value whenever a resident table is dropped (evicted, replaced,
# of an ended session, or collected); every block and route task
# carries it, and a worker that sees a new one first forgets the blocks
# it kept
_generations = itertools.count()
_generation = next(_generations)
# in a worker process: the resident blocks its tasks fetched, by object
# id, and the generation they were fetched in
_worker_blocks: dict[bytes, pa.Table] = {}
_worker_generation = None


def _forget_blocks() -> None:
    # next() on a count is atomic, so concurrent drops (a finalizer runs
    # in whichever thread collects the table) never store the same value
    global _generation
    _generation = next(_generations)


def _session() -> tuple[str, str]:
    """Identity of the connected Ray session: a restarted local cluster
    gets a new node id, a reconnect to a running one a new job id, so
    object refs of an ended session are never looked up again."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _stat_identity(path) -> tuple:
    """(name, size, mtime_ns, ctime_ns, ino) of every file under
    ``path`` (one stat for a file; empty when nothing is there): an
    in-place rewrite changes at least the ctime, even when the writer
    restores size and mtime."""
    p = str(path)
    try:
        st = os.stat(p)
    except FileNotFoundError:
        return ()
    if S_ISDIR(st.st_mode):
        files = sorted(os.path.join(root, f) for root, _dirs, fs in os.walk(p) for f in fs)
        stats = [(f, os.stat(f)) for f in files]
    else:
        stats = [(p, st)]
    return tuple((f, s.st_size, s.st_mtime_ns, s.st_ctime_ns, s.st_ino) for f, s in stats)


def _admit(key: tuple, ds: MaterializedDataset, columns: tuple | None) -> _Resident:
    """Keep ``ds`` (holding ``columns``) under ``key`` and evict least
    recently used tables until the resident total fits the budget
    again. Entries of another Ray session go first (their object refs
    are dead), then the copy it replaces: the same path under an older
    file identity, or under the same one holding fewer columns, whose
    hits and misses carry over."""
    for dead in [k for k in _resident if k[0] != key[0]]:
        del _resident[dead]
        _forget_blocks()
    hits, misses = 0, 1
    for old in [k for k in _resident if k[1] == key[1]]:
        e = _resident.pop(old)
        hits, misses = hits + e.hits, misses + e.misses
        _forget_blocks()
    nbytes = ds.size_bytes()
    budget = RESIDENT_FRACTION * ray.cluster_resources().get("object_store_memory", 0)
    entry = _resident[key] = _Resident(
        ds if nbytes <= budget else None, columns, nbytes, hits, misses
    )
    while sum(e.nbytes for e in _resident.values() if e.ds is not None) > budget:
        oldest = next(k for k, e in _resident.items() if e.ds is not None)
        del _resident[oldest]
        _forget_blocks()
    return entry


class _View:
    """The rows a read asks of a resident table: ``filter`` applied,
    then ``columns`` selected (None: every column held)."""

    def __init__(self, filter, columns):
        self.filter, self.columns = filter, columns

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.filter is not None:
            t = t.filter(self.filter)
        return t if self.columns is None else t.select(list(self.columns))


def read_resident(path, columns=None, filter=None) -> ray.data.Dataset:
    """Read a table (a file, a directory or a list of files) for a
    query, from the object store.

    Every query-time read goes through here: the cached (``ensure_*``)
    tables and the plain inputs (events, documents, embeddings, the
    TPC-H tables). One copy of a table is kept per (Ray session, path,
    file identity), holding the union of the columns its reads asked
    for. A read of a column the copy lacks materializes
    ``read_table(path, columns=<that union>)`` (as many blocks as
    ``auto_num_blocks`` picks read tasks), compacts every block to one
    chunk per column (one block task each; a parquet read leaves one
    chunk per shard file, and each fetch of a block rebuilds every
    chunk) and keeps it with its block refs in place of the narrower
    copy. Every other read returns the kept ``MaterializedDataset``, so
    a query's block tasks run over in-memory blocks with no read
    planning and no parquet decode, and ``map_blocks``/``reduce_by_key``
    take the kept refs instead of a ``to_arrow_refs()`` per query. The
    file identity is each file's (name, size, mtime_ns, ctime_ns,
    inode): any write moves the ctime, so a file rewritten in place
    (even with its mtime restored) reloads on the next call. Resident
    tables are an LRU over ``Dataset.size_bytes()`` capped at
    ``RESIDENT_FRACTION`` of the cluster's object store; a table whose
    copy is over the cap is a lazy ``read_table(path, columns=,
    filter=)`` on every later call (parquet pruning kept), which the
    block-task entry points materialize once for that query
    (``_blocks``).

    ``filter`` is a pyarrow expression over the read columns (same rows
    in the same order as a parquet ``filter=`` read). A read with a
    filter, or of fewer columns than the copy holds (or in another
    order), is a view of the copy: every block task applies the filter,
    then selects the columns (``map_blocks``, ``materialize_blocks``,
    ``reduce_by_key``, ``blocks_table``); a Dataset operator sees a
    ``map_batches`` stage doing the same.
    """
    paths = path if isinstance(path, (list, tuple)) else [path]
    ident = tuple(f for p in paths for f in _stat_identity(p))
    cols = None if columns is None else tuple(columns)
    flt = {} if filter is None else {"filter": filter}
    with _resident_lock:
        entry = None
        if ray.is_initialized():  # uninitialised: a miss, and the read auto-inits
            key = (_session(), str(path), ident)
            entry = _resident.get(key)
        if entry is not None and entry.ds is None:
            entry.misses += 1
            return read_table(path, columns=columns, **flt)
        if entry is not None and (
            entry.columns is None or cols is not None and set(cols) <= set(entry.columns)
        ):
            entry.hits += 1
            _resident.move_to_end(key)
            ds = entry.ds
        else:
            held = cols
            if entry is not None and cols is not None:
                held = entry.columns + tuple(c for c in cols if c not in entry.columns)
            ds = read_table(path, columns=None if held is None else list(held)).materialize()
            ds = materialize_blocks(ds, pa.Table.combine_chunks)
            _kept[ds] = ds.to_arrow_refs()
            weakref.finalize(ds, _forget_blocks)
            entry = _admit((_session(), str(path), ident), ds, held)
        if cols == entry.columns:
            cols = None
        if filter is None and (cols is None or cols in entry.views):
            return ds if cols is None else entry.views[cols]
        view = _View(filter, cols)
        out = ds.map_batches(view, batch_format="pyarrow")
        _views[out] = (ds, view)
        if filter is None:
            entry.views[cols] = out
    return out


def _arrow(block) -> pa.Table:
    """A block as Arrow: ``to_arrow_refs`` hands blocks through as they
    are when the Dataset schema is Arrow, and ``map_batches`` passes an
    empty input block through unconverted, so a pandas-block source can
    leave empty pandas blocks among the Arrow ones."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def _local_block(block, generation: int) -> pa.Table:
    """The table a block or route task runs over. ``block`` is a table
    (Ray resolved its ref) or a one-ref list: the kept ref of a
    resident block, which this worker fetches once and keeps, so a
    later task over it takes the same object. A task of another
    generation clears the kept blocks first."""
    global _worker_generation
    if generation != _worker_generation:
        _worker_blocks.clear()
        _worker_generation = generation
    if not isinstance(block, list):
        return _arrow(block)
    (ref,) = block
    t = _worker_blocks.get(ref.binary())
    if t is None:
        t = _worker_blocks[ref.binary()] = _arrow(ray.get(ref))
    return t


@ray.remote
def _block_task(stage, block, view, batch_size: int | None, generation: int) -> pa.Table:
    block = _local_block(block, generation)
    if view is not None:
        block = view(block)
    if not block.num_columns:  # a schema-less empty block: see _route_task
        return block
    n = block.num_rows
    if batch_size is None or n <= batch_size:
        return stage(block)
    return _concat([stage(block.slice(i, batch_size)) for i in range(0, n, batch_size)])


def _concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def _blocks(ds: ray.data.Dataset | list) -> tuple[list, _View | None]:
    """The block arguments of one task per block of ``ds``, and the
    view (filter, columns) each task applies first: the one rule of
    every block-task entry point. A list of table refs (a
    ``reduce_by_key`` result) is taken as it is; a materialized Dataset
    (a ``read_resident`` table or a view of one, or any
    ``materialize()`` result) gives its blocks;
    any other Dataset (a table over the resident budget, a Dataset
    operator's output) is ``materialize()``d once, one Ray Data
    execution, and gives the blocks of that. A resident table's kept
    refs are each wrapped in a list, so Ray hands the task the ref
    itself and the worker keeps the block it fetches; any other
    Dataset's refs go as they are, for Ray to resolve (a transient
    output is never kept)."""
    if isinstance(ds, list):
        return ds, None
    base, view = _views.get(ds, (ds, None))
    if not isinstance(base, MaterializedDataset):
        base, view = ds.materialize(), None
    refs = _kept.get(base)
    return (base.to_arrow_refs() if refs is None else [[r] for r in refs]), view


def blocks_table(blocks: ray.data.Dataset | list) -> pa.Table:
    """The rows of a Dataset, or of a list of table refs (a
    ``reduce_by_key`` result), as one table in block order, fetched
    from its blocks (``_blocks``; ``to_pandas()`` or
    ``iter_batches()`` would start a streaming execution even over a
    materialized Dataset)."""
    blocks, view = _blocks(blocks)
    tables = [_arrow(t) for t in ray.get([b[0] if isinstance(b, list) else b for b in blocks])]
    return _concat(tables if view is None else [view(t) for t in tables])


def _row_count(t: pa.Table) -> pa.Table:
    return pa.table({"n": [t.num_rows]})


def num_rows(ds: ray.data.Dataset) -> int | None:
    """The row count of ``ds`` where it takes no Ray Data execution: a
    materialized Dataset's, or an unfiltered view's, from the block
    metadata of its resident table; a filtered view's from one block
    task per block; an unfiltered disk read's from parquet metadata.
    None for any other Dataset: counting it would run it."""
    base, view = _views.get(ds, (ds, None))
    if view is None or view.filter is None:
        return base._meta_count()
    return int(pc.sum(map_blocks(ds, _row_count)["n"]).as_py() or 0)


def _ship(fn, n: int):
    """``fn`` as an argument of ``n`` tasks: itself, in the arguments
    of a single task, else one ``ray.put`` the tasks share. Either way
    it goes through Ray's serializer, which counts a ref ``fn``
    captures as borrowed by the task; a ref pickled by hand is pinned
    for the rest of the session."""
    return fn if n <= 1 else ray.put(fn)


def _block_refs(ds: ray.data.Dataset | list, stage, batch_size: int | None) -> list:
    """One ``_block_task`` per block of ``ds`` (``_blocks``): the
    output refs in block order."""
    blocks, view = _blocks(ds)
    fn = _ship(stage, len(blocks))
    return [_block_task.remote(fn, b, view, batch_size, _generation) for b in blocks]


def map_blocks(ds: ray.data.Dataset | list, stage, batch_size: int | None = None) -> pa.Table:
    """Run ``stage`` (pyarrow table -> pyarrow table) over ``ds`` and
    return its outputs as one table, for partials combined on the
    driver.

    The stage runs as one Ray task per block of ``ds`` (``_blocks``: a
    Dataset that is not materialized is materialized once first): in
    that task's arguments when there is one block, else ``ray.put``
    once and shared. A worker keeps the resident blocks it fetches, so
    the next query's task over the same block does not fetch it again.
    The outputs are concatenated in block order, so two runs give the
    same rows in the same order, and a block whose rows are all
    filtered out still yields the stage's typed empty output. A
    streaming execution costs tens of milliseconds of fixed executor
    time per query (planning, operator start-up, a polling consumer);
    a task over a block already in the object store costs a few.
    ``batch_size`` is the stage's call unit as in ``map_batches``:
    None is the whole block.
    """
    return _concat(ray.get(_block_refs(ds, stage, batch_size)))


def materialize_blocks(ds: ray.data.Dataset | list, stage) -> MaterializedDataset:
    """``ds.map_batches(stage).materialize()`` for an output that stays
    distributed (it feeds a co-group, a ``reduce_by_key`` or a Dataset
    operator, not a driver combine): the same block tasks as
    ``map_blocks``, whose outputs stay in the object store as the
    blocks of the returned Dataset, in block order."""
    # materialize() pins the plan as executed: a bare from_arrow_refs
    # Dataset re-plans on every later read of it
    return ray.data.from_arrow_refs(_block_refs(ds, stage, None)).materialize()


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
def _route_task(stage, block, view, keys: list[str], n: int, generation: int):
    block = _local_block(block, generation)
    if view is not None:
        block = view(block)
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

    ``ds`` has ``n`` blocks (``_blocks``: a Dataset that is not
    materialized is materialized once first): one task per block
    applies the filter and ``stage`` and routes its rows by a hash of
    ``keys`` into ``n`` slices (rows keep their order within a slice);
    one task per bucket concatenates its slices in block order and
    applies ``reduce``, also to a bucket that received no rows, so two
    runs give the same rows in the same order.
    """
    blocks, view = _blocks(ds)
    n = len(blocks)
    fn = _ship(stage, n)
    routed = [
        _route_task.options(num_returns=n).remote(fn, b, view, keys, n, _generation)
        for b in blocks
    ]
    if n == 1:
        routed = [[r] for r in routed]
    red = _ship(reduce, n)
    return [_reduce_task.remote(red, *[r[j] for r in routed]) for j in range(n)]


def on_pandas(fn):
    """``fn`` (pandas frame -> pandas frame) as a stage or a
    ``reduce_by_key`` ``reduce`` (pyarrow table -> pyarrow table): the
    one pandas <-> Arrow adapter. As a reduce, ``fn`` sees every row of
    its bucket's keys in one frame, and an empty typed frame for a
    bucket that received no rows."""
    return lambda t: pa.Table.from_pandas(fn(t.to_pandas()), preserve_index=False)


def resident_tables() -> list[dict]:
    """One record per table read through ``read_resident`` in this
    session, least recently used first: path, the columns held (None:
    all), a short digest of the file identity, in-memory MB, hits and
    misses (disk reads), and whether it is resident (False: over
    budget)."""
    with _resident_lock:
        items = list(_resident.items())
    return [
        {
            "path": k[1],
            "columns": e.columns,
            "identity": hashlib.sha256(repr(k[2]).encode()).hexdigest()[:12],
            "mb": e.nbytes / (1 << 20),
            "hits": e.hits,
            "misses": e.misses,
            "resident": e.ds is not None,
        }
        for k, e in items
    ]
