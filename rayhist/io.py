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

Between steps a table travels as one small value, ``Blocks``: its
block refs in block order, the view each task applies first, whether
they are a resident table's kept blocks, and per-block row counts (the
block and reduce tasks return each count next to its table, so
``num_rows`` runs nothing). ``read_resident``, ``materialize_blocks``,
``reduce_by_key`` and the operators return it, and every block-task
entry point takes it as it is (``as_blocks``: a field read); a Dataset,
given by a source reader or a caller, is ``materialize()``d once, one
Ray Data execution, and gives its blocks. A Dataset is built only at
the edges: the source readers, the write sinks and ``dataset`` for a
caller that asks for one, as the reference's fastest backend hands
each cell's partial straight to its reduce with no engine object
between steps (``MapReducerJdbcMultithread.java:62-67``).
"""

from __future__ import annotations

import dataclasses
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
from dataclasses import dataclass
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


# ------------------------------------------------------------ block values


class _View:
    """The rows a read asks of a resident table: ``filter`` applied,
    then ``columns`` selected (None: every column held)."""

    def __init__(self, filter, columns):
        self.filter, self.columns = filter, columns

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.filter is not None:
            t = t.filter(self.filter)
        return t if self.columns is None else t.select(list(self.columns))


@dataclass(frozen=True, eq=False)
class Blocks:
    """A table as its blocks in the object store, in block order: what
    ``read_resident``, ``materialize_blocks``, ``reduce_by_key`` and the
    operators return, and what every block-task entry point takes.

    ``rows`` holds each block's row count before the view: an int, or
    the ref of the count its producing task returned next to the table
    (None: unknown, for refs a caller handed in). ``view`` is the filter
    and column selection every task applies to a block first (a
    ``read_resident`` of a filter, or of fewer columns than the copy
    holds). ``kept`` marks a resident table's own blocks: a task gets
    each ref wrapped in a list, so its worker fetches the block once and
    keeps it (``_local_block``); any other ref goes as it is, for Ray to
    resolve."""

    refs: tuple
    rows: tuple
    view: _View | None = None
    kept: bool = False

    def __len__(self) -> int:
        return len(self.refs)

    def to_pandas(self) -> pd.DataFrame:
        """The rows as one pandas frame, each block converted on its own
        and then concatenated (as ``Dataset.to_pandas`` does), so a
        block's pandas metadata survives: an operator's nullable
        ``Int64`` column stays ``Int64`` rather than widening to float."""
        typed = [t for t in _tables(self) if t.num_columns]
        frames = [t.to_pandas() for t in [t for t in typed if t.num_rows] or typed[:1]]
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


def _dataset_blocks(ds: ray.data.Dataset) -> Blocks:
    """The blocks of a Dataset (a Dataset source's output, a table over
    the resident budget, a caller's Dataset), with their row counts
    from the block metadata: a Dataset that is not materialized is
    ``materialize()``d first, one Ray Data execution."""
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    pairs = [(r, m.num_rows) for b in ds.iter_internal_ref_bundles() for r, m in b.blocks]
    return Blocks(tuple(r for r, _ in pairs), tuple(n for _, n in pairs))


def as_blocks(ds) -> Blocks:
    """The one input rule of every block-task entry point: a ``Blocks``
    as it is, a list of table refs as blocks of unknown row counts, and
    a Dataset through ``_dataset_blocks``."""
    if isinstance(ds, Blocks):
        return ds
    if isinstance(ds, (list, tuple)):
        return Blocks(tuple(ds), (None,) * len(ds))
    return _dataset_blocks(ds)


def table_blocks(t: pa.Table) -> Blocks:
    """A table built on the driver (an operator's gated result) as one
    block."""
    return Blocks((ray.put(t),), (t.num_rows,))


def dataset(blocks) -> ray.data.Dataset:
    """A Dataset over ``blocks`` (view applied; a Dataset as it is),
    for a caller that asks for one (``api.MapReducer.view``) or a write
    sink. A bare ``from_arrow_refs`` Dataset plans again on each read
    (~20 ms), so no query step hands one on."""
    if isinstance(blocks, ray.data.Dataset):
        return blocks
    b = as_blocks(blocks)
    ds = ray.data.from_arrow_refs(list(b.refs))
    return ds if b.view is None else ds.map_batches(b.view, batch_format="pyarrow")


# ------------------------------------------------------------ resident tables

# share of the cluster's object_store_memory the resident tables may
# hold together; a table larger than this is never admitted
RESIDENT_FRACTION = 0.25


@dataclass
class _Resident:
    blocks: Blocks | None  # None: over budget, read from disk
    columns: tuple | None  # the columns held (None: every column)
    nbytes: int
    hits: int = 0
    misses: int = 1


# (session, path, stat identity) -> table, least recently used first;
# one lock serializes lookups and loads, so racing first reads of a
# table load it once
_resident: OrderedDict[tuple, _Resident] = OrderedDict()
_resident_lock = threading.Lock()
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


def _admit(key: tuple, blocks: Blocks, columns: tuple | None, nbytes: int) -> _Resident:
    """Keep ``blocks`` (holding ``columns``, ``nbytes`` in memory) under
    ``key`` and evict least recently used tables until the resident
    total fits the budget again. Entries of another Ray session go
    first (their object refs are dead), then the copy it replaces: the
    same path under an older file identity, or under the same one
    holding fewer columns, whose hits and misses carry over."""
    for dead in [k for k in _resident if k[0] != key[0]]:
        del _resident[dead]
        _forget_blocks()
    hits, misses = 0, 1
    for old in [k for k in _resident if k[1] == key[1]]:
        e = _resident.pop(old)
        hits, misses = hits + e.hits, misses + e.misses
        _forget_blocks()
    budget = RESIDENT_FRACTION * ray.cluster_resources().get("object_store_memory", 0)
    entry = _resident[key] = _Resident(
        blocks if nbytes <= budget else None, columns, nbytes, hits, misses
    )
    while sum(e.nbytes for e in _resident.values() if e.blocks is not None) > budget:
        oldest = next(k for k, e in _resident.items() if e.blocks is not None)
        del _resident[oldest]
        _forget_blocks()
    return entry


def read_resident(path, columns=None, filter=None) -> Blocks:
    """Read a table (a file, a directory or a list of files) for a
    query, from the object store.

    Every query-time read goes through here: the cached (``ensure_*``)
    tables and the plain inputs (events, documents, embeddings, the
    TPC-H tables). One copy of a table is kept per (Ray session, path,
    file identity), holding the union of the columns its reads asked
    for. A read of a column the copy lacks materializes
    ``read_table(path, columns=<that union>)`` (as many blocks as
    ``auto_num_blocks`` picks read tasks), compacts every block to one
    chunk per column (one ``materialize_blocks`` task each; a parquet
    read leaves one chunk per shard file, and each fetch of a block
    rebuilds every chunk) and keeps those blocks in place of the
    narrower copy. Every read returns the kept blocks as a ``Blocks``
    value, so a query's block tasks run over in-memory blocks with no
    read planning, no parquet decode and no Dataset. The file identity
    is each file's (name, size, mtime_ns, ctime_ns, inode): any write
    moves the ctime, so a file rewritten in place (even with its mtime
    restored) reloads on the next call. Resident tables are an LRU over
    the materialized read's ``Dataset.size_bytes()`` capped at
    ``RESIDENT_FRACTION`` of the cluster's object store; a table whose
    copy is over the cap is read from disk on every later call
    (``read_table(path, columns=, filter=)``, parquet pruning kept) and
    materialized once, one Ray Data execution.

    ``filter`` is a pyarrow expression over the read columns (same rows
    in the same order as a parquet ``filter=`` read). A read with a
    filter, or of fewer columns than the copy holds (or in another
    order), is the kept blocks with a ``view``: every block task applies
    the filter, then selects the columns.
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
        if entry is not None and entry.blocks is None:
            entry.misses += 1
            return _dataset_blocks(read_table(path, columns=columns, **flt))
        if entry is not None and (
            entry.columns is None or cols is not None and set(cols) <= set(entry.columns)
        ):
            entry.hits += 1
            _resident.move_to_end(key)
            blocks = entry.blocks
        else:
            held = cols
            if entry is not None and cols is not None:
                held = entry.columns + tuple(c for c in cols if c not in entry.columns)
            ds = read_table(path, columns=None if held is None else list(held)).materialize()
            compact = materialize_blocks(ds, pa.Table.combine_chunks)
            blocks = Blocks(compact.refs, tuple(ray.get(list(compact.rows))), kept=True)
            weakref.finalize(blocks, _forget_blocks)
            entry = _admit((_session(), str(path), ident), blocks, held, ds.size_bytes())
        if cols == entry.columns:
            cols = None
    if filter is None and cols is None:
        return blocks
    return dataclasses.replace(blocks, view=_View(filter, cols))


def _arrow(block) -> pa.Table:
    """A block as Arrow: a Dataset's blocks come as they were stored,
    and ``map_batches`` passes an empty input block through
    unconverted, so a pandas-block source can leave pandas blocks among
    the Arrow ones."""
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


@ray.remote(num_returns=2)
def _block_task(stage, block, view, batch_size: int | None, generation: int):
    block = _local_block(block, generation)
    if view is not None:
        block = view(block)
    if not block.num_columns:  # a schema-less empty block: see _route_task
        return block, 0
    n = block.num_rows
    if batch_size is None or n <= batch_size:
        out = stage(block)
    else:
        out = _concat([stage(block.slice(i, batch_size)) for i in range(0, n, batch_size)])
    return out, out.num_rows


def _concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def _task_blocks(b: Blocks) -> list:
    """The block argument of each task over ``b``: a kept ref wrapped in
    a list (the worker resolves and keeps it), any other ref as it
    is."""
    return [[r] for r in b.refs] if b.kept else list(b.refs)


def blocks_table(blocks) -> pa.Table:
    """The rows of ``blocks`` (``as_blocks``: a ``Blocks``, a list of
    table refs, a Dataset) as one table in block order, fetched from
    its blocks with the view applied (``to_pandas()`` or
    ``iter_batches()`` of a Dataset would start a streaming
    execution)."""
    return _concat(_tables(as_blocks(blocks)))


def _tables(b: Blocks) -> list[pa.Table]:
    """The blocks of ``b`` fetched to the driver, view applied."""
    tables = [_arrow(t) for t in ray.get(list(b.refs))]
    return tables if b.view is None else [b.view(t) for t in tables]


def schema(blocks) -> pa.Schema:
    """The schema of ``blocks`` after its view: its first block with
    columns, fetched (a block task hands a schema-less empty block on
    as it is); an empty schema when no block has any."""
    b = as_blocks(blocks)
    for ref in b.refs:
        t = _arrow(ray.get(ref))
        if t.num_columns:
            return (t if b.view is None else b.view(t.slice(0, 0))).schema
    return pa.schema([])


def _row_count(t: pa.Table) -> pa.Table:
    return pa.table({"n": [t.num_rows]})


def num_rows(blocks) -> int:
    """The row count of ``blocks`` (``as_blocks``) with no Ray Data
    execution: the sum of the per-block counts (kept at admission for a
    resident table, returned by each block task next to its table for a
    ``materialize_blocks`` or ``reduce_by_key`` output), or one count
    task per block under a filter or for refs of unknown counts."""
    b = as_blocks(blocks)
    if (b.view is not None and b.view.filter is not None) or None in b.rows:
        return int(pc.sum(map_blocks(b, _row_count)["n"]).as_py() or 0)
    counts = [n for n in b.rows if isinstance(n, int)]
    return sum(counts) + sum(ray.get([n for n in b.rows if not isinstance(n, int)]))


def _ship(fn, n: int):
    """``fn`` as an argument of ``n`` tasks: itself, in the arguments
    of a single task, else one ``ray.put`` the tasks share. Either way
    it goes through Ray's serializer, which counts a ref ``fn``
    captures as borrowed by the task; a ref pickled by hand is pinned
    for the rest of the session."""
    return fn if n <= 1 else ray.put(fn)


def _block_refs(ds, stage, batch_size: int | None) -> list:
    """One ``_block_task`` per block of ``ds`` (``as_blocks``): the
    (table, row count) ref pairs in block order."""
    b = as_blocks(ds)
    args = _task_blocks(b)
    fn = _ship(stage, len(args))
    return [_block_task.remote(fn, a, b.view, batch_size, _generation) for a in args]


def map_blocks(ds, stage, batch_size: int | None = None) -> pa.Table:
    """Run ``stage`` (pyarrow table -> pyarrow table) over ``ds`` and
    return its outputs as one table, for partials combined on the
    driver.

    The stage runs as one Ray task per block of ``ds`` (``as_blocks``: a
    Dataset is materialized once first): in that task's arguments when
    there is one block, else ``ray.put`` once and shared. A worker
    keeps the resident blocks it fetches, so the next query's task over
    the same block does not fetch it again. The outputs are
    concatenated in block order, so two runs give the same rows in the
    same order, and a block whose rows are all filtered out still
    yields the stage's typed empty output. A streaming execution costs
    tens of milliseconds of fixed executor time per query (planning,
    operator start-up, a polling consumer); a task over a block already
    in the object store costs a few. ``batch_size`` is the stage's call
    unit as in ``map_batches``: None is the whole block.
    """
    return _concat(ray.get([t for t, _n in _block_refs(ds, stage, batch_size)]))


def materialize_blocks(ds, stage) -> Blocks:
    """``ds.map_batches(stage).materialize()`` for an output that stays
    distributed (it feeds a co-group, a ``reduce_by_key`` or another
    operator, not a driver combine): the same block tasks as
    ``map_blocks``, whose outputs stay in the object store as the
    returned blocks, in block order, each with the row count its task
    returned."""
    outs = _block_refs(ds, stage, None)
    return Blocks(tuple(t for t, _n in outs), tuple(n for _t, n in outs))


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


@ray.remote(num_returns=2)
def _reduce_task(reduce, *slices: pa.Table):
    typed = [s for s in slices if s.num_columns]
    # no typed slice: every input block was schema-less, so no rows
    out = reduce(_concat(typed)) if typed else pa.table({})
    return out, out.num_rows


def reduce_by_key(ds, keys: list[str], reduce, stage=None) -> Blocks:
    """Group the rows of ``ds`` (after ``stage``) by ``keys`` and run
    ``reduce`` (pyarrow table -> pyarrow table) over each bucket of
    keys: the reduce outputs as ``Blocks``, one block per bucket in
    bucket order, still in the object store (read them on the driver
    with ``blocks_table``, or pass them to another block-task entry
    point or operator).

    ``reduce(table)`` must be correct for any table that holds ALL rows
    of every key it contains, and must return its typed empty output
    for an empty table. Then the result holds the rows Ray Data's
    ``groupby(keys)`` + ``map_groups`` of ``reduce`` over
    ``ds.map_batches(stage)`` would give.

    ``ds`` has ``n`` blocks (``as_blocks``: a Dataset is materialized
    once first): one task per block applies the view and ``stage`` and
    routes its rows by a hash of ``keys`` into ``n`` slices (rows keep
    their order within a slice); one task per bucket concatenates its
    slices in block order and applies ``reduce``, also to a bucket that
    received no rows, so two runs give the same rows in the same order.
    Each reduce task returns its row count next to its table.
    """
    b = as_blocks(ds)
    args = _task_blocks(b)
    n = len(args)
    fn = _ship(stage, n)
    routed = [
        _route_task.options(num_returns=n).remote(fn, a, b.view, keys, n, _generation)
        for a in args
    ]
    if n == 1:
        routed = [[r] for r in routed]
    red = _ship(reduce, n)
    outs = [_reduce_task.remote(red, *[r[j] for r in routed]) for j in range(n)]
    return Blocks(tuple(t for t, _n in outs), tuple(c for _t, c in outs))


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
            "resident": e.blocks is not None,
        }
        for k, e in items
    ]
