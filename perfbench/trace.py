"""Span tracing for the traced benchmark run (``--trace 1``).

``install()`` wraps the engine's public layer functions in the calling
process: the driver calls it directly and Ray workers run it as the
job's ``worker_process_setup_hook``. Every rayhist module-level name
bound to a wrapped function is rebound too (``views`` binds
``decode_spans`` through ``from .model import decode_spans``). A wrapper
keeps its function's module and name, so a stage closure pickled on the
driver refers to it by name and each worker resolves that name to its
own wrapper.

Wrappers record only inside an active trace. On the driver that is while
``enable(True)`` is in force. On a worker it is while a stage runs that
the driver wrapped: with tracing on, the driver wraps every plain
function passed to ``Dataset.map_batches`` or ``GroupedData.map_groups``
and the wrapper turns recording on for the call. Untraced passes in the
same session therefore run the original stage functions.

Spans are kept in memory. The driver writes its own at the end of the
run. Ray ends worker processes without running exit handlers, so a
worker appends its finished spans to ``spans-<pid>.jsonl`` in
``PERFBENCH_TRACE_DIR`` when each traced stage call returns.

A span records its name, process, query, tag (the harness phase), start,
duration, self time (duration minus the child spans it encloses in the
same thread), its parent's name and the layer's counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
import threading
import time
import types

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (module, function): the public layer functions that get a span
LAYERS = (
    ("rayhist.ingest", "ensure_documents"),
    ("rayhist.ingest", "ensure_way_documents"),
    ("rayhist.ingest", "ensure_relation_documents"),
    ("rayhist.io", "read_table"),
    ("rayhist.model", "decode_spans"),
    ("rayhist.temporal", "snapshots"),
    ("rayhist.temporal", "contributions"),
    ("rayhist.aggregate", "combine_partials"),
    ("rayhist.spatial.grid", "cell_id"),
    ("rayhist.spatial.fip", "contains_convex"),
    ("rayhist.spatial.raster", "raster_value_for"),
    ("rayhist.spatial.knn", "knn_queries"),
    ("rayhist.members_vec", "contribution_stats_batch_vec"),
    ("rayhist.members_vec", "snapshot_geoms_batch_vec"),
)
# modules whose module-level bindings are rebound to the wrappers
BINDERS = ("rayhist.views", "rayhist.pipelines", "rayhist.api", "rayhist.members")

_tl = threading.local()
_spans: list[dict] = []
_built: set[str] = set()  # table paths returned by an ensure_* build
_installed = False


def _frames() -> list:
    if not hasattr(_tl, "stack"):
        _tl.stack, _tl.on, _tl.query, _tl.tag = [], False, "", ""
    return _tl.stack


def enable(on: bool, query: str = "", tag: str = "") -> None:
    """Turn recording on or off for the calling (driver) thread."""
    _frames()
    _tl.on, _tl.query, _tl.tag = on, query, tag


class _Span:
    __slots__ = ("name", "t0", "child", "counters")

    def __init__(self, name: str):
        self.name, self.t0, self.child, self.counters = name, time.perf_counter(), 0.0, {}


def _push(name: str) -> _Span:
    sp = _Span(name)
    _frames().append(sp)
    return sp


def _pop(sp: _Span) -> None:
    stack = _frames()
    stack.pop()
    dur = time.perf_counter() - sp.t0
    if stack:
        stack[-1].child += dur
    _spans.append(
        {
            "name": sp.name,
            "pid": os.getpid(),
            "query": _tl.query,
            "tag": _tl.tag,
            "t0": sp.t0,
            "dur": dur,
            "self": dur - sp.child,
            "parent": stack[-1].name if stack else "",
            **sp.counters,
        }
    )


def _nbytes(path) -> int:
    total = 0
    for p in path if isinstance(path, (list, tuple)) else [path]:
        p = str(p)
        if os.path.isfile(p):
            total += os.path.getsize(p)
        for root, _dirs, files in os.walk(p):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _count_ensure(sp: _Span, args, kwargs, out) -> None:
    if out in _built:
        sp.name = "ingest.ensure_hit"
    else:
        _built.add(out)
        sp.counters["bytes_written"] = _nbytes(out)


def _count_read(sp, args, kwargs, out) -> None:
    sp.counters["bytes"] = _nbytes(args[0] if args else kwargs["path"])


def _count_decode(sp, args, kwargs, out) -> None:
    sp.counters["versions"] = out.num_rows


def _count_rows(sp, args, kwargs, out) -> None:
    sp.counters["rows_in"] = args[0].num_rows
    sp.counters["rows_out"] = out.num_rows


COUNTERS = {
    "ensure_documents": _count_ensure,
    "ensure_way_documents": _count_ensure,
    "ensure_relation_documents": _count_ensure,
    "read_table": _count_read,
    "decode_spans": _count_decode,
    "snapshots": _count_rows,
    "contributions": _count_rows,
}


def _layer(fn, name: str, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        _frames()
        if not _tl.on:
            return fn(*args, **kwargs)
        sp = _push(name)
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                count(sp, args, kwargs, out)
            return out
        finally:
            _pop(sp)

    return traced


# ------------------------------------------------------------ Ray Data stats

_OP_LINE = re.compile(r"^Operator \d+ (\S+): (.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_SECONDS = re.compile(r"(?:executed|produced) in ([\d.]+)s")
_SHUFFLE_OP = re.compile(r"Aggregate|Sort|Shuffle|Repartition|Join|GroupBy|Zip|Union")


def parse_stats(text: str, seen: set) -> dict:
    """Task count, read tasks and shuffle-operator wall seconds from a
    ``Dataset.stats()`` report. ``seen`` holds operator header lines
    already counted for this query: a Dataset's report repeats the
    operators of the materialized Datasets it was derived from."""
    tasks = read_tasks = 0
    shuffle_s = 0.0
    op, skip = "", False
    for line in text.splitlines():
        m = _OP_LINE.match(line)
        if m:
            skip = line in seen
            seen.add(line)
            op = m.group(1)
            if not skip:
                sec = _SECONDS.search(line)
                if sec and _SHUFFLE_OP.search(op):
                    shuffle_s += float(sec.group(1))
        if skip:
            continue
        t = _TASKS.search(line)
        if t:
            tasks += int(t.group(1))
            if m and op.startswith("ReadParquet"):
                read_tasks += int(t.group(1))
    return {"tasks": tasks, "read_tasks": read_tasks, "shuffle_s": shuffle_s}


def _execute(method, rows: bool):
    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        _frames()
        if not _tl.on:
            return method(self, *args, **kwargs)
        sp = _push("ray_data.execute")
        try:
            out = method(self, *args, **kwargs)
            if rows:
                sp.counters["rows"] = len(out)
            if not hasattr(_tl, "seen") or _tl.seen[0] != _tl.query:
                _tl.seen = (_tl.query, set())
            sp.counters.update(parse_stats(self.stats(), _tl.seen[1]))
            return out
        finally:
            _pop(sp)

    return traced


# --------------------------------------------------------------- stage wraps


def _flush_worker() -> None:
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir or not _spans:
        return
    with open(os.path.join(out_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.writelines(json.dumps(s) + "\n" for s in _spans)
    _spans.clear()


def _run_stage(fn, name: str, query: str, tag: str, args, kwargs):
    _frames()
    outer = not _tl.stack
    if outer:
        _tl.on, _tl.query, _tl.tag = True, query, tag
    sp = _push(name)
    try:
        return fn(*args, **kwargs)
    finally:
        _pop(sp)
        if outer:
            _tl.on = False
            _flush_worker()


def _stage(fn, query: str, tag: str):
    # the closure is pickled by value, so it may only reference
    # module-level functions (pickled by name), never _tl itself
    name = fn.__module__.removeprefix("rayhist.") + ".stage"

    @functools.wraps(fn)
    def stage(*args, **kwargs):
        return _run_stage(fn, name, query, tag, args, kwargs)

    return stage


def _stage_wrapping(method):
    @functools.wraps(method)
    def wrapped(self, fn, *args, **kwargs):
        _frames()
        if _tl.on and isinstance(fn, types.FunctionType):
            fn = _stage(fn, _tl.query, _tl.tag)
        return method(self, fn, *args, **kwargs)

    return wrapped


# ------------------------------------------------------------------- install


def install() -> None:
    """Wrap the layer functions in this process (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    for mod in BINDERS:
        importlib.import_module(mod)
    for mod_name, attr in LAYERS:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        wrapper = _layer(orig, mod_name.removeprefix("rayhist.") + "." + attr, COUNTERS.get(attr))
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "") or ""
            if name.startswith("rayhist") and getattr(other, attr, None) is orig:
                setattr(other, attr, wrapper)


def install_driver() -> None:
    """``install()`` plus the driver-only Dataset hooks: stage wrapping
    and per-execution ``Dataset.stats()`` capture."""
    install()
    from ray.data import Dataset
    from ray.data.grouped_data import GroupedData

    Dataset.map_batches = _stage_wrapping(Dataset.map_batches)
    GroupedData.map_groups = _stage_wrapping(GroupedData.map_groups)
    Dataset.to_pandas = _execute(Dataset.to_pandas, rows=True)
    Dataset.materialize = _execute(Dataset.materialize, rows=False)


def collect(trace_dir: str) -> list[dict]:
    """All spans of the run: the driver's in memory plus every worker's file."""
    spans = list(_spans)
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# ----------------------------------------------------------------- summarize

SUMMED = {  # per-layer metric -> (span name, field)
    "ingest.ensure_hit_s": ("ingest.ensure_hit", "dur"),
    "io.read_table.s": ("io.read_table", "dur"),
    "io.bytes_read": ("io.read_table", "bytes"),
    "io.read_tasks": ("ray_data.execute", "read_tasks"),
    "aggregate.combine_partials.self_s": ("aggregate.combine_partials", "self"),
    "model.decode_spans.calls": ("model.decode_spans", "calls"),
    "model.decode_spans.versions": ("model.decode_spans", "versions"),
    "model.decode_spans.s": ("model.decode_spans", "self"),
    "temporal.snapshots.rows_in": ("temporal.snapshots", "rows_in"),
    "temporal.snapshots.rows_out": ("temporal.snapshots", "rows_out"),
    "temporal.snapshots.s": ("temporal.snapshots", "self"),
    "temporal.contributions.rows_in": ("temporal.contributions", "rows_in"),
    "temporal.contributions.rows_out": ("temporal.contributions", "rows_out"),
    "temporal.contributions.s": ("temporal.contributions", "self"),
    "views.stage_self_s": ("views.stage", "self"),
    "spatial.grid.cell_id.s": ("spatial.grid.cell_id", "self"),
    "spatial.fip.contains_convex.s": ("spatial.fip.contains_convex", "self"),
    "spatial.raster.raster_value_for.s": ("spatial.raster.raster_value_for", "self"),
    "spatial.knn.knn_queries.s": ("spatial.knn.knn_queries", "dur"),
    "ray_data.shuffle_s": ("ray_data.execute", "shuffle_s"),
    "ray_data.tasks": ("ray_data.execute", "tasks"),
    "members_vec.contribution_stats_batch_vec.s": (
        "members_vec.contribution_stats_batch_vec", "self"),
    "members_vec.snapshot_geoms_batch_vec.s": ("members_vec.snapshot_geoms_batch_vec", "self"),
}


def _total(spans, name: str, field: str, **match) -> float:
    return sum(
        1 if field == "calls" else s.get(field, 0)
        for s in spans
        if s["name"] == name and all(s.get(k) == v for k, v in match.items())
    )


def summarize(spans: list[dict], n_setups: int, n_passes: int, pass_walls: float,
              table_versions: int, n_queries: int) -> tuple[dict, dict]:
    """Per-layer metrics (set-up ones per set-up round, the rest per
    traced pass) and the self time of every span name per traced pass."""
    setup = [s for s in spans if s["tag"] == "setup"]
    traced = [s for s in spans if s["tag"] == "traced"]
    out = {
        "ingest.ensure_documents.s": _total(setup, "ingest.ensure_documents", "dur") / n_setups,
        "ingest.bytes_written": sum(s.get("bytes_written", 0) for s in setup) / n_setups,
    }
    for metric, (name, field) in SUMMED.items():
        out[metric] = _total(traced, name, field) / n_passes
    out["aggregate.combine_partials.rows"] = (
        _total(traced, "ray_data.execute", "rows", parent="aggregate.combine_partials") / n_passes
    )
    versions = out["model.decode_spans.versions"]
    out["model.decode_spans.ns_per_version"] = (
        out["model.decode_spans.s"] / versions * 1e9 if versions else 0.0
    )
    out["model.decode_spans.versions_per_table_version"] = versions / (table_versions * n_queries)
    # a driver-side execute span only waits for the worker spans it
    # caused, so it is left out of the self-time account
    self_by_name: dict[str, float] = {}
    for s in traced:
        if s["name"] != "ray_data.execute":
            self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self"] / n_passes
    out["trace.unattributed_s"] = pass_walls / n_passes - sum(self_by_name.values())
    return out, dict(sorted(self_by_name.items(), key=lambda kv: -kv[1]))
