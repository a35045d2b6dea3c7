"""Run one benchmark workload against this checkout and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload history_scan --seed 1 --seconds 8 --trace 0

One run, in one driver process with one closed-loop client:

1. writes the workload's seeded ``events.parquet`` (``gen.py``);
2. starts Ray with ``num_cpus`` = the CPUs this process may use, with a
   run-private ``RAYHIST_CACHE`` so every table build is cold;
3. sets up ``SETUP_ROUNDS`` times: copy the input to a fresh directory,
   build every table the workload reads, run one warm-up query;
4. computes every query's expected result with its DuckDB twin from
   ``__ray_entry__.oracle_sql()`` over the same events: a rep-linear
   query is held to rep x its twin at rep=1, any other to its twin over
   the events replicated the way ingest replicates entities;
5. runs passes over the workload's queries, in a seeded order per pass,
   for ``--seconds`` (at least ``MIN_PASSES``), and checks every result
   against its expected one, value-exact.

Every timed interval is reported less the share of CPU time the
hypervisor stole meanwhile (``unstolen``); the run record also keeps
the raw pass times.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` installs the
span tracing of ``trace.py`` in every process, alternates untraced and
traced passes and prints the per-layer metrics; the merged spans are
written to ``.perfbench/trace-<workload>-<seed>.jsonl``.

Standard output ends with two JSON lines: the run record (seed, CPUs,
pass and sample counts, sizes, ``/proc/loadavg`` before and after, the
CPU steal share during the passes, ``failed_frac``) and the result
``{"correct", "attempted", "failed", "metrics"}``. The run writes only
under ``.perfbench/`` (Ray's session directory too, unless the checkout
path is too long for Ray's socket paths) and removes its working
directory when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import trace  # noqa: E402
from perfbench.gen import write_events  # noqa: E402
from perfbench.workloads import REP_LINEAR, WORKLOADS  # noqa: E402

# each round is a complete cold set-up; two keep a run near 30 s, so a
# 70-run measurement session fits in an hour even on a loaded host
SETUP_ROUNDS = 2
MIN_PASSES = 2  # untraced passes; a traced run makes as many traced ones
SMOKE_EVENTS = 1_000  # --smoke: the smallest reference fixture size
REQUIRED = ("rayhist", "__ray_entry__.py", "tools/check_queries.py")
# Ray's socket paths (<temp dir>/session_<date>_<pid>/sockets/plasma_store)
# must fit the 107-byte unix-socket limit
MAX_RAY_TEMP_DIR = 43

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "evps": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "ingest.ensure_documents.s": "s",
    "ingest.bytes_written": "bytes",
    "ingest.ensure_hit_s": "s",
    "io.read_table.s": "s",
    "io.read_tasks": "count",
    "pipeline_floor_s": "s",
    "aggregate.combine_partials.self_s": "s",
    "aggregate.combine_partials.rows": "count",
    "io.bytes_read": "bytes",
    "model.decode_spans.calls": "count",
    "model.decode_spans.versions": "count",
    "model.decode_spans.s": "s",
    "model.decode_spans.ns_per_version": "ns",
    "model.decode_spans.versions_per_table_version": "ratio",
    "temporal.snapshots.rows_in": "count",
    "temporal.snapshots.rows_out": "count",
    "temporal.snapshots.s": "s",
    "temporal.contributions.rows_in": "count",
    "temporal.contributions.rows_out": "count",
    "temporal.contributions.s": "s",
    "views.stage_self_s": "s",
    "spatial.grid.cell_id.s": "s",
    "spatial.fip.contains_convex.s": "s",
    "spatial.raster.raster_value_for.s": "s",
    "spatial.knn.knn_queries.s": "s",
    "ray_data.shuffle_s": "s",
    "ray_data.tasks": "count",
    "members_vec.contribution_stats_batch_vec.s": "s",
    "members_vec.snapshot_geoms_batch_vec.s": "s",
    "ray_data.obj_store_peak_mb": "MB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_EVENTS}-event inputs and one set-up round")
    return ap.parse_args(argv)


# ------------------------------------------------------------------ /proc


def nproc() -> int:
    """CPUs this process may use, as coreutils ``nproc`` counts them
    (``OMP_NUM_THREADS`` caps the affinity mask)."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def cpu_ticks() -> tuple[int, int]:
    """(steal, busy) jiffies summed over all CPUs, from ``/proc/stat``.
    Steal is time a virtual CPU of ours wanted to run but the hypervisor
    ran another guest; busy is user, nice, system, irq and softirq time."""
    f = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return f[7], f[0] + f[1] + f[2] + f[5] + f[6]


def unstolen(seconds: float, before: tuple[int, int], after: tuple[int, int]) -> float:
    """``seconds`` less the share of the CPU time wanted meanwhile that
    the hypervisor stole. On a host shared with other guests this share
    swings between 1% and 40% within minutes and stretches every wall
    time with it; on a dedicated host it is 0 and this is ``seconds``."""
    steal, busy = after[0] - before[0], after[1] - before[1]
    return seconds * busy / (steal + busy) if steal + busy else seconds


def _status(pid: int) -> dict[str, str]:
    out = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, val = line.partition(":")
        out[key] = val.strip()
    return out


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                ppid = int(_status(int(d.name)).get("PPid", "0"))
            except OSError:
                continue
            children.setdefault(ppid, []).append(int(d.name))
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, []))
    return tree


def alive(pid: int) -> bool:
    try:
        return _status(pid).get("State", "Z")[0] not in "ZX"
    except OSError:
        return False


def wait_gone(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until every process in ``pids`` has ended, killing stragglers."""
    deadline = time.monotonic() + timeout
    while any(alive(p) for p in pids):
        if time.monotonic() > deadline:
            for p in filter(alive, pids):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(p, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.05)


def kib(field: str) -> float:
    return float(field.split()[0]) if field else 0.0


def memory_mb(pids: list[int]) -> tuple[float, float]:
    """(sum of VmHWM, largest RssShmem) over ``pids``, in MB. Every Ray
    process maps the shared-memory object store, and a page of it stays
    resident in a process once that process has touched it, so the
    largest shared RSS is a lower bound on the store's high-water mark."""
    hwm = store = 0.0
    for pid in pids:
        try:
            st = _status(pid)
        except OSError:
            continue
        hwm += kib(st.get("VmHWM", ""))
        store = max(store, kib(st.get("RssShmem", "")))
    return hwm / 1024, store / 1024


# -------------------------------------------------------------------- run


class Checker:
    """Counts attempted and failed query executions."""

    def __init__(self, compare):
        self.compare = compare
        self.attempted = self.failed = 0

    def run(self, name: str, fn, sf_dir: str, expected):
        """Run one query and compare it with ``expected``; returns
        (seconds, result or None on failure)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            df = fn(sf_dir)
        except Exception as ex:  # noqa: BLE001 - a raising query is a failed query
            print(f"FAIL {name}: {type(ex).__name__}: {ex}")
            self.failed += 1
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        if not self.compare(name, df, expected):
            self.failed += 1
            return dt, None
        return dt, df


def scaled(df, cols, rep: int):
    out = df.copy()
    for c in cols:
        out[c] = out[c] * rep
    return out


def run(args, wl, work: Path) -> tuple[dict, dict]:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    ncpu = nproc()
    n_setups = 1 if args.smoke else SETUP_ROUNDS
    base = work / "base"
    base.mkdir(parents=True)
    write_events(str(base / "events.parquet"), wl.events, args.seed)

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["RAYHIST_CACHE"] = str(work / "cache")
    os.environ["RAYHIST_REP"] = "1"
    runtime_env = {}
    if args.trace:
        (work / "trace").mkdir()
        os.environ[trace.TRACE_DIR_ENV] = str(work / "trace")
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.install"
    ray_tmp = work.parent if len(str(work.parent)) <= MAX_RAY_TEMP_DIR else None
    load_before = loadavg()

    import duckdb
    import ray

    ticks = cpu_ticks()
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=ncpu,
        object_store_memory=512 << 20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env=runtime_env or None,
        _temp_dir=str(ray_tmp) if ray_tmp else None,
    )
    ray_start_s = unstolen(time.perf_counter() - t0, ticks, cpu_ticks())
    session = (ray_tmp / "session_latest").resolve() if ray_tmp else None
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

        import __ray_entry__
        from rayhist import ingest, pipelines
        from rayhist import io as rio
        from tools.check_queries import compare

        if args.trace:
            trace.install_driver()
        check = Checker(compare)
        queries = {q: getattr(pipelines, f"q_{q}") for q in wl.queries}

        # -- set-up: cold builds of every table + one warm-up query
        os.environ["RAYHIST_REP"] = str(wl.rep)
        setup_rounds = []
        for k in range(n_setups):
            d = work / f"setup{k}"
            d.mkdir()
            shutil.copy(base / "events.parquet", d / "events.parquet")
            trace.enable(bool(args.trace), "setup", "setup")
            ticks = cpu_ticks()
            t0 = time.perf_counter()
            for table in wl.tables:
                getattr(ingest, table)(str(d), wl.rep)
            queries[wl.queries[0]](str(d))
            setup_rounds.append(unstolen(time.perf_counter() - t0, ticks, cpu_ticks()))
            trace.enable(False)
        table_dir = str(d)

        # -- expected results: DuckDB twins over the same events. At rep>1
        # the twin reads the events replicated exactly as ingest
        # replicates entities (user_id + r * REP_STRIDE); a rep-linear
        # query is held to rep x its twin at rep=1 instead
        oracle_sql = __ray_entry__.oracle_sql()
        expected = {}
        with duckdb.connect(config={"threads": ncpu}) as con:

            def twin(name: str, rep: int):
                con.sql(
                    "CREATE OR REPLACE VIEW events AS SELECT event_id, ts,"
                    f" user_id + r * {ingest.REP_STRIDE} AS user_id, event_type, value, props"
                    f" FROM read_parquet('{base / 'events.parquet'}'), range({rep}) AS t(r)"
                )
                return con.sql(oracle_sql[name]).df()

            for name in wl.queries:
                if name in REP_LINEAR:
                    expected[name] = scaled(twin(name, 1), REP_LINEAR[name], wl.rep)
                else:
                    expected[name] = twin(name, wl.rep)

        versions = int(
            ingest.read_documents(table_dir, columns=["n_versions"], rep=wl.rep)
            .to_pandas()["n_versions"].sum()
        )
        floor_s = None
        if args.trace:
            doc_path = ingest.ensure_documents(table_dir, wl.rep)
            floors = []
            for _ in range(3):
                t0 = time.perf_counter()
                rio.read_table(doc_path, columns=["n_versions"]).map_batches(
                    lambda b: {"n": [len(b["n_versions"])]}
                ).to_pandas()
                floors.append(time.perf_counter() - t0)
            floor_s = statistics.median(floors)

        # -- measured passes: closed loop, one client. walls[traced] holds
        # (steal-adjusted, raw) seconds per pass
        walls = {False: [], True: []}
        samples = []
        first = cpu_ticks()
        t_end = time.perf_counter() + args.seconds
        kinds = (False, True) if args.trace else (False,)
        i = 0
        while time.perf_counter() < t_end or any(len(walls[k]) < MIN_PASSES for k in kinds):
            traced = kinds[i % len(kinds)]
            wall = raw = 0.0
            for name in map(str, rng.permutation(wl.queries)):
                trace.enable(traced, name, "traced")
                ticks = cpu_ticks()
                dt, df = check.run(name, queries[name], table_dir, expected[name])
                trace.enable(False)
                raw += dt
                dt = unstolen(dt, ticks, cpu_ticks())
                wall += dt
                if df is not None and not traced:
                    samples.append(dt)
            walls[traced].append((wall, raw))
            i += 1

        last = cpu_ticks()
        pass_s = statistics.median(w for w, _ in walls[False])
        hwm_mb, store_mb = memory_mb(process_tree(os.getpid()))
    finally:
        started = process_tree(os.getpid())[1:]
        ray.shutdown()
        wait_gone(started)
        if session:
            shutil.rmtree(session, ignore_errors=True)
            (ray_tmp / "session_latest").unlink(missing_ok=True)
    load_after = loadavg()

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "nproc": ncpu,
        "ray_num_cpus": ncpu,
        "events": wl.events,
        "rep": wl.rep,
        "entity_versions": versions,
        "queries_per_pass": len(wl.queries),
        "passes": len(walls[False]),
        "pass_s_each": [round(w, 4) for w, _ in walls[False]],
        "raw_pass_s_each": [round(r, 4) for _, r in walls[False]],
        "traced_passes": len(walls[True]),
        "query_samples": len(samples),
        "setup_rounds": [round(s, 4) for s in setup_rounds],
        "ray_start_s": round(ray_start_s, 4),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "steal_frac": round(1 - unstolen(1.0, first, last), 4),
        "attempted": check.attempted,
        "failed_frac": check.failed / check.attempted,
    }
    if args.trace:
        spans = trace.collect(str(work / "trace"))
        layers, self_by_name = trace.summarize(
            spans, n_setups, len(walls[True]), sum(r for _, r in walls[True]), versions,
            len(wl.queries),
        )
        layers["pipeline_floor_s"] = floor_s
        layers["ray_data.obj_store_peak_mb"] = store_mb
        layers["trace.overhead_frac"] = statistics.median(w for w, _ in walls[True]) / pass_s - 1
        record["self_s_per_traced_pass"] = {k: round(v, 4) for k, v in self_by_name.items()}
        out = ROOT / ".perfbench" / f"trace-{wl.name}-{args.seed}.jsonl"
        out.write_text("".join(json.dumps(s) + "\n" for s in spans))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": ray_start_s + statistics.median(setup_rounds),
            "pass_s": pass_s,
            "evps": versions * len(wl.queries) / pass_s,
            "query_p50_s": statistics.median(samples),
            "query_p90_s": statistics.quantiles(samples, n=10)[8],
            "ok_frac": 1 - check.failed / check.attempted,
            "peak_rss_mb": hwm_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a rayhist checkout (missing {missing})", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = dataclasses.replace(wl, events=SMOKE_EVENTS)
    work = ROOT / ".perfbench" / str(os.getpid())
    try:
        record, result = run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
