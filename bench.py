"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "entity_versions": V, "entity_versions_per_sec": R}

The headline follows BASELINE.json: snapshot+contribution aggregation
throughput (entity-versions/sec) over the span-document table plus
spatial-join wall time (point-in-polygon regions, raster join, kNN).

--scaling: runs the same job in two FRESH processes at num_cpus=N and
4N on the same input (the sandbox evidence for the N->4N
cluster-scaling criterion; see BASELINE.md) and prints throughputs +
scaling efficiency.

--family {temporal,graph,session12}: the operator-family jobs of
FAMILIES instead of the headline one. Alone it runs one level at
RAY_GRAFT_CPUS; with --scaling it runs the same fresh-process pair:

    python bench.py --scaling --family graph      # the 2->8 pair
    RAY_GRAFT_CPUS=8 python bench.py --family graph  # one level
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections.abc import Callable
from typing import Any, NamedTuple


def run_bench(family: str | None = None) -> dict:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if family is not None:
        return run_family(family, sf_dir, num_cpus)
    rep = int(os.environ.setdefault("RAYHIST_REP", "64"))  # bench-scale corpus
    os.environ.setdefault("RAYHIST_KNN_MOD", "997")  # ~100 kNN queries at rep=64

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from rayhist import pipelines as p
    from rayhist.ingest import ensure_documents, read_documents

    # untimed: build the span-document cache + warm the page cache
    ensure_documents(sf_dir, rep)
    n_versions = int(
        read_documents(sf_dir, columns=["n_versions"], rep=rep).to_pandas()["n_versions"].sum()
    )

    headline = [
        ("snapshot_count_daily", p.q_snapshot_count_daily),
        ("snapshot_cells", p.q_snapshot_cells),
        ("contrib_type_counts", p.q_contrib_type_counts),
        ("contrib_daily", p.q_contrib_daily),
        ("snapshot_pip_regions", p.q_snapshot_pip_regions),
        ("raster_join", p.q_raster_join),
        ("knn_grid", p.q_knn_grid),  # exact grid-accelerated kNN (scale path)
        ("lineitem_agg", p.q_lineitem_agg),
    ]
    only = os.environ.get("RAYHIST_BENCH_QUERIES")
    if only:
        wanted = set(only.split(","))
        known = {n for n, _ in headline}
        unknown = wanted - known
        if unknown:  # fail loud: a typo must not silently skew the job
            raise ValueError(f"unknown RAYHIST_BENCH_QUERIES: {sorted(unknown)}")
        headline = [(n, f) for n, f in headline if n in wanted]
    # untimed warmup: spins up the worker pool and loads the library in
    # every worker process so query timings measure compute, not
    # process startup (same treatment at every parallelism level)
    headline[0][1](sf_dir)

    # measured per-pipeline latency FLOOR at this parallelism level: a
    # trivial read+count over the same table (planning, metadata, task
    # scheduling, executor startup — everything except useful work).
    # Reported so the scaling numbers can be decomposed into
    # constant-latency and engine-work terms.
    import pyarrow as _pa

    doc_path = ensure_documents(sf_dir, rep)

    from rayhist import io as rio

    def _trivial():
        ds = rio.read_table(doc_path, columns=["n_versions"])
        ds.map_batches(
            lambda b: _pa.table({"n": _pa.array([len(b)])}), batch_format="pyarrow"
        ).to_pandas()

    floors = []
    for _ in range(3):
        t0 = time.perf_counter()
        _trivial()
        floors.append(time.perf_counter() - t0)
    pipeline_floor = round(min(floors), 3)

    # Per-query min over P passes in the SAME process, applied
    # identically at every parallelism level. On this co-tenanted VM
    # noise only ever ADDS time (same code measured 7.4-12.7 s across
    # single passes in one afternoon; see BASELINE.md round-5 notes),
    # so min-of-P is closer to the machine's true capability at BOTH
    # levels and the scaling ratio is unbiased. Headline default is 3
    # as of round 5; the JSON reports the pass count so every recorded
    # number is self-describing (earlier BENCH_r{1..4} were passes=1).
    passes = int(os.environ.get("RAYHIST_BENCH_PASSES", "3"))
    times: dict[str, float] = {}
    for name, fn in headline:
        best = float("inf")
        for _ in range(passes):
            t0 = time.perf_counter()
            fn(sf_dir)
            best = min(best, time.perf_counter() - t0)
        times[name] = round(best, 3)

    total = round(sum(times.values()), 3)
    # entity-versions/sec over the temporal-view queries (each decodes
    # + interpolates every version in the table once)
    temporal = [q for q in
                ("snapshot_count_daily", "snapshot_cells", "contrib_type_counts", "contrib_daily")
                if q in times]
    t_temporal = sum(times[q] for q in temporal)
    result = {
        "metric": "snapshot+contribution aggregation + spatial joins, wall sec",
        "value": total,
        "unit": "sec",
        "queries": times,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "rep": rep,
        "entity_versions": n_versions,
        "entity_versions_per_sec": (
            round(len(temporal) * n_versions / t_temporal, 1) if temporal else None
        ),
        "pipeline_floor_sec": pipeline_floor,
        "passes": passes,
    }
    ray.shutdown()
    return result


def run_scaling(family: str | None = None) -> dict:
    """Same job, two fresh processes, two parallelism levels (N, 4N).

    Default N=2 (RAYHIST_SCALE_LO): this sandbox VM has ONE shared
    memory bus and a columnar engine is partially bandwidth-bound —
    `bench.py --probe` measures a pure-STREAM kernel collapsing to
    0.36 eff at 4->16 and 0.16 at 8->32 while a compute kernel holds
    0.85-0.94, so pairs whose high level exceeds ~8 concurrent scans
    measure the bus, not the engine. The 2->8 pair is the below-the-
    wall N->4N evidence run; all pairs + the probe are recorded in
    BASELINE.md. ``family`` runs a FAMILIES job instead of the headline.
    """
    lo = int(os.environ.get("RAYHIST_SCALE_LO", "2"))
    hi = lo * 4
    here = os.path.dirname(os.path.abspath(__file__))
    out = {}
    for ncpu in (lo, hi):
        # workers import rayhist through PYTHONPATH, not the driver's sys.path
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), PYTHONPATH=here)
        args = [sys.executable, os.path.abspath(__file__)]
        if family is not None:
            args += ["--family", family]
        else:
            # larger corpus for the scaling pair: per-query compute must
            # dominate the ~1-2s fixed Ray pipeline latency (scheduling +
            # driver round-trips) at both levels for the efficiency number
            # to measure the engine, not the constant term. rep=128 is the
            # sweet spot: rep=64 leaves the constant at ~15% of the low
            # level; rep=256 pushes the 16-cpu run into object-store
            # pressure on this 1-node sandbox (measured: per-query times
            # inflate >2x super-linearly)
            env.setdefault("RAYHIST_REP", "128")
            # the scaling job is the NORTH-STAR metric job (BASELINE.json:
            # snapshot+contribution aggregation + spatial joins); the
            # relational extra (lineitem_agg, a sub-second job at any
            # parallelism) is benchmarked but not part of the criterion
            env.setdefault(
                "RAYHIST_BENCH_QUERIES",
                "snapshot_count_daily,snapshot_cells,contrib_type_counts,"
                "contrib_daily,snapshot_pip_regions,raster_join,knn_grid",
            )
            # symmetric de-noising (see run_bench): per-query min of 2
            # passes at BOTH levels — co-tenant bursts only ever inflate
            # time, and hit the ~2.5x-longer low-parallelism run hardest
            env.setdefault("RAYHIST_BENCH_PASSES", "2")
        proc = subprocess.run(
            args,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=here,
        )
        out[ncpu] = json.loads(proc.stdout.strip().splitlines()[-1])
    t_lo, t_hi = out[lo]["value"], out[hi]["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    # decomposition: subtract the MEASURED latency floor (planning +
    # scheduling + executor startup, identical pipelines at both levels)
    # from each level to isolate how the engine's WORK scales. Both
    # numbers are reported; the floor is a property of single-pipeline
    # latency, not of the data volume, so its share shrinks as corpora
    # grow. The headline measures it per query (run_bench); a family
    # reruns its whole op sequence on a tiny corpus (None: not measured).
    if family is None:
        floors = {n: len(out[n]["queries"]) * out[n].get("pipeline_floor_sec", 0.0) for n in out}
    else:
        floors = {n: out[n]["floor"] for n in out}
    work_eff = None
    if floors[lo] is not None:
        w_lo, w_hi = t_lo - floors[lo], t_hi - floors[hi]
        # if the floor eats the whole measured wall the decomposition is
        # invalid — report null rather than an absurd clamped efficiency
        if w_lo > 0 and w_hi > 0:
            work_eff = round((w_lo / w_hi) / (hi / lo), 3)
    res = {
        "metric": f"{family or 'headline'} scaling efficiency ({lo} -> {hi} cpus, fresh processes)",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "work_scaling_efficiency": work_eff,
        "per_op_efficiency": {
            q: round((out[lo]["queries"][q] / out[hi]["queries"][q]) / (hi / lo), 3)
            for q in out[lo]["queries"]
        },
        "passes": out[hi].get("passes", 1),
        f"queries_{lo}": out[lo]["queries"],
        f"queries_{hi}": out[hi]["queries"],
    }
    if family is None:
        res.update({
            "sf": out[hi]["sf"],
            f"evps_{lo}": out[lo]["entity_versions_per_sec"],
            f"evps_{hi}": out[hi]["entity_versions_per_sec"],
            f"pipeline_floor_{lo}": out[lo].get("pipeline_floor_sec", 0.0),
            f"pipeline_floor_{hi}": out[hi].get("pipeline_floor_sec", 0.0),
        })
    else:
        res.update({f"floor_{lo}": floors[lo], f"floor_{hi}": floors[hi], **out[lo]["extra"]})
    return res


# ------------------------------------------------------------ op families
# Scaling jobs for operator families beyond the headline: each family
# maps the sf dir to a Job over its corpus. Corpora are deterministic,
# built once in the fixture cache (rayhist.io.ensure).

STRESS_EVENTS = int(os.environ.get("RAYHIST_STRESS_EVENTS", str(10_000_000)))
STRESS_USERS = 150_000
STRESS_EDGES = int(os.environ.get("RAYHIST_STRESS_EDGES", str(6_000_000)))
STRESS_NODES = int(os.environ.get("RAYHIST_STRESS_NODES", str(600_000)))
KCORE_K = 18
BFS_HOPS = 2


class Job(NamedTuple):
    ops: dict[str, Callable[[], Any]]  # timed in order, best of ``passes``
    # the same ops on a tiny input: the latency floor. They run first,
    # so they also warm the worker pools (None: not measured)
    floor_ops: dict[str, Callable[[], Any]] | None
    extras: Callable[[dict], dict]  # the ops' results -> reported counts
    passes: int = 1


def _publish(name: str, fname: str, make_table) -> str:
    """The path of ``make_table()`` written once as ``fname`` in the
    cached directory ``name`` (``io.ensure``)."""
    import pyarrow.parquet as pq

    from rayhist import io as rio

    def build(staging: str) -> None:
        pq.write_table(make_table(), os.path.join(staging, fname), row_group_size=1 << 20)

    return os.path.join(rio.ensure(name, [], [], build), fname)


def ensure_stress_events() -> str:
    """Deterministic 10M-row event log with the testdata schema
    (event_id, ts[us], user_id, event_type, value, props), timestamps
    inside the pipelines' 2024-01 query window, SHUFFLED write order
    (no free pre-sort for the bucket kernels)."""
    import numpy as np
    import pyarrow as pa

    def make() -> pa.Table:
        n = STRESS_EVENTS
        rng = np.random.default_rng(20240101)
        t0 = np.datetime64("2024-01-01T06:00:00", "us").astype(np.int64)
        ts = t0 + rng.integers(0, 29 * 24 * 3600 * 1_000_000, n)
        users = rng.integers(0, STRESS_USERS, n)
        cats = pa.array(["click", "view", "purchase", "error", "signup"])
        # click/purchase heavy so the as-of and range joins see the r4 mix
        etype_idx = rng.choice(5, n, p=[0.35, 0.25, 0.2, 0.15, 0.05]).astype(np.int32)
        order = rng.permutation(n)
        return pa.table(
            {
                "event_id": pa.array(np.arange(n, dtype=np.int64)[order]),
                "ts": pa.array(ts[order]).cast(pa.timestamp("us")),
                "user_id": pa.array(users[order]),
                "event_type": pa.DictionaryArray.from_arrays(
                    pa.array(etype_idx[order]), cats
                ).cast(pa.string()),
                "value": pa.array(np.round(rng.gamma(2.0, 25.0, n), 2)[order]),
                "props": pa.DictionaryArray.from_arrays(
                    pa.array(np.zeros(n, dtype=np.int32)), pa.array([""])
                ).cast(pa.string()),
            }
        )

    return os.path.dirname(_publish(f"stress_events_{STRESS_EVENTS}", "events.parquet", make))


def ensure_stress_graph() -> str:
    """Deterministic edge file (fmix-hashed endpoints, no RNG state):
    ~6M distinct edges over 600k nodes (avg degree ~20), so wedge volume
    stays linear-ish and the triangle join is CPU-bound, not a blow-up."""
    import numpy as np
    import pyarrow as pa

    def fmix(x: np.ndarray) -> np.ndarray:
        h = x.astype(np.uint64)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
        return h

    def make() -> pa.Table:
        i = np.arange(STRESS_EDGES, dtype=np.uint64)
        u = (fmix(i) % np.uint64(STRESS_NODES)).astype(np.int64)
        v = (fmix(i + np.uint64(0x9E3779B9)) % np.uint64(STRESS_NODES)).astype(np.int64)
        return pa.table({"src": u, "dst": v})

    return _publish(f"stress_graph_{STRESS_EDGES}_{STRESS_NODES}", "edges.parquet", make)


def ensure_floor_graph() -> str:
    """Tiny graph (2k edge rows): the graph ops over it measure the
    ROUND-LATENCY FLOOR, the per-shuffle fixed cost that does not
    parallelize."""
    import numpy as np
    import pyarrow as pa

    i = np.arange(2000, dtype=np.int64)
    return _publish(
        "floor_graph_2k", "edges.parquet",
        lambda: pa.table({"src": i % 97, "dst": (i * 7 + 1) % 97}),
    )


def _temporal(sf_dir: str):
    """The oracle-checked ordered/temporal pipelines (as-of join, ROWS
    rolling window, time RANGE window, sessionization, coverage range
    join) over the 10M-event / 150k-user shuffled stress log."""
    from rayhist import pipelines as p

    sf = ensure_stress_events()
    ops = {
        q: (lambda f=getattr(p, f"q_{q}"): f(sf))
        for q in ("asof_attribution", "window_rolling_spikes", "time_window_bursts",
                  "sessions", "range_error_click_daily")
    }
    ops["sessions"]()  # untimed pool warmup (cheapest family member)
    passes = int(os.environ.get("RAYHIST_BENCH_PASSES", "2"))
    return Job(ops, None, lambda res: {"events": STRESS_EVENTS}, passes)


def _distributed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the graph operators' size gate
    (``ops.cc.BROADCAST_GATE``) at 0, so their distributed rounds run;
    the gate is restored after, and every query keeps the default."""
    from rayhist.ops import cc

    saved, cc.BROADCAST_GATE = cc.BROADCAST_GATE, 0
    try:
        return fn(*args, **kwargs)
    finally:
        cc.BROADCAST_GATE = saved


def _graph_ops(edge_path: str, kcore_k: int) -> dict[str, Callable[[], Any]]:
    from rayhist import io as rio
    from rayhist.ops.bfs import bfs_hops
    from rayhist.ops.kcore import k_core
    from rayhist.ops.pagerank import pagerank_int
    from rayhist.ops.triangles import dedupe_edges, edge_triangle_support, triangle_count

    def edges():  # canonical distinct (u, v) pairs
        return dedupe_edges(rio.read_table(edge_path))

    return {
        "triangles": lambda: _distributed(triangle_count, edges(), "u", "v"),
        "pagerank_2it": lambda: rio.blocks_table(pagerank_int(edges(), "u", "v", iters=2)),
        "kcore": lambda: _distributed(k_core, edges(), kcore_k, "u", "v"),
        "bfs": lambda: _distributed(bfs_hops, edges(), lambda n: n % 1000 == 0, BFS_HOPS, "u", "v"),
        # the credits sum per edge in one shuffle on the edge key (gate
        # off); count the result's rows so the |E|-row result never concatenates
        "edge_support": lambda: rio.num_rows(
            _distributed(edge_triangle_support, edges(), "u", "v")
        ),
    }


def _graph(sf_dir: str):
    """Triangles, integer PageRank, k-core peeling, bounded-hop BFS and
    edge support with every size gate FORCED OFF (``_distributed``): the
    distributed shape that runs above the gates at cluster scale — one
    io.reduce_by_key per message round (pagerank, k-core, BFS), four
    keyed shuffles for triangles, the per-edge credit sum for edge
    support. Floor: the same ops on the 2k-row graph."""
    return Job(
        _graph_ops(ensure_stress_graph(), KCORE_K),
        _graph_ops(ensure_floor_graph(), 3),
        lambda res: {
            "edges": int(res["triangles"][0]),
            "triangles": int(res["triangles"][1]),
            "kcore_rounds": int(res["kcore"][1]),
        },
    )


def _session12_ops(sf: str) -> dict[str, Callable[[], Any]]:
    from rayhist import io as rio
    from rayhist import pipelines as p
    from rayhist.ops.hits import hits_bipartite
    from rayhist.ops.relational import hash_join

    def hits():
        li = rio.read_table(
            f"{sf}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        ).map_batches(
            lambda b: b.rename_columns(["o_orderkey", "l_partkey"]), batch_format="pyarrow"
        )
        od = rio.read_table(f"{sf}/orders.parquet", columns=["o_orderkey", "o_custkey"])
        return _distributed(  # force the distributed rounds
            hits_bipartite, hash_join(li, od, on="o_orderkey"),
            src="o_custkey", dst="l_partkey", iters=2,
        )

    return {
        "bm25": lambda: p.q_bm25_top_docs(sf),
        "hits_distributed": hits,
        "triples": lambda: p.q_frequent_part_triples(sf),
        "recommendations": lambda: p.q_copurchase_recommendations(sf),
        "vocab_jaccard": lambda: p.q_source_vocab_jaccard(sf),
    }


def _session12(sf_dir: str):
    """The ranking/graph/basket operators that move real data volume: BM25,
    distributed integer HITS (gate forced off), A-priori triples,
    triadic-closure recommendations and the vocabulary-Jaccard matrix
    at ``sf_dir``; floor: the same sequence at the sibling sf0.001."""
    floor_sf = os.path.join(os.path.dirname(sf_dir), "sf0.001")
    return Job(
        _session12_ops(sf_dir),
        _session12_ops(floor_sf),
        lambda res: {"sf": sf_dir, "n_triples": len(res["triples"])},
    )


FAMILIES = {"temporal": _temporal, "graph": _graph, "session12": _session12}


def _timed(ops: dict[str, Callable[[], Any]], passes: int = 1) -> tuple[dict, dict]:
    """Best-of-``passes`` wall seconds per op, and each op's result."""
    times, results = {}, {}
    for name, fn in ops.items():
        best = float("inf")
        for _ in range(passes):
            t0 = time.perf_counter()
            results[name] = fn()
            best = min(best, time.perf_counter() - t0)
        times[name] = round(best, 3)
    return times, results


def run_family(family: str, sf_dir: str, num_cpus: int) -> dict:
    """One parallelism level of a FAMILIES job (a --scaling child)."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    job = FAMILIES[family](sf_dir)
    floor = None
    if job.floor_ops is not None:
        floor = round(sum(_timed(job.floor_ops)[0].values()), 3)
    times, results = _timed(job.ops, job.passes)
    ray.shutdown()
    return {
        "num_cpus": num_cpus,
        "value": round(sum(times.values()), 3),
        "queries": times,
        "floor": floor,
        "passes": job.passes,
        "extra": job.extras(results),
    }


def run_probe() -> dict:
    """Hardware-attribution probe for the scaling pair: run a purely
    COMPUTE-bound kernel and a purely BANDWIDTH-bound kernel as plain
    Ray tasks (no Ray Data, no engine code) at the same two parallelism
    levels as --scaling, in this process with num_cpus set per level
    via fresh subprocesses. If the compute kernel scales ~1.0 while the
    bandwidth kernel scales like the engine's queries, the efficiency
    gap is the VM's shared memory bus, not engine overhead — on a real
    multi-node cluster each node brings its own memory subsystem."""
    if os.environ.get("RAYHIST_PROBE_LEVEL"):
        # child: run the two kernels at this level and print JSON
        ncpu = int(os.environ["RAYHIST_PROBE_LEVEL"])
        import numpy as _np
        import ray

        ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")

        @ray.remote
        def compute_task(n: int) -> float:
            # ~0.5s of register/L1-bound work: tiny footprint, no streaming
            acc, x = 0.0, 1.0
            for _ in range(n):
                x = x * 1.0000001 + 1e-9
                acc += x
            return acc

        @ray.remote
        def bandwidth_task(mb: int) -> float:
            # stream `mb` MiB through memory repeatedly: bandwidth-bound
            a = _np.arange(mb * 131072, dtype=_np.float64)  # mb MiB
            s = 0.0
            for _ in range(8):
                s += float(a.sum())
                a += 1.0
            return s

        ntasks = ncpu * 4  # same per-core task count at every level
        t0 = time.perf_counter()
        ray.get([compute_task.remote(2_000_000) for _ in range(ntasks)])
        t_compute = time.perf_counter() - t0
        t0 = time.perf_counter()
        ray.get([bandwidth_task.remote(256) for _ in range(ntasks)])
        t_bandwidth = time.perf_counter() - t0
        ray.shutdown()
        print(json.dumps({"ncpu": ncpu, "compute_sec": round(t_compute, 3),
                          "bandwidth_sec": round(t_bandwidth, 3)}))
        return {}

    lo = int(os.environ.get("RAYHIST_SCALE_LO", "2"))  # same default pair as --scaling
    hi = lo * 4
    res = {}
    for ncpu in (lo, hi):
        env = dict(os.environ, RAYHIST_PROBE_LEVEL=str(ncpu))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe"],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        res[ncpu] = json.loads(proc.stdout.strip().splitlines()[-1])
    # per-core task count is constant, so perfect scaling = equal walls
    c_eff = res[lo]["compute_sec"] / res[hi]["compute_sec"]
    b_eff = res[lo]["bandwidth_sec"] / res[hi]["bandwidth_sec"]
    return {
        "metric": f"hardware attribution probe ({lo} vs {hi} cpus, fresh processes)",
        f"compute_sec_{lo}": res[lo]["compute_sec"],
        f"compute_sec_{hi}": res[hi]["compute_sec"],
        "compute_scaling_efficiency": round(c_eff, 3),
        f"bandwidth_sec_{lo}": res[lo]["bandwidth_sec"],
        f"bandwidth_sec_{hi}": res[hi]["bandwidth_sec"],
        "bandwidth_scaling_efficiency": round(b_eff, 3),
    }


if __name__ == "__main__":
    if "--probe" in sys.argv:
        out = run_probe()
        if out:
            print(json.dumps(out))
    else:
        family = sys.argv[sys.argv.index("--family") + 1] if "--family" in sys.argv else None
        if family is not None and family not in FAMILIES:
            raise SystemExit(f"unknown --family {family!r}; one of {sorted(FAMILIES)}")
        if "--scaling" in sys.argv:
            print(json.dumps(run_scaling(family)))
        else:
            print(json.dumps(run_bench(family)))
