"""Smoke test of the benchmark itself, on 1,000-event inputs.

Runs one short untraced run per workload and one traced run, and checks
that every metric ``BENCHMARK.json`` names is printed with its unit,
that the run record is complete and that no query failed.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = {
    "seed", "nproc", "ray_num_cpus", "passes", "query_samples", "events", "rep",
    "entity_versions", "loadavg_before", "loadavg_after", "failed_frac",
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    *_, record, result = out.stdout.strip().splitlines()
    return json.loads(record)["run"], json.loads(result)


def check(workload: str, trace: int, wanted: list[dict]) -> None:
    record, result = run(workload, trace)
    assert RECORD_KEYS <= record.keys(), RECORD_KEYS - record.keys()
    assert record["failed_frac"] == 0, record
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    print(f"ok {workload} trace={trace}: {len(got)} metrics, {record['passes']} passes")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check(w["name"], 0, spec["end_to_end"])
    check(spec["workloads"][0]["name"], 1, spec["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
