"""Benchmark harness for rayhist: named workloads, end-to-end metrics and
a traced run that yields per-layer metrics. Entry point: ``run.py``."""
