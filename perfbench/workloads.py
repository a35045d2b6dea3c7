"""The benchmark's named workloads.

Each workload reads a seeded events table of ``events`` rows (see
``gen.py``), amplified ``rep``-fold through ``RAYHIST_REP``, builds the
tables named in ``tables`` and runs ``queries`` in a closed loop with
one client. ``REP_LINEAR`` names the queries whose count columns scale
exactly with ``rep`` (replicas are disjoint copies of every entity), so
their result at ``rep`` must equal ``rep`` x their oracle at rep=1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    events: int
    rep: int
    tables: tuple[str, ...]
    queries: tuple[str, ...]


DOCS = ("ensure_documents",)

REP_LINEAR = {
    "snapshot_count_daily": ("n_snapshots",),
    "snapshot_count_daily_click": ("n_snapshots",),
    "contrib_type_counts": (
        "n_total", "n_creation", "n_deletion", "n_tag_change", "n_geom_change",
    ),
    "contrib_daily": ("n_contribs", "n_creations"),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="history_scan",
            why="snapshot and contribution aggregations over full history; span decode"
            " and temporal interpolation take most of each pass, with no shuffle and a"
            " tiny driver combine",
            events=16_000,
            rep=2,
            tables=DOCS,
            queries=(
                "snapshot_count_daily",
                "snapshot_cells",
                "contrib_type_counts",
                "contrib_daily",
                "snapshot_count_daily_click",
            ),
        ),
        Workload(
            name="spatial_join",
            why="the history_scan table plus spatial kernels and two Dataset shuffles"
            " (kNN halo sort-groupbys, the (ts_q, uid) groupby), about a quarter of each"
            " pass; a shuffle change moves only this workload",
            events=16_000,
            rep=2,
            tables=DOCS,
            queries=(
                "snapshot_pip_regions",
                "raster_join",
                "knn_grid",
                "contrib_uniq_uids_daily",
            ),
        ),
        Workload(
            name="interactive",
            why="12 small queries over node, way and relation tables, with the api"
            " facade; per-query fixed cost (read planning, scheduling, per-batch"
            " overhead, combine) dominates",
            events=10_000,
            rep=1,
            tables=DOCS + ("ensure_way_documents", "ensure_relation_documents"),
            queries=(
                "snapshot_count_daily",
                "snapshot_count_daily_click",
                "snapshot_count_key_excluding",
                "snapshot_cells",
                "contrib_type_counts_click",
                "contrib_daily_by_etype",
                "snapshot_count_bbox",
                "contrib_type_counts_ways",
                "snapshot_way_geoms",
                "snapshot_relation_geoms",
                "api_snapshot_weekly_click_bbox",
                "api_contrib_creations_daily_even_uid",
            ),
        ),
    )
}
