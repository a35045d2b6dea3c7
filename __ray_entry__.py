"""Driver contract for the rayhist engine.

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the rayhist package) initialises or shuts down
Ray. Each ``queries()`` callable takes an sf_dir and returns a small
pandas DataFrame whose column names match its ``oracle_sql()`` twin
exactly (the driver sorts columns by name before hashing values).
Both are views of ``rayhist.pipelines.QUERIES``: each query is
registered once, with its SQL twin, by ``@query`` at its definition.

Query inventory maps to SURVEY.md §2; history queries run over the
span-document table (rayhist.ingest) with the fused
decode+interpolation view stages (rayhist.views / rayhist.temporal).
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

# make the rayhist package importable regardless of the caller's cwd
# (Ray workers resolve it through the driver's cwd / PYTHONPATH — see
# .claude/skills/verify/SKILL.md)
_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def entry() -> Any:
    """Flagship pipeline at sf0.001: snapshot count per daily
    timestamp over the span-document table (ingest -> decode ->
    snapshot interpolation -> groupby(ts) -> zerofill)."""
    from rayhist import pipelines as p

    return p.q_snapshot_count_daily("/root/testdata/sf0.001")


# The correctness window checks the FIRST 50 names queries() returns:
# the one query last seen red, then the newest families (none yet
# checked there); every other registered query follows in definition
# order.
WINDOW = (
    "osmpbf_relation_member_sums", "event_debounce", "etype_chi2_cohort",
    "etype_dow_mutual_info", "rolling_median_value", "rrf_fusion",
    "part_hits_authority", "snapshot_count_by_geohash", "bm25_top_docs",
    "way_centroids", "lifespan_overlap_pairs", "frequent_part_triples",
    "cms_etype_counts", "copurchase_recommendations", "source_vocab_jaccard",
    "user_recency_scores", "hapax_rate_by_source", "etype_spearman", "prop_ztest_click",
    "partitioned_day_scan", "etype_kendall_tau", "knn_value_regression",
    "twa_entities_daily", "clark_evans", "linreg_value_day_parity", "bloom_fpr_users",
    "conversion_latency_median", "user_value_holt", "theil_index_by_type",
    "nelson_aalen", "flow_distance_decay", "snapshot_count_by_geohash_multiprec",
    "snapshot_count_by_hexcell", "hex_hotspot_gi", "hex_emerging_hotspots",
    "hex_morans_i", "hexcell_dominant_uid", "nearest_road_distance",
    "idw_snapshot_field", "zonal_raster_stats", "contributor_territory", "kaplan_meier",
    "theilsen_trend_by_type", "knox_pairs", "ripley_k", "semivariogram",
    "ab_test_value", "ks_test_value", "mannwhitney_value", "embedding_pca_top",
)


def queries() -> dict[str, Callable[[str], Any]]:
    from rayhist.pipelines import QUERIES

    names = WINDOW + tuple(n for n in QUERIES if n not in WINDOW)
    return {n: QUERIES[n][0] for n in names}


def oracle_sql() -> dict[str, str]:
    from rayhist import oracles
    from rayhist.pipelines import QUERIES

    return {n: sql(oracles) for n, (_, sql) in QUERIES.items() if sql is not None}
