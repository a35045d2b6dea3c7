"""The query registry: every ``q_*`` pipeline is registered once, by
``@query`` in rayhist/pipelines.py, with its SQL twin. These checks pin
the driver surface built from it (``__ray_entry__.queries()`` and
``oracle_sql()``) without running a pipeline, and that every top-level
name in rayhist/ is reachable from that surface or a listed test
reference."""

import ast
from pathlib import Path

import __ray_entry__ as entry
from rayhist import pipelines

# the registered query names (sorted); the surface is frozen, so a
# change here is deliberate
NAMES = (
    "ab_test_value", "above_user_mean", "ann_cosine", "ann_cosine_ivf",
    "ann_cosine_lsh", "anomalous_days_by_type", "anti_join_orders",
    "api_contrib_creations_daily_even_uid", "api_snapshot_daily_any_tags",
    "api_snapshot_weekly_click_bbox", "api_snapshot_weighted_avg",
    "arrow_events_by_type", "asof_attribution", "bloom_fpr_users",
    "bloom_semi_join_orders", "bm25_top_docs", "cell_flows", "clark_evans",
    "clipped_way_lengths", "clipped_way_lengths_daily", "clipped_way_lengths_poly",
    "cluster_dedup_summary", "cms_etype_counts", "cohort_odds_ratio",
    "cohort_retention", "contrib_by_hexcell", "contrib_daily", "contrib_daily_by_etype",
    "contrib_per_entity", "contrib_type_counts", "contrib_type_counts_bbox",
    "contrib_type_counts_click", "contrib_type_counts_poly",
    "contrib_type_counts_relations", "contrib_type_counts_ways",
    "contrib_type_counts_ways_k3", "contrib_uniq_uids_daily", "contributor_activity",
    "contributor_territory", "conversion_latency_median", "copurchase_assortativity",
    "copurchase_bfs_hops", "copurchase_cheapest_paths", "copurchase_clustering",
    "copurchase_edge_jaccard", "copurchase_kcore", "copurchase_lcc",
    "copurchase_pagerank", "copurchase_recommendations", "copurchase_triangles",
    "corpus_curation", "csv_events_daily", "cube_events", "customer_rfm_segments",
    "dedup_docs", "doc_compressibility", "doc_fingerprints", "doc_join_collocates",
    "doc_lm_surprisal", "doc_normalized_stats", "doc_pattern_counts", "doc_redaction",
    "doc_repetition", "doc_stats", "doc_token_packing", "doc_tokens", "dup_clusters",
    "embedding_covariance", "embedding_dup_pairs", "embedding_pca_top",
    "entity_lifespans", "entity_sinuosity", "entity_tag_churn",
    "etype_audience_overlap", "etype_chi2_cohort", "etype_cusum_changepoint",
    "etype_daily_autocorr", "etype_daily_crosscorr", "etype_day_entropy",
    "etype_dow_mutual_info", "etype_dwell_time", "etype_kendall_tau",
    "etype_purity_by_day", "etype_rank_delta", "etype_seasonal_profile",
    "etype_share_by_day", "etype_spearman", "etype_stationary", "etype_transitions",
    "event_debounce", "events_by_type", "events_dow_hour", "extreme_events_by_type",
    "flow_distance_decay", "flow_reciprocity", "frequent_part_triples", "funnel3_users",
    "funnel_attribution_daily", "gapfill_daily", "hapax_rate_by_source",
    "heavy_hitter_sources", "hex_emerging_hotspots", "hex_gearys_c", "hex_hotspot_gi",
    "hex_morans_i", "hexcell_churn", "hexcell_dominant_uid", "hexcell_freshness",
    "hexcell_location_quotient", "hexcell_weekly", "hll_uniq_uids_daily",
    "hopping_window_counts", "idw_snapshot_field", "interarrival_median",
    "inverted_index", "jsonl_events_by_type", "kaplan_meier", "keytable_freqs", "knn",
    "knn_all", "knn_grid", "knn_majority_label", "knn_value_regression", "knox_pairs",
    "ks_test_value", "label_centroid_cosine", "langid", "langid_exact",
    "lifespan_overlap_pairs", "lineitem_agg", "lineitem_means",
    "lineitem_measures_unpivot", "linreg_value_day_parity", "mad_value_by_type",
    "mannwhitney_value", "media_features", "media_meta_exact", "minhash_lsh_pairs",
    "modal_value_by_type", "near_dup_pairs", "near_dup_source_matrix",
    "nearest_road_distance", "nelson_aalen", "ohlc_daily", "oov_rate_by_source",
    "order_price_ntiles", "orders_by_nation", "osmpbf_relation_member_sums",
    "osmpbf_snapshot_count_daily", "osmpbf_way_version_counts", "outer_join_user_day",
    "pareto_orders", "part_hits_authority", "partitioned_day_scan",
    "pbf_snapshot_count_daily", "peak_concurrency", "pivot_events_daily",
    "predominant_etype_dwell", "price_percentiles_cont", "price_quantiles",
    "profile_orders", "prop_ztest_click", "props_key_dist", "range_error_click_daily",
    "raster_join", "revenue_by_nation_month", "ripley_k", "road_buffer_count",
    "rolling_active_users", "rolling_median_value", "rollup_events", "rrf_fusion",
    "sample_docs", "semivariogram", "sessions", "shared_windows", "simhash_pairs",
    "snapshot_bbox_overlaps", "snapshot_cells", "snapshot_cells_fine",
    "snapshot_cells_salted", "snapshot_colocation_pairs", "snapshot_count_bbox",
    "snapshot_count_bbox_multizoom", "snapshot_count_by_geohash",
    "snapshot_count_by_geohash_multiprec", "snapshot_count_by_hexcell",
    "snapshot_count_by_s2cell", "snapshot_count_by_type", "snapshot_count_daily",
    "snapshot_count_daily_checkpointed", "snapshot_count_daily_click",
    "snapshot_count_daily_unsorted", "snapshot_count_even_uid",
    "snapshot_count_key_excluding", "snapshot_count_three_types",
    "snapshot_diameter_by_type", "snapshot_diff", "snapshot_hotspot_clusters",
    "snapshot_hull_by_type", "snapshot_incremental_merge", "snapshot_kmeans",
    "snapshot_latest_state", "snapshot_latest_state_written", "snapshot_old_style",
    "snapshot_pip_many_regions", "snapshot_pip_many_regions_strtree",
    "snapshot_pip_poly", "snapshot_pip_regions", "snapshot_relation_geoms",
    "snapshot_way_geoms", "source_drift_psi", "source_vocab_jaccard",
    "split_contamination", "stratified_sample_docs", "supplier_fuzzy_pairs",
    "tag_reverts", "tdigest_price_quantiles", "tdigest_value_by_type",
    "tfidf_top_terms", "theil_index_by_type", "theilsen_trend_by_type",
    "time_window_bursts", "token_zipf_slope", "top_words", "topk_orders",
    "topk_orders_by_priority", "train_val_test_split", "trimmed_mean_by_type",
    "turn_angle_histogram", "twa_entities_daily", "user_active_coverage",
    "user_burstiness", "user_distinct_etypes", "user_entropy", "user_event_ranks",
    "user_first_events", "user_gini_by_etype", "user_journeys", "user_recency_scores",
    "user_streaks", "user_value_dist", "user_value_ewma", "user_value_holt",
    "users_click_not_purchase", "value_bitops_by_type", "value_equidepth_bins",
    "value_histogram", "value_leading_digits", "value_moments_by_type",
    "value_percentile_mass_by_type", "value_quantiles_by_type", "value_trend_by_type",
    "vocab_growth", "way_areas", "way_bearing_rose", "way_boundary_crossings",
    "way_centroids", "way_chain_lengths", "way_compactness", "way_lengths",
    "weighted_median_price", "weighted_sample_docs", "window_rolling_spikes",
    "zonal_raster_stats",
)

# the correctness window: the first 50 names queries() returns
FIRST_50 = (
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

ROWS_ONLY = {
    "doc_compressibility", "hll_uniq_uids_daily", "langid", "media_features",
    "minhash_lsh_pairs", "simhash_pairs", "tdigest_price_quantiles",
    "tdigest_value_by_type",
}


def test_queries_are_exactly_the_registered_names():
    assert len(NAMES) == 265
    assert sorted(entry.queries()) == list(NAMES)


def test_window_leads_queries():
    assert entry.WINDOW == FIRST_50
    assert tuple(entry.queries())[:50] == FIRST_50


def test_every_pipeline_is_registered():
    defined = {n.removeprefix("q_") for n in dir(pipelines) if n.startswith("q_")}
    assert defined == set(pipelines.QUERIES)
    for name, fn in entry.queries().items():
        assert fn is getattr(pipelines, f"q_{name}")


def test_oracles_cover_all_but_rows_only():
    assert set(entry.oracle_sql()) == set(NAMES) - ROWS_ONLY


def test_every_oracle_builds_sql():
    for name, sql in entry.oracle_sql().items():
        assert isinstance(sql, str) and sql.strip(), name


def test_double_registration_raises():
    import pytest

    def q_snapshot_count_daily(sf_dir):  # same name as a registered query
        return None

    with pytest.raises(ValueError, match="registered twice"):
        pipelines.query(None)(q_snapshot_count_daily)


# ------------------------------------------------------- reachability
ROOT = Path(__file__).resolve().parents[1]
FACADE = {"MapReducer", "OSMEntitySnapshotView", "OSMContributionView"}

_BUILDERS = "geometry builder family: tests/reference_members.py builds on it"
_SCALAR = "scalar reference of a vectorized kernel, pinned in the tests"
# the top-level rayhist/ names no query, facade class, driver entry,
# bench.py, tools/ or perfbench/ script reaches, each kept on purpose:
# the tests use them as the reference the engine is checked against
TEST_REFERENCES = {
    "functions.geo.area_of_polygon": _SCALAR,
    "functions.geo.length_of_line": _SCALAR,
    "functions.geo.ring_area": _SCALAR,
    "functions.geo.distance_haversine": "the port of the reference's Geo tests pins it",
    "functions.timeutil.format_iso": "test fixture: ISO text of a microsecond timestamp",
    "geometry.AREA_TAGS": _BUILDERS,
    "geometry.DEFAULT_TAG_INTERPRETER": _BUILDERS,
    "geometry.Geom": _BUILDERS,
    "geometry.TagInterpreter": _BUILDERS,
    "geometry.is_area": _BUILDERS,
    "geometry.build_node": _BUILDERS,
    "geometry.build_way": _BUILDERS,
    "geometry.build_multipolygon": _BUILDERS,
    "geometry.build_geometry_collection": _BUILDERS,
    "geometry.normalize_ring": _BUILDERS,
    "geometry._join_rings": _BUILDERS,
    "geometry._split_crossings": _BUILDERS,
    "geometry._shoelace_e7": _BUILDERS,
    "geometry._point_in_ring": _BUILDERS,
    "geometry._points_in_ring": _BUILDERS,
    "geometry.clip_polygon_convex": "the port of the reference's split-invariant tests pins it",
    "geometry.clip_segments_to_bbox": "the reference clip_segments_convex is checked against",
    "model.format_geom_ref": "test fixture: the geom span's blob key",
    "ops.dedup.shingle_set": _SCALAR,
    "ops.dedup.simhash64": _SCALAR,
    "spatial.s2.s2_parent": "test fixture: the S2 cell hierarchy checks",
    "spatial.s2.s2_range": "test fixture: the S2 cell hierarchy checks",
    "views.contribution_stage": "the contribution half of the view-stage pair",
}


def _refs(node: ast.AST) -> set[str]:
    """Every identifier ``node`` names, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _targets(st: ast.stmt) -> list[str] | None:
    """The names a top-level statement defines (None: it defines none)."""
    if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [st.name]
    if isinstance(st, ast.Assign):
        return [n.id for t in st.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
        return [st.target.id]
    return None


def unreached(root: Path = ROOT) -> set[str]:
    """The top-level names of ``root/rayhist`` (``module.name``) that
    nothing reaches from the roots: every ``q_*`` query, the facade
    classes, every name ``__ray_entry__.py``, ``bench.py``, ``tools/``
    and ``perfbench/`` use, and the statements a module runs at import.
    A reference resolves by identifier alone, so a name is reached if
    any reached code names it (an over-approximation: never a false
    "unreached")."""
    uses: dict[str, list[tuple[str, set]]] = {}
    live = set(FACADE)
    for path in sorted((root / "rayhist").rglob("*.py")):
        mod = ".".join(path.relative_to(root / "rayhist").with_suffix("").parts)
        for st in ast.parse(path.read_text()).body:
            names = _targets(st)
            if names is None:
                if not isinstance(st, (ast.Import, ast.ImportFrom)):
                    live |= _refs(st)  # runs at import
                continue
            for name in names:
                uses.setdefault(name, []).append((f"{mod}.{name}", _refs(st)))
                if name.startswith("__") or (mod == "pipelines" and name.startswith("q_")):
                    live.add(name)
    for path in [root / "__ray_entry__.py", root / "bench.py",
                 *sorted((root / "tools").glob("*.py")), *sorted((root / "perfbench").glob("*.py"))]:
        live |= _refs(ast.parse(path.read_text()))
    seen: set[str] = set()
    todo = list(live)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [r for _, refs in uses.get(name, []) for r in refs]
    return {key for name, defs in uses.items() if name not in seen for key, _ in defs}


def test_every_rayhist_name_is_reached_or_a_test_reference():
    """Nothing in rayhist/ is dead code: a top-level name that no query,
    facade class or script reaches is a listed test reference, and
    every listed test reference still exists and is still unreached."""
    assert unreached() == set(TEST_REFERENCES)
