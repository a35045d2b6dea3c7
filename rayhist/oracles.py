"""DuckDB oracle SQL for every SQL-expressible query pipeline.

The oracles re-derive the entity histories from the raw ``events``
view with the SAME integer-exact formulas as rayhist.ingest, then
express the temporal semantics with window functions:

- snapshot state at T  = row_number() = 1 ordered by (ts desc, v desc)
  over versions with ts <= T                  (OSHEntities.getByTimestamps)
- modification keep    = match OR lag(match)  (OSHEntities.getModificationTimestamps)
- changeset collapse   = drop row when lead(cs) over kept == cs
- classification       = lag() over collapsed (CellIterator.iterateByContribution)

Column names match the Ray pipelines in rayhist.pipelines exactly —
the driver sorts columns by name before hashing values.
"""

from __future__ import annotations

from .pipelines import (
    CELL_ZOOM,
    CONTRIB_BINS,
    CONTRIB_FROM,
    CONTRIB_TO,
    DAY_US,
    RASTER_ZOOM,
    REGIONS,
    SNAP_DAILY,
    SNAP_WEEKLY,
    T_MID,
)
from .spatial.raster import RASTER_HASH, RASTER_MOD

# shared derivation CTE (mirrors rayhist.ingest derivation, see its docstring)
DERIVE = """
WITH v0 AS (
  SELECT user_id AS osm_id,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS v,
         epoch_us(ts) AS ts_us,
         (event_type <> 'error') AS visible,
         event_type AS etype,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS kk,
         CAST(round(value*100) AS BIGINT) % 37 AS uid
  FROM events
), d AS (
  SELECT *,
         osm_id*1000000 + (v-1)//3 AS cs,
         CASE WHEN visible
              THEN (osm_id*982451653 + ((v+1)//2)*373587883 + kk*15485863) % 3600000000 - 1800000000
              ELSE 0 END AS lon_e7,
         CASE WHEN visible
              THEN (osm_id*472882027 + ((v+1)//2)*198491317 + kk*32452843) % 1800000000 - 900000000
              ELSE 0 END AS lat_e7,
         'etype=' || etype || '|k=' || kk AS tag_sig
  FROM v0
)
"""


# ms-truncated twin of DERIVE: the OSM PBF wire format stores
# timestamps as whole milliseconds (osmformat.proto date_granularity),
# so the .osh.pbf ingest path (sources.osmpbf) sees ts floored to ms.
# The oracle mirrors the truncation EXACTLY — everything else (v
# ordering, cs/uid/coord derivations) is ts-resolution-independent.
DERIVE_MS = DERIVE.replace(
    "epoch_us(ts) AS ts_us", "(epoch_us(ts)//1000)*1000 AS ts_us"
)


def snapshot_count_daily_ms() -> str:
    """snapshot_count_daily over the ms-truncated derivation — the
    oracle for the real-wire-format .osh.pbf ingest query."""
    return snapshot_count_daily().replace(DERIVE, DERIVE_MS, 1)


def _ts_list(values) -> str:
    return "(VALUES " + ", ".join(f"({int(v)})" for v in values) + ") tl(ts_q)"


def _snap_cte(match_expr: str = "visible") -> str:
    """State per (ts_q, osm_id): latest version at-or-before ts_q that
    is visible and matches."""
    return f"""
, snap AS (
  SELECT * FROM (
    SELECT tl.ts_q, d.*,
           row_number() OVER (PARTITION BY tl.ts_q, d.osm_id
                              ORDER BY d.ts_us DESC, d.v DESC) AS rn
    FROM TS_LIST JOIN d ON d.ts_us <= tl.ts_q
  ) WHERE rn = 1 AND ({match_expr})
)
"""


def _contrib_cte(
    match_expr: str = "visible",
    t_from: int = CONTRIB_FROM,
    t_to: int = CONTRIB_TO,
    present_expr: str | None = None,
) -> str:
    """present_expr adds AOI membership on top of the filter match —
    the clipped-empty DELETION semantics (CellIterator.java:625-642):
    kept/collapse phases use m (filter only); classification uses p."""
    p_expr = "m" if present_expr is None else f"(m AND ({present_expr}))"
    return f"""
, m0 AS (
  SELECT *, ({match_expr}) AS m FROM d
), kept AS (
  SELECT * FROM (
    SELECT m0.*, lag(m) OVER (PARTITION BY osm_id ORDER BY v) AS pm FROM m0
  ) WHERE m OR coalesce(pm, false)
), coll AS (
  SELECT * FROM (
    SELECT kept.*, lead(cs) OVER (PARTITION BY osm_id ORDER BY v) AS next_cs FROM kept
  ) WHERE next_cs IS NULL OR next_cs <> cs
), coll2 AS (
  SELECT coll.*, {p_expr} AS p FROM coll
), seq AS (
  SELECT coll2.*,
         coalesce(lag(p) OVER w, false) AS prev_present,
         lag(tag_sig) OVER w AS p_tag,
         lag(lon_e7) OVER w AS p_lon,
         lag(lat_e7) OVER w AS p_lat
  FROM coll2 WINDOW w AS (PARTITION BY osm_id ORDER BY v)
), contrib AS (
  SELECT *,
         (p AND NOT prev_present) AS is_creation,
         (NOT p AND prev_present) AS is_deletion,
         (p AND prev_present AND tag_sig <> p_tag) AS is_tag_change,
         (p AND prev_present AND (lon_e7 <> p_lon OR lat_e7 <> p_lat)) AS is_geom_change
  FROM seq
  WHERE ts_us >= {t_from} AND ts_us < {t_to} AND (p OR prev_present)
)
"""


def snapshot_count_daily(match_expr: str = "visible") -> str:
    cte = _snap_cte(match_expr).replace("TS_LIST", _ts_list(SNAP_DAILY))
    return (
        DERIVE
        + cte
        + f"""
SELECT tl.ts_q, CAST(coalesce(s.cnt, 0) AS BIGINT) AS n_snapshots
FROM {_ts_list(SNAP_DAILY)}
LEFT JOIN (SELECT ts_q, count(*) AS cnt FROM snap GROUP BY ts_q) s USING (ts_q)
ORDER BY tl.ts_q
"""
    )


def snapshot_count_by_s2cell() -> str:
    """Literal SQL mirror of spatial/s2.py layers 1-3 (cube-face
    gnomonic + quadratic ST + floor at level 5). Every float step is a
    single IEEE op (cos/sin via libm, division, sqrt, one multiply per
    step) in BOTH engines; the engine's Hilbert id layer is a bijection
    of (face,i,j), so this check covers it transitively."""
    from .pipelines import S2_LEVEL

    n = 1 << S2_LEVEL
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, sph AS (
  SELECT cos(radians(lat_e7/1e7))*cos(radians(lon_e7/1e7)) AS x,
         cos(radians(lat_e7/1e7))*sin(radians(lon_e7/1e7)) AS y,
         sin(radians(lat_e7/1e7)) AS z
  FROM snap
), fc AS (
  SELECT *, CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z) THEN 0
                 WHEN abs(y) >= abs(z) THEN 1 ELSE 2 END AS axis
  FROM sph
), fc2 AS (
  SELECT *, axis + CASE WHEN (axis = 0 AND x < 0) OR (axis = 1 AND y < 0)
                          OR (axis = 2 AND z < 0) THEN 3 ELSE 0 END AS face
  FROM fc
), uv AS (
  SELECT face,
         CASE face WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                   WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
         CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                   WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
  FROM fc2
), stq AS (
  SELECT face,
         CASE WHEN u >= 0 THEN 0.5*sqrt(1+3*u) ELSE 1-0.5*sqrt(1-3*u) END AS s,
         CASE WHEN v >= 0 THEN 0.5*sqrt(1+3*v) ELSE 1-0.5*sqrt(1-3*v) END AS t
  FROM uv
), ij AS (
  SELECT face,
         least(greatest(CAST(floor(s*{n}) AS BIGINT), 0), {n - 1}) AS i,
         least(greatest(CAST(floor(t*{n}) AS BIGINT), 0), {n - 1}) AS j
  FROM stq
)
SELECT face, i, j, count(*) AS n_snapshots
FROM ij GROUP BY face, i, j ORDER BY face, i, j
"""
    )


def osmpbf_way_version_counts() -> str:
    """Mirror of the ingest way derivation (rayhist/ingest.py way
    docstring) aggregated per (v, visible, k-tag), ms-truncated ts —
    what the .osh.pbf Way wire round-trip must reproduce."""
    return """
WITH m AS (
  SELECT user_id // 5 AS wid, epoch_us(ts) AS us FROM events
), w AS (
  SELECT wid, min(us) AS ts1, max(us) + 1 AS ts2 FROM m GROUP BY wid
), vv AS (
  SELECT 1 AS v, TRUE AS visible, CAST(wid % 7 AS BIGINT) AS kk,
         (ts1 // 1000) * 1000 AS ts
  FROM w
  UNION ALL
  SELECT 2, wid % 3 <> 0,
         CASE WHEN wid % 3 <> 0 THEN wid % 7 + 1 ELSE -1 END,
         (ts2 // 1000) * 1000
  FROM w
)
SELECT v, visible, kk, count(*) AS n_ways, min(ts) AS min_ts, max(ts) AS max_ts
FROM vv GROUP BY v, visible, kk ORDER BY v, visible, kk
"""


def osmpbf_relation_member_sums() -> str:
    """Mirror of the ingest relation derivation (_pack_rel_bucket:
    relation r = observed member ways {2r, 2r+1}, one v=1 at min
    member-way ts1, tag k = r%7, way members w/ empty roles) — what
    the .osh.pbf Relation wire round-trip must reproduce. Member count
    and member-id SUM value-check the delta-coded memids."""
    return """
WITH m AS (
  SELECT user_id // 5 AS wid, epoch_us(ts) AS us FROM events
), w AS (
  SELECT wid, min(us) AS ts1 FROM m GROUP BY wid
), r AS (
  SELECT wid // 2 AS rid, min(ts1) AS rts,
         sum(wid) AS smid, count(*) AS nm
  FROM w GROUP BY 1
)
SELECT CAST(rid % 7 AS BIGINT) AS kk,
       count(*) AS n_rels,
       min((rts // 1000) * 1000) AS min_ts,
       max((rts // 1000) * 1000) AS max_ts,
       sum(nm) AS n_members,
       sum(smid) AS sum_member_ids,
       sum(nm) AS n_way_members,
       sum(nm) AS n_empty_roles
FROM r GROUP BY kk ORDER BY kk
"""


def snapshot_cells() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list(SNAP_WEEKLY))
    nx = 1 << CELL_ZOOM
    ny = 1 << (CELL_ZOOM - 1)
    return (
        DERIVE
        + cte
        + f"""
SELECT ts_q,
       least((lat_e7 + 900000000) * {ny} // 1800000000, {ny - 1}) * {nx}
         + ((lon_e7 + 1800000000) % 3600000000) * {nx} // 3600000000 AS cell,
       count(*) AS n
FROM snap GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def snapshot_latest_state() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
SELECT 'node/' || osm_id AS doc_id, osm_id, v, lon_e7, lat_e7, etype, uid
FROM snap ORDER BY osm_id
"""
    )


def contrib_type_counts(match_expr: str = "visible") -> str:
    return (
        DERIVE
        + _contrib_cte(match_expr)
        + """
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change
FROM contrib
"""
    )


def contrib_daily() -> str:
    return (
        DERIVE
        + _contrib_cte()
        + f"""
SELECT tl.ts_q,
       CAST(coalesce(s.n_contribs, 0) AS BIGINT) AS n_contribs,
       CAST(coalesce(s.n_creations, 0) AS BIGINT) AS n_creations
FROM {_ts_list(CONTRIB_BINS)}
LEFT JOIN (
  SELECT {CONTRIB_FROM} + ((ts_us - {CONTRIB_FROM}) // {DAY_US}) * {DAY_US} AS ts_q,
         count(*) AS n_contribs,
         sum(CAST(is_creation AS BIGINT)) AS n_creations
  FROM contrib GROUP BY 1
) s USING (ts_q)
ORDER BY tl.ts_q
"""
    )


def contrib_uniq_uids_daily() -> str:
    return (
        DERIVE
        + _contrib_cte()
        + f"""
SELECT tl.ts_q, CAST(coalesce(s.n_uids, 0) AS BIGINT) AS n_uids
FROM {_ts_list(CONTRIB_BINS)}
LEFT JOIN (
  SELECT {CONTRIB_FROM} + ((ts_us - {CONTRIB_FROM}) // {DAY_US}) * {DAY_US} AS ts_q,
         count(DISTINCT uid) AS n_uids
  FROM contrib GROUP BY 1
) s USING (ts_q)
ORDER BY tl.ts_q
"""
    )


def _convex_condition(ring) -> str:
    """AND of float64 cross-product sign tests — byte-identical to
    rayhist.spatial.fip.contains_convex."""
    conds = []
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        conds.append(
            f"(({x2!r} - {x1!r}) * (CAST(lat_e7 AS DOUBLE) - {y1!r})"
            f" - ({y2!r} - {y1!r}) * (CAST(lon_e7 AS DOUBLE) - {x1!r}) >= 0.0)"
        )
    return " AND ".join(conds)


def snapshot_pip_regions() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    parts = [
        f"SELECT '{rid}' AS region_id, CAST(count(*) FILTER ({_convex_condition(ring)}) AS BIGINT) AS n FROM snap"
        for rid, ring in sorted(REGIONS.items())
    ]
    return DERIVE + cte + "\nSELECT * FROM (" + " UNION ALL ".join(parts) + ") ORDER BY region_id"


def raster_join() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    nx = 1 << RASTER_ZOOM
    ny = 1 << (RASTER_ZOOM - 1)
    return (
        DERIVE
        + cte
        + f"""
, cells AS (
  SELECT least((lat_e7 + 900000000) * {ny} // 1800000000, {ny - 1}) * {nx}
           + ((lon_e7 + 1800000000) % 3600000000) * {nx} // 3600000000 AS cell
  FROM snap
)
SELECT (CAST(cell AS BIGINT) * {RASTER_HASH}) % {RASTER_MOD} AS raster_value,
       count(*) AS n_points
FROM cells GROUP BY 1 ORDER BY 1
"""
    )


def knn(query_filter: str = "osm_id % 17 = 0") -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, pts AS (SELECT osm_id, lon_e7, lat_e7 FROM snap),
q AS (SELECT * FROM pts WHERE {query_filter}),
cand AS (
  SELECT q.osm_id AS query_id, p.osm_id AS neighbor_id,
         (CAST(p.lon_e7 AS DOUBLE) - CAST(q.lon_e7 AS DOUBLE)) AS dx,
         (CAST(p.lat_e7 AS DOUBLE) - CAST(q.lat_e7 AS DOUBLE)) AS dy
  FROM q JOIN pts p ON p.osm_id <> q.osm_id
)
SELECT query_id, neighbor_id,
       CAST(row_number() OVER w AS BIGINT) AS rank,
       dx*dx + dy*dy AS dist2
FROM cand
WINDOW w AS (PARTITION BY query_id ORDER BY dx*dx + dy*dy, neighbor_id)
QUALIFY row_number() OVER w <= 3
ORDER BY query_id, rank
"""
    )


def knn_majority_label(query_filter: str = "osm_id % 17 = 0") -> str:
    """kNN-vote mirror: the knn top-3 CTE joined back to the snapshot
    labels, majority with the (count DESC, etype) tie order."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, pts AS (SELECT osm_id, lon_e7, lat_e7, etype FROM snap),
q AS (SELECT * FROM pts WHERE {query_filter}),
cand AS (
  SELECT q.osm_id AS query_id, p.osm_id AS neighbor_id,
         (CAST(p.lon_e7 AS DOUBLE) - CAST(q.lon_e7 AS DOUBLE)) AS dx,
         (CAST(p.lat_e7 AS DOUBLE) - CAST(q.lat_e7 AS DOUBLE)) AS dy
  FROM q JOIN pts p ON p.osm_id <> q.osm_id
), top AS (
  SELECT query_id, neighbor_id
  FROM cand
  WINDOW w AS (PARTITION BY query_id ORDER BY dx*dx + dy*dy, neighbor_id)
  QUALIFY row_number() OVER w <= 3
), v AS (
  SELECT t.query_id, p.etype, count(*) AS c
  FROM top t JOIN pts p ON p.osm_id = t.neighbor_id
  GROUP BY 1, 2
), r AS (
  SELECT query_id, etype, c,
         row_number() OVER (PARTITION BY query_id ORDER BY c DESC, etype) AS rn
  FROM v
)
SELECT query_id, etype AS pred_etype, CAST(c AS BIGINT) AS n_votes
FROM r WHERE rn = 1 ORDER BY query_id
"""
    )


# ------------------------------------------------------------- relational
def lineitem_agg() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       count(*) AS n,
       CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
       CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       CAST(sum(CAST(round(l_discount*100) AS BIGINT)) AS BIGINT) AS sum_disc_cents
FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
"""


def orders_by_nation() -> str:
    return """
SELECT n.n_name,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) AS sum_price_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1 ORDER BY 1
"""


def topk_orders() -> str:
    return """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 20
"""


def events_by_type() -> str:
    return """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_value_cents,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1 ORDER BY 1
"""


def price_quantiles() -> str:
    return """
WITH s AS (SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS c FROM lineitem),
o AS (SELECT c, row_number() OVER (ORDER BY c) AS rn, count(*) OVER () AS n FROM s)
SELECT CAST(max(CASE WHEN rn = (n-1)//4 + 1 THEN c END) AS BIGINT) AS p25,
       CAST(max(CASE WHEN rn = (n-1)//2 + 1 THEN c END) AS BIGINT) AS p50,
       CAST(max(CASE WHEN rn = (3*(n-1))//4 + 1 THEN c END) AS BIGINT) AS p75
FROM o
"""


# ------------------------------------------------------- documents corpus
def doc_stats() -> str:
    return """
SELECT source,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(sum(CASE WHEN text = '' THEN 0
                ELSE length(text) - length(replace(text, ' ', '')) + 1 END) AS BIGINT) AS sum_tokens
FROM documents GROUP BY 1 ORDER BY 1
"""


def doc_tokens() -> str:
    """Mirror of ops.text.BPE_PRETOKEN_RE — DuckDB and Arrow both run
    RE2 with leftmost-first alternation, so the non-overlapping match
    counts are identical engine-for-engine."""
    pat = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+".replace("'", "''")
    return f"""
SELECT source,
       count(*) AS n_docs,
       CAST(sum(CASE WHEN text = '' THEN 0
                ELSE length(text) - length(replace(text, ' ', '')) + 1 END) AS BIGINT) AS sum_ws_tokens,
       CAST(sum(len(regexp_extract_all(text, '{pat}'))) AS BIGINT) AS sum_bpe_tokens
FROM documents GROUP BY 1 ORDER BY 1
"""


def doc_repetition() -> str:
    """Within-doc repetition mirror: tokens via the same RE2 split as
    q_top_words; lockstep unnest(l)/unnest(range(...)) keeps each
    token's within-doc position so the bigram self-join on i+1 is
    exact; docs with zero tokens drop, docs with one keep bigram 0."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH d0 AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '{WORD_SPLIT_RE}'),
                     x -> x <> '') AS l
  FROM documents
), t AS (
  SELECT doc_id, unnest(l) AS tok, unnest(range(1, len(l) + 1)) AS i FROM d0
), c AS (
  SELECT doc_id, tok, count(*) AS c FROM t GROUP BY 1, 2
), per AS (
  SELECT doc_id, sum(c) AS n_tokens, count(*) AS n_distinct,
         max(c) AS top_tok_n
  FROM c GROUP BY 1
), bg AS (
  SELECT a.doc_id, a.tok AS t1, b.tok AS t2, count(*) AS c
  FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  GROUP BY 1, 2, 3
), bper AS (
  SELECT doc_id, max(c) AS top_bigram_n FROM bg GROUP BY 1
)
SELECT p.doc_id,
       CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       CAST(top_tok_n AS BIGINT) AS top_tok_n,
       CAST(coalesce(top_bigram_n, 0) AS BIGINT) AS top_bigram_n
FROM per p LEFT JOIN bper USING (doc_id) ORDER BY p.doc_id
"""


def label_centroid_cosine(quant: int) -> str:
    """Centroid-cosine mirror: per-component half-away quantization to
    BIGINT before any sum; sqrt-then-multiply-then-divide in the same
    op order as the engine."""
    return f"""
WITH q AS (
  SELECT label, i,
         sum(CAST(round(CAST(embedding[i] AS DOUBLE) * {int(quant)}) AS BIGINT)) AS s
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
  GROUP BY 1, 2
), n2 AS (
  SELECT label, sum(s*s) AS nn FROM q GROUP BY 1
), dots AS (
  SELECT a.label AS label_lo, b.label AS label_hi, sum(a.s * b.s) AS dot
  FROM q a JOIN q b ON a.i = b.i AND a.label < b.label
  GROUP BY 1, 2
)
SELECT CAST(label_lo AS BIGINT) AS label_lo,
       CAST(label_hi AS BIGINT) AS label_hi,
       CAST(dot AS BIGINT) AS dot,
       CAST(dot AS DOUBLE)
         / (sqrt(CAST(na.nn AS DOUBLE)) * sqrt(CAST(nb.nn AS DOUBLE))) AS cosine
FROM dots
JOIN n2 na ON na.label = label_lo
JOIN n2 nb ON nb.label = label_hi
ORDER BY 1, 2
"""


def doc_lm_surprisal() -> str:
    """Bigram-LM surprisal mirror: per-bigram milli-nats quantized to
    BIGINT before any sum (round half-away = engine's round_half_away;
    ln = the same libm), so the per-doc totals are order-free integer
    sums on both engines."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH d0 AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '{WORD_SPLIT_RE}'),
                     x -> x <> '') AS l
  FROM documents
), t AS (
  SELECT doc_id, unnest(l) AS tok, unnest(range(1, len(l) + 1)) AS i FROM d0
), bgr AS (
  SELECT a.doc_id, a.tok AS w1, b.tok AS w2
  FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1
), c2 AS (
  SELECT w1, w2, count(*) AS c2 FROM bgr GROUP BY 1, 2
), c1 AS (
  SELECT w1, sum(c2) AS c1 FROM c2 GROUP BY 1
), vv AS (SELECT count(DISTINCT tok) AS v FROM t),
s AS (
  SELECT w1, w2,
         CAST(round(1000 * (ln(c1 + v) - ln(c2 + 1))) AS BIGINT) AS sm
  FROM c2 JOIN c1 USING (w1), vv
), doc AS (
  SELECT doc_id, w1, w2, count(*) AS n FROM bgr GROUP BY 1, 2, 3
)
SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_bigrams,
       CAST(sum(n * sm) AS BIGINT) AS surprisal_milli,
       CAST(sum(n * sm) AS DOUBLE) / sum(n) AS avg_surprisal_milli
FROM doc JOIN s USING (w1, w2)
GROUP BY 1 ORDER BY 1
"""


def inverted_index(k: int) -> str:
    """Posting-list mirror: df/tf per token plus the first-k ordered
    doc ids via a rank-filtered string_agg (CASE nulls are skipped)."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH t AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(text), '{WORD_SPLIT_RE}'),
                            x -> x <> '')) AS word
  FROM documents
), c AS (
  SELECT word, doc_id, count(*) AS c FROM t GROUP BY 1, 2
), r AS (
  SELECT word, doc_id, c,
         row_number() OVER (PARTITION BY word ORDER BY doc_id) AS rn
  FROM c
)
SELECT word, CAST(count(*) AS BIGINT) AS df, CAST(sum(c) AS BIGINT) AS tf,
       string_agg(CASE WHEN rn <= {int(k)} THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS postings
FROM r GROUP BY word ORDER BY word
"""


def events_dow_hour() -> str:
    """SQL date-part mirror: DuckDB's dayofweek (Sunday=0) and hour
    equal the integer epoch arithmetic on the Ray side."""
    return """
SELECT CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


def doc_normalized_stats(strip_re: str, token_re: str) -> str:
    """SQL string-function mirror — lower / regexp_replace global /
    length / regexp_extract_all count, all RE2 like Arrow's kernels."""
    return f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(length(regexp_replace(lower(text), '{strip_re}', '', 'g'))) AS BIGINT)
         AS sum_norm_chars,
       CAST(sum(len(regexp_extract_all(
             regexp_replace(lower(text), '{strip_re}', '', 'g'), '{token_re}')))
            AS BIGINT) AS sum_norm_tokens
FROM documents GROUP BY 1 ORDER BY 1
"""


def doc_token_packing(budget: int) -> str:
    """SQL window-cumsum mirror of the distributed prefix-sum packing:
    the exclusive running BPE-token total in doc_id order assigns each
    document its pack; DuckDB and Arrow both run RE2, so the token
    counts are identical engine-for-engine."""
    pat = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+".replace("'", "''")
    return f"""
WITH v AS (
  SELECT doc_id, len(regexp_extract_all(text, '{pat}')) AS n_tok
  FROM documents
), w AS (
  SELECT doc_id, n_tok,
         coalesce(sum(n_tok) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cumb
  FROM v
)
SELECT CAST(cumb // {budget} AS BIGINT) AS pack_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS sum_tokens,
       CAST(sum(CASE WHEN n_tok > 0
                      AND (cumb + n_tok - 1) // {budget} > cumb // {budget}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_straddlers
FROM w GROUP BY 1 ORDER BY 1
"""


def sample_docs() -> str:
    """Mirror of ops.relational.deterministic_sample at rate 1/4:
    same md5-prefix integer threshold, bit-exact in both engines."""
    thresh = (1 << 32) // 4
    return f"""
SELECT doc_id, n_chars FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) < {thresh}
ORDER BY doc_id
"""


def media_meta_exact() -> str:
    """Mirror of ops.multimodal.synth_media_table's metadata layer:
    width = 16 + md5_byte0 % 64, height = 16 + md5_byte1 % 64,
    payload = 16-byte digest x 8 = 128 bytes per media row."""
    return """
WITH m AS (
  SELECT md5('media://' || CAST(doc_id AS VARCHAR)) AS h FROM documents
)
SELECT 'image' AS kind,
       count(*) AS n_media,
       CAST(sum(16 + CAST(('0x' || substr(h, 1, 2)) AS INT) % 64) AS BIGINT) AS sum_width,
       CAST(sum(16 + CAST(('0x' || substr(h, 3, 2)) AS INT) % 64) AS BIGINT) AS sum_height,
       count(*) * 128 AS sum_payload_bytes
FROM m GROUP BY 1 ORDER BY 1
"""


def langid_exact() -> str:
    """Mirror of pipelines.q_langid_exact: marker-word voting with
    lexicographically-largest tie-break, zero votes -> en, CJK
    override 5*cjk > chars; integer word/stopword counts; quality via
    cross-multiplication. Every column integer/string — hash-exact."""
    marks = {
        "de": ["und", "der", "die", "das", "mit"],
        "en": ["the", "and", "with", "fast", "slow"],
        "es": ["el", "la", "y", "los", "de"],
        "fr": ["le", "la", "et", "les", "des"],
    }

    def score(lang):
        return " + ".join(
            f"CASE WHEN list_contains(lw, '{m}') THEN 1 ELSE 0 END"
            for m in sorted(marks[lang])
        )

    stopset = "'the','and','of','a','to','in','is','it'"
    return f"""
WITH base AS (
  SELECT doc_id, text,
         string_split(text, ' ') AS ws,
         string_split(lower(text), ' ') AS lw,
         length(text) AS nchars
  FROM documents
), scored AS (
  SELECT doc_id, ws, nchars,
         len(regexp_extract_all(text, '[一-鿿]')) AS cjk,
         ({score("de")}) AS s_de,
         ({score("en")}) AS s_en,
         ({score("es")}) AS s_es,
         ({score("fr")}) AS s_fr
  FROM base
)
SELECT doc_id,
       CASE WHEN 5 * cjk > nchars THEN 'zh'
            WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'en'
            WHEN s_fr >= s_es AND s_fr >= s_en AND s_fr >= s_de THEN 'fr'
            WHEN s_es >= s_en AND s_es >= s_de THEN 'es'
            WHEN s_en >= s_de THEN 'en'
            ELSE 'de' END AS lang_pred,
       CAST(len(ws) AS BIGINT) AS n_words,
       CAST(len(list_filter(ws, x -> x IN ({stopset}))) AS BIGINT) AS stop_hits,
       CAST(CASE WHEN len(ws) >= 5
                  AND nchars - (len(ws) - 1) >= 2 * greatest(len(ws), 1)
                  AND nchars - (len(ws) - 1) <= 12 * greatest(len(ws), 1)
            THEN 1 ELSE 0 END AS BIGINT) AS quality_ok
FROM scored ORDER BY doc_id
"""


def corpus_curation(min_tokens: int) -> str:
    """Mirror of pipelines.q_corpus_curation: md5 keep-first dedup ->
    whitespace-token quality floor -> md5-prefix 1/2 threshold sample
    -> per-source doc + token sums. Stage-for-stage the same integer
    predicates the engine evaluates."""
    thresh = (1 << 32) // 2
    return f"""
WITH dedup AS (
  SELECT doc_id, source, text FROM (
    SELECT doc_id, source, text,
           row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
    FROM documents
  ) WHERE rn = 1
), gated AS (
  SELECT doc_id, source,
         CASE WHEN text = '' THEN 0
              ELSE length(text) - length(replace(text, ' ', '')) + 1 END AS toks
  FROM dedup
  WHERE (CASE WHEN text = '' THEN 0
         ELSE length(text) - length(replace(text, ' ', '')) + 1 END) >= {min_tokens}
), sampled AS (
  SELECT * FROM gated
  WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) < {thresh}
)
SELECT source, count(*) AS n_docs, CAST(sum(toks) AS BIGINT) AS sum_tokens
FROM sampled GROUP BY source ORDER BY source
"""


def doc_fingerprints() -> str:
    return "SELECT doc_id, md5(text) AS fp FROM documents ORDER BY doc_id"


def near_dup_pairs() -> str:
    """Exact 3-shingle Jaccard >= 1/2 pairs — same shingle definition
    as rayhist.ops.dedup (consecutive word triples over a single-space
    split), integer threshold test."""
    return """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws)-2)) AS i FROM toks
), sh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle FROM idx
), sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS common
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b, CAST(common AS BIGINT) AS common,
       CAST(sa.n + sb.n - common AS BIGINT) AS un
FROM pairs
JOIN sizes sa ON sa.doc_id = doc_a
JOIN sizes sb ON sb.doc_id = doc_b
WHERE common * 2 >= (sa.n + sb.n - common) * 1
ORDER BY doc_a, doc_b
"""


def near_dup_source_matrix() -> str:
    """Contamination-matrix mirror: the near-dup pair CTE joined to
    both docs' sources, canonicalized with least/greatest."""
    return """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws)-2)) AS i FROM toks
), sh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle FROM idx
), sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS common
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), kept AS (
  SELECT doc_a, doc_b FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE common * 2 >= (sa.n + sb.n - common) * 1
)
SELECT least(da.source, db.source) AS src_lo,
       greatest(da.source, db.source) AS src_hi,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM kept
JOIN documents da ON da.doc_id = doc_a
JOIN documents db ON db.doc_id = doc_b
GROUP BY 1, 2 ORDER BY 1, 2
"""


def dup_clusters() -> str:
    """Connected components of the near-dup pair graph as a
    recursive-CTE reachable-min fixpoint: a node's component is the
    minimum doc_id reachable through threshold-passing pairs — the
    same fixpoint rayhist.ops.cc's min-label propagation converges to.
    The pair set (toks..hits) is textually the near_dup_pairs oracle."""
    return """
WITH RECURSIVE toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws)-2)) AS i FROM toks
), sh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle FROM idx
), sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS common
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), hits AS (
  SELECT doc_a, doc_b FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE common * 2 >= (sa.n + sb.n - common) * 1
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM hits
  UNION ALL
  SELECT doc_b AS u, doc_a AS v FROM hits
), reach AS (
  SELECT u AS node, u AS lab FROM edges
  UNION
  SELECT e.u AS node, r.lab FROM edges e JOIN reach r ON r.node = e.v
)
SELECT CAST(node AS BIGINT) AS doc_id, CAST(min(lab) AS BIGINT) AS component
FROM reach GROUP BY node ORDER BY doc_id
"""


def cluster_dedup_summary() -> str:
    """Keep-one-per-cluster dedup summary: drop every node of the
    near-dup component fixpoint whose reachable-min is a different
    doc_id, then exact per-source counts over the kept corpus. The
    component CTE is textually dup_clusters()."""
    return """
WITH RECURSIVE toks AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws)-2)) AS i FROM toks
), sh AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS shingle FROM idx
), sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS common
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), hits AS (
  SELECT doc_a, doc_b FROM pairs
  JOIN sizes sa ON sa.doc_id = doc_a
  JOIN sizes sb ON sb.doc_id = doc_b
  WHERE common * 2 >= (sa.n + sb.n - common) * 1
), edges AS (
  SELECT doc_a AS u, doc_b AS v FROM hits
  UNION ALL
  SELECT doc_b AS u, doc_a AS v FROM hits
), reach AS (
  SELECT u AS node, u AS lab FROM edges
  UNION
  SELECT e.u AS node, r.lab FROM edges e JOIN reach r ON r.node = e.v
), drops AS (
  SELECT node FROM reach GROUP BY node HAVING min(lab) <> node
)
SELECT source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
WHERE doc_id NOT IN (SELECT node FROM drops)
GROUP BY source ORDER BY source
"""


def value_moments_by_type() -> str:
    """Exact second-moment numerators per event type. DuckDB's
    sum(BIGINT) is HUGEINT, so n*sx2 - sx*sx is exact 128-bit before
    the (guarded, in-range) BIGINT cast; the engine's Python-int final
    combine computes the identical exact values. mean_cents is the one
    sanctioned float: a single IEEE division of two exactly-
    representable ints."""
    return """
WITH v AS (
  SELECT event_type,
         CAST(round(value * 100) AS BIGINT) AS x,
         CAST(extract(hour FROM ts) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT event_type, count(*) AS n, sum(x) AS sx, sum(x*x) AS sx2,
         sum(y) AS sy, sum(x*y) AS sxy
  FROM v GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n, CAST(sx AS BIGINT) AS sum_vc,
       CAST(sx AS DOUBLE) / n AS mean_cents,
       CAST(n*sx2 - sx*sx AS BIGINT) AS var_num,
       CAST(n*sxy - sx*sy AS BIGINT) AS covh_num
FROM s ORDER BY event_type
"""


def etype_dwell_time(t0: int, t_end: int) -> str:
    """Time-integrated visible state per etype: half-open validity
    interval per version via lead() over the DERIVE rows (partition
    osm_id, order ts_us then v — the same realignment order the
    engine's _sorted_versions applies), last version clipped at the
    window close. Exact BIGINT microseconds."""
    return (
        DERIVE
        + f"""
, iv AS (
  SELECT etype, visible, ts_us,
         lead(ts_us, 1, {int(t_end)}) OVER (
           PARTITION BY osm_id ORDER BY ts_us, v) AS ts_next
  FROM d
)
SELECT etype,
       CAST(sum(greatest(0, least(ts_next, {int(t_end)})
                            - greatest(ts_us, {int(t0)}))) AS BIGINT) AS dwell_us
FROM iv WHERE visible GROUP BY etype ORDER BY etype
"""
    )


def user_streaks(t0: int, day_us: int) -> str:
    """Gaps-and-islands via the day - row_number() constant-group
    trick over distinct active days."""
    return f"""
WITH days AS (
  SELECT DISTINCT user_id, (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day
  FROM events
), s AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS grp
  FROM days
), runs AS (
  SELECT user_id, grp, count(*) AS len FROM s GROUP BY 1, 2
)
SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days,
       CAST(count(*) AS BIGINT) AS n_streaks,
       CAST(max(len) AS BIGINT) AS longest_streak
FROM runs GROUP BY user_id ORDER BY user_id
"""


def user_distinct_etypes() -> str:
    """Distinct-ordered-collect mirror."""
    return """
SELECT user_id,
       string_agg(DISTINCT event_type, ',' ORDER BY event_type) AS etypes,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_etypes
FROM events GROUP BY 1 ORDER BY 1
"""


def rolling_active_users(t0: int, day_us: int, win: int, grid_n: int) -> str:
    """Rolling distinct-actives mirror: BETWEEN join of the day grid
    to distinct (user, day) pairs."""
    return f"""
WITH days AS (
  SELECT DISTINCT user_id, (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day
  FROM events
), w AS (SELECT unnest(range(0, {int(grid_n)})) AS wday)
SELECT CAST(wday AS BIGINT) AS wday,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_active
FROM w JOIN days d ON d.day BETWEEN wday - {int(win) - 1} AND wday
GROUP BY 1 ORDER BY 1
"""


def cohort_retention(t0: int, day_us: int) -> str:
    """First-active-day cohorts x day offsets, distinct active users
    per cell; (user, day) rows are distinct so count(*) is the
    distinct-user count."""
    return f"""
WITH days AS (
  SELECT DISTINCT user_id, (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day
  FROM events
), f AS (
  SELECT user_id, min(day) AS cohort_day FROM days GROUP BY 1
)
SELECT CAST(f.cohort_day AS BIGINT) AS cohort_day,
       CAST(d.day - f.cohort_day AS BIGINT) AS day_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM days d JOIN f USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


def etype_transitions() -> str:
    """Per-user ordered bigram transition counts via lag()."""
    return """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev_etype
  FROM events
)
SELECT prev_etype, event_type AS etype, CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev_etype IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


def tag_reverts(t0: int, day_us: int) -> str:
    """Edit-war mirror: a version reverts when its tag signature
    equals lag-2's while differing from lag-1's, over the SAME
    (osm_id, ts_us, v) version order the engine's _sorted_versions
    realign produces."""
    return (
        DERIVE
        + f"""
, s AS (
  SELECT osm_id, ts_us, tag_sig,
         lag(tag_sig)    OVER w AS sig1,
         lag(tag_sig, 2) OVER w AS sig2
  FROM d WINDOW w AS (PARTITION BY osm_id ORDER BY ts_us, v)
), r AS (
  SELECT osm_id, (ts_us - {int(t0)}) // {int(day_us)} AS day
  FROM s WHERE sig2 IS NOT NULL AND tag_sig = sig2 AND tag_sig <> sig1
)
SELECT CAST(day AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n_reverts,
       CAST(count(DISTINCT osm_id) AS BIGINT) AS n_entities
FROM r GROUP BY 1 ORDER BY 1
"""
    )


def entity_lifespans(dwell_end: int, day_us: int) -> str:
    """Entity-age mirror: creation = first version ts; the entity is
    deleted iff its LAST version (by ts, v) is invisible, ending the
    lifespan there, else it runs to the window close."""
    return (
        DERIVE
        + f"""
, r AS (
  SELECT osm_id, ts_us, visible,
         row_number() OVER (PARTITION BY osm_id
                            ORDER BY ts_us DESC, v DESC) AS rn,
         min(ts_us) OVER (PARTITION BY osm_id) AS t_first
  FROM d
), e AS (
  SELECT osm_id, t_first,
         CASE WHEN visible THEN 0 ELSE 1 END AS deleted,
         CASE WHEN visible THEN {int(dwell_end)} ELSE ts_us END AS t_end
  FROM r WHERE rn = 1
)
SELECT CAST((t_end - t_first) // {int(day_us)} AS BIGINT) AS lifespan_days,
       CAST(deleted AS BIGINT) AS deleted,
       CAST(count(*) AS BIGINT) AS n_entities
FROM e GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def modal_value_by_type() -> str:
    """Grouped MODE with the deterministic min-value tie-break the
    engine implements (DuckDB's mode() leaves ties unspecified, so the
    oracle spells the qualify-then-min rule out)."""
    return """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS vc, count(*) AS cnt
  FROM events GROUP BY 1, 2
), r AS (
  SELECT event_type, vc, cnt,
         row_number() OVER (PARTITION BY event_type ORDER BY cnt DESC, vc) AS rn
  FROM c
)
SELECT event_type, CAST(vc AS BIGINT) AS modal_vc, CAST(cnt AS BIGINT) AS n_modal
FROM r WHERE rn = 1 ORDER BY event_type
"""


def ann_cosine() -> str:
    """Brute-force cosine top-5; DuckDB list_cosine_similarity vs the
    engine's numpy matmul — ranking must agree (asserted empirically;
    random 64-dim embeddings have no near-ties)."""
    return """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id % 50 = 0),
cand AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q JOIN embeddings e ON e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, CAST(row_number() OVER w AS BIGINT) AS rank
FROM cand
WINDOW w AS (PARTITION BY query_id ORDER BY sim DESC, neighbor_id)
QUALIFY row_number() OVER w <= 5
ORDER BY query_id, rank
"""


def contrib_per_entity() -> str:
    return (
        DERIVE
        + _contrib_cte()
        + """
SELECT 'node/' || osm_id AS doc_id,
       count(*) AS n_contribs,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creations
FROM contrib GROUP BY osm_id ORDER BY doc_id
"""
    )


def keytable_freqs() -> str:
    """Tag spans = per version: 'etype=..' and 'k=..' (rayhist.ingest
    span layout); frequency-ranked dictionary, ties broken by tag."""
    return (
        DERIVE
        + """
, tags AS (
  SELECT 'etype=' || etype AS tag FROM d
  UNION ALL
  SELECT 'k=' || kk AS tag FROM d
), freq AS (
  SELECT tag, count(*) AS n FROM tags GROUP BY 1
)
SELECT CAST(row_number() OVER (ORDER BY n DESC, tag) - 1 AS BIGINT) AS tag_id, tag, n
FROM freq ORDER BY tag_id
"""
    )


def contrib_daily_by_etype() -> str:
    etypes = ["click", "error", "purchase", "signup", "view"]
    ets = ", ".join(f"('{e}')" for e in etypes)
    return (
        DERIVE
        + _contrib_cte()
        + f"""
SELECT tl.ts_q, el.etype, CAST(coalesce(s.n, 0) AS BIGINT) AS n
FROM {_ts_list(CONTRIB_BINS)}
CROSS JOIN (VALUES {ets}) el(etype)
LEFT JOIN (
  SELECT {CONTRIB_FROM} + ((ts_us - {CONTRIB_FROM}) // {DAY_US}) * {DAY_US} AS ts_q,
         etype, count(*) AS n
  FROM contrib GROUP BY 1, 2
) s USING (ts_q, etype)
ORDER BY tl.ts_q, el.etype
"""
    )


def way_lengths() -> str:
    """Equirectangular length (Geo.java:37-45 formula, same op order)
    of synthetic ways node/u -> node/(u+1), floor micrometers."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
SELECT a.osm_id AS way_id,
       CAST(floor(6371000.0 * sqrt(
         (radians(b.lon_e7/10000000.0 - a.lon_e7/10000000.0)
            * cos(radians((b.lat_e7/10000000.0 + a.lat_e7/10000000.0) / 2)))
         * (radians(b.lon_e7/10000000.0 - a.lon_e7/10000000.0)
            * cos(radians((b.lat_e7/10000000.0 + a.lat_e7/10000000.0) / 2)))
         + radians(b.lat_e7/10000000.0 - a.lat_e7/10000000.0)
         * radians(b.lat_e7/10000000.0 - a.lat_e7/10000000.0)
       ) * 1000000.0) AS BIGINT) AS length_um
FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1
ORDER BY way_id
"""
    )


def way_areas() -> str:
    """Spherical-excess triangle area (Geo.areaOf / Geo.ringArea,
    Geo.java:95-101,147-180): same term order ((t0+t1)+t2) and scale
    order ((s*R)*R)/2 as functions.geo.ring_area, floor m^2."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
SELECT a.osm_id AS way_id,
       CAST(floor(abs((
           (radians(c.lon_e7/10000000.0) - radians(a.lon_e7/10000000.0))
             * sin(radians(b.lat_e7/10000000.0))
         + (radians(a.lon_e7/10000000.0) - radians(b.lon_e7/10000000.0))
             * sin(radians(c.lat_e7/10000000.0))
         + (radians(b.lon_e7/10000000.0) - radians(c.lon_e7/10000000.0))
             * sin(radians(a.lat_e7/10000000.0))
       ) * 6371000.0 * 6371000.0 / 2)) AS BIGINT) AS area_m2
FROM pos a
JOIN pos b ON b.osm_id = a.osm_id + 1
JOIN pos c ON c.osm_id = a.osm_id + 2
ORDER BY way_id
"""
    )


def lineitem_means() -> str:
    return """
WITH s AS (
  SELECT l_returnflag,
         CAST(round(l_quantity*100) AS BIGINT) AS qty_c,
         CAST(round(l_extendedprice*100) AS BIGINT) AS price_c,
         CAST(round(l_discount*100) AS BIGINT) AS disc_c
  FROM lineitem
)
SELECT l_returnflag,
       count(*) AS n,
       CAST(sum(price_c) AS BIGINT) AS sum_price_cents,
       CAST(sum(qty_c) AS BIGINT) AS sum_qty_cents,
       CAST(sum(price_c) AS DOUBLE) / count(*) AS avg_price_cents,
       CAST(sum(disc_c * qty_c) AS DOUBLE) / CAST(sum(qty_c) AS DOUBLE) AS wavg_disc_cents
FROM s GROUP BY 1 ORDER BY 1
"""


def sessions() -> str:
    gap = 30 * 60 * 1_000_000
    return f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts) >= {gap}
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id, t,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY t
                          ROWS UNBOUNDED PRECEDING) - 1 AS session_id
  FROM e
), agg AS (
  SELECT user_id, session_id, count(*) AS n, max(t) - min(t) AS dur
  FROM s GROUP BY 1, 2
)
SELECT user_id, count(*) AS n_sessions,
       CAST(sum(n) AS BIGINT) AS n_events,
       CAST(sum(dur) AS BIGINT) AS total_session_us
FROM agg GROUP BY 1 ORDER BY 1
"""


def snapshot_count_bbox() -> str:
    from .pipelines import AOI_BBOX

    x0, y0, x1, y1 = (int(v) for v in AOI_BBOX)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
SELECT CAST(count(*) AS BIGINT) AS n_snapshots
FROM snap
WHERE lon_e7 >= {x0} AND lon_e7 <= {x1} AND lat_e7 >= {y0} AND lat_e7 <= {y1}
"""
    )


def snapshot_count_bbox_multizoom() -> str:
    # the multi-zoom cell enumeration is a sound prefilter, so the
    # oracle is plain exact bbox counting — any pruning bug shows up
    # as a count mismatch
    from .pipelines import MZ_BBOX

    x0, y0, x1, y1 = (int(v) for v in MZ_BBOX)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
SELECT CAST(count(*) AS BIGINT) AS n_snapshots
FROM snap
WHERE lon_e7 >= {x0} AND lon_e7 <= {x1} AND lat_e7 >= {y0} AND lat_e7 <= {y1}
"""
    )


def contrib_type_counts_bbox() -> str:
    from .pipelines import AOI_BBOX

    x0, y0, x1, y1 = (int(v) for v in AOI_BBOX)
    aoi = f"lon_e7 >= {x0} AND lon_e7 <= {x1} AND lat_e7 >= {y0} AND lat_e7 <= {y1}"
    return (
        DERIVE
        + _contrib_cte(present_expr=aoi)
        + """
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change
FROM contrib
"""
    )


def contrib_type_counts_poly() -> str:
    """AOI = convex polygon membership as the present_expr — the
    polygon analog of contrib_type_counts_bbox, byte-identical float
    sign tests (see _convex_condition)."""
    aoi = _convex_condition(REGIONS["north_pentagon"])
    return (
        DERIVE
        + _contrib_cte(present_expr=aoi)
        + """
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change
FROM contrib
"""
    )


def embedding_dup_pairs() -> str:
    return """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.emb, b.emb), 6) AS cos_sim
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= 0.4
ORDER BY vec_a, vec_b
"""


def hopping_window_counts(hop_us: int, win_us: int) -> str:
    k = win_us // hop_us
    return f"""
SELECT (epoch_us(ts)//{hop_us} - s.i) * {hop_us} AS ws,
       count(*) AS n
FROM events
CROSS JOIN (SELECT unnest(generate_series(0, {k - 1})) AS i) s
GROUP BY 1 ORDER BY 1
"""


def shared_windows(win: int, stride: int) -> str:
    return f"""
WITH s AS (
  -- offset bound derived from the corpus, not a fixed cap (the engine
  -- explode is unbounded)
  SELECT unnest(generate_series(0,
    (SELECT CAST(greatest(coalesce(max(length(text)), 0) - {win}, 0) // {stride} AS BIGINT)
     FROM documents))) AS i
),
w AS (
  SELECT DISTINCT doc_id, substr(text, 1 + i*{stride}, {win}) AS "window"
  FROM documents CROSS JOIN s
  WHERE length(text) >= i*{stride} + {win}
)
SELECT "window", count(*) AS n_docs FROM w GROUP BY 1
HAVING count(*) >= 2 ORDER BY 1
"""


def dedup_docs() -> str:
    return """
SELECT doc_id FROM (
  SELECT doc_id, row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) AS rn
  FROM documents
) WHERE rn = 1 ORDER BY doc_id
"""


# ------------------------------------------------ .poly even-odd PIP
def _even_odd_condition(rings) -> str:
    """Crossing-number parity over ALL rings (outer + holes) — literal
    SQL mirror of fip.Polygon.contains: per edge,
    ``(y1 > lat) != (y2 > lat) AND lon < x1 + (lat-y1)*(x2-x1)/(y2-y1)``
    counted, inside iff odd. float64 ops are identical in DuckDB."""
    terms = []
    for ring in rings:
        r = [(float(x), float(y)) for x, y in ring]
        if r[0] == r[-1]:
            r = r[:-1]
        n = len(r)
        for i in range(n):
            x1, y1 = r[i]
            x2, y2 = r[(i + 1) % n]
            terms.append(
                f"CASE WHEN (({y1!r} > lat) <> ({y2!r} > lat))"
                f" AND lon < {x1!r} + (lat - {y1!r}) * ({x2!r} - {x1!r}) / ({y2!r} - {y1!r})"
                f" THEN 1 ELSE 0 END"
            )
    return "(" + " + ".join(terms) + ") % 2 = 1"


def snapshot_pip_poly(name: str, rings) -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, pts AS (
  SELECT CAST(lon_e7 AS DOUBLE) AS lon, CAST(lat_e7 AS DOUBLE) AS lat FROM snap
)
SELECT '{name}' AS region_id,
       CAST(count(*) FILTER (WHERE {_even_odd_condition(rings)}) AS BIGINT) AS n_inside
FROM pts
"""
    )


# -------------------------------------- old-style multipolygon
def snapshot_old_style(ts_list) -> str:
    """Mirror of rayhist.ingest._pack_oldstyle_bucket (see its comment
    block) + members_vec.snapshots_old_style_batch_vec: relation o = node block
    {8o..8o+7}; old-style iff o%5<>0 (no real relation tag) and
    o%11<>0 (single outer way); outer-way filter k=(o%7)=3; relation
    visible from rts=min(node ts), outer way from ts1o; hole ring =
    alive inner nodes at ts with the smallest inner id counted twice
    (closed-ring repeat)."""
    B = 8
    cte = _snap_cte().replace("TS_LIST", _ts_list(ts_list))
    return (
        DERIVE
        + cte
        + f"""
, rel AS (
  SELECT osm_id//{B} AS rid,
         min(ts_us) AS rts,
         min(CASE WHEN osm_id%{B} < 4 THEN ts_us END) AS ts1o,
         min(CASE WHEN osm_id%{B} >= 4 THEN ts_us END) AS ts1i,
         count(CASE WHEN osm_id%{B} < 4 THEN 1 END) AS n_outer_ev,
         min(CASE WHEN osm_id%{B} >= 4 THEN osm_id END) AS first_inner
  FROM d GROUP BY 1
), qual AS (
  SELECT tl.ts_q, r.rid, r.ts1i, r.first_inner
  FROM {_ts_list(ts_list)} CROSS JOIN rel r
  WHERE r.rid % 5 <> 0 AND r.rid % 11 <> 0 AND r.rid % 7 = 3
    AND r.n_outer_ev > 0
    AND tl.ts_q >= r.rts AND tl.ts_q >= r.ts1o
), hp AS (
  SELECT q.ts_q, q.rid,
         sum(s.lon_e7 * (CASE WHEN s.osm_id = q.first_inner THEN 2 ELSE 1 END)) AS lon_s,
         sum(s.lat_e7 * (CASE WHEN s.osm_id = q.first_inner THEN 2 ELSE 1 END)) AS lat_s
  FROM qual q JOIN snap s
    ON s.ts_q = q.ts_q AND s.osm_id//{B} = q.rid AND s.osm_id%{B} >= 4
  WHERE q.ts1i IS NOT NULL AND q.ts_q >= q.ts1i
  GROUP BY 1, 2
)
SELECT q.ts_q,
       CAST(count(*) AS BIGINT) AS n_rels,
       CAST(count(h.rid) AS BIGINT) AS n_holes,
       CAST(coalesce(sum(h.lon_s), 0) AS BIGINT) AS sum_hole_lon,
       CAST(coalesce(sum(h.lat_s), 0) AS BIGINT) AS sum_hole_lat
FROM qual q LEFT JOIN hp h ON h.ts_q = q.ts_q AND h.rid = q.rid
GROUP BY 1 ORDER BY 1
"""
    )


# ---------------------------------------- clipped aggregateByGeometry
def _cyrus_beck_region(region_id: str, poly, with_ts: bool = False) -> str:
    """SELECT over ``seg`` computing the Cyrus–Beck clipped length of
    each segment against one convex CCW region — LITERAL mirror of
    rayhist.geometry.clip_segments_convex (same num/den expressions,
    max/min of ratios, feasibility test) so floats are bit-identical.
    ``with_ts`` threads ``ts_q`` through for the combined
    geometry x timestamp index (seg must then carry ts_q)."""
    ts_sel = "ts_q, " if with_ts else ""
    n = len(poly)
    ent, lev, feas = [], [], []
    for i in range(n):
        vix, viy = (float(v) for v in poly[i])
        vjx, vjy = (float(v) for v in poly[(i + 1) % n])
        nx, ny = -(vjy - viy), (vjx - vix)
        den = f"({nx!r}*(bx-ax) + {ny!r}*(by-ay))"
        num = f"({nx!r}*({vix!r}-ax) + {ny!r}*({viy!r}-ay))"
        ent.append(f"CASE WHEN {den} > 0 THEN {num}/{den} ELSE 0.0 END")
        lev.append(f"CASE WHEN {den} < 0 THEN {num}/{den} ELSE 1.0 END")
        feas.append(f"NOT ({den} = 0 AND {num} > 0)")
    t0 = "greatest(0.0, " + ", ".join(ent) + ")"
    t1 = "least(1.0, " + ", ".join(lev) + ")"
    ok = " AND ".join(feas)
    return f"""
SELECT '{region_id}' AS region_id, {ts_sel}way_id,
       CAST(floor(6371000.0 * sqrt(
         (radians(cbx/10000000.0 - cax/10000000.0)
            * cos(radians((cby/10000000.0 + cay/10000000.0) / 2)))
         * (radians(cbx/10000000.0 - cax/10000000.0)
            * cos(radians((cby/10000000.0 + cay/10000000.0) / 2)))
         + radians(cby/10000000.0 - cay/10000000.0)
         * radians(cby/10000000.0 - cay/10000000.0)
       ) * 1000000.0) AS BIGINT) AS clip_um
FROM (
  SELECT {ts_sel}way_id, ax + t0*(bx-ax) AS cax, ay + t0*(by-ay) AS cay,
         ax + t1*(bx-ax) AS cbx, ay + t1*(by-ay) AS cby
  FROM (
    SELECT seg.*, {t0} AS t0, {t1} AS t1 FROM seg
    WHERE {ok}
  ) WHERE t0 <= t1
)"""


def _even_odd_clip_region(region_id: str, rings) -> str:
    """SELECT over ``seg`` computing the GENERAL even-odd clipped
    length of each segment against one arbitrary (non-convex, holed)
    region — LITERAL mirror of rayhist.geometry.clip_segments_even_odd:
    same cross-product t/u solve with strict (0,1) bounds per edge, the
    same sorted {0,1}∪crossings parameter list, midpoint even-odd
    classification (``_even_odd_condition``), and per-interval lengths
    floored to integer micrometers before the per-way sum (integer sum
    is order-independent, so Ray/SQL agree bit-for-bit)."""
    exprs = []
    for ring in rings:
        r = [(float(x), float(y)) for x, y in ring]
        if r[0] == r[-1]:
            r = r[:-1]
        n = len(r)
        for i in range(n):
            px, py = r[i]
            qx, qy = r[(i + 1) % n]
            ex, ey = qx - px, qy - py
            den = f"((bx-ax)*({ey!r}) - (by-ay)*({ex!r}))"
            t = f"(((({px!r})-ax)*({ey!r}) - (({py!r})-ay)*({ex!r})) / {den})"
            u = f"(((({px!r})-ax)*(by-ay) - (({py!r})-ay)*(bx-ax)) / {den})"
            exprs.append(
                f"CASE WHEN {den} <> 0 AND {t} > 0 AND {t} < 1"
                f" AND {u} > 0 AND {u} < 1 THEN {t} ELSE NULL END"
            )
    tlist = "[" + ", ".join(["0.0", "1.0"] + exprs) + "]"
    dist = """6371000.0 * sqrt(
         (radians(cbx/10000000.0 - cax/10000000.0)
            * cos(radians((cby/10000000.0 + cay/10000000.0) / 2)))
         * (radians(cbx/10000000.0 - cax/10000000.0)
            * cos(radians((cby/10000000.0 + cay/10000000.0) / 2)))
         + radians(cby/10000000.0 - cay/10000000.0)
         * radians(cby/10000000.0 - cay/10000000.0)
       )"""
    return f"""
SELECT '{region_id}' AS region_id, way_id,
       CAST(sum(CASE WHEN inside THEN um ELSE 0 END) AS BIGINT) AS clip_um
FROM (
  SELECT way_id, {_even_odd_condition(rings)} AS inside,
         CAST(floor({dist} * 1000000.0) AS BIGINT) AS um
  FROM (
    SELECT way_id,
           ax + ts[i]*(bx-ax) AS cax, ay + ts[i]*(by-ay) AS cay,
           ax + ts[i+1]*(bx-ax) AS cbx, ay + ts[i+1]*(by-ay) AS cby,
           ax + ((ts[i]+ts[i+1])/2.0)*(bx-ax) AS lon,
           ay + ((ts[i]+ts[i+1])/2.0)*(by-ay) AS lat
    FROM (
      SELECT way_id, ax, ay, bx, by,
             list_sort(list_filter({tlist}, x -> x IS NOT NULL)) AS ts
      FROM seg
    ) CROSS JOIN UNNEST(generate_series(1, len(ts)-1)) AS g(i)
  )
)
GROUP BY way_id HAVING count(*) FILTER (WHERE inside) >= 1"""


def clipped_way_lengths_poly(regions: dict) -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    parts = [_even_odd_clip_region(rid, rings) for rid, rings in sorted(regions.items())]
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap),
seg AS (
  SELECT a.osm_id AS way_id,
         CAST(a.lon_e7 AS DOUBLE) AS ax, CAST(a.lat_e7 AS DOUBLE) AS ay,
         CAST(b.lon_e7 AS DOUBLE) AS bx, CAST(b.lat_e7 AS DOUBLE) AS by
  FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1
)
SELECT * FROM ("""
        + " UNION ALL ".join(parts)
        + ") ORDER BY region_id, way_id"
    )


def clipped_way_lengths_daily(regions: dict, ts_list) -> str:
    """Chained aggregateByGeometry().aggregateByTimestamp(): clipped
    way length summed per (region, timestamp), zerofilled over the
    full region x timestamp cross product (the reference's nested
    OSHDBCombinedIndex, MapAggregator.java:172-200 after
    MapReducer.aggregateByGeometry, MapReducer.java:857-888). The
    per-segment clip floats are the bit-identical Cyrus-Beck mirror;
    the per-cell sum is over exact integer micrometers, so it is
    order-independent and Ray/SQL agree bit-for-bit."""
    cte = _snap_cte().replace("TS_LIST", _ts_list(ts_list))
    parts = [_cyrus_beck_region(rid, poly, with_ts=True) for rid, poly in sorted(regions.items())]
    region_vals = ", ".join(f"('{rid}')" for rid in sorted(regions))
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT ts_q, osm_id, lon_e7, lat_e7 FROM snap),
seg AS (
  SELECT a.ts_q, a.osm_id AS way_id,
         CAST(a.lon_e7 AS DOUBLE) AS ax, CAST(a.lat_e7 AS DOUBLE) AS ay,
         CAST(b.lon_e7 AS DOUBLE) AS bx, CAST(b.lat_e7 AS DOUBLE) AS by
  FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1 AND b.ts_q = a.ts_q
),
parts AS ("""
        + " UNION ALL ".join(parts)
        + f"""
)
SELECT r.region_id, tl.ts_q,
       CAST(coalesce(sum(p.clip_um), 0) AS BIGINT) AS total_um,
       CAST(count(p.way_id) AS BIGINT) AS n_ways
FROM (VALUES {region_vals}) r(region_id)
CROSS JOIN {_ts_list(ts_list)}
LEFT JOIN parts p ON p.region_id = r.region_id AND p.ts_q = tl.ts_q
GROUP BY 1, 2 ORDER BY 1, 2"""
    )


def clipped_way_lengths(regions: dict) -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    parts = [_cyrus_beck_region(rid, poly) for rid, poly in sorted(regions.items())]
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap),
seg AS (
  SELECT a.osm_id AS way_id,
         CAST(a.lon_e7 AS DOUBLE) AS ax, CAST(a.lat_e7 AS DOUBLE) AS ay,
         CAST(b.lon_e7 AS DOUBLE) AS bx, CAST(b.lat_e7 AS DOUBLE) AS by
  FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1
)
SELECT * FROM ("""
        + " UNION ALL ".join(parts)
        + ") ORDER BY region_id, way_id"
    )


# ----------------------------------------------- compound (way) docs
#
# The way-document derivation (rayhist.ingest "way documents" comment
# block) is mirrored here: way w = member nodes {5w..5w+4}, v1 at
# ts1 = min(member ts) (visible, k=w%7), v2 at ts2 = max(member ts)+1
# (invisible when w%3==0, else k=w%7+1). The member-recursion
# semantics (modification timestamps = parent ts  U  child version ts
# inside validity windows, changeset collapse with parent putIfAbsent
# precedence, child-attributed uids, member-resolved coords) are
# expressed with window functions + ASOF-style row_number joins.

_WAY_CTE = """
, ways AS (
  SELECT osm_id//5 AS wid, min(ts_us) AS ts1, max(ts_us)+1 AS ts2
  FROM d GROUP BY 1
), wv AS (
  SELECT wid, 1 AS pv, ts1 AS ts, 2000000000 + wid*1000 + 1 AS cs,
         wid % 37 AS uid, TRUE AS visible FROM ways
  UNION ALL
  SELECT wid, 2, ts2, 2000000000 + wid*1000 + 2, (wid+1) % 37,
         (wid % 3 <> 0) FROM ways
)
"""


def contrib_type_counts_ways(t_from: int, t_to: int) -> str:
    return (
        DERIVE
        + _WAY_CTE
        + f"""
, nodecs AS (
  -- per (way, ts): engine's cs_map takes the FIRST member's changeset
  -- (dict setdefault in member order = ascending id) and the LAST
  -- member's uid (overwrite in member order)
  SELECT osm_id//5 AS wid, ts_us AS ts,
         arg_min(cs, osm_id) AS ncs, arg_max(uid, osm_id) AS nuid
  FROM d GROUP BY 1, 2
), mts AS (
  SELECT wid, ts FROM wv
  UNION
  SELECT wid, ts FROM nodecs
), cs_at AS (
  SELECT m.wid, m.ts,
         coalesce(p.cs, nc.ncs) AS cs,      -- parent wins at equal ts
         coalesce(p.uid, nc.nuid) AS uid
  FROM mts m
  LEFT JOIN wv p ON p.wid = m.wid AND p.ts = m.ts
  LEFT JOIN nodecs nc ON nc.wid = m.wid AND nc.ts = m.ts
), coll AS (
  SELECT * FROM (
    SELECT c.*, lead(cs) OVER (PARTITION BY wid ORDER BY ts) AS next_cs FROM cs_at c
  ) WHERE next_cs IS NULL OR next_cs <> cs
), st2 AS (
  SELECT coll.wid, coll.ts, coll.uid AS attr_uid,
         CASE WHEN coll.ts >= w.ts2 THEN 2 ELSE 1 END AS pv
  FROM coll JOIN ways w ON w.wid = coll.wid
), res AS (
  SELECT k.wid, k.ts AS qts, nd.osm_id, nd.lon_e7, nd.lat_e7, nd.visible
  FROM coll k JOIN d nd ON nd.osm_id//5 = k.wid AND nd.ts_us <= k.ts
  QUALIFY row_number() OVER (PARTITION BY k.wid, k.ts, nd.osm_id
                             ORDER BY nd.ts_us DESC, nd.v DESC) = 1
), sig AS (
  -- member-resolved coord list in member order (engine compares the
  -- bare coord tuples, ids excluded); deleted members skipped
  SELECT wid, qts,
         coalesce(string_agg(lon_e7 || ':' || lat_e7, ',' ORDER BY osm_id)
                  FILTER (WHERE visible), '') AS csig
  FROM res GROUP BY 1, 2
), seq AS (
  SELECT s.wid, s.ts, s.attr_uid, s.pv, p.visible AS pres, g.csig,
         coalesce(lag(p.visible) OVER w, FALSE) AS prev_present,
         lag(s.pv) OVER w AS prev_pv,
         lag(g.csig) OVER w AS prev_csig
  FROM st2 s
  JOIN wv p ON p.wid = s.wid AND p.pv = s.pv
  JOIN sig g ON g.wid = s.wid AND g.qts = s.ts
  WINDOW w AS (PARTITION BY s.wid ORDER BY s.ts)
), contrib AS (
  SELECT *,
         (pres AND NOT prev_present) AS is_creation,
         (NOT pres AND prev_present) AS is_deletion,
         (pres AND prev_present AND pv <> prev_pv) AS is_tag_change,
         (pres AND prev_present AND csig <> prev_csig) AS is_geom_change
  FROM seq
  WHERE ts >= {int(t_from)} AND ts < {int(t_to)} AND (pres OR prev_present)
)
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change,
       CAST(sum(attr_uid) AS BIGINT) AS sum_uid
FROM contrib
"""
    )


def snapshot_way_geoms(timestamps) -> str:
    return (
        DERIVE
        + _WAY_CTE
        + f"""
, pvis AS (
  SELECT tl.ts_q, w.wid
  FROM {_ts_list(timestamps)}
  JOIN ways w ON w.ts1 <= tl.ts_q
  JOIN wv p ON p.wid = w.wid
           AND p.pv = CASE WHEN tl.ts_q >= w.ts2 THEN 2 ELSE 1 END
  WHERE p.visible
), res AS (
  SELECT p.wid, p.ts_q, nd.osm_id, nd.lon_e7, nd.lat_e7, nd.visible
  FROM pvis p JOIN d nd ON nd.osm_id//5 = p.wid AND nd.ts_us <= p.ts_q
  QUALIFY row_number() OVER (PARTITION BY p.wid, p.ts_q, nd.osm_id
                             ORDER BY nd.ts_us DESC, nd.v DESC) = 1
)
SELECT wid AS way_id, ts_q,
       CAST(count(*) FILTER (WHERE visible) AS BIGINT) AS n_nodes,
       CAST(coalesce(sum(lon_e7) FILTER (WHERE visible), 0) AS BIGINT) AS sum_lon,
       CAST(coalesce(sum(lat_e7) FILTER (WHERE visible), 0) AS BIGINT) AS sum_lat
FROM res GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def contrib_type_counts_ways_k3(t_from: int, t_to: int) -> str:
    """Filter-relative way contributions under osmTag k=3: the member
    windows come ONLY from matching parent versions (v1 matches for
    w%7==3 ways; v2 for w%7==2 visible ways), kept timestamps are
    match-or-after-match, and losing the tag at v2 is a DELETION."""
    return (
        DERIVE
        + _WAY_CTE
        + f"""
, wvm AS (
  SELECT wv.*,
         (visible AND ((pv = 1 AND wid % 7 = 3) OR (pv = 2 AND wid % 7 = 2))) AS m
  FROM wv
), nodecs AS (
  SELECT osm_id//5 AS wid, ts_us AS ts,
         arg_min(cs, osm_id) AS ncs, arg_max(uid, osm_id) AS nuid
  FROM d GROUP BY 1, 2
), keptp AS (
  SELECT wid, ts FROM (
    SELECT wvm.*, lag(m) OVER (PARTITION BY wid ORDER BY pv) AS pm FROM wvm
  ) WHERE m OR coalesce(pm, false)
), wayswin AS (
  SELECT w.wid, w.ts1, w.ts2,
         coalesce(max(CASE WHEN pv = 1 AND m THEN 1 ELSE 0 END), 0) = 1 AS win1,
         coalesce(max(CASE WHEN pv = 2 AND m THEN 1 ELSE 0 END), 0) = 1 AS win2
  FROM ways w JOIN wvm ON wvm.wid = w.wid GROUP BY 1, 2, 3
), mts_f AS (
  SELECT wid, ts FROM keptp
  UNION
  SELECT n.wid, n.ts FROM nodecs n JOIN wayswin ww ON ww.wid = n.wid
  WHERE (ww.win1 AND n.ts >= ww.ts1 AND n.ts <= ww.ts2)
     OR (ww.win2 AND n.ts >= ww.ts2)
), cs_at AS (
  SELECT mf.wid, mf.ts,
         coalesce(p.cs, nc.ncs) AS cs,
         coalesce(p.uid, nc.nuid) AS uid
  FROM mts_f mf
  LEFT JOIN wv p ON p.wid = mf.wid AND p.ts = mf.ts
  LEFT JOIN nodecs nc ON nc.wid = mf.wid AND nc.ts = mf.ts
), coll AS (
  SELECT * FROM (
    SELECT c.*, lead(cs) OVER (PARTITION BY wid ORDER BY ts) AS next_cs FROM cs_at c
  ) WHERE next_cs IS NULL OR next_cs <> cs
), st2 AS (
  SELECT coll.wid, coll.ts, coll.uid AS attr_uid,
         CASE WHEN coll.ts >= w.ts2 THEN 2 ELSE 1 END AS pv
  FROM coll JOIN ways w ON w.wid = coll.wid
), res AS (
  SELECT k.wid, k.ts AS qts, nd.osm_id, nd.lon_e7, nd.lat_e7, nd.visible
  FROM coll k JOIN d nd ON nd.osm_id//5 = k.wid AND nd.ts_us <= k.ts
  QUALIFY row_number() OVER (PARTITION BY k.wid, k.ts, nd.osm_id
                             ORDER BY nd.ts_us DESC, nd.v DESC) = 1
), sig AS (
  SELECT wid, qts,
         coalesce(string_agg(lon_e7 || ':' || lat_e7, ',' ORDER BY osm_id)
                  FILTER (WHERE visible), '') AS csig
  FROM res GROUP BY 1, 2
), seq AS (
  SELECT s.wid, s.ts, s.attr_uid, s.pv, p.m AS pres, g.csig,
         coalesce(lag(p.m) OVER w, FALSE) AS prev_present,
         lag(s.pv) OVER w AS prev_pv,
         lag(g.csig) OVER w AS prev_csig
  FROM st2 s
  JOIN wvm p ON p.wid = s.wid AND p.pv = s.pv
  JOIN sig g ON g.wid = s.wid AND g.qts = s.ts
  WINDOW w AS (PARTITION BY s.wid ORDER BY s.ts)
), contrib AS (
  SELECT *,
         (pres AND NOT prev_present) AS is_creation,
         (NOT pres AND prev_present) AS is_deletion,
         (pres AND prev_present AND pv <> prev_pv) AS is_tag_change,
         (pres AND prev_present AND csig <> prev_csig) AS is_geom_change
  FROM seq
  WHERE ts >= {int(t_from)} AND ts < {int(t_to)} AND (pres OR prev_present)
)
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change,
       CAST(sum(attr_uid) AS BIGINT) AS sum_uid
FROM contrib
"""
    )


# 2-level relation documents: relation r = ways {2r, 2r+1}, one
# visible version at rts = min(way ts1), cs = 3e9 + r*1000 + 1,
# uid = r % 37. Node edits recurse through the way level; way
# visibility gates whole node groups out of the resolved geometry.
_REL_CTE = """
, rels AS (SELECT wid//2 AS rid, min(ts1) AS rts FROM ways GROUP BY 1)
"""


def contrib_type_counts_relations(t_from: int, t_to: int) -> str:
    return (
        DERIVE
        + _WAY_CTE
        + _REL_CTE
        + f"""
, nodecs_r AS (
  SELECT osm_id//10 AS rid, ts_us AS ts, arg_min(cs, osm_id) AS ncs
  FROM d GROUP BY 1, 2
), wvx AS (
  -- direct way-member versions keyed by (relation, ts): changeset from
  -- the FIRST way in member order (putIfAbsent), uid from the LAST
  SELECT wid//2 AS rid, ts, arg_min(cs, wid) AS wcs, arg_max(uid, wid) AS wuid
  FROM wv GROUP BY 1, 2
), mts_r AS (
  SELECT rid, rts AS ts FROM rels
  UNION
  SELECT rid, ts FROM wvx
  UNION
  SELECT rid, ts FROM nodecs_r
), cs_at_r AS (
  SELECT m.rid, m.ts,
         CASE WHEN m.ts = r.rts THEN 3000000000 + m.rid*1000 + 1
              WHEN wvx.wcs IS NOT NULL THEN wvx.wcs
              ELSE nc.ncs END AS cs,
         CASE WHEN m.ts = r.rts THEN m.rid % 37
              WHEN wvx.wuid IS NOT NULL THEN wvx.wuid
              ELSE m.rid % 37 END AS attr_uid
  FROM mts_r m
  JOIN rels r ON r.rid = m.rid
  LEFT JOIN wvx ON wvx.rid = m.rid AND wvx.ts = m.ts
  LEFT JOIN nodecs_r nc ON nc.rid = m.rid AND nc.ts = m.ts
), coll_r AS (
  SELECT * FROM (
    SELECT c.*, lead(cs) OVER (PARTITION BY rid ORDER BY ts) AS next_cs FROM cs_at_r c
  ) WHERE next_cs IS NULL OR next_cs <> cs
), res_r AS (
  SELECT k.rid, k.ts AS qts, nd.lon_e7, nd.lat_e7, nd.osm_id,
         (nd.visible AND (k.ts < w.ts2 OR w.wid % 3 <> 0)) AS vis_eff
  FROM coll_r k
  JOIN d nd ON nd.osm_id//10 = k.rid AND nd.ts_us <= k.ts
  JOIN ways w ON w.wid = nd.osm_id//5
  QUALIFY row_number() OVER (PARTITION BY k.rid, k.ts, nd.osm_id
                             ORDER BY nd.ts_us DESC, nd.v DESC) = 1
), sig_r AS (
  SELECT rid, qts,
         coalesce(string_agg(lon_e7 || ':' || lat_e7, ',' ORDER BY osm_id)
                  FILTER (WHERE vis_eff), '') AS csig
  FROM res_r GROUP BY 1, 2
), seq_r AS (
  SELECT k.rid, k.ts, k.attr_uid, g.csig,
         lag(g.csig) OVER w AS prev_csig,
         row_number() OVER w AS rn
  FROM coll_r k JOIN sig_r g ON g.rid = k.rid AND g.qts = k.ts
  WINDOW w AS (PARTITION BY k.rid ORDER BY k.ts)
), contrib_r AS (
  SELECT *,
         (rn = 1) AS is_creation,
         FALSE AS is_deletion,
         FALSE AS is_tag_change,
         (rn > 1 AND csig <> prev_csig) AS is_geom_change
  FROM seq_r
  WHERE ts >= {int(t_from)} AND ts < {int(t_to)}
)
SELECT CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CAST(is_creation AS BIGINT)) AS BIGINT) AS n_creation,
       CAST(sum(CAST(is_deletion AS BIGINT)) AS BIGINT) AS n_deletion,
       CAST(sum(CAST(is_tag_change AS BIGINT)) AS BIGINT) AS n_tag_change,
       CAST(sum(CAST(is_geom_change AS BIGINT)) AS BIGINT) AS n_geom_change,
       CAST(sum(attr_uid) AS BIGINT) AS sum_uid
FROM contrib_r
"""
    )


def snapshot_relation_geoms(timestamps) -> str:
    return (
        DERIVE
        + _WAY_CTE
        + _REL_CTE
        + f"""
, res_r AS (
  SELECT r.rid, tl.ts_q, nd.osm_id, nd.lon_e7, nd.lat_e7,
         (nd.visible AND (tl.ts_q < w.ts2 OR w.wid % 3 <> 0)) AS vis_eff
  FROM {_ts_list(timestamps)}
  JOIN rels r ON r.rts <= tl.ts_q
  JOIN d nd ON nd.osm_id//10 = r.rid AND nd.ts_us <= tl.ts_q
  JOIN ways w ON w.wid = nd.osm_id//5
  QUALIFY row_number() OVER (PARTITION BY r.rid, tl.ts_q, nd.osm_id
                             ORDER BY nd.ts_us DESC, nd.v DESC) = 1
)
SELECT rid AS rel_id, ts_q,
       CAST(count(*) FILTER (WHERE vis_eff) AS BIGINT) AS n_nodes,
       CAST(coalesce(sum(lon_e7) FILTER (WHERE vis_eff), 0) AS BIGINT) AS sum_lon,
       CAST(coalesce(sum(lat_e7) FILTER (WHERE vis_eff), 0) AS BIGINT) AS sum_lat
FROM res_r GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def snapshot_count_by_type() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + _WAY_CTE
        + f"""
SELECT * FROM (
  SELECT 'node' AS osm_type, CAST(count(*) AS BIGINT) AS n_snapshots FROM snap
  UNION ALL
  SELECT 'way', CAST(count(*) AS BIGINT)
  FROM ways w
  JOIN wv p ON p.wid = w.wid
           AND p.pv = CASE WHEN {T_MID} >= w.ts2 THEN 2 ELSE 1 END
  WHERE w.ts1 <= {T_MID} AND p.visible
) ORDER BY osm_type
"""
    )


def snapshot_count_three_types(timestamps) -> str:
    """Single-chain three-type union (MapReducerJdbc.java:53-59): node
    leg = interpolated span snapshots; way leg = parent version at ts
    visible (ts1 <= ts, v2 from ts2, wid%3==0 deleted at v2); relation
    leg = relation exists from rts. Zerofilled ts x type grid."""
    cte = _snap_cte().replace("TS_LIST", _ts_list(timestamps))
    return (
        DERIVE
        + cte
        + _WAY_CTE
        + _REL_CTE
        + f"""
SELECT g.ts_q, g.osm_type, CAST(coalesce(s.n, 0) AS BIGINT) AS n_snapshots
FROM (SELECT tl.ts_q, ty.osm_type
      FROM {_ts_list(timestamps)}
      CROSS JOIN (VALUES ('node'), ('way'), ('relation')) ty(osm_type)) g
LEFT JOIN (
  SELECT ts_q, 'node' AS osm_type, count(*) AS n FROM snap GROUP BY 1
  UNION ALL
  SELECT tl.ts_q, 'way', count(*)
  FROM {_ts_list(timestamps)}
  JOIN ways w ON w.ts1 <= tl.ts_q
  JOIN wv p ON p.wid = w.wid
           AND p.pv = CASE WHEN tl.ts_q >= w.ts2 THEN 2 ELSE 1 END
  WHERE p.visible GROUP BY 1
  UNION ALL
  SELECT tl.ts_q, 'relation', count(*)
  FROM {_ts_list(timestamps)}
  JOIN rels r ON r.rts <= tl.ts_q GROUP BY 1
) s ON s.ts_q = g.ts_q AND s.osm_type = g.osm_type
ORDER BY g.ts_q, g.osm_type
"""
    )


def snapshot_cells_fine() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    nx = 1 << 10
    ny = 1 << 9
    return (
        DERIVE
        + cte
        + f"""
SELECT ts_q,
       least((lat_e7 + 900000000) * {ny} // 1800000000, {ny - 1}) * {nx}
         + ((lon_e7 + 1800000000) % 3600000000) * {nx} // 3600000000 AS cell,
       count(*) AS n
FROM snap GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def api_snapshot_weekly_click_bbox() -> str:
    from .pipelines import AOI_BBOX

    x0, y0, x1, y1 = (int(v) for v in AOI_BBOX)
    cte = _snap_cte("visible AND etype = 'click'").replace(
        "TS_LIST", _ts_list(SNAP_WEEKLY)
    )
    return (
        DERIVE
        + cte
        + f"""
SELECT tl.ts_q, CAST(coalesce(s.cnt, 0) AS BIGINT) AS n_snapshots
FROM {_ts_list(SNAP_WEEKLY)}
LEFT JOIN (
  SELECT ts_q, count(*) AS cnt FROM snap
  WHERE lon_e7 >= {x0} AND lon_e7 <= {x1} AND lat_e7 >= {y0} AND lat_e7 <= {y1}
  GROUP BY ts_q
) s USING (ts_q)
ORDER BY tl.ts_q
"""
    )


def api_contrib_creations_daily_even_uid() -> str:
    return (
        DERIVE
        + _contrib_cte("visible AND uid % 2 = 0")
        + f"""
SELECT tl.ts_q, CAST(coalesce(s.n_creations, 0) AS BIGINT) AS n_creations
FROM {_ts_list(CONTRIB_BINS)}
LEFT JOIN (
  SELECT {CONTRIB_FROM} + ((ts_us - {CONTRIB_FROM}) // {DAY_US}) * {DAY_US} AS ts_q,
         sum(CAST(is_creation AS BIGINT)) AS n_creations
  FROM contrib GROUP BY 1
) s USING (ts_q)
ORDER BY tl.ts_q
"""
    )


def snapshot_pip_many_regions() -> str:
    from .pipelines import _many_regions

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    sels = []
    for rid, (ring,) in _many_regions():
        (x0, y0), (x1, y1) = ring[0], ring[2]
        sels.append(
            f"SELECT '{rid}' AS region_id, count(*) FILTER ("
            f"lon_e7 >= {x0} AND lon_e7 <= {x1} AND lat_e7 >= {y0} AND lat_e7 <= {y1}"
            f") AS n FROM snap"
        )
    return DERIVE + cte + "\nUNION ALL\n".join(sels) + "\nORDER BY region_id"


def api_snapshot_weighted_avg() -> str:
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
SELECT CAST(sum(uid * (kk + 40)) AS DOUBLE) / CAST(sum(kk + 40) AS DOUBLE)
       AS wavg_uid
FROM snap
"""
    )


# ----------------------------------------- ordered/temporal operators


def asof_attribution() -> str:
    """DuckDB native ASOF JOIN — the independent implementation of the
    engine's bucketed merge_asof (ops/window.asof_join)."""
    return """
SELECT p.user_id,
       CAST(count(*) AS BIGINT) AS n_purchases,
       CAST(count(c.ts) AS BIGINT) AS n_attrib,
       CAST(coalesce(sum(epoch_us(p.ts) - epoch_us(c.ts)), 0) AS BIGINT) AS lag_us_total
FROM (SELECT user_id, ts FROM events WHERE event_type = 'purchase') p
ASOF LEFT JOIN (SELECT user_id, ts FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
GROUP BY 1 ORDER BY 1
"""


def range_error_click_daily(win_us: int, t0: int, day_us: int) -> str:
    """Plain inequality join — the oracle for the time-binned
    replication range join (each pair exactly once)."""
    return f"""
SELECT (epoch_us(c.ts) - {t0}) // {day_us} AS day,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM (SELECT ts FROM events WHERE event_type = 'error') e
JOIN (SELECT ts FROM events WHERE event_type = 'click') c
  ON epoch_us(c.ts) >= epoch_us(e.ts)
 AND epoch_us(c.ts) <  epoch_us(e.ts) + {win_us}
GROUP BY 1 ORDER BY 1
"""


def window_rolling_spikes(window: int) -> str:
    """SQL ROWS-frame window functions — the oracle for the cumsum
    prior-window kernel (exact integer cents; spike needs a FULL
    frame of `window` prior rows)."""
    return f"""
WITH v AS (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
), w AS (
  SELECT user_id, vc,
         coalesce(sum(vc) OVER (PARTITION BY user_id ORDER BY t, event_id
                       ROWS BETWEEN {window} PRECEDING AND 1 PRECEDING), 0) AS prior_sum,
         count(*) OVER (PARTITION BY user_id ORDER BY t, event_id
                        ROWS BETWEEN {window} PRECEDING AND 1 PRECEDING) AS prior_n
  FROM v
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prior_n = {window} AND {window} * vc > prior_sum
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_spikes
FROM w GROUP BY 1 ORDER BY 1
"""


def user_event_ranks() -> str:
    """SQL ranked window functions — LAG / running-MAX-over-prior /
    DENSE_RANK per user, the independent mirror of
    ops/window.with_ranked_window (exact integer cents)."""
    return """
WITH v AS (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
), w AS (
  SELECT user_id, vc,
         max(vc) OVER (PARTITION BY user_id ORDER BY t, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior_max,
         lag(vc) OVER (PARTITION BY user_id ORDER BY t, event_id) AS prior_vc,
         dense_rank() OVER (PARTITION BY user_id ORDER BY vc) AS dr
  FROM v
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prior_max IS NULL OR vc > prior_max
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_records,
       CAST(sum(CASE WHEN prior_vc IS NOT NULL AND vc > prior_vc
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_increases,
       CAST(max(dr) AS BIGINT) AS n_distinct_vals
FROM w GROUP BY 1 ORDER BY 1
"""


def user_value_dist() -> str:
    """SQL LEAD / FIRST_VALUE / PERCENT_RANK / CUME_DIST — the
    independent mirror of with_ranked_window's ``extras`` surface.
    The rank-tail comparisons (cd >= 0.9, pr <= 0.25) are safe float
    compares: both engines compute the identical two-integer IEEE
    division before comparing."""
    return """
WITH v AS (
  SELECT user_id, epoch_us(ts) AS t, event_id,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
), w AS (
  SELECT user_id, vc,
         lead(vc) OVER (PARTITION BY user_id ORDER BY t, event_id) AS nxt,
         first_value(vc) OVER (PARTITION BY user_id ORDER BY t, event_id) AS fv,
         percent_rank() OVER (PARTITION BY user_id ORDER BY vc) AS pr,
         cume_dist() OVER (PARTITION BY user_id ORDER BY vc) AS cd,
         row_number() OVER (PARTITION BY user_id ORDER BY t, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM v
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN nxt IS NOT NULL AND nxt < vc THEN 1 ELSE 0 END) AS BIGINT) AS n_drops,
       CAST(sum(CASE WHEN rn = n THEN vc - fv ELSE 0 END) AS BIGINT) AS net_gain_cents,
       CAST(sum(CASE WHEN cd >= 0.9 THEN 1 ELSE 0 END) AS BIGINT) AS n_top_decile,
       CAST(sum(CASE WHEN pr <= 0.25 THEN 1 ELSE 0 END) AS BIGINT) AS n_low_quartile
FROM w GROUP BY 1 ORDER BY 1
"""


def user_first_events(k: int) -> str:
    """SQL ordered string_agg over a ROW_NUMBER prefix — the collect
    terminal's independent mirror (total order => deterministic)."""
    return f"""
WITH v AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events
)
SELECT user_id,
       string_agg(event_type, ',' ORDER BY rn) AS first_types,
       CAST(count(*) AS BIGINT) AS n_first
FROM v WHERE rn <= {k} GROUP BY 1 ORDER BY 1
"""


def outer_join_user_day(stride: int, t0: int, day_us: int) -> str:
    """SQL FULL OUTER JOIN on the composite (user, day) key — the
    independent mirror of ops/relational.hash_join(how='outer')."""
    return f"""
WITH e AS (
  SELECT user_id * {stride} + (epoch_us(ts) - {t0}) // {day_us} AS uk,
         count(*) AS n
  FROM events WHERE event_type = 'error' GROUP BY 1
), p AS (
  SELECT user_id * {stride} + (epoch_us(ts) - {t0}) // {day_us} AS uk,
         count(*) AS n
  FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT CAST(coalesce(e.uk, p.uk) // {stride} AS BIGINT) AS user_id,
       CAST(coalesce(e.uk, p.uk) % {stride} AS BIGINT) AS day,
       CAST(coalesce(e.n, 0) AS BIGINT) AS n_errors,
       CAST(coalesce(p.n, 0) AS BIGINT) AS n_purchases
FROM e FULL OUTER JOIN p ON e.uk = p.uk
ORDER BY 1, 2
"""


def order_price_ntiles(k: int) -> str:
    """SQL NTILE — the independent mirror of with_ranked_window's
    equal-frequency tiling (remainder rule) on a deterministic total
    order (price_cents, orderkey)."""
    return f"""
WITH v AS (
  SELECT o_orderpriority, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS vc
  FROM orders
), w AS (
  SELECT o_orderpriority, vc,
         CAST(ntile({k}) OVER (PARTITION BY o_orderpriority
              ORDER BY vc, o_orderkey) AS BIGINT) AS tile
  FROM v
)
SELECT o_orderpriority, tile,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(vc) AS BIGINT) AS sum_price_cents
FROM w GROUP BY 1, 2 ORDER BY 1, 2
"""


def users_click_not_purchase(cutoff_us: int) -> str:
    return f"""
SELECT user_id FROM (
  SELECT DISTINCT user_id FROM events
   WHERE event_type = 'click' AND epoch_us(ts) < {cutoff_us}
  EXCEPT
  SELECT DISTINCT user_id FROM events
   WHERE event_type = 'purchase' AND epoch_us(ts) < {cutoff_us}
) ORDER BY user_id
"""


def topk_orders_by_priority(k: int) -> str:
    return f"""
SELECT o_orderpriority, rank, o_orderkey, price_cents FROM (
  SELECT o_orderpriority, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
         CAST(row_number() OVER (PARTITION BY o_orderpriority
              ORDER BY round(o_totalprice * 100) DESC, o_orderkey) AS BIGINT) AS rank
  FROM orders
) WHERE rank <= {k} ORDER BY o_orderpriority, rank
"""


def rollup_events(t0: int, day_us: int) -> str:
    """SQL GROUP BY ROLLUP — the oracle for the one-pass prefix
    ladder (coalesce maps the super-aggregate NULLs to the engine's
    'ALL' marker; no genuine NULLs exist in either key)."""
    return f"""
WITH v AS (
  SELECT event_type,
         CAST((epoch_us(ts) - {t0}) // {day_us} AS VARCHAR) AS day,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(day, 'ALL') AS day,
       CAST(sum(vc) AS BIGINT) AS value_cents,
       CAST(count(*) AS BIGINT) AS n
FROM v GROUP BY ROLLUP(event_type, day) ORDER BY 1, 2
"""


def pivot_events_daily(t0: int, day_us: int, types: list[str]) -> str:
    cols = ",\n       ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT) AS n_{t}"
        for t in types
    )
    return f"""
SELECT (epoch_us(ts) - {t0}) // {day_us} AS day,
       {cols}
FROM events GROUP BY 1 ORDER BY 1
"""


def lineitem_measures_unpivot(measures: list[str]) -> str:
    """SQL UNPIVOT — the independent mirror of ops/relational.unpivot
    (wide money measures -> one long (measure, value) stream)."""
    in_list = ", ".join(measures)
    return f"""
WITH v AS (
  SELECT l_returnflag,
         CAST(round(l_quantity * 100) AS BIGINT) AS qty_cents,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_cents,
         CAST(round(l_discount * 100) AS BIGINT) AS disc_cents,
         CAST(round(l_tax * 100) AS BIGINT) AS tax_cents
  FROM lineitem
)
SELECT l_returnflag, measure,
       CAST(sum(vc) AS BIGINT) AS sum_cents,
       CAST(count(*) AS BIGINT) AS n
FROM (SELECT * FROM v UNPIVOT (vc FOR measure IN ({in_list})))
GROUP BY 1, 2 ORDER BY 1, 2
"""


def bloom_semi_join_orders(nation: int) -> str:
    """Plain IN-subquery semi-join — the Bloom pre-filter is a sound
    prune, so any false-negative bug shows up as a missing row here."""
    return f"""
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS price_cents
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = {nation})
GROUP BY 1 ORDER BY 1
"""


def cube_events(t0: int, day_us: int) -> str:
    return f"""
WITH v AS (
  SELECT event_type,
         CAST(((epoch_us(ts) - {t0}) // {day_us}) % 2 AS VARCHAR) AS day_parity,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events
)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(day_parity, 'ALL') AS day_parity,
       CAST(sum(vc) AS BIGINT) AS value_cents,
       CAST(count(*) AS BIGINT) AS n
FROM v GROUP BY CUBE(event_type, day_parity) ORDER BY 1, 2
"""


def anti_join_orders(nation: int) -> str:
    return f"""
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS price_cents
FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_nationkey = {nation})
GROUP BY 1 ORDER BY 1
"""


def stratified_sample_docs(even: tuple[int, int], odd: tuple[int, int]) -> str:
    """Bit-exact mirror of ops.relational.stratified_sample's md5
    path: same per-stratum integer thresholds on the same hash."""
    te = (even[0] << 32) // even[1]
    to = (odd[0] << 32) // odd[1]
    return f"""
SELECT doc_id, source, n_chars FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      < CASE WHEN CAST(substr(source, 4) AS INT) % 2 = 0
             THEN {te} ELSE {to} END
ORDER BY doc_id
"""


def heavy_hitter_sources(top_n: int) -> str:
    """Exact GROUP BY + ORDER BY — valid because capacity > distinct
    sources puts Misra-Gries in its zero-error regime."""
    return f"""
SELECT source, CAST(count(*) AS BIGINT) AS n,
       CAST(row_number() OVER (ORDER BY count(*) DESC, source) AS BIGINT) AS rank
FROM documents GROUP BY source
ORDER BY n DESC, source LIMIT {top_n}
"""


def value_quantiles_by_type() -> str:
    return """
WITH s AS (SELECT event_type, CAST(round(value*100) AS BIGINT) AS c FROM events),
o AS (SELECT event_type, c,
             row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM s)
SELECT event_type,
       CAST(max(CASE WHEN rn = (n-1)//2 + 1 THEN c END) AS BIGINT) AS p50,
       CAST(max(CASE WHEN rn = (9*(n-1))//10 + 1 THEN c END) AS BIGINT) AS p90
FROM o GROUP BY 1 ORDER BY 1
"""


def time_window_bursts(dt_us: int, k: int) -> str:
    """SQL numeric RANGE frame [t-dt, t-1] — the strictly-before time
    window of with_time_window (equal-t peers excluded on both
    sides)."""
    return f"""
WITH v AS (SELECT user_id, epoch_us(ts) AS t FROM events),
w AS (
  SELECT user_id,
         count(*) OVER (PARTITION BY user_id ORDER BY t
                        RANGE BETWEEN {dt_us} PRECEDING AND 1 PRECEDING) AS wn
  FROM v
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN wn >= {k} THEN 1 ELSE 0 END) AS BIGINT) AS n_rapid
FROM w GROUP BY 1 ORDER BY 1
"""


def funnel_attribution_daily(rate_num: int, rate_den: int, t0: int, day_us: int) -> str:
    """One SQL statement for the composed chain: md5 user-threshold
    subsample -> ASOF LEFT JOIN -> daily aggregate."""
    thresh = (rate_num << 32) // rate_den
    keep = (
        "CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 8)) AS UBIGINT)"
        f" < {thresh}"
    )
    return f"""
WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase' AND {keep}),
     c AS (SELECT user_id, ts FROM events WHERE event_type = 'click' AND {keep})
SELECT (epoch_us(p.ts) - {t0}) // {day_us} AS day,
       CAST(count(*) AS BIGINT) AS n_purchases,
       CAST(count(c.ts) AS BIGINT) AS n_attrib,
       CAST(coalesce(sum(epoch_us(p.ts) - epoch_us(c.ts)), 0) AS BIGINT) AS lag_us_total
FROM p ASOF LEFT JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts
GROUP BY 1 ORDER BY 1
"""


def interarrival_median() -> str:
    """SQL lag() + rank-picked discrete median — the oracle for the
    vectorized per-key gap kernel."""
    return """
WITH v AS (SELECT user_id, epoch_us(ts) AS t FROM events),
d AS (SELECT user_id,
             t - lag(t) OVER (PARTITION BY user_id ORDER BY t) AS gap
      FROM v),
g AS (SELECT user_id, gap FROM d WHERE gap IS NOT NULL),
o AS (SELECT user_id, gap,
             row_number() OVER (PARTITION BY user_id ORDER BY gap) AS rn,
             count(*) OVER (PARTITION BY user_id) AS n
      FROM g)
SELECT user_id,
       CAST(max(n) AS BIGINT) AS n_gaps,
       CAST(max(CASE WHEN rn = (n-1)//2 + 1 THEN gap END) AS BIGINT) AS med_gap_us
FROM o GROUP BY 1 ORDER BY 1
"""


def top_words() -> str:
    """Wordcount top-k mirror: string_split_regex is RE2 like Arrow's
    split_pattern_regex; ties break ascending on the word."""
    from .pipelines import TOP_WORDS_K, WORD_SPLIT_RE

    return f"""
WITH w AS (
  SELECT unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
  FROM documents
)
SELECT word, CAST(count(*) AS BIGINT) AS n
FROM w WHERE word <> ''
GROUP BY 1 ORDER BY n DESC, word LIMIT {TOP_WORDS_K}
"""


def revenue_by_nation_month() -> str:
    """Star-join mirror; revenue as exact integer cent-basis-points
    (round(price*100) * (100 - round(discount*100)))."""
    return """
SELECT n_name,
       CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(month(o_orderdate) AS BIGINT) AS o_month,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS BIGINT)
         AS revenue_cbp
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation   ON c_nationkey = n_nationkey
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def mad_value_by_type() -> str:
    """Median absolute deviation mirror — the (n-1)//2 discrete rank
    rule spelled out twice (DuckDB's median() interpolates on even
    counts; the engine's selection is discrete)."""
    return """
WITH s AS (SELECT event_type, CAST(round(value*100) AS BIGINT) AS c FROM events),
o AS (SELECT event_type, c,
             row_number() OVER (PARTITION BY event_type ORDER BY c) AS rn,
             count(*) OVER (PARTITION BY event_type) AS n
      FROM s),
m AS (SELECT event_type, max(CASE WHEN rn = (n-1)//2 + 1 THEN c END) AS med
      FROM o GROUP BY 1),
a AS (SELECT s.event_type, abs(s.c - m.med) AS d
      FROM s JOIN m USING (event_type)),
o2 AS (SELECT event_type, d,
              row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn,
              count(*) OVER (PARTITION BY event_type) AS n
       FROM a)
SELECT o2.event_type,
       CAST(any_value(m.med) AS BIGINT) AS med_vc,
       CAST(max(CASE WHEN rn = (n-1)//2 + 1 THEN d END) AS BIGINT) AS mad_vc
FROM o2 JOIN m ON o2.event_type = m.event_type
GROUP BY 1 ORDER BY 1
"""


def peak_concurrency(gap_us: int, t0: int, day_us: int) -> str:
    """Sweep-line mirror: sessionize (same gap rule as sessions()),
    boundary deltas grouped per distinct timestamp, window cumsum;
    peak at t = concurrency before t + starts at t."""
    return f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts) >= {int(gap_us)}
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM events
), s AS (
  SELECT user_id, t,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY t
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM e
), agg AS (
  SELECT user_id, sid, min(t) AS lo, max(t) AS hi FROM s GROUP BY 1, 2
), b AS (
  SELECT lo AS t, 1 AS d FROM agg
  UNION ALL
  SELECT hi AS t, -1 AS d FROM agg
), g AS (
  SELECT t, sum(d) AS net,
         sum(CASE WHEN d = 1 THEN 1 ELSE 0 END) AS pos
  FROM b GROUP BY t
), r AS (
  SELECT t,
         sum(net) OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) - net + pos AS peak
  FROM g
)
SELECT CAST((t - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
       CAST(max(peak) AS BIGINT) AS peak_concurrency
FROM r GROUP BY 1 ORDER BY 1
"""


def tfidf_top_terms() -> str:
    """tf-idf mirror: same RE2 tokenizer as the engine; score is the
    identical IEEE op sequence (int division -> libm ln -> one
    multiply), so the float column compares bit-exact."""
    from .pipelines import TFIDF_K, WORD_SPLIT_RE

    return f"""
WITH w AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
  FROM documents
), tf AS (
  SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
  FROM w WHERE word <> '' GROUP BY 1, 2
), df AS (
  SELECT word, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
), s AS (
  SELECT doc_id, tf.word AS word,
         CAST(tf AS DOUBLE)
           * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE)
                / CAST(df AS DOUBLE)) AS score
  FROM tf JOIN df USING (word)
), r AS (
  SELECT doc_id, word, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, word) AS rank
  FROM s
)
SELECT doc_id, rank, word, score
FROM r WHERE rank <= {TFIDF_K} ORDER BY doc_id, rank
"""


def pareto_orders() -> str:
    """Skyline mirror: NOT EXISTS anti-self-join under strict
    dominance (maximize price cents, minimize order date)."""
    return """
WITH o AS (
  SELECT o_orderpriority, o_orderkey,
         CAST(round(o_totalprice * 100) AS BIGINT) AS price_c,
         CAST(epoch_us(o_orderdate) AS BIGINT) AS odate_us
  FROM orders
)
SELECT o_orderpriority, o_orderkey, price_c, odate_us
FROM o a
WHERE NOT EXISTS (
  SELECT 1 FROM o b
  WHERE b.o_orderpriority = a.o_orderpriority
    AND b.price_c >= a.price_c AND b.odate_us <= a.odate_us
    AND (b.price_c > a.price_c OR b.odate_us < a.odate_us))
ORDER BY 1, 2
"""


def above_user_mean() -> str:
    """Decorrelated scalar subquery mirror; the above-mean compare is
    the same exact-integer cross-multiplication (v * n > s)."""
    return """
WITH e AS (
  SELECT user_id, event_type, CAST(round(value * 100) AS BIGINT) AS v
  FROM events
), w AS (
  SELECT event_type, v,
         count(*) OVER (PARTITION BY user_id) AS n,
         sum(v)   OVER (PARTITION BY user_id) AS s
  FROM e
)
SELECT event_type,
       CAST(coalesce(sum(CASE WHEN v * n > s THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS n_above,
       CAST(count(*) AS BIGINT) AS n_events
FROM w GROUP BY 1 ORDER BY 1
"""


def weighted_median_price() -> str:
    """Lower weighted median via the cumulative-weight window idiom:
    smallest price whose cumulative weight reaches half the total."""
    return """
WITH l AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(round(l_quantity) AS BIGINT) AS qty
  FROM lineitem
), c AS (
  SELECT l_returnflag, l_linestatus, price_c, sum(qty) AS w
  FROM l GROUP BY 1, 2, 3
), cum AS (
  SELECT *,
         sum(w) OVER (PARTITION BY l_returnflag, l_linestatus
                      ORDER BY price_c ROWS UNBOUNDED PRECEDING) AS cw,
         sum(w) OVER (PARTITION BY l_returnflag, l_linestatus) AS tw
  FROM c
)
SELECT l_returnflag, l_linestatus,
       CAST(min(price_c) FILTER (WHERE 2 * cw >= tw) AS BIGINT) AS wmedian_price_c
FROM cum GROUP BY 1, 2 ORDER BY 1, 2
"""


def props_key_dist() -> str:
    """Semi-structured extraction mirror: the same RE2 capture group
    over the JSON props string; non-matches dropped on both sides."""
    return r"""
SELECT event_type,
       CAST(regexp_extract(props, '"k": (\d+)', 1) AS BIGINT) AS kk,
       CAST(count(*) AS BIGINT) AS n
FROM events
WHERE regexp_matches(props, '"k": (\d+)')
GROUP BY 1, 2 ORDER BY 1, 2
"""


def value_histogram(bin_w_c: int, nbins: int) -> str:
    """Equi-width histogram mirror with the full etype x bin zerofill
    grid (cross join of observed etypes with range(nbins))."""
    return f"""
WITH e AS (
  SELECT event_type,
         LEAST(CAST(round(value * 100) AS BIGINT) // {int(bin_w_c)},
               {int(nbins) - 1}) AS bin
  FROM events
), c AS (
  SELECT event_type, bin, CAST(count(*) AS BIGINT) AS n FROM e GROUP BY 1, 2
), grid AS (
  SELECT t.event_type, CAST(r.range AS BIGINT) AS bin
  FROM (SELECT DISTINCT event_type FROM events) t
  CROSS JOIN range({int(nbins)}) r
)
SELECT grid.event_type, grid.bin, CAST(coalesce(c.n, 0) AS BIGINT) AS n
FROM grid LEFT JOIN c USING (event_type, bin)
ORDER BY 1, 2
"""


def etype_audience_overlap() -> str:
    """Co-occurrence mirror: distinct (user, etype) self-join, ordered
    pair half."""
    return """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS etype_a, b.event_type AS etype_b,
       CAST(count(*) AS BIGINT) AS n_shared_users
FROM d a JOIN d b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2 ORDER BY 1, 2
"""


def value_trend_by_type(t0: int, day_us: int) -> str:
    """Grouped OLS slope mirror: HUGEINT-exact sufficient statistics,
    closed-form integer terms cast to BIGINT (loud on overflow, same
    as the engine guard), slope as the identical single division."""
    return f"""
WITH e AS (
  SELECT event_type,
         CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS x,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy, sum(x * x) AS sxx
  FROM e GROUP BY 1
)
SELECT event_type, n,
       CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
       CAST(n * sxx - sx * sx AS BIGINT) AS slope_den,
       CAST(CAST(n * sxy - sx * sy AS BIGINT) AS DOUBLE)
         / CAST(CAST(n * sxx - sx * sx AS BIGINT) AS DOUBLE) AS slope
FROM s ORDER BY 1
"""


def snapshot_hotspot_clusters(minpts: int) -> str:
    """Grid-density hotspot mirror: zoom-4 cell counts from the snap
    CTE, density filter, non-equi 8-adjacency self-join (NON-WRAPPING
    at the antimeridian, per the engine contract), recursive-CTE
    reachable-min components, isolated dense cells as singletons."""
    from .pipelines import CELL_ZOOM

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    nx = 1 << CELL_ZOOM
    ny = 1 << (CELL_ZOOM - 1)
    return (
        "WITH RECURSIVE "
        + DERIVE.lstrip().removeprefix("WITH")
        + cte
        + f"""
, cells AS (
  SELECT least((lat_e7 + 900000000) * {ny} // 1800000000, {ny - 1}) * {nx}
         + ((lon_e7 + 1800000000) % 3600000000) * {nx} // 3600000000 AS cell,
         count(*) AS n
  FROM snap GROUP BY 1
), dense AS (
  SELECT cell, n, cell % {nx} AS x, cell // {nx} AS y
  FROM cells WHERE n >= {int(minpts)}
), edges AS (
  SELECT a.cell AS u, b.cell AS v FROM dense a JOIN dense b
  ON abs(a.x - b.x) <= 1 AND abs(a.y - b.y) <= 1 AND a.cell <> b.cell
), reach AS (
  SELECT u AS node, u AS lab FROM edges
  UNION
  SELECT e.u AS node, r.lab FROM edges e JOIN reach r ON r.node = e.v
), comp AS (
  SELECT node, min(lab) AS component FROM reach GROUP BY node
)
SELECT CAST(coalesce(c.component, d.cell) AS BIGINT) AS component,
       CAST(count(*) AS BIGINT) AS n_cells,
       CAST(sum(d.n) AS BIGINT) AS n_points
FROM dense d LEFT JOIN comp c ON c.node = d.cell
GROUP BY 1 ORDER BY 1
"""
    )


def oov_rate_by_source() -> str:
    """OOV mirror: same RE2 tokenizer, same deterministic vocab cut
    (count desc, word asc, LIMIT K)."""
    from .pipelines import VOCAB_K, WORD_SPLIT_RE

    return f"""
WITH t AS (
  SELECT source, w AS word FROM (
    SELECT source, unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS w
    FROM documents
  ) WHERE w <> ''
), vocab AS (
  SELECT word FROM (
    SELECT word, count(*) AS n FROM t GROUP BY 1
    ORDER BY n DESC, word LIMIT {VOCAB_K}
  )
)
SELECT source,
       CAST(sum(CASE WHEN word NOT IN (SELECT word FROM vocab)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_oov,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM t GROUP BY 1 ORDER BY 1
"""


def supplier_fuzzy_pairs() -> str:
    """Fuzzy-join mirror: naive levenshtein self-join (affordable at
    oracle scale; the engine's PassJoin candidates must equal it)."""
    return """
SELECT a.s_suppkey AS id_a, b.s_suppkey AS id_b
FROM supplier a JOIN supplier b
ON a.s_suppkey < b.s_suppkey AND levenshtein(a.s_name, b.s_name) <= 1
ORDER BY 1, 2
"""


def ohlc_daily(t0: int, day_us: int) -> str:
    """OHLC mirror: the row_number window pair with the same
    deterministic (ts, event_id) order."""
    return f"""
WITH e AS (
  SELECT event_type,
         CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
         epoch_us(ts) AS t, event_id,
         CAST(round(value * 100) AS BIGINT) AS v
  FROM events
), r AS (
  SELECT *,
         row_number() OVER (PARTITION BY event_type, day
                            ORDER BY t, event_id) AS rf,
         row_number() OVER (PARTITION BY event_type, day
                            ORDER BY t DESC, event_id DESC) AS rl
  FROM e
)
SELECT event_type, day,
       CAST(max(CASE WHEN rf = 1 THEN v END) AS BIGINT) AS open,
       CAST(max(v) AS BIGINT) AS high,
       CAST(min(v) AS BIGINT) AS low,
       CAST(max(CASE WHEN rl = 1 THEN v END) AS BIGINT) AS close,
       CAST(count(*) AS BIGINT) AS n
FROM r GROUP BY 1, 2 ORDER BY 1, 2
"""


def copurchase_triangles() -> str:
    """Triangle mirror: distinct co-purchase pairs, then the ordered
    three-way self-join (pa < pb < pc with all three edges present)."""
    return """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
       CAST(count(*) AS BIGINT) AS n_triangles
FROM e e1 JOIN e e2 ON e1.pa = e2.pa AND e1.pb < e2.pb
          JOIN e e3 ON e3.pa = e1.pb AND e3.pb = e2.pb
"""


def snapshot_incremental_merge(t_b: int) -> str:
    """MERGE-apply mirror: the DIRECT snapshot at the target time —
    the merge must reconstruct it exactly from base + change stream."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([t_b]))
    return (
        DERIVE
        + cte
        + """
SELECT osm_id, etype, CAST(kk AS BIGINT) AS kk
FROM snap ORDER BY osm_id
"""
    )


def predominant_etype_dwell(t0: int, dwell_end: int) -> str:
    """Time-weighted mode mirror: lead()-interval dwell per
    (entity, etype), argmax with the (dwell DESC, etype) tie order,
    zero-dwell states excluded before the vote."""
    return (
        DERIVE
        + f"""
, iv AS (
  SELECT osm_id, etype, visible, ts_us,
         lead(ts_us) OVER (PARTITION BY osm_id ORDER BY ts_us, v) AS nxt
  FROM d
), dw AS (
  SELECT osm_id, etype,
         sum(greatest(0, least(coalesce(nxt, {int(dwell_end)}), {int(dwell_end)})
                         - greatest(ts_us, {int(t0)}))) AS dwell
  FROM iv WHERE visible GROUP BY 1, 2
), w AS (
  SELECT osm_id, etype, dwell,
         row_number() OVER (PARTITION BY osm_id
                            ORDER BY dwell DESC, etype) AS rn
  FROM dw WHERE dwell > 0
)
SELECT etype, CAST(count(*) AS BIGINT) AS n_entities,
       CAST(sum(dwell) AS BIGINT) AS sum_dwell_us
FROM w WHERE rn = 1 GROUP BY 1 ORDER BY 1
"""
    )


def contributor_activity() -> str:
    """Contributor-leaderboard mirror over the derivation."""
    return (
        DERIVE
        + """
SELECT CAST(uid AS BIGINT) AS uid,
       CAST(count(*) AS BIGINT) AS n_versions,
       CAST(count(DISTINCT osm_id) AS BIGINT) AS n_entities,
       CAST(min(ts_us) AS BIGINT) AS first_ts,
       CAST(max(ts_us) AS BIGINT) AS last_ts
FROM d GROUP BY 1 ORDER BY 1
"""
    )


def entity_tag_churn() -> str:
    """Tag-churn mirror: versions and distinct signatures per entity,
    regrouped into the (n_versions, n_sigs) grid."""
    return (
        DERIVE
        + """
, per AS (
  SELECT osm_id, count(*) AS n_versions,
         count(DISTINCT tag_sig) AS n_sigs
  FROM d GROUP BY 1
)
SELECT CAST(n_versions AS BIGINT) AS n_versions,
       CAST(n_sigs AS BIGINT) AS n_sigs,
       CAST(count(*) AS BIGINT) AS n_entities
FROM per GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def anomalous_days_by_type(t0: int, day_us: int, k: int) -> str:
    """Integer z-test mirror: the cross-multiplied compare in HUGEINT."""
    return f"""
WITH c AS (
  SELECT event_type AS etype,
         (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day, count(*) AS n
  FROM events GROUP BY 1, 2
), s AS (
  SELECT etype, count(*) AS t, sum(n) AS sn, sum(n*n) AS sxx
  FROM c GROUP BY 1
)
SELECT c.etype, CAST(day AS BIGINT) AS day, CAST(n AS BIGINT) AS n
FROM c JOIN s USING (etype)
WHERE (n*t - sn)*(n*t - sn) > {int(k) * int(k)} * (t*sxx - sn*sn)
ORDER BY 1, 2
"""


def etype_daily_autocorr(t0: int, day_us: int) -> str:
    """Lag-1 autocorrelation mirror: lead() pairs over present days,
    HUGEINT sufficient statistics, and the identical single-IEEE
    cast/multiply/sqrt/divide tail."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT etype, n AS x,
         lead(n) OVER (PARTITION BY etype ORDER BY day) AS y
  FROM c
), s AS (
  SELECT etype, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*y) AS sxy, sum(x*x) AS sxx, sum(y*y) AS syy
  FROM p WHERE y IS NOT NULL GROUP BY 1
)
SELECT etype, CAST(n AS BIGINT) AS n_pairs,
       CAST(n*sxy - sx*sy AS BIGINT) AS num,
       CAST(n*sxy - sx*sy AS DOUBLE)
         / sqrt(CAST(n*sxx - sx*sx AS DOUBLE) * CAST(n*syy - sy*sy AS DOUBLE))
         AS autocorr
FROM s ORDER BY 1
"""


def etype_rank_delta(t0: int, day_us: int) -> str:
    """Rank-movement mirror: row_number within day by (n DESC, etype),
    lag over the type's PRESENT days; first appearance coalesces to
    0 so the engine's fillna matches."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), r AS (
  SELECT day, etype, n,
         row_number() OVER (PARTITION BY day ORDER BY n DESC, etype) AS rnk
  FROM c
)
SELECT CAST(day AS BIGINT) AS day, etype, CAST(n AS BIGINT) AS n,
       CAST(rnk AS BIGINT) AS rnk,
       CAST(coalesce(lag(rnk) OVER (PARTITION BY etype ORDER BY day) - rnk, 0)
            AS BIGINT) AS rank_delta
FROM r ORDER BY 1, 2
"""


def value_percentile_mass_by_type() -> str:
    """Rank-transform mirror: rank() - 1 = strictly-below count; the
    mean fraction is the same float multiply-then-divide tail."""
    return """
WITH s AS (
  SELECT event_type AS etype, CAST(round(value*100) AS BIGINT) AS c FROM events
), r AS (
  SELECT etype, rank() OVER (ORDER BY c) - 1 AS rb FROM s
)
SELECT etype, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(rb) AS BIGINT) AS sum_below,
       CAST(sum(rb) AS DOUBLE)
         / (count(*) * CAST((SELECT count(*) FROM s) AS DOUBLE))
         AS mean_below_frac
FROM r GROUP BY 1 ORDER BY 1
"""


def trimmed_mean_by_type(num: int, den: int) -> str:
    """Trimmed-mean mirror: rank-trim via row_number over the sorted
    cent values; sum(BIGINT)->HUGEINT casts to DOUBLE by
    round-to-nearest exactly like numpy's int->float64, and the mean
    is the same single IEEE division."""
    return f"""
WITH s AS (
  SELECT event_type AS etype, CAST(round(value*100) AS BIGINT) AS c FROM events
), r AS (
  SELECT etype, c,
         row_number() OVER (PARTITION BY etype ORDER BY c) AS rn,
         count(*) OVER (PARTITION BY etype) AS n
  FROM s
)
SELECT etype, CAST(count(*) AS BIGINT) AS n_kept,
       CAST(sum(c) AS BIGINT) AS sum_kept_c,
       CAST(sum(c) AS DOUBLE) / count(*) AS trimmed_mean_c
FROM r
WHERE rn > n * {int(num)} // {int(den)}
  AND rn <= n - n * {int(num)} // {int(den)}
GROUP BY 1 ORDER BY 1
"""


def copurchase_edge_jaccard(k: int) -> str:
    """Edge-support mirror: enumerate each triangle once with the
    ordered three-way self-join, unpivot it to its three edges, count
    support per edge, LEFT-join back so zero-support edges keep cn=0,
    and score with the same single int/int division."""
    return f"""
WITH e AS (
  SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1 JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v
            JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
), sup AS (
  SELECT u, v, count(*) AS cn FROM (
    SELECT a AS u, b AS v FROM tri
    UNION ALL SELECT a AS u, c AS v FROM tri
    UNION ALL SELECT b AS u, c AS v FROM tri
  ) GROUP BY 1, 2
), deg AS (
  SELECT x AS node, count(*) AS d FROM (
    SELECT u AS x FROM e UNION ALL SELECT v AS x FROM e
  ) GROUP BY 1
)
SELECT e.u, e.v, CAST(coalesce(sup.cn, 0) AS BIGINT) AS cn,
       CAST(coalesce(sup.cn, 0) AS DOUBLE)
         / (du.d + dv.d - coalesce(sup.cn, 0)) AS jaccard
FROM e LEFT JOIN sup ON sup.u = e.u AND sup.v = e.v
JOIN deg du ON du.node = e.u JOIN deg dv ON dv.node = e.v
ORDER BY jaccard DESC, e.u, e.v LIMIT {int(k)}
"""


def snapshot_colocation_pairs(radius: int) -> str:
    """Radius self-join mirror: the |delta| prefilter keeps the engine's
    squares in int64 range (same rule as spatial/radius.py); the
    squares here are HUGEINT, because DuckDB may evaluate them on pairs
    the prefilter has not yet dropped."""
    r = int(radius)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    d2 = """CAST(a.lon_e7 - b.lon_e7 AS HUGEINT) * (a.lon_e7 - b.lon_e7)
          + CAST(a.lat_e7 - b.lat_e7 AS HUGEINT) * (a.lat_e7 - b.lat_e7)"""
    return (
        DERIVE
        + cte
        + f"""
SELECT a.osm_id AS id_a, b.osm_id AS id_b, CAST({d2} AS BIGINT) AS d2
FROM snap a JOIN snap b
  ON a.osm_id < b.osm_id
 AND abs(a.lon_e7 - b.lon_e7) <= {r}
 AND abs(a.lat_e7 - b.lat_e7) <= {r}
WHERE {d2} <= {r}::HUGEINT * {r}
ORDER BY 1, 2
"""
    )


def way_boundary_crossings(boundary) -> str:
    """Proper-crossing mirror: the same orientation-sign formula as
    spatial/predicates.orient_sign, exact via HUGEINT casts."""
    vals = ", ".join(
        f"({ax}, {ay}, {bx}, {by})"
        for (ax, ay), (bx, by) in zip(boundary, boundary[1:])
    )
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
, seg AS (SELECT a.osm_id AS way_id, a.lon_e7 AS cx, a.lat_e7 AS cy,
                 b.lon_e7 AS dx, b.lat_e7 AS dy
          FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1)
, bnd AS (SELECT * FROM (VALUES {vals}) t(ax, ay, bx, by))
SELECT way_id, CAST(count(*) AS BIGINT) AS n_crossings
FROM seg JOIN bnd ON
    sign(CAST(bx-ax AS HUGEINT)*(cy-ay) - CAST(by-ay AS HUGEINT)*(cx-ax))
  * sign(CAST(bx-ax AS HUGEINT)*(dy-ay) - CAST(by-ay AS HUGEINT)*(dx-ax)) < 0
AND sign(CAST(dx-cx AS HUGEINT)*(ay-cy) - CAST(dy-cy AS HUGEINT)*(ax-cx))
  * sign(CAST(dx-cx AS HUGEINT)*(by-cy) - CAST(dy-cy AS HUGEINT)*(bx-cx)) < 0
GROUP BY 1 ORDER BY 1
"""
    )


def user_active_coverage() -> str:
    """Interval-union mirror: running-max-end island detection with
    the identical (s, e) tie order."""
    return """
WITH iv AS (
  SELECT user_id,
         epoch_us(ts) AS s,
         epoch_us(ts) + (CAST(round(value*100) AS BIGINT) % 3600 + 1) * 1000000 AS e
  FROM events
), m AS (
  SELECT *,
         max(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pmax
  FROM iv
), g AS (
  SELECT *,
         sum(CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS isl
  FROM m
), spans AS (
  SELECT user_id, isl, max(e) - min(s) AS len FROM g GROUP BY 1, 2
)
SELECT user_id,
       CAST(sum(len) AS BIGINT) AS covered_us,
       CAST(count(*) AS BIGINT) AS n_spans
FROM spans GROUP BY 1 ORDER BY 1
"""


def gapfill_daily(t0: int, day_us: int) -> str:
    """Gap-fill mirror: IGNORE-NULLS window pair over a per-etype
    generate_series spine; the interpolated value is the identical
    exact-int numerator over ONE double division."""
    return f"""
WITH base AS (
  SELECT event_type AS etype,
         CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
         CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS v
  FROM events
  WHERE CAST(round(value*100) AS BIGINT) % 97 = 0
  GROUP BY 1, 2
), bounds AS (
  SELECT etype, min(day) AS mn, max(day) AS mx FROM base GROUP BY 1
), spine AS (
  SELECT etype, unnest(generate_series(mn, mx)) AS day FROM bounds
), j AS (
  SELECT s.etype, s.day, b.v FROM spine s LEFT JOIN base b USING (etype, day)
), w AS (
  SELECT *,
    last_value(v IGNORE NULLS) OVER (PARTITION BY etype ORDER BY day
      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS v0,
    last_value(day - CASE WHEN v IS NULL THEN NULL ELSE 0 END IGNORE NULLS)
      OVER (PARTITION BY etype ORDER BY day
      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS d0,
    first_value(v IGNORE NULLS) OVER (PARTITION BY etype ORDER BY day
      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS v1,
    first_value(day - CASE WHEN v IS NULL THEN NULL ELSE 0 END IGNORE NULLS)
      OVER (PARTITION BY etype ORDER BY day
      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS d1
  FROM j
)
SELECT etype, day,
  CASE WHEN v IS NOT NULL THEN CAST(v AS DOUBLE)
       ELSE CAST(v0*(d1-day) + v1*(day-d0) AS DOUBLE) / CAST(d1-d0 AS DOUBLE) END
    AS value_filled,
  CAST(v IS NULL AS BIGINT) AS is_interp
FROM w ORDER BY 1, 2
"""


def user_journeys() -> str:
    """Ordered string_agg mirror with the identical (ts, event_id)
    total order."""
    return """
SELECT user_id,
       string_agg(substr(event_type, 1, 1), ''
                  ORDER BY epoch_us(ts), event_id) AS journey,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1 ORDER BY 1
"""


def snapshot_hull_by_type() -> str:
    """Strict-hull-vertex mirror: NOT EXISTS a containing triangle of
    three other same-group points, orientation signs via HUGEINT, bbox
    guard against fully-degenerate triangles."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))

    def s(a, b):  # sign of cross((b - a) x (p - a))
        return (
            f"sign(CAST({b}.x - {a}.x AS HUGEINT) * (p.y - {a}.y)"
            f" - CAST({b}.y - {a}.y AS HUGEINT) * (p.x - {a}.x))"
        )

    s1, s2, s3 = s("a", "b"), s("b", "c"), s("c", "a")
    return (
        DERIVE
        + cte
        + f"""
, pts AS (
  SELECT etype, osm_id, lon_e7 AS x, lat_e7 AS y FROM snap WHERE osm_id % 5 = 0
)
SELECT p.etype, p.osm_id, p.x AS lon_e7, p.y AS lat_e7
FROM pts p
WHERE NOT EXISTS (
  SELECT 1 FROM pts a, pts b, pts c
  WHERE a.etype = p.etype AND b.etype = p.etype AND c.etype = p.etype
    AND a.osm_id < b.osm_id AND b.osm_id < c.osm_id
    AND a.osm_id <> p.osm_id AND b.osm_id <> p.osm_id AND c.osm_id <> p.osm_id
    AND least(a.x, b.x, c.x) <= p.x AND p.x <= greatest(a.x, b.x, c.x)
    AND least(a.y, b.y, c.y) <= p.y AND p.y <= greatest(a.y, b.y, c.y)
    AND (({s1} >= 0 AND {s2} >= 0 AND {s3} >= 0)
      OR ({s1} <= 0 AND {s2} <= 0 AND {s3} <= 0))
)
ORDER BY 1, 2
"""
    )


def value_bitops_by_type() -> str:
    return """
WITH e AS (
  SELECT event_type, CAST(round(value*100) AS BIGINT) AS v FROM events
)
SELECT event_type,
       CAST(bit_and(v) AS BIGINT) AS band,
       CAST(bit_or(v) AS BIGINT) AS bor,
       CAST(bit_xor(v) AS BIGINT) AS bxor,
       CAST(bool_and(v % 2 = 0) AS BIGINT) AS alleven,
       CAST(bool_or(v % 2 = 0) AS BIGINT) AS anyeven
FROM e GROUP BY 1 ORDER BY 1
"""


def extreme_events_by_type() -> str:
    """Argmin/argmax mirror with the pinned (value, event_id) tie
    order — row_number, never DuckDB's unspecified arg_min tie."""
    return """
WITH e AS (
  SELECT event_type, event_id, CAST(round(value*100) AS BIGINT) AS v FROM events
), r AS (
  SELECT *,
         row_number() OVER (PARTITION BY event_type ORDER BY v, event_id) AS rlo,
         row_number() OVER (PARTITION BY event_type ORDER BY v DESC, event_id) AS rhi
  FROM e
)
SELECT event_type,
       CAST(max(CASE WHEN rlo = 1 THEN v END) AS BIGINT) AS min_value_c,
       CAST(max(CASE WHEN rlo = 1 THEN event_id END) AS BIGINT) AS min_event_id,
       CAST(max(CASE WHEN rhi = 1 THEN v END) AS BIGINT) AS max_value_c,
       CAST(max(CASE WHEN rhi = 1 THEN event_id END) AS BIGINT) AS max_event_id
FROM r GROUP BY 1 ORDER BY 1
"""


def copurchase_pagerank(scale: int, iters: int) -> str:
    """Integer-PageRank mirror: the identical fixed-point iterations
    unrolled as join-aggregate CTEs (// is floor division on the
    all-positive operands both engines see)."""
    base = (int(scale) * 15) // 100
    head = f"""
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), dir AS (
  SELECT pa AS u, pb AS v FROM e UNION ALL SELECT pb, pa FROM e
), deg AS (
  SELECT u AS node, count(*) AS d FROM dir GROUP BY 1
), pr0 AS (
  SELECT node, CAST({int(scale)} AS BIGINT) AS pr FROM deg
)"""
    steps = []
    for i in range(1, int(iters) + 1):
        steps.append(
            f""", pr{i} AS (
  SELECT dir.v AS node,
         {base} + sum((p.pr * 85) // (100 * g.d)) AS pr
  FROM dir JOIN pr{i-1} p ON p.node = dir.u JOIN deg g ON g.node = dir.u
  GROUP BY 1
)"""
        )
    return (
        head
        + "".join(steps)
        + f"""
SELECT node AS part_id, CAST(pr AS BIGINT) AS pr FROM pr{int(iters)} ORDER BY 1
"""
    )


def jsonl_events_by_type() -> str:
    """JSONL wire-path mirror: the parquet side of the same
    derivations — a pass certifies the JSONL write+read round-trip."""
    return """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c,
       CAST(min(epoch_us(ts)) AS BIGINT) AS ts_min_us,
       CAST(max(epoch_us(ts)) AS BIGINT) AS ts_max_us
FROM events GROUP BY 1 ORDER BY 1
"""


def train_val_test_split() -> str:
    """Split mirror: the same cumulative md5-prefix thresholds."""
    t80 = (8 << 32) // 10
    t90 = (9 << 32) // 10
    return f"""
WITH s AS (
  SELECT source, n_chars,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) AS h
  FROM documents
)
SELECT source,
       CASE WHEN h < {t80} THEN 'train'
            WHEN h < {t90} THEN 'val' ELSE 'test' END AS split,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_chars
FROM s GROUP BY 1, 2 ORDER BY 1, 2
"""


def snapshot_diff(t_a: int, t_b: int) -> str:
    """CDC mirror: FULL OUTER JOIN of the two snapshot states with the
    same add/remove/move/static classification."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([t_a, t_b]))
    return (
        DERIVE
        + cte
        + f"""
, a AS (SELECT osm_id, etype, lon_e7, lat_e7 FROM snap WHERE ts_q = {int(t_a)})
, b AS (SELECT osm_id, etype, lon_e7, lat_e7 FROM snap WHERE ts_q = {int(t_b)})
, m AS (
  SELECT coalesce(b.etype, a.etype) AS etype,
         CASE WHEN a.osm_id IS NULL THEN 'added'
              WHEN b.osm_id IS NULL THEN 'removed'
              WHEN a.lon_e7 = b.lon_e7 AND a.lat_e7 = b.lat_e7 THEN 'static'
              ELSE 'moved' END AS change
  FROM a FULL OUTER JOIN b USING (osm_id)
)
SELECT etype, change, CAST(count(*) AS BIGINT) AS n
FROM m GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def csv_events_daily(t0: int, day_us: int) -> str:
    """CSV wire-path mirror (parquet side of the same derivations)."""
    return f"""
SELECT CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_value_c
FROM events GROUP BY 1 ORDER BY 1
"""


def way_bearing_rose() -> str:
    """Exact-integer octant mirror: the identical sign and |dx|-vs-|dy|
    comparisons (no atan2 — numpy's SIMD atan2 is not bit-identical
    to libm's)."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
, seg AS (
  SELECT b.lon_e7 - a.lon_e7 AS dx, b.lat_e7 - a.lat_e7 AS dy
  FROM pos a JOIN pos b ON b.osm_id = a.osm_id + 1
  WHERE b.lon_e7 <> a.lon_e7 OR b.lat_e7 <> a.lat_e7
)
SELECT CASE
  WHEN dx >= 0 AND dy > 0 AND dx < dy THEN 0
  WHEN dx > 0 AND dy > 0 AND dx >= dy THEN 1
  WHEN dx > 0 AND dy <= 0 AND -dy < dx THEN 2
  WHEN dx > 0 AND dy < 0 AND -dy >= dx THEN 3
  WHEN dx <= 0 AND dy < 0 AND -dx < -dy THEN 4
  WHEN dx < 0 AND dy < 0 AND -dx >= -dy THEN 5
  WHEN dx < 0 AND dy >= 0 AND dy < -dx THEN 6
  ELSE 7 END AS octant,
  CAST(count(*) AS BIGINT) AS n
FROM seg GROUP BY 1 ORDER BY 1
"""
    )


def profile_orders(cols: list[str]) -> str:
    """Profile mirror: one UNION ALL leg per column."""
    legs = [
        f"""SELECT '{c}' AS "column",
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
       CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct
FROM orders"""
        for c in cols
    ]
    return "\nUNION ALL\n".join(legs) + '\nORDER BY "column"'


def etype_purity_by_day(t0: int, day_us: int) -> str:
    """Gini mirror: same exact-int rational, one double division."""
    return f"""
WITH c AS (
  SELECT CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
         event_type, count(*) AS c
  FROM events GROUP BY 1, 2
), s AS (
  SELECT day, sum(c) AS n, sum(c*c) AS ss FROM c GROUP BY 1
)
SELECT day,
       CAST(n*n - ss AS BIGINT) AS gini_num,
       CAST(n*n AS BIGINT) AS gini_den,
       CAST(n*n - ss AS DOUBLE) / CAST(n*n AS DOUBLE) AS gini
FROM s ORDER BY day
"""


def value_leading_digits() -> str:
    """Leading-digit mirror: lexical extraction from the VARCHAR cast
    (agrees exactly with the arithmetic derivation on positive ints)."""
    return """
WITH v AS (
  SELECT CAST(round(value*100) AS BIGINT) AS v FROM events
  WHERE CAST(round(value*100) AS BIGINT) > 0
)
SELECT CAST(substr(CAST(v AS VARCHAR), 1, 1) AS BIGINT) AS digit,
       CAST(count(*) AS BIGINT) AS n
FROM v GROUP BY 1 ORDER BY 1
"""


def price_percentiles_cont(fracs: list[tuple[int, int]]) -> str:
    """PERCENTILE_CONT mirror via explicit order statistics and the
    identical exact rational — one double division, no engine-internal
    float interpolation."""
    legs = []
    for num, den in fracs:
        legs.append(
            f"""SELECT {num} AS pct_num, {den} AS pct_den,
       CAST(lo * ({den} - r) + hi * r AS BIGINT) AS value_num,
       CAST({den} AS BIGINT) AS value_den,
       CAST(lo * ({den} - r) + hi * r AS DOUBLE) / {den}.0 AS value
FROM (
  SELECT max(CASE WHEN rn = 1 + ((n-1)*{num})//{den} THEN v END) AS lo,
         max(CASE WHEN rn = 1 + ((n-1)*{num})//{den} + (CASE WHEN ((n-1)*{num})%{den} > 0 THEN 1 ELSE 0 END) THEN v END) AS hi,
         max(((n-1)*{num})%{den}) AS r
  FROM (
    SELECT v, row_number() OVER (ORDER BY v) AS rn, count(*) OVER () AS n
    FROM (SELECT CAST(round(o_totalprice*100) AS BIGINT) AS v FROM orders)
  )
)"""
        )
    return "\nUNION ALL\n".join(legs) + "\nORDER BY pct_den, pct_num"


def value_equidepth_bins() -> str:
    """Equi-depth mirror: the same discrete value-at-index boundary
    rule (((n-1)*num)//den over the ordered values) and strict-above
    bin assignment."""
    return """
WITH v AS (
  SELECT event_type, CAST(round(value*100) AS BIGINT) AS v FROM events
), r AS (
  SELECT v, row_number() OVER (ORDER BY v) AS rn, count(*) OVER () AS n FROM v
), q AS (
  SELECT max(CASE WHEN rn = 1 + ((n-1)*1)//4 THEN v END) AS q1,
         max(CASE WHEN rn = 1 + ((n-1)*2)//4 THEN v END) AS q2,
         max(CASE WHEN rn = 1 + ((n-1)*3)//4 THEN v END) AS q3
  FROM r
)
SELECT event_type,
       CAST((v.v > q.q1) AS BIGINT) + CAST((v.v > q.q2) AS BIGINT)
         + CAST((v.v > q.q3) AS BIGINT) AS bin,
       CAST(count(*) AS BIGINT) AS n
FROM v, q GROUP BY 1, 2 ORDER BY 1, 2
"""


def customer_rfm_segments() -> str:
    """RFM mirror: per-customer aggregates, the discrete rank-rule
    quartile bounds per metric, strictly-above coding."""

    def qcte(col: str, name: str) -> str:
        return f"""
{name}_r AS (
  SELECT {col} AS v, row_number() OVER (ORDER BY {col}) AS rn,
         count(*) OVER () AS n
  FROM pc
), {name}_q AS (
  SELECT max(CASE WHEN rn = 1 + ((n-1)*1)//4 THEN v END) AS q1,
         max(CASE WHEN rn = 1 + ((n-1)*2)//4 THEN v END) AS q2,
         max(CASE WHEN rn = 1 + ((n-1)*3)//4 THEN v END) AS q3
  FROM {name}_r
)"""

    return f"""
WITH pc AS (
  SELECT o_custkey,
         max(epoch_us(o_orderdate) // 86400000000) AS r,
         count(*) AS f,
         sum(CAST(round(o_totalprice*100) AS BIGINT)) AS m
  FROM orders GROUP BY 1
), {qcte("r", "rq")}, {qcte("f", "fq")}, {qcte("m", "mq")}
SELECT CAST((pc.r > rq_q.q1) AS BIGINT) + CAST((pc.r > rq_q.q2) AS BIGINT)
         + CAST((pc.r > rq_q.q3) AS BIGINT) AS r_code,
       CAST((pc.f > fq_q.q1) AS BIGINT) + CAST((pc.f > fq_q.q2) AS BIGINT)
         + CAST((pc.f > fq_q.q3) AS BIGINT) AS f_code,
       CAST((pc.m > mq_q.q1) AS BIGINT) + CAST((pc.m > mq_q.q2) AS BIGINT)
         + CAST((pc.m > mq_q.q3) AS BIGINT) AS m_code,
       CAST(count(*) AS BIGINT) AS n_customers
FROM pc, rq_q, fq_q, mq_q
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def copurchase_clustering() -> str:
    """Clustering-coefficient mirror: triangles CTE + degree-based
    wedge sum, one double division."""
    return """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), d AS (
  SELECT v, count(*) AS deg
  FROM (SELECT pa AS v FROM e UNION ALL SELECT pb FROM e) GROUP BY 1
), t AS (
  SELECT count(*) AS tri
  FROM e e1 JOIN e e2 ON e1.pa = e2.pa AND e1.pb < e2.pb
            JOIN e e3 ON e3.pa = e1.pb AND e3.pb = e2.pb
), w AS (
  SELECT sum(deg * (deg - 1) // 2) AS wedges FROM d
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
       CAST(w.wedges AS BIGINT) AS n_wedges,
       CAST(t.tri AS BIGINT) AS n_triangles,
       CAST(3 * t.tri AS BIGINT) AS coeff_num,
       CAST(w.wedges AS BIGINT) AS coeff_den,
       CAST(3 * t.tri AS DOUBLE) / CAST(w.wedges AS DOUBLE) AS clustering
FROM t, w
"""


def copurchase_kcore(k: int, unroll: int) -> str:
    """k-core mirror: the peel unrolled as a CTE chain; rounds =
    first count-equal consecutive pair minus one (sets are nested, so
    count equality is set equality)."""
    k = int(k)
    parts = ["""
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), dir AS (
  SELECT pa AS u, pb AS v FROM e UNION ALL SELECT pb, pa FROM e
), s0 AS MATERIALIZED (SELECT DISTINCT u AS node FROM dir)"""]
    for i in range(1, int(unroll) + 1):
        # AS MATERIALIZED: each peel level is referenced three times
        # (twice by the next level, once by the counts CTE) — inlining
        # would blow up 2^unroll copies of the whole chain
        parts.append(
            f""", s{i} AS MATERIALIZED (
  SELECT d.u AS node FROM dir d
  JOIN s{i-1} a ON a.node = d.u JOIN s{i-1} b ON b.node = d.v
  GROUP BY 1 HAVING count(*) >= {k}
)"""
        )
    counts = " UNION ALL ".join(
        f"SELECT {i} AS i, count(*) AS c FROM s{i}" for i in range(int(unroll) + 1)
    )
    parts.append(
        f""", c AS ({counts})
, r AS (SELECT min(a.i) - 1 AS rounds FROM c a JOIN c b ON b.i = a.i - 1 AND b.c = a.c)
SELECT CAST({k} AS BIGINT) AS k,
       (SELECT CAST(count(*) AS BIGINT) FROM s{int(unroll)}) AS n_core,
       CAST(r.rounds AS BIGINT) AS n_rounds
FROM r"""
    )
    return "".join(parts)


def split_contamination() -> str:
    """Contamination mirror: md5 content fp x md5 split thresholds;
    per non-train split, distinct leaked fps and affected docs."""
    t80 = (8 << 32) // 10
    t90 = (9 << 32) // 10
    return f"""
WITH s AS (
  SELECT md5(substr(text, 1, 32)) AS fp,
         CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) < {t80} THEN 'train'
              WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) < {t90} THEN 'val'
              ELSE 'test' END AS split
  FROM documents
), tr AS (SELECT DISTINCT fp FROM s WHERE split = 'train')
SELECT s.split,
       CAST(count(DISTINCT s.fp) AS BIGINT) AS n_contaminated_fps,
       CAST(count(*) AS BIGINT) AS n_docs
FROM s JOIN tr USING (fp)
WHERE s.split <> 'train'
GROUP BY 1 ORDER BY 1
"""


def copurchase_assortativity() -> str:
    """Assortativity mirror: same exact sufficient statistics over the
    directed edge list; for the symmetric case r = (m*sxy - sx^2) /
    (m*sxx - sx^2) — ONE double division of exact ints."""
    return """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), dir AS (SELECT pa AS u, pb AS v FROM e UNION ALL SELECT pb, pa FROM e),
deg AS (SELECT u AS node, count(*) AS d FROM dir GROUP BY 1),
j AS (
  SELECT gu.d AS du, gv.d AS dv
  FROM dir JOIN deg gu ON gu.node = dir.u JOIN deg gv ON gv.node = dir.v
), s AS (
  SELECT count(*) AS m, sum(du) AS sx, sum(du*du) AS sxx, sum(du*dv) AS sxy FROM j
)
SELECT CAST(m AS BIGINT) AS m, CAST(sx AS BIGINT) AS sx,
       CAST(sxx AS BIGINT) AS sxx, CAST(sxy AS BIGINT) AS sxy,
       CAST(m*sxy - sx*sx AS BIGINT) AS r_num,
       CAST(m*sxx - sx*sx AS BIGINT) AS r_den,
       CAST(m*sxy - sx*sx AS DOUBLE) / CAST(m*sxx - sx*sx AS DOUBLE) AS assortativity
FROM s
"""


def entity_sinuosity() -> str:
    """Sinuosity mirror: lag-window consecutive visible pairs, the
    identical equirect floor-micrometer expression per pair, int sums,
    one double division."""
    dist = """floor(6371000.0 * sqrt(
    (radians({b}lon_e7/10000000.0 - {a}lon_e7/10000000.0)
       * cos(radians(({b}lat_e7/10000000.0 + {a}lat_e7/10000000.0) / 2)))
    * (radians({b}lon_e7/10000000.0 - {a}lon_e7/10000000.0)
       * cos(radians(({b}lat_e7/10000000.0 + {a}lat_e7/10000000.0) / 2)))
    + radians({b}lat_e7/10000000.0 - {a}lat_e7/10000000.0)
    * radians({b}lat_e7/10000000.0 - {a}lat_e7/10000000.0)
  ) * 1000000.0)"""
    seg = dist.format(a="p", b="")
    # per-entity endpoints: first/last visible version
    endd = dist.format(a="f", b="l")
    return (
        DERIVE
        + f"""
, vis AS (
  SELECT osm_id, v, lon_e7, lat_e7,
         lag(lon_e7) OVER w AS plon_e7, lag(lat_e7) OVER w AS plat_e7
  FROM d WHERE visible
  WINDOW w AS (PARTITION BY osm_id ORDER BY v)
), segs AS (
  SELECT osm_id,
         CAST({seg.replace('plon_e7', 'plon_e7').replace('plat_e7', 'plat_e7').replace(' lon_e7', ' lon_e7')} AS BIGINT) AS seg_um
  FROM (SELECT osm_id, lon_e7, lat_e7, plon_e7 AS plon_e7, plat_e7 AS plat_e7 FROM vis WHERE plon_e7 IS NOT NULL)
), agg AS (
  SELECT osm_id, count(*) AS n_moves, sum(seg_um) AS path_um FROM segs GROUP BY 1
), ends AS (
  SELECT osm_id,
         arg_min(lon_e7, v) AS flon_e7, arg_min(lat_e7, v) AS flat_e7,
         arg_max(lon_e7, v) AS llon_e7, arg_max(lat_e7, v) AS llat_e7
  FROM d WHERE visible GROUP BY 1
), j AS (
  SELECT a.osm_id, a.n_moves, a.path_um,
         CAST({endd} AS BIGINT) AS disp_um
  FROM agg a JOIN ends USING (osm_id)
)
SELECT osm_id, CAST(n_moves AS BIGINT) AS n_moves,
       CAST(path_um AS BIGINT) AS path_um, disp_um,
       CAST(path_um AS DOUBLE) / CAST(disp_um AS DOUBLE) AS sinuosity
FROM j WHERE disp_um > 0 ORDER BY osm_id
"""
    )


def user_value_ewma() -> str:
    """EWMA mirror: the identical floor-halving recurrence as a
    recursive CTE stepping rn -> rn+1 in the same total order."""
    return """
WITH RECURSIVE v AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS val,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events
), r AS (
  SELECT user_id, rn, val AS s FROM v WHERE rn = 1
  UNION ALL
  SELECT v.user_id, v.rn, (r.s + v.val) // 2
  FROM r JOIN v ON v.user_id = r.user_id AND v.rn = r.rn + 1
)
SELECT user_id,
       CAST(max(rn) AS BIGINT) AS n,
       CAST(arg_max(s, rn) AS BIGINT) AS ewma_c
FROM r GROUP BY 1 ORDER BY 1
"""


def snapshot_diameter_by_type() -> str:
    """Farthest-pair mirror: subset self-join argmax through HUGEINT
    squared distance, ties to the smallest (id_a, id_b)."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pts AS (
  SELECT etype, osm_id, lon_e7 AS x, lat_e7 AS y FROM snap WHERE osm_id % 5 = 0
), pairs AS (
  SELECT a.etype, a.osm_id AS id_a, b.osm_id AS id_b,
         abs(a.x - b.x) AS adx, abs(a.y - b.y) AS ady,
         CAST(a.x - b.x AS HUGEINT) * (a.x - b.x)
           + CAST(a.y - b.y AS HUGEINT) * (a.y - b.y) AS d2
  FROM pts a JOIN pts b ON a.etype = b.etype AND a.osm_id < b.osm_id
), r AS (
  SELECT *, row_number() OVER (PARTITION BY etype
                               ORDER BY d2 DESC, id_a, id_b) AS rn
  FROM pairs
)
SELECT etype, id_a, id_b, CAST(adx AS BIGINT) AS adx, CAST(ady AS BIGINT) AS ady
FROM r WHERE rn = 1 ORDER BY etype
"""
    )


def etype_share_by_day(t0: int, day_us: int) -> str:
    """ratio_to_report mirror: count / sum(count) OVER (day)."""
    return f"""
WITH c AS (
  SELECT CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS BIGINT) AS day,
         event_type AS etype, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT day, etype, n,
       CAST(sum(n) OVER (PARTITION BY day) AS BIGINT) AS day_total,
       CAST(n AS DOUBLE) / CAST(sum(n) OVER (PARTITION BY day) AS DOUBLE) AS share
FROM c ORDER BY 1, 2
"""


def copurchase_bfs_hops(seed_mod: int, max_hops: int) -> str:
    """BFS mirror: frontier levels unrolled as MATERIALIZED CTEs
    (visited = union of all earlier levels; each level referenced
    multiple times)."""
    parts = [f"""
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), dir AS (SELECT pa AS u, pb AS v FROM e UNION ALL SELECT pb, pa FROM e),
f0 AS MATERIALIZED (SELECT DISTINCT u AS node FROM dir WHERE u % {int(seed_mod)} = 0),
vis0 AS MATERIALIZED (SELECT node FROM f0)"""]
    for h in range(1, int(max_hops) + 1):
        parts.append(
            f""", f{h} AS MATERIALIZED (
  SELECT DISTINCT d.v AS node FROM dir d
  JOIN f{h-1} f ON f.node = d.u
  WHERE NOT EXISTS (SELECT 1 FROM vis{h-1} x WHERE x.node = d.v)
), vis{h} AS MATERIALIZED (
  SELECT node FROM vis{h-1} UNION ALL SELECT node FROM f{h}
)"""
        )
    counts = " UNION ALL ".join(
        f"SELECT {h} AS hop, CAST(count(*) AS BIGINT) AS n FROM f{h}"
        for h in range(int(max_hops) + 1)
    )
    parts.append(f"\n{counts}\nORDER BY hop")
    return "".join(parts)


def copurchase_cheapest_paths(seed_mod: int, rounds: int) -> str:
    """Weighted-shortest-path mirror: the identical Bellman-Ford
    relaxation unrolled as MATERIALIZED CTE levels (each level is
    referenced twice — by the relax join and the carry-forward), with
    the same finite 2^62 "unreached" sentinel and exact BIGINT costs."""
    inf = 1 << 62
    parts = [
        f"""
WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS pa, b.l_partkey AS pb, count(*) AS w
  FROM li a JOIN li b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
), dir AS (SELECT pa AS u, pb AS v, w FROM e UNION ALL SELECT pb, pa, w FROM e),
d0 AS MATERIALIZED (
  SELECT u AS node,
         CAST(CASE WHEN u % {int(seed_mod)} = 0 THEN 0 ELSE {inf} END AS BIGINT) AS dist
  FROM (SELECT DISTINCT u FROM dir)
)"""
    ]
    for i in range(1, int(rounds) + 1):
        parts.append(
            f""", d{i} AS MATERIALIZED (
  SELECT d.node, least(d.dist, coalesce(m.md, d.dist)) AS dist
  FROM d{i-1} d LEFT JOIN (
    SELECT dir.v AS node, min(p.dist + dir.w) AS md
    FROM dir JOIN d{i-1} p ON p.node = dir.u AND p.dist < {inf}
    GROUP BY 1
  ) m ON m.node = d.node
)"""
        )
    parts.append(
        f"""
SELECT node AS part_id, CAST(dist AS BIGINT) AS dist
FROM d{int(rounds)} WHERE dist < {inf} ORDER BY 1
"""
    )
    return "".join(parts)


def copurchase_lcc() -> str:
    """Local-clustering mirror: corner-unioned triangle counts joined
    to degrees, the identical rational and one double division."""
    return """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), deg AS (
  SELECT v AS node, count(*) AS d
  FROM (SELECT pa AS v FROM e UNION ALL SELECT pb FROM e) GROUP BY 1
), tri AS (
  SELECT e1.pa AS x, e1.pb AS y, e2.pb AS z
  FROM e e1 JOIN e e2 ON e1.pa = e2.pa AND e1.pb < e2.pb
            JOIN e e3 ON e3.pa = e1.pb AND e3.pb = e2.pb
), tc AS (
  SELECT v AS node, count(*) AS t
  FROM (SELECT x AS v FROM tri UNION ALL SELECT y FROM tri UNION ALL SELECT z FROM tri)
  GROUP BY 1
)
SELECT deg.node AS part_id,
       CAST(deg.d AS BIGINT) AS deg,
       CAST(coalesce(tc.t, 0) AS BIGINT) AS lcc_num,
       CAST(deg.d * (deg.d - 1) // 2 AS BIGINT) AS lcc_den,
       CAST(coalesce(tc.t, 0) AS DOUBLE)
         / CAST(deg.d * (deg.d - 1) // 2 AS DOUBLE) AS lcc
FROM deg LEFT JOIN tc USING (node)
WHERE deg.d >= 2
ORDER BY 1
"""


def snapshot_kmeans(k: int, iters: int) -> str:
    """k-means mirror: the identical exact-integer Lloyd rounds
    unrolled as MATERIALIZED CTE chains — init = k smallest osm_ids,
    assignment = row_number argmin over the point x centroid cross
    join (dist ties -> lowest cluster), update = HUGEINT sums with
    the same // floor mean, empty clusters carry their centroid; the
    final pass re-assigns against the last centroids and zerofills."""
    k = int(k)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    parts = [
        DERIVE
        + cte
        + f"""
, pts AS MATERIALIZED (
  SELECT osm_id AS pid,
         (lon_e7 + 1800000000) // 100 AS gx,
         (lat_e7 + 900000000) // 100 AS gy
  FROM snap
),
c0 AS MATERIALIZED (
  SELECT CAST(row_number() OVER (ORDER BY pid) - 1 AS BIGINT) AS cluster,
         gx AS cx, gy AS cy
  FROM (SELECT * FROM pts ORDER BY pid LIMIT {k})
)"""
    ]
    assign = """, a{i} AS MATERIALIZED (
  SELECT pid, gx, gy, cluster FROM (
    SELECT p.pid, p.gx, p.gy, c.cluster,
           row_number() OVER (
             PARTITION BY p.pid
             ORDER BY (p.gx-c.cx)*(p.gx-c.cx) + (p.gy-c.cy)*(p.gy-c.cy), c.cluster
           ) AS rn
    FROM pts p CROSS JOIN c{j} c
  ) WHERE rn = 1
)"""
    for i in range(1, int(iters) + 1):
        parts.append(assign.format(i=i, j=i - 1))
        parts.append(
            f""", c{i} AS MATERIALIZED (
  SELECT c.cluster,
         CAST(coalesce(s.sx // s.n, c.cx) AS BIGINT) AS cx,
         CAST(coalesce(s.sy // s.n, c.cy) AS BIGINT) AS cy
  FROM c{i-1} c LEFT JOIN (
    SELECT cluster, count(*) AS n, sum(gx) AS sx, sum(gy) AS sy
    FROM a{i} GROUP BY 1
  ) s ON s.cluster = c.cluster
)"""
        )
    fin = int(iters) + 1
    parts.append(assign.format(i=fin, j=int(iters)))
    parts.append(
        f"""
SELECT c.cluster, c.cx, c.cy,
       CAST(coalesce(s.n, 0) AS BIGINT) AS n,
       CAST(coalesce(s.sx, 0) AS BIGINT) AS sum_gx,
       CAST(coalesce(s.sy, 0) AS BIGINT) AS sum_gy
FROM c{int(iters)} c LEFT JOIN (
  SELECT cluster, count(*) AS n, sum(gx) AS sx, sum(gy) AS sy
  FROM a{fin} GROUP BY 1
) s ON s.cluster = c.cluster
ORDER BY c.cluster
"""
    )
    return "".join(parts)


def snapshot_bbox_overlaps(half: int, cell: int) -> str:
    """Rectangle-join mirror: the identical closed-box intersection
    predicate and exact integer corner/area arithmetic; `cell` only
    bounds the distributed layout, the SQL needs no partitioning."""
    h = int(half)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, b AS (
  SELECT osm_id AS pid,
         lon_e7 - (osm_id % 7 + 1) * {h} AS lx,
         lat_e7 - (osm_id % 5 + 1) * {h} AS ly,
         lon_e7 + (osm_id % 7 + 1) * {h} AS hx,
         lat_e7 + (osm_id % 5 + 1) * {h} AS hy
  FROM snap
)
SELECT a.pid AS id_a, c.pid AS id_b,
       CAST(greatest(a.lx, c.lx) AS BIGINT) AS ix,
       CAST(greatest(a.ly, c.ly) AS BIGINT) AS iy,
       CAST((least(a.hx, c.hx) - greatest(a.lx, c.lx))
          * (least(a.hy, c.hy) - greatest(a.ly, c.ly)) AS BIGINT) AS area
FROM b a JOIN b c
  ON a.pid < c.pid
 AND a.lx <= c.hx AND c.lx <= a.hx
 AND a.ly <= c.hy AND c.ly <= a.hy
ORDER BY 1, 2
"""
    )


def etype_day_entropy(t0: int, day_us: int) -> str:
    """Entropy mirror: identical milli-nat quantization (bare round()
    = half-away, ln = the same libm) inside exact integer sums, then
    the single-IEEE division tail."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), d AS (
  SELECT day, sum(n) AS t,
         sum(n * CAST(round(1000*ln(CAST(n AS DOUBLE))) AS BIGINT)) AS s
  FROM c GROUP BY 1
)
SELECT CAST(day AS BIGINT) AS day, CAST(t AS BIGINT) AS n_events,
       CAST(t * CAST(round(1000*ln(CAST(t AS DOUBLE))) AS BIGINT) - s AS BIGINT)
         AS num,
       CAST(t * CAST(round(1000*ln(CAST(t AS DOUBLE))) AS BIGINT) - s AS DOUBLE)
         / CAST(t AS DOUBLE) AS entropy_mnat
FROM d ORDER BY 1
"""


def etype_daily_crosscorr(t0: int, day_us: int) -> str:
    """Cross-correlation mirror: day-grid self-join on common days,
    HUGEINT sufficient statistics, the autocorr single-IEEE tail."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.etype AS ea, b.etype AS eb, a.n AS x, b.n AS y
  FROM c a JOIN c b ON a.day = b.day AND a.etype < b.etype
), s AS (
  SELECT ea, eb, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*y) AS sxy, sum(x*x) AS sxx, sum(y*y) AS syy
  FROM p GROUP BY 1, 2
)
SELECT ea AS etype_a, eb AS etype_b, CAST(n AS BIGINT) AS n_days,
       CAST(n*sxy - sx*sy AS BIGINT) AS num,
       CAST(n*sxy - sx*sy AS DOUBLE)
         / sqrt(CAST(n*sxx - sx*sx AS DOUBLE) * CAST(n*syy - sy*sy AS DOUBLE))
         AS crosscorr
FROM s ORDER BY 1, 2
"""


def etype_cusum_changepoint(t0: int, day_us: int) -> str:
    """CUSUM mirror: windowed prefix sum of the cross-multiplied
    integer deviations, argmax by (|cusum| DESC, day ASC) — pure
    integers end to end."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), s AS (
  SELECT etype, count(*) AS t, sum(n) AS sm FROM c GROUP BY 1
), u AS (
  SELECT c.etype, c.day,
         sum(c.n * s.t - s.sm) OVER (PARTITION BY c.etype ORDER BY c.day) AS cus
  FROM c JOIN s USING (etype)
), r AS (
  SELECT etype, day, abs(cus) AS a,
         row_number() OVER (PARTITION BY etype ORDER BY abs(cus) DESC, day) AS rn
  FROM u
)
SELECT r.etype, CAST(s.t AS BIGINT) AS n_days, CAST(r.day AS BIGINT) AS chg_day,
       CAST(r.a AS BIGINT) AS cusum_abs
FROM r JOIN s ON r.etype = s.etype
WHERE r.rn = 1 ORDER BY 1
"""


def user_gini_by_etype() -> str:
    """Gini mirror: row_number over per-user counts (tie order is
    rank-sum-invariant), exact integer numerator/denominator, one
    IEEE division."""
    return """
WITH uc AS (
  SELECT event_type AS etype, user_id, count(*) AS c
  FROM events GROUP BY 1, 2
), r AS (
  SELECT etype, c, row_number() OVER (PARTITION BY etype ORDER BY c) AS rn
  FROM uc
), s AS (
  SELECT etype, count(*) AS n, sum(c) AS tot, sum(rn*c) AS rs
  FROM r GROUP BY 1
)
SELECT etype, CAST(n AS BIGINT) AS n_users, CAST(tot AS BIGINT) AS total,
       CAST(2*rs - (n+1)*tot AS BIGINT) AS gini_num,
       CAST(2*rs - (n+1)*tot AS DOUBLE) / CAST(n*tot AS DOUBLE) AS gini
FROM s ORDER BY 1
"""


def doc_pattern_counts(pat_s: str, pat_e: str, pat_ta: str) -> str:
    """Regex-extraction mirror: regexp_extract_all is the same RE2
    leftmost non-overlapping scan as Arrow's count_substring_regex."""
    return f"""
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(length(regexp_extract_all(text, '{pat_s}'))) AS BIGINT) AS s_words,
       CAST(sum(length(regexp_extract_all(text, '{pat_e}'))) AS BIGINT) AS e_ends,
       CAST(sum(length(regexp_extract_all(text, '{pat_ta}'))) AS BIGINT) AS ta_hits,
       CAST(sum(CASE WHEN length(regexp_extract_all(text, '{pat_s}')) > 0
                     THEN 1 ELSE 0 END) AS BIGINT) AS docs_with_s
FROM documents GROUP BY 1 ORDER BY 1
"""


def weighted_sample_docs(k: int) -> str:
    """Efraimidis-Spirakis mirror: the identical md5-u32 uniform,
    -ln((h+1)/2^32)/w race key (same libm ln, same IEEE op order),
    smallest-k with (race, doc_id) tie order."""
    return f"""
WITH r AS (
  SELECT doc_id, n_chars,
         -ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                   AS UBIGINT) + 1) / 4294967296.0)
           / CAST(n_chars AS DOUBLE) AS race_key
  FROM documents
), s AS (
  SELECT * FROM r ORDER BY race_key, doc_id LIMIT {int(k)}
)
SELECT doc_id, n_chars, race_key FROM s ORDER BY doc_id
"""


def embedding_covariance(quant: int) -> str:
    """Covariance mirror: per-component half-away quantization to
    BIGINT, pairwise HUGEINT sums over a vec_id self-join, the single
    IEEE division tail."""
    return f"""
WITH q AS (
  SELECT vec_id, i,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {int(quant)}) AS BIGINT) AS qv
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
), s AS (
  SELECT i, sum(qv) AS si FROM q GROUP BY 1
), n AS (
  SELECT count(*) AS n FROM embeddings
), p AS (
  SELECT a.i AS di, b.i AS dj, sum(a.qv * b.qv) AS sij
  FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
  GROUP BY 1, 2
)
SELECT CAST(p.di AS BIGINT) AS dim_i, CAST(p.dj AS BIGINT) AS dim_j,
       CAST(n.n AS BIGINT) AS n, CAST(p.sij AS BIGINT) AS s_ij,
       CAST(n.n * p.sij - sa.si * sb.si AS BIGINT) AS cov_num,
       CAST(n.n * p.sij - sa.si * sb.si AS DOUBLE)
         / CAST(n.n * n.n AS DOUBLE) AS cov
FROM p CROSS JOIN n
JOIN s sa ON sa.i = p.di
JOIN s sb ON sb.i = p.dj
ORDER BY 1, 2
"""


def embedding_pca_top(quant: int, scale: int, iters: int) -> str:
    """PCA power-iteration mirror: the embedding_covariance numerator
    CTE symmetrized, then the identical fixed-point recurrence
    unrolled in HUGEINT — matvec as join-aggregate, renormalization
    via the explicit signed floor-division CASE (Python's // on a
    negative numerator = -(((-w)*S + m - 1) // m) on the positive
    operands both engines floor identically)."""
    s = int(scale)
    head = f"""
WITH q AS (
  SELECT vec_id, i,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {int(quant)}) AS BIGINT) AS qv
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
), sm AS (
  SELECT i, sum(qv) AS si FROM q GROUP BY 1
), nn AS (
  SELECT count(*) AS n FROM embeddings
), p AS (
  SELECT a.i AS di, b.i AS dj, sum(a.qv * b.qv) AS sij
  FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
  GROUP BY 1, 2
), cov AS (
  SELECT p.di AS i, p.dj AS j,
         CAST(nn.n * p.sij - sa.si * sb.si AS HUGEINT) AS num
  FROM p CROSS JOIN nn
  JOIN sm sa ON sa.i = p.di JOIN sm sb ON sb.i = p.dj
), sym AS MATERIALIZED (
  SELECT i, j, num FROM cov
  UNION ALL
  SELECT j, i, num FROM cov WHERE i < j
), v0 AS (
  SELECT DISTINCT i, CAST({s} AS HUGEINT) AS v FROM sym
)"""
    steps = []
    for t in range(1, int(iters) + 1):
        steps.append(
            f""", w{t} AS MATERIALIZED (
  SELECT sym.i AS i, sum(sym.num * v.v) AS w
  FROM sym JOIN v{t-1} v ON v.i = sym.j GROUP BY 1
), m{t} AS (
  SELECT max(abs(w)) AS m FROM w{t}
), v{t} AS MATERIALIZED (
  SELECT i, CASE WHEN w >= 0 THEN (w * {s}) // m
                 ELSE -(((-w) * {s} + m - 1) // m) END AS v
  FROM w{t} CROSS JOIN m{t}
)"""
        )
    return (
        head
        + "".join(steps)
        + f"""
SELECT CAST(i AS BIGINT) AS dim, CAST(v AS BIGINT) AS v_fp,
       CAST(v AS DOUBLE) / {float(s)} AS loading
FROM v{int(iters)} ORDER BY 1
"""
    )


def user_entropy() -> str:
    """Per-user entropy mirror: the etype_day_entropy quantization
    (bare round() = half-away, ln = the same libm) grouped by user."""
    return """
WITH c AS (
  SELECT user_id, event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), d AS (
  SELECT user_id, sum(n) AS t,
         sum(n * CAST(round(1000*ln(CAST(n AS DOUBLE))) AS BIGINT)) AS s
  FROM c GROUP BY 1
)
SELECT CAST(user_id AS BIGINT) AS user_id, CAST(t AS BIGINT) AS n_events,
       CAST(t * CAST(round(1000*ln(CAST(t AS DOUBLE))) AS BIGINT) - s AS BIGINT)
         AS num,
       CAST(t * CAST(round(1000*ln(CAST(t AS DOUBLE))) AS BIGINT) - s AS DOUBLE)
         / CAST(t AS DOUBLE) AS entropy_mnat
FROM d ORDER BY 1
"""


def doc_redaction(pat: str, token: str, rate_num: int, rate_den: int) -> str:
    """Redaction mirror: the same RE2 pattern through DuckDB's
    regexp_replace(..., 'g') / regexp_extract_all (RE2 on both sides,
    identical leftmost non-overlapping semantics) over the identical
    md5-prefix deterministic sample."""
    thresh = (rate_num << 32) // rate_den
    return f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{pat}')) AS BIGINT) AS n_redacted,
       CAST(length(text) AS BIGINT) AS len_before,
       CAST(length(regexp_replace(text, '{pat}', '{token}', 'g')) AS BIGINT)
         AS len_after,
       regexp_replace(text, '{pat}', '{token}', 'g') AS text_redacted
FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
      < {thresh}
ORDER BY doc_id
"""


def _hex_best_sql(w: int, h: int, keys: str) -> str:
    """Shared hex-assignment SQL: expects a CTE `pt` with columns
    ({keys}, x, y); yields `best` with ({keys}, i, j) — the identical
    4-candidate nearest-center argmin (Python floor division on signed
    operands spelled as the explicit CASE since DuckDB // truncates),
    exact int64 squared distances, (d2, i, j) tie-break."""
    w, h = int(w), int(h)
    return f"""
, c1 AS (
  SELECT {keys}, x, y,
         (CASE WHEN y >= 0 THEN y // {h}
               ELSE -(((-y) + {h} - 1) // {h}) END) + dj.dj AS j
  FROM pt CROSS JOIN (VALUES (0), (1)) AS dj(dj)
), c2 AS (
  SELECT {keys}, x, y, j,
         (CASE WHEN x - {w}*j >= 0 THEN (x - {w}*j) // {2 * w}
               ELSE -(((-(x - {w}*j)) + {2 * w} - 1) // {2 * w}) END)
           + di.di AS i
  FROM c1 CROSS JOIN (VALUES (0), (1)) AS di(di)
), best AS (
  SELECT {keys}, i, j
  FROM c2
  QUALIFY row_number() OVER (
    PARTITION BY {keys}
    ORDER BY (x - ({2 * w}*i + {w}*j))*(x - ({2 * w}*i + {w}*j))
             + (y - {h}*j)*(y - {h}*j), i, j
  ) = 1
)"""


def snapshot_count_by_hexcell(w: int, h: int) -> str:
    """Hex-grid mirror over the T_MID snapshot (see _hex_best_sql)."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pt AS (
  SELECT osm_id, lon_e7 AS x, lat_e7 AS y FROM snap
)"""
        + _hex_best_sql(w, h, "osm_id")
        + """
SELECT CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j,
       CAST(count(*) AS BIGINT) AS n_snapshots
FROM best GROUP BY 1, 2 ORDER BY 1, 2
"""
    )



def nearest_road_distance(class_mod: int) -> str:
    """Nearest-segment mirror: the identical point-to-segment IEEE
    expression tree (exact int64 diffs cast to DOUBLE, then the same
    mul/add/div shapes per projection branch), the same incident-
    segment exclusion, the same (d2, seg) argmin."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, seg AS (
  SELECT a.osm_id AS seg, a.lon_e7 AS ax, a.lat_e7 AS ay,
         b.lon_e7 AS bx, b.lat_e7 AS by2
  FROM snap a JOIN snap b ON b.osm_id = a.osm_id + 1
  WHERE a.osm_id % {int(class_mod)} = 0
), pt AS (
  SELECT osm_id, lon_e7 AS px, lat_e7 AS py FROM snap
), c AS (
  SELECT pt.osm_id, seg.seg,
         CAST(pt.px - seg.ax AS DOUBLE) AS dxpa,
         CAST(pt.py - seg.ay AS DOUBLE) AS dypa,
         CAST(pt.px - seg.bx AS DOUBLE) AS dxpb,
         CAST(pt.py - seg.by2 AS DOUBLE) AS dypb,
         CAST(seg.bx - seg.ax AS DOUBLE) AS dxba,
         CAST(seg.by2 - seg.ay AS DOUBLE) AS dyba
  FROM pt JOIN seg ON seg.seg <> pt.osm_id AND seg.seg <> pt.osm_id - 1
), s AS (
  SELECT osm_id, seg,
         dxpa*dxba + dypa*dyba AS dot,
         dxba*dxba + dyba*dyba AS len2,
         dxpa*dxpa + dypa*dypa AS dpa2,
         dxpb*dxpb + dypb*dypb AS dpb2,
         dxpa, dypa, dxba, dyba
  FROM c
), dd AS (
  SELECT osm_id, seg,
         CASE WHEN dot <= 0 THEN dpa2
              WHEN dot >= len2 THEN dpb2
              ELSE (dxpa - (dot/len2)*dxba)*(dxpa - (dot/len2)*dxba)
                 + (dypa - (dot/len2)*dyba)*(dypa - (dot/len2)*dyba) END AS d2
  FROM s
)
SELECT osm_id, seg AS nearest_seg, d2, sqrt(d2) AS dist_deg7
FROM dd
QUALIFY row_number() OVER (PARTITION BY osm_id ORDER BY d2, seg) = 1
ORDER BY osm_id
"""
    )


def hexcell_weekly(w: int, h: int) -> str:
    """Space-time-cube mirror: the shared hex assignment keyed by
    (ts_q, osm_id) over the weekly snapshot CTE."""
    from .pipelines import SNAP_WEEKLY

    cte = _snap_cte().replace("TS_LIST", _ts_list(SNAP_WEEKLY))
    return (
        DERIVE
        + cte
        + """
, pt AS (
  SELECT ts_q, osm_id, lon_e7 AS x, lat_e7 AS y FROM snap
)"""
        + _hex_best_sql(w, h, "ts_q, osm_id")
        + """
SELECT CAST(ts_q AS BIGINT) AS ts_q,
       CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j,
       CAST(count(*) AS BIGINT) AS n
FROM best GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""
    )


def hex_hotspot_gi(w: int, h: int, gi_w: int) -> str:
    """Gi* mirror: version counts per hex cell, 6-offset neighbor
    left-join, exact HUGEINT sufficient statistics, the identical
    four-single-IEEE-op float tail (mul, div, sqrt, div)."""
    gw = int(gi_w)
    return (
        DERIVE
        + """
, pt AS (
  SELECT row_number() OVER (ORDER BY osm_id, v) AS rid,
         lon_e7 AS x, lat_e7 AS y
  FROM d
)"""
        + _hex_best_sql(w, h, "rid")
        + f"""
, c AS (
  SELECT i, j, count(*) AS n FROM best GROUP BY 1, 2
), st AS (
  SELECT count(*) AS nc, sum(n) AS s1, sum(n*n) AS s2 FROM c
), nbr AS (
  SELECT a.i, a.j, a.n, a.n + coalesce(sum(b.n), 0) AS nbr_sum
  FROM c a
  CROSS JOIN (VALUES (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    AS o(di, dj)
  LEFT JOIN c b ON b.i = a.i + o.di AND b.j = a.j + o.dj
  GROUP BY 1, 2, 3
)
SELECT CAST(nbr.i AS BIGINT) AS hex_i, CAST(nbr.j AS BIGINT) AS hex_j,
       CAST(nbr.n AS BIGINT) AS n_versions,
       CAST(nbr.nbr_sum AS BIGINT) AS nbr_sum,
       CAST(st.nc * nbr.nbr_sum - {gw} * st.s1 AS BIGINT) AS gi_num,
       CAST(st.nc * nbr.nbr_sum - {gw} * st.s1 AS DOUBLE)
         / sqrt(CAST({gw} * (st.nc - {gw}) AS DOUBLE)
                * CAST(st.nc * st.s2 - st.s1 * st.s1 AS DOUBLE)
                / CAST(st.nc - 1 AS DOUBLE)) AS gi_z
FROM nbr CROSS JOIN st
ORDER BY 1, 2
"""
    )


def idw_snapshot_field(
    w: int, h: int, wscale: int, w0: int, r2: int, rlim: int
) -> str:
    """IDW mirror: hex centers from the version points' own cells,
    the identical quantized weight (one IEEE division of exact
    operands + half-away round), exact integer weight sums, one final
    IEEE division."""
    w, h = int(w), int(h)
    return (
        DERIVE
        + """
, pt AS (
  SELECT row_number() OVER (ORDER BY osm_id, v) AS rid,
         v AS val, lon_e7 AS x, lat_e7 AS y
  FROM d
)"""
        + _hex_best_sql(w, h, "rid")
        + f"""
, cen AS (
  SELECT DISTINCT i, j FROM best
), boxed AS MATERIALIZED (
  SELECT cen.i, cen.j, pt.val,
         pt.x - ({2 * w}*cen.i + {w}*cen.j) AS dx,
         pt.y - {h}*cen.j AS dy
  FROM pt CROSS JOIN cen
  WHERE abs(pt.x - ({2 * w}*cen.i + {w}*cen.j)) <= {int(rlim)}
    AND abs(pt.y - {h}*cen.j) <= {int(rlim)}
), pairs AS (
  SELECT i, j, val, dx*dx + dy*dy AS d2 FROM boxed
), wts AS (
  SELECT i, j, val,
         CASE WHEN d2 = 0 THEN CAST({int(w0)} AS BIGINT)
              ELSE CAST(round(CAST({int(wscale)} AS DOUBLE)
                              / CAST(d2 AS DOUBLE)) AS BIGINT) END AS w
  FROM pairs WHERE d2 <= {int(r2)}
)
SELECT CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j,
       CAST(count(*) AS BIGINT) AS n_pts,
       CAST(sum(w) AS BIGINT) AS sw,
       CAST(sum(w * val) AS BIGINT) AS swx,
       CAST(sum(w * val) AS DOUBLE) / CAST(sum(w) AS DOUBLE) AS idw_v
FROM wts WHERE w > 0 GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def road_buffer_count(class_mod: int, r2: float) -> str:
    """Buffer-count mirror: the nearest_road_distance IEEE distance
    tree, <= R2 test, left-join zerofill per segment."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, seg AS (
  SELECT a.osm_id AS seg, a.lon_e7 AS ax, a.lat_e7 AS ay,
         b.lon_e7 AS bx, b.lat_e7 AS by2
  FROM snap a JOIN snap b ON b.osm_id = a.osm_id + 1
  WHERE a.osm_id % {int(class_mod)} = 0
), pt AS (
  SELECT osm_id, lon_e7 AS px, lat_e7 AS py FROM snap
), c AS (
  SELECT seg.seg,
         CAST(pt.px - seg.ax AS DOUBLE) AS dxpa,
         CAST(pt.py - seg.ay AS DOUBLE) AS dypa,
         CAST(pt.px - seg.bx AS DOUBLE) AS dxpb,
         CAST(pt.py - seg.by2 AS DOUBLE) AS dypb,
         CAST(seg.bx - seg.ax AS DOUBLE) AS dxba,
         CAST(seg.by2 - seg.ay AS DOUBLE) AS dyba
  FROM pt CROSS JOIN seg
), s AS (
  SELECT seg,
         dxpa*dxba + dypa*dyba AS dot,
         dxba*dxba + dyba*dyba AS len2,
         dxpa*dxpa + dypa*dypa AS dpa2,
         dxpb*dxpb + dypb*dypb AS dpb2,
         dxpa, dypa, dxba, dyba
  FROM c
), dd AS (
  SELECT seg,
         CASE WHEN dot <= 0 THEN dpa2
              WHEN dot >= len2 THEN dpb2
              ELSE (dxpa - (dot/len2)*dxba)*(dxpa - (dot/len2)*dxba)
                 + (dypa - (dot/len2)*dyba)*(dypa - (dot/len2)*dyba) END AS d2
  FROM s
), cnt AS (
  SELECT seg, count(*) AS n FROM dd WHERE d2 <= {float(r2)!r} GROUP BY 1
)
SELECT CAST(seg.seg AS BIGINT) AS seg,
       CAST(coalesce(cnt.n, 0) AS BIGINT) AS n_within
FROM seg LEFT JOIN cnt ON cnt.seg = seg.seg
ORDER BY 1
"""
    )


def hex_emerging_hotspots(w: int, h: int) -> str:
    """Emerging-hotspot mirror: the weekly hex cube zerofilled via a
    cell x week cross join, Mann-Kendall S as an integer sign-sum over
    the ordered week pairs."""
    from .pipelines import SNAP_WEEKLY

    cte = _snap_cte().replace("TS_LIST", _ts_list(SNAP_WEEKLY))
    ts_vals = ", ".join(f"({int(t)})" for t in SNAP_WEEKLY)
    return (
        DERIVE
        + cte
        + """
, pt AS (
  SELECT ts_q, osm_id, lon_e7 AS x, lat_e7 AS y FROM snap
)"""
        + _hex_best_sql(w, h, "ts_q, osm_id")
        + f"""
, cube AS (
  SELECT ts_q, i, j, count(*) AS n FROM best GROUP BY 1, 2, 3
), cells AS (
  SELECT DISTINCT i, j FROM cube
), grid AS (
  SELECT cells.i, cells.j, wk.t AS ts_q, coalesce(cube.n, 0) AS n
  FROM cells CROSS JOIN (VALUES {ts_vals}) AS wk(t)
  LEFT JOIN cube ON cube.i = cells.i AND cube.j = cells.j AND cube.ts_q = wk.t
), mk AS (
  SELECT a.i, a.j, sum(sign(b.n - a.n)) AS s
  FROM grid a JOIN grid b ON a.i = b.i AND a.j = b.j AND a.ts_q < b.ts_q
  GROUP BY 1, 2
), tot AS (
  SELECT i, j, sum(n) AS n_total FROM grid GROUP BY 1, 2
)
SELECT CAST(mk.i AS BIGINT) AS hex_i, CAST(mk.j AS BIGINT) AS hex_j,
       CAST(tot.n_total AS BIGINT) AS n_total,
       CAST(mk.s AS BIGINT) AS mk_s,
       CASE WHEN mk.s > 0 THEN 'increasing'
            WHEN mk.s < 0 THEN 'decreasing' ELSE 'flat' END AS trend
FROM mk JOIN tot ON tot.i = mk.i AND tot.j = mk.j
ORDER BY 1, 2
"""
    )


def zonal_raster_stats() -> str:
    """Zonal-statistics mirror: the PIP membership condition per
    region (the snapshot_pip_regions edge mirror), the raster band
    formula, integer count/sum, one IEEE division for the mean."""

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    nx = 1 << RASTER_ZOOM
    ny = 1 << (RASTER_ZOOM - 1)
    rv = (
        f"(CAST(least((lat_e7 + 900000000) * {ny} // 1800000000, {ny - 1}) * {nx}"
        f" + ((lon_e7 + 1800000000) % 3600000000) * {nx} // 3600000000 AS BIGINT)"
        f" * {RASTER_HASH}) % {RASTER_MOD}"
    )
    parts = [
        f"""SELECT '{rid}' AS region_id,
       CAST(count(*) FILTER ({_convex_condition(ring)}) AS BIGINT) AS n_points,
       CAST(coalesce(sum({rv}) FILTER ({_convex_condition(ring)}), 0) AS BIGINT)
         AS sum_raster
FROM snap"""
        for rid, ring in sorted(REGIONS.items())
    ]
    return (
        DERIVE
        + cte
        + "\n, z AS ("
        + " UNION ALL ".join(parts)
        + """)
SELECT region_id, n_points, sum_raster,
       CASE WHEN n_points > 0
            THEN CAST(sum_raster AS DOUBLE) / CAST(n_points AS DOUBLE)
            ELSE 0.0 END AS mean_raster
FROM z ORDER BY region_id
"""
    )


def cell_flows(w: int, h: int) -> str:
    """OD-flow mirror: per-version hex assignment (keyed osm_id, v over
    the visible rows), lag window ordered (ts_us, v) within each
    entity — the _sorted_versions order — cell-change filter, grouped
    counts."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT osm_id, v, ts_us, lon_e7 AS x, lat_e7 AS y FROM d WHERE visible
)"""
        + _hex_best_sql(w, h, "osm_id, v")
        + """
, ordered AS (
  SELECT b.i, b.j,
         lag(b.i) OVER (PARTITION BY b.osm_id ORDER BY p.ts_us, b.v) AS pi,
         lag(b.j) OVER (PARTITION BY b.osm_id ORDER BY p.ts_us, b.v) AS pj
  FROM best b JOIN pt p ON p.osm_id = b.osm_id AND p.v = b.v
)
SELECT CAST(pi AS BIGINT) AS from_i, CAST(pj AS BIGINT) AS from_j,
       CAST(i AS BIGINT) AS to_i, CAST(j AS BIGINT) AS to_j,
       CAST(count(*) AS BIGINT) AS n_moves
FROM ordered
WHERE pi IS NOT NULL AND (pi <> i OR pj <> j)
GROUP BY 1, 2, 3, 4 ORDER BY 1, 2, 3, 4
"""
    )


def contributor_territory(w: int, h: int) -> str:
    """Territory mirror: per-(uid, cell) visible-edit counts, modal
    cell via row_number ordered (n DESC, i, j), totals joined back."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT osm_id, v, uid, lon_e7 AS x, lat_e7 AS y FROM d WHERE visible
)"""
        + _hex_best_sql(w, h, "osm_id, v, uid")
        + """
, c AS (
  SELECT uid, i, j, count(*) AS n FROM best GROUP BY 1, 2, 3
), top AS (
  SELECT uid, i, j, n FROM c
  QUALIFY row_number() OVER (PARTITION BY uid ORDER BY n DESC, i, j) = 1
), tot AS (
  SELECT uid, sum(n) AS n_total FROM c GROUP BY 1
)
SELECT CAST(top.uid AS BIGINT) AS uid,
       CAST(top.i AS BIGINT) AS home_i, CAST(top.j AS BIGINT) AS home_j,
       CAST(top.n AS BIGINT) AS n_home,
       CAST(tot.n_total AS BIGINT) AS n_total
FROM top JOIN tot ON tot.uid = top.uid
ORDER BY 1
"""
    )


def etype_seasonal_profile(t0: int, day_us: int, half: int) -> str:
    """Seasonal-profile mirror: zerofilled global day grid, exact
    integer window sum (frame ROWS +-half, full windows only),
    integer-scaled detrend, one IEEE division."""
    k = 2 * int(half) + 1
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), b AS (
  SELECT min(day) AS d0, max(day) AS d1 FROM c
), grid AS (
  SELECT e.etype, d.day, coalesce(c.n, 0) AS n
  FROM (SELECT DISTINCT etype FROM c) e
  CROSS JOIN (SELECT unnest(range(b.d0, b.d1 + 1)) AS day FROM b) d
  LEFT JOIN c ON c.etype = e.etype AND c.day = d.day
), w AS (
  SELECT etype, day, n,
         sum(n) OVER (PARTITION BY etype ORDER BY day
                      ROWS BETWEEN {int(half)} PRECEDING
                      AND {int(half)} FOLLOWING) AS trend,
         count(*) OVER (PARTITION BY etype ORDER BY day
                        ROWS BETWEEN {int(half)} PRECEDING
                        AND {int(half)} FOLLOWING) AS wn
  FROM grid
), det AS (
  SELECT etype, day % 7 AS dow, {k}*n - trend AS det
  FROM w WHERE wn = {k}
)
SELECT etype, CAST(dow AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS n_days,
       CAST(sum(det) AS BIGINT) AS sum_det,
       CAST(sum(det) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS seasonal_x7
FROM det GROUP BY 1, 2 ORDER BY 1, 2
"""


def doc_join_collocates(pat: str) -> str:
    """Collocate mirror: RE2 first-match capture group 1 per doc,
    empty string = no match (DuckDB convention), grouped counts."""
    return f"""
WITH x AS (
  SELECT regexp_extract(text, '{pat}', 1) AS word FROM documents
)
SELECT word, CAST(count(*) AS BIGINT) AS n_docs
FROM x WHERE word <> '' GROUP BY 1 ORDER BY 1
"""


def hex_morans_i(w: int, h: int) -> str:
    """Moran's-I mirror: version counts per hex cell, occupied
    6-neighbor self-join, N-scaled integer deviations in HUGEINT,
    the three-IEEE-op tail (N/W) * (num/den)."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT row_number() OVER (ORDER BY osm_id, v) AS rid,
         lon_e7 AS x, lat_e7 AS y
  FROM d
)"""
        + _hex_best_sql(w, h, "rid")
        + """
, c AS (
  SELECT i, j, count(*) AS n FROM best GROUP BY 1, 2
), st AS (
  SELECT count(*) AS nc, sum(n) AS s1 FROM c
), pr AS (
  SELECT sum((st.nc * a.n - st.s1) * (st.nc * b.n - st.s1)) AS num,
         count(*) AS w_pairs
  FROM c a
  CROSS JOIN (VALUES (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    AS o(di, dj)
  JOIN c b ON b.i = a.i + o.di AND b.j = a.j + o.dj
  CROSS JOIN st
), dn AS (
  SELECT sum((st.nc * c.n - st.s1) * (st.nc * c.n - st.s1)) AS den
  FROM c CROSS JOIN st
)
SELECT CAST(st.nc AS BIGINT) AS n_cells,
       CAST(pr.w_pairs AS BIGINT) AS w_pairs,
       CAST(pr.num AS BIGINT) AS num,
       CAST(dn.den AS BIGINT) AS den,
       (CAST(st.nc AS DOUBLE) / CAST(pr.w_pairs AS DOUBLE))
         * (CAST(pr.num AS DOUBLE) / CAST(dn.den AS DOUBLE)) AS morans_i
FROM st CROSS JOIN pr CROSS JOIN dn
"""
    )


def way_chain_lengths() -> str:
    """Islands mirror: the classic id - row_number() island key over
    the visible T_MID ids, grouped into a length histogram."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, ids AS (
  SELECT osm_id, osm_id - row_number() OVER (ORDER BY osm_id) AS isl
  FROM snap
), runs AS (
  SELECT count(*) AS length FROM ids GROUP BY isl
)
SELECT CAST(length AS BIGINT) AS length,
       CAST(count(*) AS BIGINT) AS n_chains
FROM runs GROUP BY 1 ORDER BY 1
"""
    )


def way_compactness() -> str:
    """Compactness mirror: the way_areas excess expression (unfloored)
    and three way_lengths equirect edges, composed with the literal
    ((4*pi)*A)/(P*P) tail; degenerate perimeter -> 0."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))

    def dist(p, q):
        return f"""(6371000.0 * sqrt(
      (radians({q}.lon_e7/10000000.0 - {p}.lon_e7/10000000.0)
         * cos(radians(({q}.lat_e7/10000000.0 + {p}.lat_e7/10000000.0) / 2)))
      * (radians({q}.lon_e7/10000000.0 - {p}.lon_e7/10000000.0)
         * cos(radians(({q}.lat_e7/10000000.0 + {p}.lat_e7/10000000.0) / 2)))
      + radians({q}.lat_e7/10000000.0 - {p}.lat_e7/10000000.0)
      * radians({q}.lat_e7/10000000.0 - {p}.lat_e7/10000000.0)
    ))"""

    area = """abs((
        (radians(c.lon_e7/10000000.0) - radians(a.lon_e7/10000000.0))
          * sin(radians(b.lat_e7/10000000.0))
      + (radians(a.lon_e7/10000000.0) - radians(b.lon_e7/10000000.0))
          * sin(radians(c.lat_e7/10000000.0))
      + (radians(b.lon_e7/10000000.0) - radians(c.lon_e7/10000000.0))
          * sin(radians(a.lat_e7/10000000.0))
    ) * 6371000.0 * 6371000.0 / 2)"""
    perim = f"(({dist('a','b')} + {dist('b','c')}) + {dist('c','a')})"
    return (
        DERIVE
        + cte
        + f"""
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
, tri AS (
  SELECT a.osm_id AS way_id, {area} AS area_f, {perim} AS perim_f
  FROM pos a
  JOIN pos b ON b.osm_id = a.osm_id + 1
  JOIN pos c ON c.osm_id = a.osm_id + 2
)
SELECT way_id,
       CAST(floor(area_f) AS BIGINT) AS area_m2,
       CAST(floor(perim_f * 1000000.0) AS BIGINT) AS perim_um,
       CASE WHEN perim_f = 0 THEN 0.0
            ELSE ((4.0 * pi()) * area_f) / (perim_f * perim_f) END AS compactness
FROM tri ORDER BY way_id
"""
    )


def source_drift_psi(bin_w: int) -> str:
    """PSI mirror: (source, bin) counts, pairwise inner join on bin,
    the identical milli-nat quantization inside exact integer sums,
    one IEEE division by A*B."""
    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    return f"""
WITH c AS (
  SELECT source, n_chars // {int(bin_w)} AS bin, count(*) AS n
  FROM documents GROUP BY 1, 2
), t AS (
  SELECT source, sum(n) AS tot FROM c GROUP BY 1
), p AS (
  SELECT a.source AS sa, b.source AS sb, ta.tot AS ta, tb.tot AS tb,
         a.n AS an, b.n AS bn
  FROM c a JOIN c b ON a.bin = b.bin AND a.source < b.source
  JOIN t ta ON ta.source = a.source
  JOIN t tb ON tb.source = b.source
)
SELECT sa AS source_a, sb AS source_b,
       CAST(count(*) AS BIGINT) AS n_bins_used,
       CAST(sum((an*tb - bn*ta)
                * ({q.format(x='an*tb')} - {q.format(x='bn*ta')})) AS BIGINT)
         AS psi_num,
       CAST(sum((an*tb - bn*ta)
                * ({q.format(x='an*tb')} - {q.format(x='bn*ta')})) AS DOUBLE)
         / CAST(ta * tb AS DOUBLE) AS psi_mnat
FROM p GROUP BY 1, 2, ta, tb ORDER BY 1, 2
"""


def contrib_by_hexcell(w: int, h: int) -> str:
    """Hex-keyed contribution mirror: the contribution CTE's
    deletion-uses-before-geometry location rule, the shared hex
    assignment keyed (osm_id, v), grouped flag sums."""
    return (
        DERIVE
        + _contrib_cte()
        + """
, pt AS (
  SELECT osm_id, v,
         CASE WHEN is_deletion THEN p_lon ELSE lon_e7 END AS x,
         CASE WHEN is_deletion THEN p_lat ELSE lat_e7 END AS y,
         is_creation, is_deletion
  FROM contrib
)"""
        + _hex_best_sql(w, h, "osm_id, v")
        + """
, lab AS (
  SELECT b.i, b.j, p.is_creation, p.is_deletion
  FROM best b JOIN pt p ON p.osm_id = b.osm_id AND p.v = b.v
)
SELECT CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j,
       CAST(count(*) AS BIGINT) AS n_contribs,
       CAST(count(*) FILTER (is_creation) AS BIGINT) AS n_creations,
       CAST(count(*) FILTER (is_deletion) AS BIGINT) AS n_deletions
FROM lab GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def hexcell_churn(w: int, h: int) -> str:
    """Churn mirror: occupied-cell sets at the first and last weekly
    snapshots via the shared hex CTE, full-outer set compare."""
    from .pipelines import SNAP_WEEKLY

    cte = _snap_cte().replace(
        "TS_LIST", _ts_list([SNAP_WEEKLY[1], SNAP_WEEKLY[-1]])
    )
    return (
        DERIVE
        + cte
        + """
, pt AS (
  SELECT ts_q, osm_id, lon_e7 AS x, lat_e7 AS y FROM snap
)"""
        + _hex_best_sql(w, h, "ts_q, osm_id")
        + f"""
, occ AS (
  SELECT DISTINCT ts_q, i, j FROM best
), a AS (SELECT i, j FROM occ WHERE ts_q = {int(SNAP_WEEKLY[1])}),
  b AS (SELECT i, j FROM occ WHERE ts_q = {int(SNAP_WEEKLY[-1])}),
  f AS (
  SELECT (a.i IS NOT NULL) AS active_w1, (b.i IS NOT NULL) AS active_w5
  FROM a FULL OUTER JOIN b ON a.i = b.i AND a.j = b.j
)
SELECT active_w1, active_w5, CAST(count(*) AS BIGINT) AS n_cells
FROM f GROUP BY 1, 2 ORDER BY 1 DESC, 2 DESC
"""
    )


def hexcell_freshness(w: int, h: int) -> str:
    """Freshness mirror: age = T_MID - snapshot version ts per live
    entity, summed per hex cell, one IEEE division."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pt AS (
  SELECT osm_id, ts_us, lon_e7 AS x, lat_e7 AS y FROM snap
)"""
        + _hex_best_sql(w, h, "osm_id, ts_us")
        + f"""
, ag AS (
  SELECT b.i, b.j, {int(T_MID)} - p.ts_us AS age
  FROM best b JOIN pt p ON p.osm_id = b.osm_id AND p.ts_us = b.ts_us
)
SELECT CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j,
       CAST(count(*) AS BIGINT) AS n_entities,
       CAST(sum(age) AS BIGINT) AS sum_age_us,
       CAST(sum(age) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS mean_age_us
FROM ag GROUP BY 1, 2 ORDER BY 1, 2
"""
    )


def funnel3_users(s1: str, s2: str, s3: str) -> str:
    """Funnel mirror: earliest-completion stage times via chained
    min-after filters, stage population counts."""
    return f"""
WITH c1 AS (
  SELECT user_id, min(epoch_us(ts)) AS t1 FROM events
  WHERE event_type = '{s1}' GROUP BY 1
), c2 AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS t2
  FROM events e JOIN c1 ON c1.user_id = e.user_id
  WHERE e.event_type = '{s2}' AND epoch_us(e.ts) > c1.t1 GROUP BY 1
), c3 AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS t3
  FROM events e JOIN c2 ON c2.user_id = e.user_id
  WHERE e.event_type = '{s3}' AND epoch_us(e.ts) > c2.t2 GROUP BY 1
)
SELECT CAST((SELECT count(*) FROM c1) AS BIGINT) AS n_stage1,
       CAST((SELECT count(*) FROM c2) AS BIGINT) AS n_stage2,
       CAST((SELECT count(*) FROM c3) AS BIGINT) AS n_stage3
"""


def ab_test_value() -> str:
    """Welch-t mirror: exact integer cents sufficient statistics per
    (etype, uid-parity cohort), the identical IEEE op sequence."""
    return """
WITH s AS (
  SELECT event_type AS etype, user_id % 2 AS grp,
         count(*) AS n,
         sum(CAST(round(value*100) AS BIGINT)) AS s1,
         sum(CAST(round(value*100) AS BIGINT) * CAST(round(value*100) AS BIGINT))
           AS s2
  FROM events GROUP BY 1, 2
), w AS (
  SELECT a.etype,
         a.n AS na, b.n AS nb, a.s1 AS sa, b.s1 AS sb,
         a.n * a.s2 - a.s1 * a.s1 AS vna,
         b.n * b.s2 - b.s1 * b.s1 AS vnb
  FROM s a JOIN s b ON a.etype = b.etype AND a.grp = 0 AND b.grp = 1
  WHERE a.n >= 2 AND b.n >= 2
)
SELECT etype,
       CAST(na AS BIGINT) AS n_even, CAST(nb AS BIGINT) AS n_odd,
       CAST(sa AS BIGINT) AS sum_even_c, CAST(sb AS BIGINT) AS sum_odd_c,
       CAST(vna AS BIGINT) AS var_num_even, CAST(vnb AS BIGINT) AS var_num_odd,
       (CAST(sa AS DOUBLE) / CAST(na AS DOUBLE)
          - CAST(sb AS DOUBLE) / CAST(nb AS DOUBLE))
       / sqrt(CAST(vna AS DOUBLE)
                / (CAST(na AS DOUBLE) * CAST(na AS DOUBLE) * CAST(na - 1 AS DOUBLE))
            + CAST(vnb AS DOUBLE)
                / (CAST(nb AS DOUBLE) * CAST(nb AS DOUBLE) * CAST(nb - 1 AS DOUBLE)))
         AS t_stat
FROM w ORDER BY etype
"""


_COHORT_HIST = """
WITH h AS (
  SELECT event_type AS etype, user_id % 2 AS grp,
         CAST(round(value*100) AS BIGINT) AS v, count(*) AS n
  FROM events GROUP BY 1, 2, 3
), p AS (
  SELECT etype, v,
         coalesce(sum(n) FILTER (grp = 0), 0) AS a,
         coalesce(sum(n) FILTER (grp = 1), 0) AS b
  FROM h GROUP BY 1, 2
), t AS (
  SELECT etype, sum(a) AS ta, sum(b) AS tb FROM p GROUP BY 1
)"""


def ks_test_value() -> str:
    """KS mirror: merged-value-grid integer cumulative diffs, first
    max by (diff DESC, v ASC), one IEEE division."""
    return (
        _COHORT_HIST
        + """
, c AS (
  SELECT etype, v,
         sum(a) OVER (PARTITION BY etype ORDER BY v
                      ROWS UNBOUNDED PRECEDING) AS ca,
         sum(b) OVER (PARTITION BY etype ORDER BY v
                      ROWS UNBOUNDED PRECEDING) AS cb
  FROM p
), d AS (
  SELECT c.etype, c.v, abs(c.ca * t.tb - c.cb * t.ta) AS diff, t.ta, t.tb
  FROM c JOIN t ON t.etype = c.etype
  WHERE t.ta > 0 AND t.tb > 0
)
SELECT etype, CAST(ta AS BIGINT) AS n_even, CAST(tb AS BIGINT) AS n_odd,
       CAST(diff AS BIGINT) AS ks_num, CAST(v AS BIGINT) AS ks_at_v,
       CAST(diff AS DOUBLE) / CAST(ta * tb AS DOUBLE) AS ks_d
FROM d
QUALIFY row_number() OVER (PARTITION BY etype ORDER BY diff DESC, v) = 1
ORDER BY etype
"""
    )


def mannwhitney_value() -> str:
    """Mann-Whitney mirror: doubled tie-corrected U over the shared
    histogram, complement via 2AB - 2U."""
    return (
        _COHORT_HIST
        + """
, c AS (
  SELECT etype, v, a, b,
         sum(b) OVER (PARTITION BY etype ORDER BY v
                      ROWS UNBOUNDED PRECEDING) - b AS cumb_less
  FROM p
)
SELECT c.etype, CAST(t.ta AS BIGINT) AS n_even, CAST(t.tb AS BIGINT) AS n_odd,
       CAST(sum(c.a * (2*c.cumb_less + c.b)) AS BIGINT) AS u2_even,
       CAST(2*t.ta*t.tb - sum(c.a * (2*c.cumb_less + c.b)) AS BIGINT) AS u2_odd
FROM c JOIN t ON t.etype = c.etype
WHERE t.ta > 0 AND t.tb > 0
GROUP BY 1, t.ta, t.tb ORDER BY 1
"""
    )


def kaplan_meier(dwell_end: int, day_us: int) -> str:
    """KM mirror: the entity_lifespans derivation, at-risk via a
    descending window sum, the identical milli-nat log factors in an
    exact ordered-integer cumulative sum, exp(cum/1000)."""
    return (
        DERIVE
        + f"""
, r AS (
  SELECT osm_id, ts_us, visible,
         row_number() OVER (PARTITION BY osm_id
                            ORDER BY ts_us DESC, v DESC) AS rn,
         min(ts_us) OVER (PARTITION BY osm_id) AS t_first
  FROM d
), e AS (
  SELECT osm_id, t_first,
         CASE WHEN visible THEN 0 ELSE 1 END AS deleted,
         CASE WHEN visible THEN {int(dwell_end)} ELSE ts_us END AS t_end
  FROM r WHERE rn = 1
), h AS (
  SELECT (t_end - t_first) // {int(day_us)} AS t,
         count(*) AS m, coalesce(sum(deleted), 0) AS d
  FROM e GROUP BY 1
), rk AS (
  SELECT t, d,
         sum(m) OVER (ORDER BY t DESC ROWS UNBOUNDED PRECEDING) AS n
  FROM h
), dd AS (
  SELECT t, n, d,
         sum(CAST(round(1000*ln(CAST(n - d AS DOUBLE))) AS BIGINT)
             - CAST(round(1000*ln(CAST(n AS DOUBLE))) AS BIGINT))
           OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS cum
  FROM rk WHERE d > 0
)
SELECT CAST(t AS BIGINT) AS t_days, CAST(n AS BIGINT) AS n_at_risk,
       CAST(d AS BIGINT) AS n_deaths, CAST(cum AS BIGINT) AS cum_mnat,
       exp(CAST(cum AS DOUBLE) / 1000.0) AS survival
FROM dd ORDER BY 1
"""
    )


_OCTANT_CASE = """CASE
  WHEN dx >= 0 AND dy > 0 AND dx < dy THEN 0
  WHEN dx > 0 AND dy > 0 AND dx >= dy THEN 1
  WHEN dx > 0 AND dy <= 0 AND -dy < dx THEN 2
  WHEN dx > 0 AND dy < 0 AND -dy >= dx THEN 3
  WHEN dx <= 0 AND dy < 0 AND -dx < -dy THEN 4
  WHEN dx < 0 AND dy < 0 AND -dx >= -dy THEN 5
  WHEN dx < 0 AND dy >= 0 AND dy < -dx THEN 6
  ELSE 7 END"""


def turn_angle_histogram() -> str:
    """Turning-angle mirror: per-entity consecutive visible versions
    -> zero-length-free moves -> octants (the exact integer ladder)
    -> lag within entity move order -> (o - po) mod 8 histogram."""
    return (
        DERIVE
        + f"""
, vv AS (
  SELECT osm_id, ts_us, v, lon_e7, lat_e7 FROM d WHERE visible
), st AS (
  SELECT osm_id, ts_us, v,
         lon_e7 - lag(lon_e7) OVER w AS dx,
         lat_e7 - lag(lat_e7) OVER w AS dy
  FROM vv WINDOW w AS (PARTITION BY osm_id ORDER BY ts_us, v)
), mv AS (
  SELECT osm_id, ts_us, v, {_OCTANT_CASE} AS oc
  FROM st WHERE dx IS NOT NULL AND (dx <> 0 OR dy <> 0)
), tr AS (
  SELECT oc, lag(oc) OVER (PARTITION BY osm_id ORDER BY ts_us, v) AS po
  FROM mv
)
SELECT CAST(((oc - po) % 8 + 8) % 8 AS BIGINT) AS turn,
       CAST(count(*) AS BIGINT) AS n_turns
FROM tr WHERE po IS NOT NULL GROUP BY 1 ORDER BY 1
"""
    )


def theilsen_trend_by_type(t0: int, day_us: int) -> str:
    """Theil-Sen mirror: zerofilled global day grid, pairwise slopes,
    rank (cnt+1)//2 under the identical (ratio, dn, dd) order."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), b AS (
  SELECT min(day) AS d0, max(day) AS d1 FROM c
), grid AS (
  SELECT e.etype, d.day, coalesce(c.n, 0) AS n
  FROM (SELECT DISTINCT etype FROM c) e
  CROSS JOIN (SELECT unnest(range(b.d0, b.d1 + 1)) AS day FROM b) d
  LEFT JOIN c ON c.etype = e.etype AND c.day = d.day
), p AS (
  SELECT g1.etype, g2.n - g1.n AS dn, g2.day - g1.day AS dd
  FROM grid g1 JOIN grid g2
    ON g2.etype = g1.etype AND g2.day > g1.day
), sel AS (
  SELECT etype, dn, dd,
         row_number() OVER (
           PARTITION BY etype
           ORDER BY CAST(dn AS DOUBLE) / CAST(dd AS DOUBLE), dn, dd
         ) AS rn,
         count(*) OVER (PARTITION BY etype) AS cnt
  FROM p
)
SELECT etype, CAST(cnt AS BIGINT) AS n_pairs,
       CAST(dn AS BIGINT) AS slope_num, CAST(dd AS BIGINT) AS slope_den,
       CAST(dn AS DOUBLE) / CAST(dd AS DOUBLE) AS slope
FROM sel WHERE rn = (cnt + 1) // 2 ORDER BY etype
"""


def knox_pairs(r: int, w: int) -> str:
    """Knox mirror: boxed (overflow-safe) visible-version self-join
    across entities, exact integer distance and time predicates."""
    return (
        DERIVE
        + f"""
, vv AS (
  SELECT osm_id, ts_us, lon_e7, lat_e7 FROM d WHERE visible
), boxed AS MATERIALIZED (
  SELECT a.lon_e7 - b.lon_e7 AS dx, a.lat_e7 - b.lat_e7 AS dy,
         a.ts_us - b.ts_us AS dt
  FROM vv a JOIN vv b
    ON a.osm_id < b.osm_id
   AND abs(a.lon_e7 - b.lon_e7) <= {int(r)}
   AND abs(a.lat_e7 - b.lat_e7) <= {int(r)}
)
SELECT CAST(count(*) FILTER (
         dx*dx + dy*dy <= CAST({int(r)} AS BIGINT)*{int(r)}) AS BIGINT)
         AS n_space_pairs,
       CAST(count(*) FILTER (
         dx*dx + dy*dy <= CAST({int(r)} AS BIGINT)*{int(r)}
         AND abs(dt) <= {int(w)}) AS BIGINT) AS n_spacetime_pairs
FROM boxed
"""
    )


def ripley_k(radii: tuple) -> str:
    """Ripley-K mirror: boxed snapshot self-join at the largest
    radius, threshold counts per ring, the literal normalization
    pairs * 2 * A / (n * (n-1))."""
    from .pipelines import T_MID

    rmax = max(int(r) for r in radii)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    legs = []
    for r in radii:
        r = int(r)
        legs.append(
            f"""SELECT CAST({r} AS BIGINT) AS radius_e7,
       (SELECT count(*) FROM snap) AS n_points,
       count(*) FILTER (dx*dx + dy*dy <= CAST({r} AS BIGINT)*{r}) AS n_pairs
FROM boxed"""
        )
    union = "\nUNION ALL\n".join(legs)
    return (
        DERIVE
        + cte
        + f"""
, boxed AS MATERIALIZED (
  SELECT a.lon_e7 - b.lon_e7 AS dx, a.lat_e7 - b.lat_e7 AS dy
  FROM snap a JOIN snap b
    ON a.osm_id < b.osm_id
   AND abs(a.lon_e7 - b.lon_e7) <= {rmax}
   AND abs(a.lat_e7 - b.lat_e7) <= {rmax}
), u AS (
{union}
)
SELECT radius_e7, CAST(n_points AS BIGINT) AS n_points,
       CAST(n_pairs AS BIGINT) AS n_pairs,
       CAST(n_pairs AS DOUBLE) * 2.0
         * (CAST(3600000000 AS DOUBLE) * CAST(1800000000 AS DOUBLE))
         / (CAST(n_points AS DOUBLE) * CAST(n_points - 1 AS DOUBLE)) AS k_hat
FROM u ORDER BY radius_e7
"""
    )


def token_zipf_slope(k: int) -> str:
    """Zipf mirror: top-K wordcount ranked (freq DESC, word), the
    identical milli-nat quantization, exact integer OLS sums, the
    literal two-division + intercept tail."""
    from .pipelines import WORD_SPLIT_RE

    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    return f"""
WITH w AS (
  SELECT unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
  FROM documents
), c AS (
  SELECT word, count(*) AS f FROM w WHERE word <> '' GROUP BY 1
  ORDER BY f DESC, word LIMIT {int(k)}
), r AS (
  SELECT row_number() OVER (ORDER BY f DESC, word) AS rnk, f FROM c
), s AS (
  SELECT count(*) AS n,
         sum({q.format(x='rnk')}) AS sx,
         sum({q.format(x='f')}) AS sy,
         sum({q.format(x='rnk')} * {q.format(x='rnk')}) AS sxx,
         sum({q.format(x='rnk')} * {q.format(x='f')}) AS sxy
  FROM r
)
SELECT CAST(n AS BIGINT) AS n_words,
       CAST(n*sxy - sx*sy AS BIGINT) AS slope_num,
       CAST(n*sxx - sx*sx AS BIGINT) AS slope_den,
       CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*sxx - sx*sx AS DOUBLE)
         AS zipf_slope,
       (CAST(sy AS DOUBLE)
          - (CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*sxx - sx*sx AS DOUBLE))
            * CAST(sx AS DOUBLE))
         / CAST(n AS DOUBLE) AS intercept_mnat
FROM s
"""


def vocab_growth(bin_docs: int) -> str:
    """Heaps mirror: per-token min doc_id, checkpoint binning, ordered
    cumulative sum."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH w AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
  FROM documents
), f AS (
  SELECT word, min(doc_id) AS fd FROM w WHERE word <> '' GROUP BY 1
), b AS (
  SELECT fd // {int(bin_docs)} AS bin, count(*) AS new_words FROM f GROUP BY 1
)
SELECT CAST(bin AS BIGINT) AS doc_bin,
       CAST(new_words AS BIGINT) AS new_words,
       CAST(sum(new_words) OVER (ORDER BY bin ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_vocab
FROM b ORDER BY 1
"""


def hexcell_location_quotient(w: int, h: int) -> str:
    """LQ mirror: per-(cell, etype) version counts over the shared hex
    assignment, window totals, the exact rational and one division."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT row_number() OVER (ORDER BY osm_id, v) AS rid,
         etype, lon_e7 AS x, lat_e7 AS y
  FROM d
)"""
        + _hex_best_sql(w, h, "rid")
        + """
, lab AS (
  SELECT b.i, b.j, p.etype FROM best b JOIN pt p ON p.rid = b.rid
), c AS (
  SELECT i, j, etype, count(*) AS n FROM lab GROUP BY 1, 2, 3
), x AS (
  SELECT i, j, etype, n,
         sum(n) OVER (PARTITION BY i, j) AS nc,
         sum(n) OVER (PARTITION BY etype) AS ne,
         sum(n) OVER () AS tot
  FROM c
)
SELECT CAST(i AS BIGINT) AS hex_i, CAST(j AS BIGINT) AS hex_j, etype,
       CAST(n AS BIGINT) AS n,
       CAST(n * tot AS BIGINT) AS lq_num,
       CAST(nc * ne AS BIGINT) AS lq_den,
       CAST(n * tot AS DOUBLE) / CAST(nc * ne AS DOUBLE) AS lq
FROM x ORDER BY 1, 2, 3
"""
    )


def etype_stationary(scale: int, iters: int) -> str:
    """Stationary-distribution mirror: the transition-count CTE, the
    identical non-negative floor-division rounds unrolled, one IEEE
    division by the exact total."""
    head = f"""
WITH sq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev_etype
  FROM events
), c AS (
  SELECT prev_etype AS a, event_type AS b, count(*) AS n
  FROM sq WHERE prev_etype IS NOT NULL GROUP BY 1, 2
), st AS (
  SELECT a, sum(n) AS s FROM c GROUP BY 1
), v0 AS (
  SELECT a AS e, CAST({int(scale)} AS BIGINT) AS v FROM st
)"""
    steps = []
    for t in range(1, int(iters) + 1):
        steps.append(
            f""", v{t} AS MATERIALIZED (
  SELECT c.b AS e, sum((v.v * c.n) // st.s) AS v
  FROM c JOIN v{t-1} v ON v.e = c.a JOIN st ON st.a = c.a
  JOIN st dst ON dst.a = c.b
  GROUP BY 1
)"""
        )
    return (
        head
        + "".join(steps)
        + f"""
SELECT e AS etype, CAST(v AS BIGINT) AS v_fp,
       CAST(v AS DOUBLE) / CAST((SELECT sum(v) FROM v{int(iters)}) AS DOUBLE)
         AS share
FROM v{int(iters)} ORDER BY 1
"""
    )


def cohort_odds_ratio(event: str, min_hits: int) -> str:
    """Odds-ratio mirror: per-user outcome counts thresholded,
    parity-cohort 2x2 counts, the exact rational and one division."""
    return f"""
WITH u AS (
  SELECT user_id,
         CASE WHEN sum(CASE WHEN event_type = '{event}' THEN 1 ELSE 0 END)
                   >= {int(min_hits)} THEN 1 ELSE 0 END AS hit
  FROM events GROUP BY 1
), t AS (
  SELECT
    count(*) FILTER (user_id % 2 = 0 AND hit = 1) AS a,
    count(*) FILTER (user_id % 2 = 0 AND hit = 0) AS b,
    count(*) FILTER (user_id % 2 = 1 AND hit = 1) AS c,
    count(*) FILTER (user_id % 2 = 1 AND hit = 0) AS d
  FROM u
)
SELECT CAST(a AS BIGINT) AS n_even_conv, CAST(b AS BIGINT) AS n_even_no,
       CAST(c AS BIGINT) AS n_odd_conv, CAST(d AS BIGINT) AS n_odd_no,
       CAST(a*d AS BIGINT) AS or_num, CAST(b*c AS BIGINT) AS or_den,
       CAST(a*d AS DOUBLE) / CAST(b*c AS DOUBLE) AS odds_ratio
FROM t
"""


def user_burstiness() -> str:
    """Burstiness mirror: lag gaps per user, exact integer sufficient
    statistics, the literal IEEE tail."""
    return """
WITH s AS (
  SELECT user_id,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id)) // 1000000 AS g
  FROM events
), a AS (
  SELECT user_id, count(*) AS n, sum(g) AS sg, sum(g*g) AS sg2
  FROM s WHERE g IS NOT NULL GROUP BY 1
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(n AS BIGINT) AS n_gaps,
       CAST(sg AS BIGINT) AS sum_gap_s,
       CAST(n*sg2 - sg*sg AS BIGINT) AS var_num,
       (sqrt(CAST(n*sg2 - sg*sg AS DOUBLE)) / CAST(n AS DOUBLE)
          - CAST(sg AS DOUBLE) / CAST(n AS DOUBLE))
       / (sqrt(CAST(n*sg2 - sg*sg AS DOUBLE)) / CAST(n AS DOUBLE)
          + CAST(sg AS DOUBLE) / CAST(n AS DOUBLE)) AS burstiness
FROM a
WHERE n >= 2 AND NOT (sg = 0 AND n*sg2 - sg*sg = 0)
ORDER BY 1
"""


def flow_reciprocity(w: int, h: int) -> str:
    """Reciprocity mirror: the cell_flows CTE self-joined on the
    reversed pair, doubled min over ordered pairs, one division."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT osm_id, v, ts_us, lon_e7 AS x, lat_e7 AS y FROM d WHERE visible
)"""
        + _hex_best_sql(w, h, "osm_id, v")
        + """
, ordered AS (
  SELECT b.osm_id, b.i, b.j,
         lag(b.i) OVER (PARTITION BY b.osm_id ORDER BY p.ts_us, b.v) AS pi,
         lag(b.j) OVER (PARTITION BY b.osm_id ORDER BY p.ts_us, b.v) AS pj
  FROM best b JOIN pt p ON p.osm_id = b.osm_id AND p.v = b.v
), fl AS (
  SELECT pi AS fi, pj AS fj, i AS ti, j AS tj, count(*) AS n
  FROM ordered
  WHERE pi IS NOT NULL AND (pi <> i OR pj <> j)
  GROUP BY 1, 2, 3, 4
), pairs AS (
  SELECT 2 * least(a.n, coalesce(b.n, 0)) AS r
  FROM fl a LEFT JOIN fl b
    ON b.fi = a.ti AND b.fj = a.tj AND b.ti = a.fi AND b.tj = a.fj
  WHERE (a.fi, a.fj) < (a.ti, a.tj)
)
SELECT CAST((SELECT sum(n) FROM fl) AS BIGINT) AS n_moves,
       CAST(coalesce((SELECT sum(r) FROM pairs), 0) AS BIGINT) AS n_reciprocal,
       CAST(coalesce((SELECT sum(r) FROM pairs), 0) AS DOUBLE)
         / CAST((SELECT sum(n) FROM fl) AS DOUBLE) AS reciprocity
"""
    )


def hex_gearys_c(w: int, h: int) -> str:
    """Geary mirror: occupied 6-neighbor squared contrasts, the
    N-scaled deviation denominator, the literal IEEE tail."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT row_number() OVER (ORDER BY osm_id, v) AS rid,
         lon_e7 AS x, lat_e7 AS y
  FROM d
)"""
        + _hex_best_sql(w, h, "rid")
        + """
, c AS (
  SELECT i, j, count(*) AS n FROM best GROUP BY 1, 2
), st AS (
  SELECT count(*) AS nc, sum(n) AS s1 FROM c
), pr AS (
  SELECT sum((a.n - b.n) * (a.n - b.n)) AS p_sum, count(*) AS w_pairs
  FROM c a
  CROSS JOIN (VALUES (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    AS o(di, dj)
  JOIN c b ON b.i = a.i + o.di AND b.j = a.j + o.dj
), dn AS (
  SELECT sum((st.nc * c.n - st.s1) * (st.nc * c.n - st.s1)) AS den
  FROM c CROSS JOIN st
)
SELECT CAST(st.nc AS BIGINT) AS n_cells,
       CAST(pr.w_pairs AS BIGINT) AS w_pairs,
       CAST(pr.p_sum AS BIGINT) AS p_sum,
       CAST(dn.den AS BIGINT) AS den,
       (CAST(st.nc - 1 AS DOUBLE) * CAST(st.nc * st.nc AS DOUBLE)
          * CAST(pr.p_sum AS DOUBLE))
         / (CAST(2 * pr.w_pairs AS DOUBLE) * CAST(dn.den AS DOUBLE)) AS gearys_c
FROM st CROSS JOIN pr CROSS JOIN dn
"""
    )


def semivariogram(bins: tuple) -> str:
    """Semivariogram mirror: boxed snapshot self-join at the outer
    ring, the identical half-open ring assignment (zero-distance pairs
    excluded), zerofilled rings, one division per ring."""
    from .pipelines import T_MID

    rmax = max(int(r) for r in bins)
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    ring_case = "CASE WHEN d2 = 0 THEN 0 " + " ".join(
        f"WHEN d2 <= CAST({int(r)} AS BIGINT)*{int(r)} THEN {k + 1}"
        for k, r in enumerate(bins)
    ) + " ELSE 0 END"
    vals = ", ".join(f"({k + 1}, {int(r)})" for k, r in enumerate(bins))
    return (
        DERIVE
        + cte
        + f"""
, boxed AS MATERIALIZED (
  SELECT a.lon_e7 - b.lon_e7 AS dx, a.lat_e7 - b.lat_e7 AS dy,
         a.v - b.v AS dz
  FROM snap a JOIN snap b
    ON a.osm_id < b.osm_id
   AND abs(a.lon_e7 - b.lon_e7) <= {rmax}
   AND abs(a.lat_e7 - b.lat_e7) <= {rmax}
), rp AS (
  SELECT dz, dx*dx + dy*dy AS d2 FROM boxed
), rr AS (
  SELECT {ring_case} AS ring, count(*) AS n, sum(dz*dz) AS s
  FROM rp WHERE d2 <= CAST({rmax} AS BIGINT)*{rmax}
  GROUP BY 1
)
SELECT CAST(g.ring AS BIGINT) AS ring, CAST(g.edge AS BIGINT) AS edge_e7,
       CAST(coalesce(rr.n, 0) AS BIGINT) AS n_pairs,
       CAST(coalesce(rr.s, 0) AS BIGINT) AS sum_dz2,
       CASE WHEN coalesce(rr.n, 0) > 0
            THEN CAST(rr.s AS DOUBLE) / (2.0 * CAST(rr.n AS DOUBLE))
            ELSE 0.0 END AS gamma
FROM (VALUES {vals}) AS g(ring, edge)
LEFT JOIN rr ON rr.ring = g.ring
ORDER BY 1
"""
    )


def hexcell_dominant_uid(w: int, h: int) -> str:
    """Dominant-contributor mirror: per-(cell, uid) visible-edit
    counts, row_number argmax (n DESC, uid), cell totals, one
    division."""
    return (
        DERIVE
        + """
, pt AS (
  SELECT osm_id, v, uid, lon_e7 AS x, lat_e7 AS y FROM d WHERE visible
)"""
        + _hex_best_sql(w, h, "osm_id, v, uid")
        + """
, c AS (
  SELECT i, j, uid, count(*) AS n FROM best GROUP BY 1, 2, 3
), top AS (
  SELECT i, j, uid, n FROM c
  QUALIFY row_number() OVER (PARTITION BY i, j ORDER BY n DESC, uid) = 1
), tot AS (
  SELECT i, j, sum(n) AS n_cell FROM c GROUP BY 1, 2
)
SELECT CAST(top.i AS BIGINT) AS hex_i, CAST(top.j AS BIGINT) AS hex_j,
       CAST(top.uid AS BIGINT) AS top_uid, CAST(top.n AS BIGINT) AS n_top,
       CAST(tot.n_cell AS BIGINT) AS n_cell,
       CAST(top.n AS DOUBLE) / CAST(tot.n_cell AS DOUBLE) AS share
FROM top JOIN tot ON tot.i = top.i AND tot.j = top.j
ORDER BY 1, 2
"""
    )


# ------------------------------------------------ twelfth-session sweep
def event_debounce(gap_us: int) -> str:
    """Debounce mirror: lag gap per (user, etype) ordered by
    (ts, event_id), FILTER-split kept/dropped counts."""
    return f"""
WITH x AS (
  SELECT event_type AS etype,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id, event_type ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT etype,
       CAST(count(*) FILTER (WHERE gap IS NULL OR gap >= {int(gap_us)}) AS BIGINT)
         AS n_kept,
       CAST(count(*) FILTER (WHERE gap < {int(gap_us)}) AS BIGINT) AS n_dropped
FROM x GROUP BY 1 ORDER BY 1
"""


def etype_chi2_cohort(scale: int) -> str:
    """Chi-square mirror: full r x g cross (zero cells contribute),
    per-cell HUGEINT floor division to micro-units, fixed IEEE tails.
    DuckDB // truncates; every numerator is a square so truncation is
    floor."""
    return f"""
WITH c AS (
  SELECT event_type AS etype, user_id % 2 AS grp, count(*) AS n
  FROM events GROUP BY 1, 2
), r AS (SELECT etype, sum(n) AS rn FROM c GROUP BY 1),
g AS (SELECT grp, sum(n) AS cn FROM c GROUP BY 1),
t AS (SELECT sum(n) AS n FROM c),
x AS (
  SELECT r.rn, g.cn, t.n, COALESCE(c.n, 0) AS o
  FROM r CROSS JOIN g CROSS JOIN t
  LEFT JOIN c ON c.etype = r.etype AND c.grp = g.grp
), s AS (
  SELECT count(*) AS cells,
         sum((CAST({int(scale)} AS HUGEINT)
              * (CAST(o AS HUGEINT) * n - CAST(rn AS HUGEINT) * cn)
              * (CAST(o AS HUGEINT) * n - CAST(rn AS HUGEINT) * cn))
             // (CAST(n AS HUGEINT) * rn * cn)) AS chi2_micro
  FROM x
), dims AS (
  SELECT CASE WHEN (SELECT count(*) FROM r) - 1 < (SELECT count(*) FROM g) - 1
              THEN (SELECT count(*) FROM r) - 1
              ELSE (SELECT count(*) FROM g) - 1 END AS mindim
)
SELECT CAST(t.n AS BIGINT) AS n_events, CAST(s.cells AS BIGINT) AS n_cells,
       CAST(s.chi2_micro AS BIGINT) AS chi2_micro,
       CAST(s.chi2_micro AS DOUBLE) / CAST({int(scale)} AS DOUBLE) AS chi2,
       sqrt(CAST(s.chi2_micro AS DOUBLE)
            / CAST({int(scale)} * t.n * dims.mindim AS DOUBLE)) AS cramers_v
FROM s CROSS JOIN t CROSS JOIN dims
"""


def etype_dow_mutual_info(t0: int, day_us: int) -> str:
    """Mutual-information mirror: present cells only (n > 0), the
    etype_day_entropy milli-nat quantization on every log, single
    IEEE division tail."""
    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    return f"""
WITH c AS (
  SELECT event_type AS etype,
         ((epoch_us(ts) - {int(t0)}) // {int(day_us)}) % 7 AS dow, count(*) AS n
  FROM events GROUP BY 1, 2
), r AS (SELECT etype, sum(n) AS rn FROM c GROUP BY 1),
g AS (SELECT dow, sum(n) AS cn FROM c GROUP BY 1),
t AS (SELECT sum(n) AS n FROM c),
s AS (
  SELECT sum(c.n * ({q.format(x='c.n')} + {q.format(x='t.n')}
                    - {q.format(x='r.rn')} - {q.format(x='g.cn')})) AS num
  FROM c JOIN r USING (etype) JOIN g USING (dow) CROSS JOIN t
)
SELECT CAST(t.n AS BIGINT) AS n_events, CAST(s.num AS BIGINT) AS num,
       CAST(s.num AS DOUBLE) / CAST(t.n AS DOUBLE) AS mi_mnat
FROM s CROSS JOIN t
"""


def rolling_median_value(t0: int, day_us: int) -> str:
    """Rolling-median mirror: BETWEEN range join to the 7-day window,
    lower-median rank (t+1)//2 over the windowed order statistics."""
    return f"""
WITH d AS (
  SELECT event_type AS etype, (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         CAST(round(value * 100) AS BIGINT) AS c
  FROM events
), w AS (
  SELECT e.x AS wend, d.etype, d.c
  FROM range(31) e(x) JOIN d ON d.day BETWEEN e.x - 6 AND e.x
), r AS (
  SELECT etype, wend, c,
         row_number() OVER (PARTITION BY etype, wend ORDER BY c) AS rn,
         count(*) OVER (PARTITION BY etype, wend) AS t
  FROM w
)
SELECT etype, CAST(wend AS BIGINT) AS wend, CAST(t AS BIGINT) AS n_events,
       CAST(c AS BIGINT) AS median_cents
FROM r WHERE rn = (t + 1) // 2 ORDER BY 1, 2
"""


def rrf_fusion(k: int, scale: int, pool: int, top: int) -> str:
    """RRF mirror: two row_number pools (key DESC, doc_id), FULL OUTER
    join, exact integer floor-division scores."""
    return f"""
WITH ta AS (
  SELECT doc_id, row_number() OVER (ORDER BY n_chars DESC, doc_id) AS r
  FROM documents QUALIFY r <= {int(pool)}
), tb AS (
  SELECT doc_id, row_number() OVER (ORDER BY ws DESC, doc_id) AS r FROM (
    SELECT doc_id, CASE WHEN text = '' THEN 0
           ELSE length(text) - length(replace(text, ' ', '')) + 1 END AS ws
    FROM documents) QUALIFY r <= {int(pool)}
), u AS (
  SELECT COALESCE(ta.doc_id, tb.doc_id) AS doc_id,
         COALESCE(ta.r, -1) AS rank_len, COALESCE(tb.r, -1) AS rank_tok,
         (CASE WHEN ta.r IS NULL THEN 0 ELSE {int(scale)} // ({int(k)} + ta.r) END
          + CASE WHEN tb.r IS NULL THEN 0 ELSE {int(scale)} // ({int(k)} + tb.r) END)
           AS s
  FROM ta FULL OUTER JOIN tb ON ta.doc_id = tb.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(rank_len AS BIGINT) AS rank_len,
       CAST(rank_tok AS BIGINT) AS rank_tok, CAST(s AS BIGINT) AS rrf_score
FROM u ORDER BY s DESC, doc_id LIMIT {int(top)}
"""


def part_hits_authority(scale: int, iters: int) -> str:
    """Integer-HITS mirror: the identical fixed-point half-rounds
    unrolled as MATERIALIZED join-aggregate CTEs (// floors the
    all-positive operands on both engines; sums are exact ints)."""
    head = f"""
WITH e AS MATERIALIZED (
  SELECT DISTINCT o.o_custkey AS c, l.l_partkey AS p
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
), h0 AS MATERIALIZED (
  SELECT c AS node, CAST({int(scale)} AS BIGINT) AS v
  FROM (SELECT DISTINCT c FROM e)
)"""
    cur = "h0"
    steps = []
    for i in range(1, int(iters) + 1):
        steps.append(f""", a{i}r AS MATERIALIZED (
  SELECT e.p AS node, sum(h.v) AS v FROM e JOIN {cur} h ON h.node = e.c GROUP BY 1
), a{i} AS MATERIALIZED (
  SELECT node, (v * {int(scale)}) // (SELECT sum(v) FROM a{i}r) AS v FROM a{i}r
)""")
        if i < int(iters):
            steps.append(f""", h{i}r AS MATERIALIZED (
  SELECT e.c AS node, sum(a.v) AS v FROM e JOIN a{i} a ON a.node = e.p GROUP BY 1
), h{i} AS MATERIALIZED (
  SELECT node, (v * {int(scale)}) // (SELECT sum(v) FROM h{i}r) AS v FROM h{i}r
)""")
            cur = f"h{i}"
    return (
        head
        + "".join(steps)
        + f"""
SELECT node AS part_id, CAST(v AS BIGINT) AS auth FROM a{int(iters)} ORDER BY 1
"""
    )


def snapshot_count_by_geohash() -> str:
    """Geohash mirror: the identical integer scaled divisions and the
    25-term shift-and interleave, base32 via substr (the alphabet is
    ascending ASCII, so string order == packed-id order)."""
    from .pipelines import T_MID

    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, b AS (
  SELECT ((lon_e7 + 1800000000) * 8192) // 3600000000 AS bx,
         ((lat_e7 + 900000000) * 4096) // 1800000000 AS by
  FROM snap
), gh AS (
  SELECT (((bx >> 0) & 1) << 0) + (((bx >> 1) & 1) << 2) + (((bx >> 2) & 1) << 4) + (((bx >> 3) & 1) << 6) + (((bx >> 4) & 1) << 8) + (((bx >> 5) & 1) << 10) + (((bx >> 6) & 1) << 12) + (((bx >> 7) & 1) << 14) + (((bx >> 8) & 1) << 16) + (((bx >> 9) & 1) << 18) + (((bx >> 10) & 1) << 20) + (((bx >> 11) & 1) << 22) + (((bx >> 12) & 1) << 24) + (((by >> 0) & 1) << 1) + (((by >> 1) & 1) << 3) + (((by >> 2) & 1) << 5) + (((by >> 3) & 1) << 7) + (((by >> 4) & 1) << 9) + (((by >> 5) & 1) << 11) + (((by >> 6) & 1) << 13) + (((by >> 7) & 1) << 15) + (((by >> 8) & 1) << 17) + (((by >> 9) & 1) << 19) + (((by >> 10) & 1) << 21) + (((by >> 11) & 1) << 23) AS g FROM b
), s AS (
  SELECT substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 20) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 15) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 10) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 5) & 31 AS INTEGER) + 1, 1) || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((g >> 0) & 31 AS INTEGER) + 1, 1) AS geohash FROM gh
)
SELECT geohash, CAST(count(*) AS BIGINT) AS n_snapshots
FROM s GROUP BY 1 ORDER BY 1
"""
    )


def bm25_top_docs(terms: tuple, top: int) -> str:
    """BM25 mirror: identical all-integer rational (HUGEINT) with the
    milli-nat idf quantization; ORDER BY score DESC, doc_id LIMIT k."""
    from .pipelines import WORD_SPLIT_RE

    tl = ", ".join(f"'{t}'" for t in sorted(terms))
    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    return f"""
WITH w AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
  FROM documents
), tok AS (
  SELECT doc_id, word FROM w WHERE word <> ''
), dl AS (
  SELECT doc_id, count(*) AS dl FROM tok GROUP BY 1
), l AS (SELECT count(*) AS ll FROM tok),
dd AS (SELECT count(*) AS d FROM documents),
tf AS (
  SELECT doc_id, word, count(*) AS tf FROM tok
  WHERE word IN ({tl}) GROUP BY 1, 2
), df AS (SELECT word, count(*) AS df FROM tf GROUP BY 1),
s AS (
  SELECT tf.doc_id,
         sum((CAST(44000 AS HUGEINT)
              * ({q.format(x='dd.d')} - {q.format(x='df.df')})
              * tf.tf * l.ll)
             // (CAST(20 AS HUGEINT) * l.ll * tf.tf + 6 * l.ll
                 + 18 * dl.dl * dd.d)) AS bm25_micro
  FROM tf JOIN df USING (word) JOIN dl USING (doc_id)
  CROSS JOIN l CROSS JOIN dd
  GROUP BY 1
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(bm25_micro AS BIGINT) AS bm25_micro
FROM s ORDER BY bm25_micro DESC, doc_id LIMIT {int(top)}
"""


def way_centroids() -> str:
    """Triangle shoelace-centroid mirror: exact int corner sums, two
    single IEEE divisions by 3."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pos AS (SELECT osm_id, lon_e7, lat_e7 FROM snap)
SELECT a.osm_id AS way_id,
       CAST(a.lon_e7 + b.lon_e7 + c.lon_e7 AS BIGINT) AS cx_num,
       CAST(a.lat_e7 + b.lat_e7 + c.lat_e7 AS BIGINT) AS cy_num,
       CAST(a.lon_e7 + b.lon_e7 + c.lon_e7 AS DOUBLE) / 3.0 AS cx_e7,
       CAST(a.lat_e7 + b.lat_e7 + c.lat_e7 AS DOUBLE) / 3.0 AS cy_e7
FROM pos a
JOIN pos b ON b.osm_id = a.osm_id + 1
JOIN pos c ON c.osm_id = a.osm_id + 2
ORDER BY way_id
"""
    )


def lifespan_overlap_pairs(dwell_end: int) -> str:
    """Interval-overlap mirror: the n^2 inequality join (DuckDB
    IEJoin) counts strict e < s disjoint pairs; overlap = C(n,2) - d."""
    return (
        DERIVE
        + f"""
, r AS (
  SELECT osm_id, ts_us, visible,
         row_number() OVER (PARTITION BY osm_id
                            ORDER BY ts_us DESC, v DESC) AS rn,
         min(ts_us) OVER (PARTITION BY osm_id) AS t_first
  FROM d
), life AS (
  SELECT t_first AS s,
         CASE WHEN visible THEN {int(dwell_end)} ELSE ts_us END AS e
  FROM r WHERE rn = 1
), n AS (SELECT count(*) AS n FROM life),
dj AS (SELECT count(*) AS dd FROM life a JOIN life b ON a.e < b.s)
SELECT CAST(n.n AS BIGINT) AS n_entities,
       CAST(n.n * (n.n - 1) // 2 AS BIGINT) AS n_pairs,
       CAST(dj.dd AS BIGINT) AS n_disjoint,
       CAST(n.n * (n.n - 1) // 2 - dj.dd AS BIGINT) AS n_overlap
FROM n CROSS JOIN dj
"""
    )


def frequent_part_triples(min_sup: int) -> str:
    """A-priori triple mirror: distinct (order, part) triple self-join
    with HAVING support."""
    return f"""
WITH dp AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT CAST(a.l_partkey AS BIGINT) AS p1, CAST(b.l_partkey AS BIGINT) AS p2,
       CAST(c.l_partkey AS BIGINT) AS p3, CAST(count(*) AS BIGINT) AS support
FROM dp a
JOIN dp b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
JOIN dp c ON a.l_orderkey = c.l_orderkey AND b.l_partkey < c.l_partkey
GROUP BY 1, 2, 3 HAVING count(*) >= {int(min_sup)} ORDER BY 1, 2, 3
"""


def cms_etype_counts(d: int, w: int) -> str:
    """Count-min mirror: the same md5 row hashes, bucket sums and
    LEAST — the sketch is deterministic, so even its collision
    overestimates value-match."""
    return f"""
WITH c AS (SELECT event_type AS etype, count(*) AS n FROM events GROUP BY 1),
h AS (
  SELECT etype, n, r.j AS j,
         CAST(('0x' || substr(md5(CAST(r.j AS VARCHAR) || ':' || etype), 1, 8))
              AS UBIGINT) % {int(w)} AS b
  FROM c CROSS JOIN range({int(d)}) r(j)
), bs AS (
  SELECT j, b, sum(n) AS s FROM h GROUP BY 1, 2
), e AS (
  SELECT h.etype, min(bs.s) AS n_cms FROM h JOIN bs USING (j, b) GROUP BY 1
)
SELECT c.etype, CAST(c.n AS BIGINT) AS n_exact, CAST(e.n_cms AS BIGINT) AS n_cms
FROM c JOIN e USING (etype) ORDER BY 1
"""


def copurchase_recommendations(top: int) -> str:
    """Link-prediction mirror: wedge counts per pair minus the
    adjacency via LEFT JOIN ... IS NULL, ORDER BY common DESC."""
    return f"""
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a JOIN lineitem b
  ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
), dir AS (
  SELECT pa AS node, pb AS peer FROM e UNION ALL SELECT pb, pa FROM e
), w AS (
  SELECT d1.peer AS pa, d2.peer AS pb, count(*) AS cn
  FROM dir d1 JOIN dir d2 ON d1.node = d2.node AND d1.peer < d2.peer
  GROUP BY 1, 2
)
SELECT CAST(w.pa AS BIGINT) AS part_a, CAST(w.pb AS BIGINT) AS part_b,
       CAST(w.cn AS BIGINT) AS common
FROM w LEFT JOIN e ON e.pa = w.pa AND e.pb = w.pb
WHERE e.pa IS NULL
ORDER BY w.cn DESC, w.pa, w.pb LIMIT {int(top)}
"""


def source_vocab_jaccard() -> str:
    """Vocabulary-Jaccard mirror: distinct (word, source) pairs,
    per-source vocab sizes, pairwise intersections, union by
    inclusion-exclusion; zero-overlap pairs survive the LEFT JOIN."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH ws AS (
  SELECT DISTINCT word, source FROM (
    SELECT source,
           unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
    FROM documents)
  WHERE word <> ''
), s AS (SELECT DISTINCT source FROM documents),
p AS (
  SELECT a.source AS source_a, b.source AS source_b
  FROM s a JOIN s b ON a.source < b.source
), vs AS (SELECT source, count(*) AS nv FROM ws GROUP BY 1),
ix AS (
  SELECT a.source AS sa, b.source AS sb, count(*) AS ni
  FROM ws a JOIN ws b ON a.word = b.word AND a.source < b.source
  GROUP BY 1, 2
)
SELECT p.source_a, p.source_b,
       CAST(COALESCE(ix.ni, 0) AS BIGINT) AS n_inter,
       CAST(va.nv + vb.nv - COALESCE(ix.ni, 0) AS BIGINT) AS n_union,
       CAST(COALESCE(ix.ni, 0) AS DOUBLE)
         / CAST(va.nv + vb.nv - COALESCE(ix.ni, 0) AS DOUBLE) AS jaccard
FROM p
LEFT JOIN ix ON ix.sa = p.source_a AND ix.sb = p.source_b
JOIN vs va ON va.source = p.source_a
JOIN vs vb ON vb.source = p.source_b
ORDER BY 1, 2
"""


def user_recency_scores(t0: int, day_us: int) -> str:
    """Recency-score mirror: the same power-of-two day weights as
    exact integer shifts."""
    return f"""
WITH u AS (
  SELECT user_id,
         sum(CAST(1 AS BIGINT)
             << (30 - CAST((epoch_us(ts) - {int(t0)}) // {int(day_us)} AS INTEGER)))
           AS score
  FROM events GROUP BY 1
)
SELECT CAST(user_id AS BIGINT) AS user_id, CAST(score AS BIGINT) AS score
FROM u ORDER BY score DESC, user_id LIMIT 25
"""


def hapax_rate_by_source() -> str:
    """Hapax mirror: corpus wordcounts filter n = 1, per-source token
    totals, one IEEE division."""
    from .pipelines import WORD_SPLIT_RE

    return f"""
WITH tok AS (
  SELECT source, word FROM (
    SELECT source,
           unnest(string_split_regex(lower(text), '{WORD_SPLIT_RE}')) AS word
    FROM documents)
  WHERE word <> ''
), wc AS (SELECT word, count(*) AS n FROM tok GROUP BY 1),
t AS (SELECT source, count(*) AS n_tokens FROM tok GROUP BY 1),
h AS (
  SELECT tok.source, count(*) AS n_hapax
  FROM tok JOIN wc USING (word) WHERE wc.n = 1 GROUP BY 1
)
SELECT t.source, CAST(t.n_tokens AS BIGINT) AS n_tokens,
       CAST(COALESCE(h.n_hapax, 0) AS BIGINT) AS n_hapax,
       CAST(COALESCE(h.n_hapax, 0) AS DOUBLE) / CAST(t.n_tokens AS DOUBLE)
         AS hapax_rate
FROM t LEFT JOIN h USING (source) ORDER BY 1
"""


def etype_spearman(t0: int, day_us: int) -> str:
    """Spearman mirror: doubled average-tie-ranks via
    2*rank() + count() OVER value-partition - 1 (exact ints), then the
    crosscorr sufficient-statistic tail."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.etype AS ea, b.etype AS eb, a.n AS x, b.n AS y
  FROM c a JOIN c b ON a.day = b.day AND a.etype < b.etype
), r AS (
  SELECT ea, eb,
         2 * rank() OVER (PARTITION BY ea, eb ORDER BY x)
           + count(*) OVER (PARTITION BY ea, eb, x) - 1 AS rx,
         2 * rank() OVER (PARTITION BY ea, eb ORDER BY y)
           + count(*) OVER (PARTITION BY ea, eb, y) - 1 AS ry
  FROM p
), s AS (
  SELECT ea, eb, count(*) AS n, sum(rx) AS sx, sum(ry) AS sy,
         sum(rx*ry) AS sxy, sum(rx*rx) AS sxx, sum(ry*ry) AS syy
  FROM r GROUP BY 1, 2
)
SELECT ea AS etype_a, eb AS etype_b, CAST(n AS BIGINT) AS n_days,
       CAST(n*sxy - sx*sy AS BIGINT) AS num,
       CAST(n*sxy - sx*sy AS DOUBLE)
         / sqrt(CAST(n*sxx - sx*sx AS DOUBLE) * CAST(n*syy - sy*sy AS DOUBLE))
         AS spearman
FROM s ORDER BY 1, 2
"""


def prop_ztest_click() -> str:
    """Two-proportion z mirror: the identical IEEE expression tree
    over the four exact counts."""
    return """
WITH g AS (
  SELECT user_id % 2 AS grp, count(*) AS n,
         count(*) FILTER (WHERE event_type = 'click') AS x
  FROM events GROUP BY 1
), w AS (
  SELECT max(n) FILTER (WHERE grp = 0) AS n1,
         max(x) FILTER (WHERE grp = 0) AS x1,
         max(n) FILTER (WHERE grp = 1) AS n2,
         max(x) FILTER (WHERE grp = 1) AS x2
  FROM g
)
SELECT CAST(n1 AS BIGINT) AS n_even, CAST(x1 AS BIGINT) AS x_even,
       CAST(n2 AS BIGINT) AS n_odd, CAST(x2 AS BIGINT) AS x_odd,
       (CAST(x1 AS DOUBLE) / CAST(n1 AS DOUBLE)
        - CAST(x2 AS DOUBLE) / CAST(n2 AS DOUBLE))
       / sqrt((CAST(x1 + x2 AS DOUBLE) / CAST(n1 + n2 AS DOUBLE))
              * (CAST(1 AS DOUBLE)
                 - CAST(x1 + x2 AS DOUBLE) / CAST(n1 + n2 AS DOUBLE))
              * (CAST(1 AS DOUBLE) / CAST(n1 AS DOUBLE)
                 + CAST(1 AS DOUBLE) / CAST(n2 AS DOUBLE))) AS z
FROM w
"""


def partitioned_day_scan(t0: int, day_us: int, days: list) -> str:
    """Partitioned wire-path mirror: the original parquet filtered to
    the same day window with the same cents derivation."""
    lo, hi = min(days), max(days)
    return f"""
WITH d AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, CAST(round(value * 100) AS BIGINT) AS v
  FROM events
)
SELECT CAST(day AS BIGINT) AS day, etype, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v) AS BIGINT) AS sum_value_c
FROM d WHERE day BETWEEN {int(lo)} AND {int(hi)}
GROUP BY 1, 2 ORDER BY 1, 2
"""


def etype_kendall_tau(t0: int, day_us: int) -> str:
    """Kendall tau-b mirror: day-pair self-join per etype pair, exact
    sign-product and distinct-value pair counts, single-IEEE tail."""
    return f"""
WITH c AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS day,
         event_type AS etype, count(*) AS n
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.etype AS ea, b.etype AS eb, a.day AS day, a.n AS x, b.n AS y
  FROM c a JOIN c b ON a.day = b.day AND a.etype < b.etype
), j AS (
  SELECT a.ea, a.eb,
         sign(a.x - b.x) * sign(a.y - b.y) AS s,
         CASE WHEN a.x <> b.x THEN 1 ELSE 0 END AS tx,
         CASE WHEN a.y <> b.y THEN 1 ELSE 0 END AS ty
  FROM p a JOIN p b ON a.ea = b.ea AND a.eb = b.eb AND a.day < b.day
), d AS (
  SELECT ea, eb, sum(s) AS num, sum(tx) AS dx, sum(ty) AS dy
  FROM j GROUP BY 1, 2
), nd AS (
  SELECT ea, eb, count(*) AS n FROM p GROUP BY 1, 2
)
SELECT d.ea AS etype_a, d.eb AS etype_b, CAST(nd.n AS BIGINT) AS n_days,
       CAST(d.num AS BIGINT) AS num,
       CAST(d.num AS DOUBLE)
         / sqrt(CAST(d.dx AS DOUBLE) * CAST(d.dy AS DOUBLE)) AS tau_b
FROM d JOIN nd ON nd.ea = d.ea AND nd.eb = d.eb
ORDER BY 1, 2
"""


def knn_value_regression(query_filter: str = "osm_id % 17 = 0") -> str:
    """kNN-regression mirror: the knn top-3 CTE joined back to the
    snapshot uid, exact int sums, one IEEE division."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + f"""
, pts AS (SELECT osm_id, lon_e7, lat_e7, uid FROM snap),
q AS (SELECT * FROM pts WHERE {query_filter}),
cand AS (
  SELECT q.osm_id AS query_id, p.osm_id AS neighbor_id,
         (CAST(p.lon_e7 AS DOUBLE) - CAST(q.lon_e7 AS DOUBLE)) AS dx,
         (CAST(p.lat_e7 AS DOUBLE) - CAST(q.lat_e7 AS DOUBLE)) AS dy
  FROM q JOIN pts p ON p.osm_id <> q.osm_id
), top AS (
  SELECT query_id, neighbor_id
  FROM cand
  WINDOW w AS (PARTITION BY query_id ORDER BY dx*dx + dy*dy, neighbor_id)
  QUALIFY row_number() OVER w <= 3
)
SELECT t.query_id, CAST(count(*) AS BIGINT) AS n_nn,
       CAST(sum(p.uid) AS BIGINT) AS sum_uid,
       CAST(sum(p.uid) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS pred_uid
FROM top t JOIN pts p ON p.osm_id = t.neighbor_id
GROUP BY 1 ORDER BY 1
"""
    )


def twa_entities_daily(t0: int, day_us: int, t_end: int) -> str:
    """Daily time-weighted-average mirror: lead() spans (the dwell
    derivation) range-joined to the day grid with exact clipped
    overlaps; LEFT JOIN zerofill; one IEEE division by the constant
    day length."""
    return (
        DERIVE
        + f"""
, iv AS (
  SELECT visible, ts_us,
         lead(ts_us, 1, {int(t_end)}) OVER (
           PARTITION BY osm_id ORDER BY ts_us, v) AS ts_next
  FROM d
), vs AS (
  SELECT greatest(ts_us, {int(t0)}) AS a,
         least(ts_next, {int(t_end)}) AS b
  FROM iv WHERE visible AND least(ts_next, {int(t_end)}) > greatest(ts_us, {int(t0)})
), w AS (
  SELECT r.x AS day,
         sum(least(b, {int(t0)} + (r.x + 1) * {int(day_us)})
             - greatest(a, {int(t0)} + r.x * {int(day_us)})) AS visible_us
  FROM range(31) r(x) JOIN vs
    ON a < {int(t0)} + (r.x + 1) * {int(day_us)}
   AND b > {int(t0)} + r.x * {int(day_us)}
  GROUP BY 1
)
SELECT CAST(r.x AS BIGINT) AS day,
       CAST(COALESCE(w.visible_us, 0) AS BIGINT) AS visible_us,
       CAST(COALESCE(w.visible_us, 0) AS DOUBLE)
         / CAST({int(day_us)} AS DOUBLE) AS avg_entities
FROM range(31) r(x) LEFT JOIN w ON w.day = r.x
ORDER BY 1
"""
    )


def clark_evans() -> str:
    """Clark-Evans mirror: per-point min over the all-pairs double d2
    (identical representation to the engine's halo-join kNN), the same
    floor(sqrt) integer quantization, exact bbox, and the identical
    IEEE index tree."""
    cte = _snap_cte().replace("TS_LIST", _ts_list([T_MID]))
    return (
        DERIVE
        + cte
        + """
, pts AS (SELECT osm_id, lon_e7, lat_e7 FROM snap),
nn AS (
  SELECT a.osm_id,
         min((CAST(b.lon_e7 AS DOUBLE) - CAST(a.lon_e7 AS DOUBLE))
               * (CAST(b.lon_e7 AS DOUBLE) - CAST(a.lon_e7 AS DOUBLE))
             + (CAST(b.lat_e7 AS DOUBLE) - CAST(a.lat_e7 AS DOUBLE))
               * (CAST(b.lat_e7 AS DOUBLE) - CAST(a.lat_e7 AS DOUBLE))) AS d2
  FROM pts a JOIN pts b ON b.osm_id <> a.osm_id GROUP BY 1
), s AS (
  SELECT count(*) AS n, sum(CAST(floor(sqrt(d2)) AS BIGINT)) AS sm FROM nn
), bb AS (
  SELECT max(lon_e7) - min(lon_e7) AS mx, max(lat_e7) - min(lat_e7) AS my
  FROM pts
)
SELECT CAST(s.n AS BIGINT) AS n_points, CAST(s.sm AS BIGINT) AS sum_nn_floor,
       CAST(bb.mx AS BIGINT) AS bbox_w, CAST(bb.my AS BIGINT) AS bbox_h,
       (CAST(s.sm AS DOUBLE) / CAST(s.n AS DOUBLE))
         / (0.5 * sqrt(CAST(bb.mx AS DOUBLE) * CAST(bb.my AS DOUBLE)
                       / CAST(s.n AS DOUBLE))) AS ce_index
FROM s CROSS JOIN bb
"""
    )


def linreg_value_day_parity(t0: int, day_us: int) -> str:
    """Exact-OLS mirror: HUGEINT sufficient statistics, Cramer's-rule
    determinants spelled out, one IEEE division per coefficient."""

    def det(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (
            f"({a11}*({a22}*{a33} - {a23}*{a32})"
            f" - {a12}*({a21}*{a33} - {a23}*{a31})"
            f" + {a13}*({a21}*{a32} - {a22}*{a31}))"
        )

    d = det("n", "s1", "s2", "s1", "s11", "s12", "s2", "s12", "s22")
    d0 = det("sy", "s1", "s2", "s1y", "s11", "s12", "s2y", "s12", "s22")
    d1 = det("n", "sy", "s2", "s1", "s1y", "s12", "s2", "s2y", "s22")
    d2 = det("n", "s1", "sy", "s1", "s11", "s1y", "s2", "s12", "s2y")
    return f"""
WITH e AS (
  SELECT (epoch_us(ts) - {int(t0)}) // {int(day_us)} AS x1,
         user_id % 2 AS x2,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT CAST(count(*) AS HUGEINT) AS n, CAST(sum(x1) AS HUGEINT) AS s1,
         CAST(sum(x2) AS HUGEINT) AS s2, CAST(sum(x1*x1) AS HUGEINT) AS s11,
         CAST(sum(x1*x2) AS HUGEINT) AS s12, CAST(sum(x2*x2) AS HUGEINT) AS s22,
         CAST(sum(y) AS HUGEINT) AS sy, CAST(sum(x1*y) AS HUGEINT) AS s1y,
         CAST(sum(x2*y) AS HUGEINT) AS s2y
  FROM e
)
SELECT CAST(n AS BIGINT) AS n_events,
       CAST({d0} AS DOUBLE) / CAST({d} AS DOUBLE) AS beta0,
       CAST({d1} AS DOUBLE) / CAST({d} AS DOUBLE) AS beta1,
       CAST({d2} AS DOUBLE) / CAST({d} AS DOUBLE) AS beta2
FROM s
"""


def bloom_fpr_users(m: int, k: int) -> str:
    """Bloom-FPR mirror: the same md5 bit positions; a probe is a
    false positive when all k of its bits exist in the key bitset."""
    def pos(j, uid):
        return (
            f"CAST(('0x' || substr(md5({j} || ':' || CAST({uid} AS VARCHAR)), 1, 8))"
            f" AS UBIGINT) % {int(m)}"
        )

    exists = "\n    AND ".join(
        f"EXISTS (SELECT 1 FROM bits WHERE b = {pos(repr(str(j)), 'pr.uid')})"
        for j in range(int(k))
    )
    return f"""
WITH ks AS (SELECT DISTINCT user_id AS uid FROM events WHERE user_id % 2 = 0),
pr AS (SELECT DISTINCT user_id AS uid FROM events WHERE user_id % 2 = 1),
bits AS (
  SELECT DISTINCT {pos("CAST(r.j AS VARCHAR)", "ks.uid")} AS b
  FROM ks CROSS JOIN range({int(k)}) r(j)
), fp AS (
  SELECT count(*) AS n_fp FROM pr
  WHERE {exists}
)
SELECT CAST((SELECT count(*) FROM ks) AS BIGINT) AS n_keys,
       CAST((SELECT count(*) FROM pr) AS BIGINT) AS n_probes,
       CAST((SELECT count(*) FROM bits) AS BIGINT) AS n_bits_set,
       CAST(fp.n_fp AS BIGINT) AS n_fp,
       CAST(fp.n_fp AS DOUBLE) / CAST((SELECT count(*) FROM pr) AS DOUBLE) AS fpr
FROM fp
"""


def conversion_latency_median(t0: int, day_us: int) -> str:
    """Conversion-latency mirror: per purchase EVENT the max strictly
    prior click of the same user, lower-median rank per day."""
    return f"""
WITH c AS (
  SELECT user_id, epoch_us(ts) AS t FROM events WHERE event_type = 'click'
), p AS (
  SELECT event_id, user_id, epoch_us(ts) AS t FROM events
  WHERE event_type = 'purchase'
), g AS (
  SELECT p.event_id, p.t, p.t - max(c.t) AS gap
  FROM p JOIN c ON c.user_id = p.user_id AND c.t < p.t
  GROUP BY 1, 2
), d AS (
  SELECT (t - {int(t0)}) // {int(day_us)} AS day, gap FROM g
), r AS (
  SELECT day, gap,
         row_number() OVER (PARTITION BY day ORDER BY gap) AS rn,
         count(*) OVER (PARTITION BY day) AS cnt
  FROM d
)
SELECT CAST(day AS BIGINT) AS day, CAST(cnt AS BIGINT) AS n_conversions,
       CAST(gap AS BIGINT) AS median_gap_us
FROM r WHERE rn = (cnt + 1) // 2 ORDER BY 1
"""


def user_value_holt() -> str:
    """Holt mirror: the identical coupled recurrences as a recursive
    CTE — // is the same truncating division the engine pins."""
    return """
WITH RECURSIVE v AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS val,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) AS rn
  FROM events
), r AS (
  SELECT user_id, rn, val AS l, CAST(0 AS BIGINT) AS b FROM v WHERE rn = 1
  UNION ALL
  SELECT v.user_id, v.rn,
         (r.l + r.b + v.val) // 2,
         (r.b + ((r.l + r.b + v.val) // 2 - r.l)) // 2
  FROM r JOIN v ON v.user_id = r.user_id AND v.rn = r.rn + 1
)
SELECT user_id,
       CAST(max(rn) AS BIGINT) AS n,
       CAST(arg_max(l, rn) AS BIGINT) AS level_c,
       CAST(arg_max(b, rn) AS BIGINT) AS trend_c
FROM r GROUP BY 1 ORDER BY 1
"""


def theil_index_by_type() -> str:
    """Theil mirror: the (etype, cents) histogram, separately
    quantized milli-nat logs, exact integer numerator, one IEEE
    division; a zero value's term is 0 (log argument clamped to 1)."""
    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    return f"""
WITH h AS (
  SELECT event_type AS etype, CAST(round(value*100) AS BIGINT) AS c,
         count(*) AS m
  FROM events GROUP BY 1, 2
), t AS (
  SELECT etype, sum(m) AS n, sum(m*c) AS s FROM h GROUP BY 1
), x AS (
  SELECT h.etype,
         sum(h.m * h.c * ({q.format(x='greatest(h.c * t.n, 1)')} - {q.format(x='t.s')})) AS num
  FROM h JOIN t USING (etype) GROUP BY 1
)
SELECT x.etype, CAST(t.n AS BIGINT) AS n_events, CAST(t.s AS BIGINT) AS sum_cents,
       CAST(x.num AS BIGINT) AS num,
       CAST(x.num AS DOUBLE) / CAST(t.s AS DOUBLE) AS theil_mnat
FROM x JOIN t USING (etype) ORDER BY 1
"""


def nelson_aalen(dwell_end: int, day_us: int) -> str:
    """Nelson-Aalen mirror: the KM at-risk derivation with the
    micro-unit floor-division hazard increments in an ordered
    cumulative sum."""
    return (
        DERIVE
        + f"""
, r AS (
  SELECT osm_id, ts_us, visible,
         row_number() OVER (PARTITION BY osm_id
                            ORDER BY ts_us DESC, v DESC) AS rn,
         min(ts_us) OVER (PARTITION BY osm_id) AS t_first
  FROM d
), e AS (
  SELECT osm_id, t_first,
         CASE WHEN visible THEN 0 ELSE 1 END AS deleted,
         CASE WHEN visible THEN {int(dwell_end)} ELSE ts_us END AS t_end
  FROM r WHERE rn = 1
), h AS (
  SELECT (t_end - t_first) // {int(day_us)} AS t,
         count(*) AS m, coalesce(sum(deleted), 0) AS d
  FROM e GROUP BY 1
), rk AS (
  SELECT t, d,
         sum(m) OVER (ORDER BY t DESC ROWS UNBOUNDED PRECEDING) AS n
  FROM h
), dd AS (
  SELECT t, n, d,
         sum((1000000 * d) // n)
           OVER (ORDER BY t ROWS UNBOUNDED PRECEDING) AS cum
  FROM rk WHERE d > 0
)
SELECT CAST(t AS BIGINT) AS t_days, CAST(n AS BIGINT) AS n_at_risk,
       CAST(d AS BIGINT) AS n_deaths, CAST(cum AS BIGINT) AS cum_hazard_micro,
       CAST(cum AS DOUBLE) / CAST(1000000 AS DOUBLE) AS cum_hazard
FROM dd ORDER BY 1
"""
    )


def flow_distance_decay(w: int, h: int) -> str:
    """Gravity-decay mirror: the cell_flows query as a derived table,
    HUGEINT center-distance squares, milli-nat logs, exact OLS
    sufficient statistics, one IEEE division."""
    q = "CAST(round(1000*ln(CAST({x} AS DOUBLE))) AS BIGINT)"
    flows = cell_flows(w, h)
    return f"""
WITH fl AS (
  SELECT * FROM ({flows}) t
), p AS (
  SELECT {q.format(x=(
      "(CAST(2*" + str(int(w)) + "*(from_i - to_i) + " + str(int(w))
      + "*(from_j - to_j) AS HUGEINT)"
      "  * CAST(2*" + str(int(w)) + "*(from_i - to_i) + " + str(int(w))
      + "*(from_j - to_j) AS HUGEINT)"
      " + CAST(" + str(int(h)) + "*(from_j - to_j) AS HUGEINT)"
      "  * CAST(" + str(int(h)) + "*(from_j - to_j) AS HUGEINT))"
  ))} AS x,
         {q.format(x='n_moves')} AS y
  FROM fl
), s AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x*x) AS sxx, sum(x*y) AS sxy
  FROM p
)
SELECT CAST(n AS BIGINT) AS n_flows,
       CAST(n*sxy - sx*sy AS BIGINT) AS num,
       CAST(n*sxx - sx*sx AS BIGINT) AS den,
       CAST(n*sxy - sx*sy AS DOUBLE) / CAST(n*sxx - sx*sx AS DOUBLE)
         AS decay_slope
FROM s
"""




def snapshot_count_by_geohash_multiprec(precs: tuple) -> str:
    """Geohash-pyramid mirror: the full geohash-5 rendering, rolled up
    by STRING PREFIX per precision (UNION ALL) — a pass certifies
    prefix containment == the engine's bit-shift rollup."""
    base = snapshot_count_by_geohash()
    legs = "\nUNION ALL\n".join(
        f"""SELECT CAST({int(p)} AS BIGINT) AS prec, substr(geohash, 1, {int(p)}) AS geohash,
       CAST(sum(n_snapshots) AS BIGINT) AS n_snapshots
FROM g5 GROUP BY 2"""
        for p in precs
    )
    return f"""
WITH g5 AS ({base})
{legs}
ORDER BY 1, 2
"""
