"""The two OSHDB views as Ray Data pipelines.

``snapshot_stage`` = ``OSMEntitySnapshotView`` (oshdb-api/.../OSMEntitySnapshotView.java)
``contribution_stage`` = ``OSMContributionView``

Both are a SINGLE fused stage over the span-document
table: decode (span parse) + temporal interpolation happen in one
callable so that a document's versions can never be split across batch
boundaries by re-batching. No shuffle is needed for the views
themselves — each input row is a complete history (the reference
reaches the same property by denormalizing member histories into each
OSH entity at import time, documentation/manual/data-model.md:20-22);
the shuffle comes afterwards, in the groupby(cell, timestamp)
aggregation (see rayhist.aggregate).

Each view is a stage builder (``*_stage``: arguments -> pyarrow table
function). Partials combined on the driver run the stage through
``io.map_blocks`` (one task per resident block); the Dataset wrappers
(``snapshot_view``, ``snapshot_counts``) map it
for callers that go on to a distributed groupby.

Stages are plain functions (stateless tasks). Stages that need
compiled state (boundary-polygon indexes, grid tables) live in
rayhist.spatial as callable classes run as actor pools.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from .functions.deadline import Deadline
from .model import decode_spans, doc_codes
from .temporal import TagFilter, contributions, snapshots


def _match_mask(decoded: pa.Table, tag_filter: TagFilter | None) -> np.ndarray | None:
    return None if tag_filter is None else tag_filter.mask(decoded)


def _ids_mask(decoded: pa.Table, lut: np.ndarray) -> np.ndarray:
    """Int-keytable filter: a pure gather through the precomputed sig
    LUT (id -1 wraps to the trailing no-tags slot)."""
    return lut[decoded["tag_id"].to_numpy(zero_copy_only=False)]


def snapshot_stage(
    timestamps,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
):
    """Stage emitting entity snapshots at the given query timestamps.

    One output row per (entity, timestamp) where the entity exists,
    is visible, and matches the filter — semantics of
    ``CellIterator.iterateByTimestamps`` (CellIterator.java:181-347).
    ``deadline`` is checked between batches (the Kernels.java:24-36
    isActive() analog) and raises RayhistTimeoutError when tripped.
    """
    ts = np.asarray(list(timestamps), dtype=np.int64)

    def stage(batch: pa.Table) -> pa.Table:
        if deadline is not None:
            deadline.check()
        decoded = decode_spans(batch)
        return snapshots(decoded, ts, _match_mask(decoded, tag_filter), codes=doc_codes(batch))

    return stage


def snapshot_view(docs: ray.data.Dataset, *args, **kwargs) -> ray.data.Dataset:
    """Dataset of entity snapshots (``snapshot_stage`` over ``docs``)."""
    return docs.map_batches(snapshot_stage(*args, **kwargs), batch_format="pyarrow")


def contribution_stage(
    t_from: int,
    t_to: int,
    tag_filter: TagFilter | None = None,
    tags: bool = True,
    geom: bool = True,
    deadline: Deadline | None = None,
):
    """Stage emitting classified contributions in [t_from, t_to) —
    semantics of ``CellIterator.iterateByContribution``
    (CellIterator.java:437-712). ``tags``/``geom`` prune the decode
    when the caller never reads tag/geometry outputs (the
    is_tag_change / is_geom_change flags become vacuously false)."""

    def stage(batch: pa.Table) -> pa.Table:
        if deadline is not None:
            deadline.check()
        decoded = decode_spans(
            batch, tags=tags or tag_filter is not None, geom=geom
        )
        return contributions(
            decoded, int(t_from), int(t_to), _match_mask(decoded, tag_filter),
            codes=doc_codes(batch),
        )

    return stage


# ---------------------------------------------------------------------------
# Fused view + partial-aggregation pipelines (the hot path).
#
# A bare groupby over the exploded snapshot/contribution rows shuffles
# every row; these fuse decode + interpolation + per-batch partial
# aggregation into ONE stage, so the combine only sees |keys| rows per
# block (the reference's accumulator/combiner split,
# MapReducer.java:896-1034).
# ---------------------------------------------------------------------------


def snapshot_counts_stage(
    timestamps,
    tag_filter: TagFilter | None = None,
    cell_zoom: int | None = None,
    keytable: list[str] | None = None,
    deadline: Deadline | None = None,
):
    """Stage of partial snapshot counts per (ts_q[, cell]) per batch.

    ``keytable`` (the ingest sig keytable) switches the tag filter to
    the int-id path: no tag-string decode at all, the per-version test
    is a LUT gather (osm/OSMEntity.java:97-152 semantics).

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``, or for corpus-cardinality keys
    per key bucket with ``ops.relational.combine_by_key(docs, keys,
    {"n_part": "sum"}, stage=stage)``.
    """
    ts = np.asarray(list(timestamps), dtype=np.int64)
    keys = ["ts_q"] + (["cell"] if cell_zoom is not None else [])
    # prune the decode to what this aggregation reads (BASELINE.md:
    # memory bandwidth is the wall; unread fields are wasted traffic)
    use_ids = keytable is not None and tag_filter is not None
    lut = tag_filter.sig_lut(keytable) if use_ids else None
    need_tags = "ids" if use_ids else tag_filter is not None
    need_geom = cell_zoom is not None
    gather = ["lon_e7", "lat_e7"] if need_geom else []

    def stage(batch: pa.Table) -> pa.Table:
        if deadline is not None:
            deadline.check()
        decoded = decode_spans(batch, tags=need_tags, geom=need_geom)
        m = _ids_mask(decoded, lut) if use_ids else _match_mask(decoded, tag_filter)
        s = snapshots(decoded, ts, m, columns=gather, codes=doc_codes(batch))
        cols = s.select(["ts_q"])
        if cell_zoom is not None:
            from .spatial.grid import cell_id

            cell = cell_id(
                s["lon_e7"].to_numpy(zero_copy_only=False),
                s["lat_e7"].to_numpy(zero_copy_only=False),
                cell_zoom,
            )
            cols = cols.append_column("cell", pa.array(cell))
        g = pa.TableGroupBy(cols, keys).aggregate([([], "count_all")])
        return g.rename_columns([*keys, "n_part"])

    return stage, keys


def snapshot_counts(docs: ray.data.Dataset, *args, **kwargs):
    """(Dataset of partials, key list): ``snapshot_counts_stage`` over
    ``docs``, for a distributed final."""
    stage, keys = snapshot_counts_stage(*args, **kwargs)
    return docs.map_batches(stage, batch_format="pyarrow"), keys


def contribution_stats_stage(
    t_from: int,
    t_to: int,
    tag_filter: TagFilter | None = None,
    bins=None,
    flag_cols: list[str] | None = None,
    keytable: list[str] | None = None,
    deadline: Deadline | None = None,
):
    """Stage of partial contribution stats per batch: count + per-type
    sums, optionally keyed by floor-binned timestamp.

    ``flag_cols`` limits which classification flags are aggregated —
    and thereby how much of the span decode runs: a query that only
    counts contributions/creations never pays for the tag-signature
    join or the geometry regex. ``keytable`` switches the tag work
    (filter + TAG_CHANGE compare) to int sig ids — see snapshot_counts.

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``.
    """
    from .aggregate import floor_bin

    bins_arr = None if bins is None else np.asarray(list(bins), dtype=np.int64)
    keys = ["ts_q"] if bins_arr is not None else []
    if flag_cols is None:
        flag_cols = ["is_creation", "is_deletion", "is_tag_change", "is_geom_change"]
    need_tags = tag_filter is not None or "is_tag_change" in flag_cols
    # int-keytable path: tag filter AND tag-change compare both run on
    # per-version sig ids; no tag-string decode at all
    use_ids = keytable is not None and need_tags
    lut = tag_filter.sig_lut(keytable) if (use_ids and tag_filter is not None) else None
    if use_ids:
        need_tags = "ids"
    need_geom = "is_geom_change" in flag_cols

    def stage(batch: pa.Table) -> pa.Table:
        if deadline is not None:
            deadline.check()
        decoded = decode_spans(batch, tags=need_tags, geom=need_geom)
        m = _ids_mask(decoded, lut) if lut is not None else _match_mask(decoded, tag_filter)
        c = contributions(
            decoded, int(t_from), int(t_to), m,
            tag_col="tag_id" if use_ids else "tag_sig",
            columns=["ts"] if bins_arr is not None else [],
            codes=doc_codes(batch),
        )
        t = pa.table(
            {
                **(
                    {"ts_q": pa.array(floor_bin(c["ts"].to_numpy(zero_copy_only=False), bins_arr))}
                    if bins_arr is not None
                    else {}
                ),
                **{f: c[f].cast(pa.int64()) for f in flag_cols},
                "one": pa.array(np.ones(len(c), dtype=np.int64)),
            }
        )
        if keys:
            g = pa.TableGroupBy(t, keys).aggregate(
                [("one", "sum")] + [(f, "sum") for f in flag_cols]
            )
            return g.rename_columns([*keys, "n_part", *[f + "_part" for f in flag_cols]])
        sums = {"n_part": pa.array([len(c)], type=pa.int64())}
        for f in flag_cols:
            import pyarrow.compute as pc

            sums[f + "_part"] = pa.array([pc.sum(t[f]).as_py() or 0], type=pa.int64())
        return pa.table(sums)

    return stage, keys
