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

Each view is a stage builder (``*_stage``: arguments -> a callable
from pyarrow table to pyarrow table), run by ``io.map_blocks`` (one
task per resident block) for partials combined on the driver, or by
``io.materialize_blocks``/``io.reduce_by_key`` for an output that stays
distributed.

Each stage is a frozen instance of a module-level callable class, so
it pickles by reference to its class plus its fields (tens of
microseconds, where a nested closure is pickled by value, ~0.5 ms per
shipment). State the stage needs (timestamp arrays, tag LUTs) is
computed once by the builder and held in its fields. ``io.map_blocks``
ships a stage in the arguments of a query's one block task, or
``ray.put``s it once for a query of several tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import floor_bin
from .functions.deadline import Deadline
from .model import decode_spans, doc_codes
from .spatial.grid import cell_id
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
    return SnapshotStage(np.asarray(list(timestamps), dtype=np.int64), tag_filter, deadline)


@dataclass(frozen=True, eq=False)
class SnapshotStage:
    """The ``snapshot_stage`` callable."""

    ts: np.ndarray
    tag_filter: TagFilter | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        decoded = decode_spans(batch)
        return snapshots(
            decoded, self.ts, _match_mask(decoded, self.tag_filter), codes=doc_codes(batch)
        )


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
    return ContributionStage(
        int(t_from), int(t_to), tag_filter, tags or tag_filter is not None, geom, deadline
    )


@dataclass(frozen=True, eq=False)
class ContributionStage:
    """The ``contribution_stage`` callable."""

    t_from: int
    t_to: int
    tag_filter: TagFilter | None
    tags: bool
    geom: bool
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        decoded = decode_spans(batch, tags=self.tags, geom=self.geom)
        return contributions(
            decoded, self.t_from, self.t_to, _match_mask(decoded, self.tag_filter),
            codes=doc_codes(batch),
        )


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
    keys = ["ts_q"] + (["cell"] if cell_zoom is not None else [])
    use_ids = keytable is not None and tag_filter is not None
    stage = SnapshotCountsStage(
        ts=np.asarray(list(timestamps), dtype=np.int64),
        tag_filter=tag_filter,
        lut=tag_filter.sig_lut(keytable) if use_ids else None,
        cell_zoom=cell_zoom,
        deadline=deadline,
    )
    return stage, keys


@dataclass(frozen=True, eq=False)
class SnapshotCountsStage:
    """The ``snapshot_counts_stage`` callable; ``lut`` is set on the
    int-keytable path, which decodes no tag strings."""

    ts: np.ndarray
    tag_filter: TagFilter | None
    lut: np.ndarray | None
    cell_zoom: int | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        # prune the decode to what this aggregation reads (BASELINE.md:
        # memory bandwidth is the wall; unread fields are wasted traffic)
        need_geom = self.cell_zoom is not None
        if self.lut is not None:
            decoded = decode_spans(batch, tags="ids", geom=need_geom)
            m = _ids_mask(decoded, self.lut)
        else:
            decoded = decode_spans(batch, tags=self.tag_filter is not None, geom=need_geom)
            m = _match_mask(decoded, self.tag_filter)
        gather = ["lon_e7", "lat_e7"] if need_geom else []
        s = snapshots(decoded, self.ts, m, columns=gather, codes=doc_codes(batch))
        cols = s.select(["ts_q"])
        if need_geom:
            cell = cell_id(
                s["lon_e7"].to_numpy(zero_copy_only=False),
                s["lat_e7"].to_numpy(zero_copy_only=False),
                self.cell_zoom,
            )
            cols = cols.append_column("cell", pa.array(cell))
        keys = cols.column_names
        g = pa.TableGroupBy(cols, keys).aggregate([([], "count_all")])
        return g.rename_columns([*keys, "n_part"])


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
    (filter + TAG_CHANGE compare) to int sig ids — see snapshot_counts_stage.

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``.
    """
    keys = ["ts_q"] if bins is not None else []
    if flag_cols is None:
        flag_cols = ["is_creation", "is_deletion", "is_tag_change", "is_geom_change"]
    need_tags = tag_filter is not None or "is_tag_change" in flag_cols
    # int-keytable path: tag filter AND tag-change compare both run on
    # per-version sig ids; no tag-string decode at all
    use_ids = keytable is not None and need_tags
    stage = ContributionStatsStage(
        t_from=int(t_from),
        t_to=int(t_to),
        tag_filter=tag_filter,
        lut=tag_filter.sig_lut(keytable) if (use_ids and tag_filter is not None) else None,
        bins=None if bins is None else np.asarray(list(bins), dtype=np.int64),
        flag_cols=tuple(flag_cols),
        need_tags="ids" if use_ids else need_tags,
        deadline=deadline,
    )
    return stage, keys


@dataclass(frozen=True, eq=False)
class ContributionStatsStage:
    """The ``contribution_stats_stage`` callable; ``lut`` is set when
    the tag filter runs on the int-keytable path, ``need_tags`` is
    "ids" when the tag-change compare does."""

    t_from: int
    t_to: int
    tag_filter: TagFilter | None
    lut: np.ndarray | None
    bins: np.ndarray | None
    flag_cols: tuple[str, ...]
    need_tags: bool | str
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        flag_cols = list(self.flag_cols)
        decoded = decode_spans(batch, tags=self.need_tags, geom="is_geom_change" in flag_cols)
        if self.lut is not None:
            m = _ids_mask(decoded, self.lut)
        else:
            m = _match_mask(decoded, self.tag_filter)
        binned = self.bins is not None
        c = contributions(
            decoded, self.t_from, self.t_to, m,
            tag_col="tag_id" if self.need_tags == "ids" else "tag_sig",
            columns=["ts"] if binned else [],
            codes=doc_codes(batch),
        )
        t = pa.table(
            {
                **(
                    {"ts_q": pa.array(floor_bin(c["ts"].to_numpy(zero_copy_only=False), self.bins))}
                    if binned
                    else {}
                ),
                **{f: c[f].cast(pa.int64()) for f in flag_cols},
                "one": pa.array(np.ones(len(c), dtype=np.int64)),
            }
        )
        if binned:
            g = pa.TableGroupBy(t, ["ts_q"]).aggregate(
                [("one", "sum")] + [(f, "sum") for f in flag_cols]
            )
            return g.rename_columns(["ts_q", "n_part", *[f + "_part" for f in flag_cols]])
        sums = {"n_part": pa.array([len(c)], type=pa.int64())}
        for f in flag_cols:
            sums[f + "_part"] = pa.array([pc.sum(t[f]).as_py() or 0], type=pa.int64())
        return pa.table(sums)
