"""The two OSHDB views as Ray Data pipelines.

``snapshot_stage`` = ``OSMEntitySnapshotView`` (oshdb-api/.../OSMEntitySnapshotView.java)
``contribution_stage`` = ``OSMContributionView``

Both are a SINGLE fused stage over the document table: decode +
temporal interpolation happen in one callable so that a document's
versions can never be split across batch boundaries by re-batching.
No shuffle is needed for the views themselves — each input row is a
complete history (the reference reaches the same property by
denormalizing member histories into each OSH entity at import time,
documentation/manual/data-model.md:20-22); the shuffle comes
afterwards, in the groupby(cell, timestamp) aggregation (see
rayhist.aggregate).

Tags stay keytable ids on this path: a tag filter is a bool LUT over
the table's keytable, built by the stage builder on the driver, and a
stage that emits tag strings gathers them through the
``model.tag_lookup`` of the same keytable; no stage reads span text.

Each view is a stage builder (``*_stage``: arguments -> a callable
from pyarrow table to pyarrow table), run by ``io.map_blocks`` (one
task per resident block) for partials combined on the driver, or by
``io.materialize_blocks``/``io.reduce_by_key`` for an output that stays
distributed.

Each stage is a frozen instance of a module-level callable class, so
it pickles by reference to its class plus its fields (tens of
microseconds, where a nested closure is pickled by value, ~0.5 ms per
shipment). State the stage needs (timestamp arrays, tag LUTs and
lookups) is computed once by the builder and held in its fields.
``io.map_blocks`` ships a stage in the arguments of a query's one
block task, or ``ray.put``s it once for a query of several tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import floor_bin
from .functions.deadline import Deadline
from .model import decode_spans, doc_codes, tag_lookup
from .spatial.grid import cell_id
from .temporal import TagFilter, contributions, snapshots


def _lut(tag_filter: TagFilter | None, keytable: list[str] | None) -> np.ndarray | None:
    """The filter's bool LUT over the keytable (``TagFilter.sig_lut``),
    built on the driver; a filter without a keytable raises."""
    if tag_filter is None:
        return None
    if keytable is None:
        raise ValueError("a tag filter needs the table's keytable")
    return tag_filter.sig_lut(keytable)


def _lut_mask(decoded: pa.Table, lut: np.ndarray | None) -> np.ndarray | None:
    """Per-version filter mask: a gather through the LUT (id -1 wraps
    to the trailing no-tags slot)."""
    if lut is None:
        return None
    return lut[decoded["tag_id"].to_numpy(zero_copy_only=False)]


def snapshot_stage(
    timestamps,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
):
    """Stage emitting entity snapshots at the given query timestamps.

    One output row per (entity, timestamp) where the entity exists,
    is visible, and matches the filter — semantics of
    ``CellIterator.iterateByTimestamps`` (CellIterator.java:181-347).
    The tag strings of the rows are gathered through ``keytable``
    (the table's ``ingest.sig_keytable``); with None they are
    constant-filled and a tag filter raises.
    ``deadline`` is checked between batches (the Kernels.java:24-36
    isActive() analog) and raises RayhistTimeoutError when tripped.
    """
    return SnapshotStage(
        np.asarray(list(timestamps), dtype=np.int64),
        None if keytable is None else tag_lookup(keytable),
        _lut(tag_filter, keytable),
        deadline,
    )


@dataclass(frozen=True, eq=False)
class SnapshotStage:
    """The ``snapshot_stage`` callable."""

    ts: np.ndarray
    lookup: pa.Table | None
    lut: np.ndarray | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        decoded = decode_spans(batch, self.lookup)
        return snapshots(decoded, self.ts, _lut_mask(decoded, self.lut), codes=doc_codes(batch))


def contribution_stage(
    t_from: int,
    t_to: int,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    geom: bool = True,
    deadline: Deadline | None = None,
):
    """Stage emitting classified contributions in [t_from, t_to) —
    semantics of ``CellIterator.iterateByContribution``
    (CellIterator.java:437-712). ``keytable`` as in ``snapshot_stage``
    (TAG_CHANGE compares tag ids and needs none); ``geom=False``
    prunes the coordinate decode when the caller never reads geometry
    outputs (is_geom_change becomes vacuously false)."""
    return ContributionStage(
        int(t_from), int(t_to),
        None if keytable is None else tag_lookup(keytable),
        _lut(tag_filter, keytable), geom, deadline,
    )


@dataclass(frozen=True, eq=False)
class ContributionStage:
    """The ``contribution_stage`` callable."""

    t_from: int
    t_to: int
    lookup: pa.Table | None
    lut: np.ndarray | None
    geom: bool
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        decoded = decode_spans(batch, self.lookup, geom=self.geom)
        return contributions(
            decoded, self.t_from, self.t_to, _lut_mask(decoded, self.lut),
            codes=doc_codes(batch),
        )


# ---------------------------------------------------------------------------
# Fused view + partial-aggregation pipelines (the hot path).
#
# A bare groupby over the exploded snapshot/contribution rows shuffles
# every row; these fuse decode + interpolation + per-batch partial
# aggregation into ONE stage, so the combine only sees |keys| rows per
# block (the reference's accumulator/combiner split,
# MapReducer.java:896-1034). They read no tag strings: a tag filter is
# a LUT gather over the table's keytable (osm/OSMEntity.java:97-152
# semantics), and TAG_CHANGE compares tag ids.
# ---------------------------------------------------------------------------


def snapshot_counts_stage(
    timestamps,
    tag_filter: TagFilter | None = None,
    cell_zoom: int | None = None,
    keytable: list[str] | None = None,
    deadline: Deadline | None = None,
):
    """Stage of partial snapshot counts per (ts_q[, cell]) per batch.

    A ``tag_filter`` needs ``keytable`` (the ingest sig keytable).

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``, or for corpus-cardinality keys
    per key bucket with ``ops.relational.combine_by_key(docs, keys,
    {"n_part": "sum"}, stage=stage)``.
    """
    keys = ["ts_q"] + (["cell"] if cell_zoom is not None else [])
    stage = SnapshotCountsStage(
        ts=np.asarray(list(timestamps), dtype=np.int64),
        lut=_lut(tag_filter, keytable),
        cell_zoom=cell_zoom,
        deadline=deadline,
    )
    return stage, keys


@dataclass(frozen=True, eq=False)
class SnapshotCountsStage:
    """The ``snapshot_counts_stage`` callable."""

    ts: np.ndarray
    lut: np.ndarray | None
    cell_zoom: int | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        # prune the decode to what this aggregation reads (BASELINE.md:
        # memory bandwidth is the wall; unread fields are wasted traffic)
        need_geom = self.cell_zoom is not None
        decoded = decode_spans(batch, geom=need_geom)
        m = _lut_mask(decoded, self.lut)
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
    and thereby how much of the decode runs: a query that never counts
    geometry changes never decodes coordinates. A ``tag_filter`` needs
    ``keytable``, as in snapshot_counts_stage.

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``.
    """
    keys = ["ts_q"] if bins is not None else []
    if flag_cols is None:
        flag_cols = ["is_creation", "is_deletion", "is_tag_change", "is_geom_change"]
    stage = ContributionStatsStage(
        t_from=int(t_from),
        t_to=int(t_to),
        lut=_lut(tag_filter, keytable),
        bins=None if bins is None else np.asarray(list(bins), dtype=np.int64),
        flag_cols=tuple(flag_cols),
        deadline=deadline,
    )
    return stage, keys


@dataclass(frozen=True, eq=False)
class ContributionStatsStage:
    """The ``contribution_stats_stage`` callable."""

    t_from: int
    t_to: int
    lut: np.ndarray | None
    bins: np.ndarray | None
    flag_cols: tuple[str, ...]
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        flag_cols = list(self.flag_cols)
        decoded = decode_spans(batch, geom="is_geom_change" in flag_cols)
        binned = self.bins is not None
        c = contributions(
            decoded, self.t_from, self.t_to, _lut_mask(decoded, self.lut),
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
