"""The two OSHDB views: one entry each for their rows, and the stages
built on them.

``snapshot_rows``/``snapshot_stage`` = ``OSMEntitySnapshotView``
(oshdb-api/.../OSMEntitySnapshotView.java), ``contribution_rows``/
``contribution_stage`` = ``OSMContributionView``.

The reference builds one ``CellIterator`` per query (timestamps, AOI,
tag interpreter, filters; MapReducerJdbcMultithread.java:53-57) and
takes every view row from its ``iterateByTimestamps`` or
``iterateByContribution`` (CellIterator.java:181-347, :437-712). Here
the two ``*_rows`` entries are that iterator: every snapshot and
contribution row of the engine, in the stages below, in the facade
(``rayhist.api``) and in the pipelines, comes from them. Given a
document batch and the view columns a stage reads, an entry decodes
only what those columns need (coordinates when a coordinate column,
``is_geom_change`` or an AOI is read; tag strings only through a
lookup, and a tag-string read without one raises), masks the versions,
interpolates or classifies with the batch's document codes
(``model.doc_codes``) and gathers only those columns.

Both work per batch of COMPLETE documents: decode + temporal
interpolation happen in one call, so a document's versions can never
be split across batch boundaries. No shuffle is needed for the views
themselves — each input row is a complete history (the reference
reaches the same property by denormalizing member histories into each
OSH entity at import time, documentation/manual/data-model.md:20-22);
a keyed aggregation over view rows combines per-block partials on the
driver (``aggregate.combine_partials``) or per key bucket
(``io.reduce_by_key``).

Tags stay keytable ids on this path: a tag filter is a bool LUT over
the table's keytable, built by the stage builder on the driver, and a
stage that emits tag strings gathers them through the
``model.tag_lookup`` of the same keytable; no stage reads span text.

Each view is also a stage builder (``*_stage``: arguments -> a callable
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
from .temporal import _STATE_COLS, TagFilter, contributions, snapshots

_FLAGS = ("is_creation", "is_deletion", "is_tag_change", "is_geom_change")
# every column of a view row, in output order
SNAPSHOT_COLUMNS = (*_STATE_COLS, "ts_q")
CONTRIBUTION_COLUMNS = (*_STATE_COLS, *_FLAGS, "prev_lon_e7", "prev_lat_e7")
# view columns read through the keytable's lookup, and those that need
# the coordinate decode
TAG_STRINGS = frozenset({"tag_sig", "etype", "kk"})
_GEOM = frozenset({"lon_e7", "lat_e7", "is_geom_change", "prev_lon_e7", "prev_lat_e7"})

# ``match``: a per-version filter, either a bool LUT over the keytable
# (gathered by ``tag_id``; id -1 wraps to the trailing no-tags slot) or
# a callable from the decoded versions to a bool mask. ``aoi``: an area
# of interest, (lon_e7, lat_e7) arrays -> bool inside mask, per version


def _decode(batch: pa.Table, columns, lookup: pa.Table | None, aoi) -> pa.Table:
    """``decode_spans`` pruned to what ``columns`` and ``aoi`` read."""
    tags = TAG_STRINGS.intersection(columns)
    if tags and lookup is None:
        raise ValueError(f"view columns {sorted(tags)} need the keytable's tag lookup")
    geom = aoi is not None or not _GEOM.isdisjoint(columns)
    return decode_spans(batch, lookup if tags else None, geom=geom)


def _mask(decoded: pa.Table, match) -> np.ndarray | None:
    if match is None:
        return None
    if callable(match):
        return np.asarray(match(decoded), dtype=bool)
    return match[decoded["tag_id"].to_numpy(zero_copy_only=False)]


def snapshot_rows(
    batch: pa.Table, ts, columns, lookup: pa.Table | None = None,
    match=None, aoi=None,
) -> pa.Table:
    """The snapshot view rows of a document batch, ``columns`` only
    (of ``SNAPSHOT_COLUMNS``, in the given order): one row per (entity,
    timestamp in ``ts``) where the entity exists, is visible, matches
    ``match`` and lies in ``aoi`` — semantics of
    ``CellIterator.iterateByTimestamps`` (CellIterator.java:181-347).
    Tag strings are gathered through ``lookup`` (``model.tag_lookup``
    of the table's keytable)."""
    decoded = _decode(batch, columns, lookup, aoi)
    need = set(columns) | ({"lon_e7", "lat_e7"} if aoi is not None else set())
    s = snapshots(
        decoded, ts, _mask(decoded, match),
        columns=[c for c in _STATE_COLS if c in need], codes=doc_codes(batch),
    )
    if aoi is not None:  # the state's position, as a per-version mask would
        s = s.filter(pa.array(aoi(
            s["lon_e7"].to_numpy(zero_copy_only=False),
            s["lat_e7"].to_numpy(zero_copy_only=False),
        )))
    return s.select(list(columns))


def contribution_rows(
    batch: pa.Table, t_from: int, t_to: int, columns, lookup: pa.Table | None = None,
    match=None, aoi=None,
) -> pa.Table:
    """The contribution view rows of a document batch in [t_from,
    t_to), ``columns`` only (of ``CONTRIBUTION_COLUMNS``, in the given
    order) — semantics of ``CellIterator.iterateByContribution``
    (CellIterator.java:437-712). A version outside ``aoi`` is absent,
    like the reference's clipped-to-empty geometry
    (``temporal.contributions``); ``lookup`` and ``match`` as in
    ``snapshot_rows``."""
    decoded = _decode(batch, columns, lookup, aoi)
    inside = None
    if aoi is not None:
        inside = np.asarray(aoi(
            decoded["lon_e7"].to_numpy(zero_copy_only=False),
            decoded["lat_e7"].to_numpy(zero_copy_only=False),
        ), dtype=bool)
    c = contributions(
        decoded, t_from, t_to, _mask(decoded, match), aoi=inside,
        columns=[c for c in _STATE_COLS if c in columns], codes=doc_codes(batch),
    )
    return c.select(list(columns))


def _lut(tag_filter: TagFilter | None, keytable: list[str] | None) -> np.ndarray | None:
    """The filter's bool LUT over the keytable (``TagFilter.sig_lut``),
    built on the driver; a filter without a keytable raises."""
    if tag_filter is None:
        return None
    if keytable is None:
        raise ValueError("a tag filter needs the table's keytable")
    return tag_filter.sig_lut(keytable)


def _view_columns(columns, keytable: list[str] | None) -> tuple[str, ...]:
    """Every view column, less the tag strings without a keytable."""
    return tuple(c for c in columns if keytable is not None or c not in TAG_STRINGS)


def snapshot_stage(
    timestamps,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
):
    """Stage emitting the ``snapshot_rows`` of every view column at the
    given query timestamps. The tag strings of the rows are gathered
    through ``keytable`` (the table's ``ingest.sig_keytable``); with
    None they are left out and a tag filter raises.
    ``deadline`` is checked between batches (the Kernels.java:24-36
    isActive() analog) and raises RayhistTimeoutError when tripped.
    """
    return SnapshotStage(
        np.asarray(list(timestamps), dtype=np.int64),
        _view_columns(SNAPSHOT_COLUMNS, keytable),
        None if keytable is None else tag_lookup(keytable),
        _lut(tag_filter, keytable),
        deadline,
    )


@dataclass(frozen=True, eq=False)
class SnapshotStage:
    """The ``snapshot_stage`` callable."""

    ts: np.ndarray
    columns: tuple[str, ...]
    lookup: pa.Table | None
    lut: np.ndarray | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        return snapshot_rows(batch, self.ts, self.columns, self.lookup, self.lut)


def contribution_stage(
    t_from: int,
    t_to: int,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
):
    """Stage emitting the ``contribution_rows`` of every view column in
    [t_from, t_to). ``keytable`` as in ``snapshot_stage`` (TAG_CHANGE
    compares tag ids and needs none)."""
    return ContributionStage(
        int(t_from), int(t_to),
        _view_columns(CONTRIBUTION_COLUMNS, keytable),
        None if keytable is None else tag_lookup(keytable),
        _lut(tag_filter, keytable), deadline,
    )


@dataclass(frozen=True, eq=False)
class ContributionStage:
    """The ``contribution_stage`` callable."""

    t_from: int
    t_to: int
    columns: tuple[str, ...]
    lookup: pa.Table | None
    lut: np.ndarray | None
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        return contribution_rows(
            batch, self.t_from, self.t_to, self.columns, self.lookup, self.lut
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
        need_geom = self.cell_zoom is not None
        cols = ["ts_q", "lon_e7", "lat_e7"] if need_geom else ["ts_q"]
        s = snapshot_rows(batch, self.ts, cols, match=self.lut)
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
        flag_cols = list(_FLAGS)
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
        binned = self.bins is not None
        c = contribution_rows(
            batch, self.t_from, self.t_to, (["ts"] if binned else []) + flag_cols,
            match=self.lut,
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
