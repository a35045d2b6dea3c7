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

The stages are two classes. ``ViewRows`` is one query's view rows
(the view, its timestamps or interval, the columns read, the lookup,
the filter, the AOI and the deadline); ``snapshot_stage`` and
``contribution_stage`` build it over every view column. The per-batch
partial count and sums per key over those rows (the key a snapshot's
``ts_q``, a contribution's floor-bin, view columns and a cell id) is
``aggregate.KeyedPartials`` over a ``ViewRows``, the engine's one
accumulator; ``snapshot_counts_stage`` and ``contribution_stats_stage``
build it, and so does the facade for its count/sum/average and sketch
terminals (``rayhist.api``). A stage is run by ``io.map_blocks`` (one
task per resident block) for partials combined on the driver, or by
``io.materialize_blocks``/``io.reduce_by_key`` for an output that stays
distributed.

Each stage is a frozen instance of a module-level callable class, so
it pickles by reference to its class plus its fields (tens of
microseconds, where a nested closure is pickled by value, ~0.5 ms per
shipment); a cell indexer is a module-level function or a
``functools.partial`` of one, for the same reason. State the stage
needs (timestamp arrays, tag LUTs and lookups) is computed once by the
builder and held in its fields. ``io.map_blocks`` ships a stage in the
arguments of a query's one block task, or ``ray.put``s it once for a
query of several tasks.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .aggregate import KeyedPartials
from .functions.deadline import Deadline
from .model import decode_spans, doc_codes, tag_lookup
from .spatial.fip import Polygon, contains_convex
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
    if aoi is None:
        return s.select(list(columns))
    # the state's position, as a per-version mask would
    inside = aoi(
        s["lon_e7"].to_numpy(zero_copy_only=False), s["lat_e7"].to_numpy(zero_copy_only=False)
    )
    return s.select(list(columns)).filter(pa.array(inside))


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


@dataclass(frozen=True, eq=False)
class AOI:
    """An area of interest, (lon_e7, lat_e7) -> inside mask: the closed
    ``bbox``, the even-odd test of the ``rings`` (outer ring then holes,
    through the band index ``polygon`` builds once per process), or with
    ``convex`` the edge test of its one convex CCW ring
    (``spatial.fip.contains_convex``, which SQL mirrors literally)."""

    bbox: tuple[int, int, int, int] | None = None
    rings: tuple | None = None
    convex: bool = False

    def __call__(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        if self.bbox is not None:
            x0, y0, x1, y1 = self.bbox
            return (lon >= x0) & (lon <= x1) & (lat >= y0) & (lat <= y1)
        lon, lat = lon.astype(np.float64), lat.astype(np.float64)
        if self.convex:
            (ring,) = self.rings
            return contains_convex(ring, lon, lat)
        return polygon(self.rings).contains(lon, lat)


@functools.lru_cache(maxsize=64)
def _polygon(rings: tuple[tuple[tuple[int, ...], bytes], ...]) -> Polygon:
    return Polygon([np.frombuffer(b, np.float64).reshape(shape) for shape, b in rings])


def polygon(rings) -> Polygon:
    """The ``spatial.fip.Polygon`` (band index) of ``rings``, built once
    per process per ring set: a stage ships only the rings, and every
    block a worker runs reuses the index (~0.1 ms to build for a
    ``.poly`` boundary, against ~0.7 ms to test 2,000 points)."""
    arrays = [np.asarray(r, np.float64) for r in rings]
    return _polygon(tuple((a.shape, a.tobytes()) for a in arrays))


@dataclass(frozen=True, eq=False)
class ViewRows:
    """The stage of one query's view rows: ``snapshot_rows`` at the
    timestamps ``ts``, or with ``ts`` None ``contribution_rows`` in
    [t_from, t_to), of ``columns`` through ``lookup``, ``match`` and
    ``aoi`` — the reference's one ``CellIterator`` per query
    (MapReducerJdbcMultithread.java:53-57). ``deadline`` is checked
    per batch (the Kernels.java:24-36 isActive() analog) and raises
    RayhistTimeoutError when tripped."""

    ts: np.ndarray | None
    t_from: int
    t_to: int
    columns: tuple[str, ...]
    lookup: pa.Table | None
    match: object
    aoi: object
    deadline: Deadline | None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.deadline is not None:
            self.deadline.check()
        if self.ts is not None:
            return snapshot_rows(batch, self.ts, self.columns, self.lookup, self.match, self.aoi)
        return contribution_rows(
            batch, self.t_from, self.t_to, self.columns, self.lookup, self.match, self.aoi
        )


def _lut(tag_filter: TagFilter | None, keytable: list[str] | None) -> np.ndarray | None:
    """The filter's bool LUT over the keytable (``TagFilter.sig_lut``),
    built on the driver; a filter without a keytable raises."""
    if tag_filter is None:
        return None
    if keytable is None:
        raise ValueError("a tag filter needs the table's keytable")
    return tag_filter.sig_lut(keytable)


def _match(tag_filter: TagFilter | None, keytable: list[str] | None, match):
    """The one per-version filter of a stage: a tag filter's LUT, or
    ``match`` as it is."""
    if tag_filter is not None and match is not None:
        raise ValueError("pass a tag filter or a match, not both")
    return match if tag_filter is None else _lut(tag_filter, keytable)


def _lookup(columns, keytable: list[str] | None) -> pa.Table | None:
    """The keytable's tag lookup when ``columns`` read a tag string
    (without a keytable the view entry raises on that read)."""
    if keytable is None or TAG_STRINGS.isdisjoint(columns):
        return None
    return tag_lookup(keytable)


def _view_columns(columns, keytable: list[str] | None) -> tuple[str, ...]:
    """Every view column, less the tag strings without a keytable."""
    return tuple(c for c in columns if keytable is not None or c not in TAG_STRINGS)


def snapshot_stage(
    timestamps,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
) -> ViewRows:
    """Stage emitting the ``snapshot_rows`` of every view column at the
    given query timestamps. The tag strings of the rows are gathered
    through ``keytable`` (the table's ``ingest.sig_keytable``); with
    None they are left out and a tag filter raises."""
    columns = _view_columns(SNAPSHOT_COLUMNS, keytable)
    return ViewRows(
        np.asarray(list(timestamps), dtype=np.int64), 0, 0, columns,
        _lookup(columns, keytable), _lut(tag_filter, keytable), None, deadline,
    )


def contribution_stage(
    t_from: int,
    t_to: int,
    keytable: list[str] | None,
    tag_filter: TagFilter | None = None,
    deadline: Deadline | None = None,
) -> ViewRows:
    """Stage emitting the ``contribution_rows`` of every view column in
    [t_from, t_to). ``keytable`` as in ``snapshot_stage`` (TAG_CHANGE
    compares tag ids and needs none)."""
    columns = _view_columns(CONTRIBUTION_COLUMNS, keytable)
    return ViewRows(
        None, int(t_from), int(t_to), columns,
        _lookup(columns, keytable), _lut(tag_filter, keytable), None, deadline,
    )


# ---------------------------------------------------------------------------
# Fused view + partial-aggregation stages (the hot path): decode,
# interpolation and the per-batch count and sums per key in ONE stage,
# ``aggregate.KeyedPartials`` over a ``ViewRows``, so the combine sees
# |keys| rows per block, never the exploded view rows (the reference's
# accumulator/combiner split, MapReducer.java:896-1034,
# MapAggregator.java:848-869). A tag filter is a LUT gather over the
# table's keytable (osm/OSMEntity.java:97-152 semantics), and
# TAG_CHANGE compares tag ids.
# ---------------------------------------------------------------------------


def snapshot_counts_stage(
    timestamps,
    tag_filter: TagFilter | None = None,
    cell: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    keytable: list[str] | None = None,
    deadline: Deadline | None = None,
    match=None,
    aoi=None,
    keys: tuple[str, ...] = ("ts_q",),
):
    """Stage of partial snapshot counts per (keys...[, cell]) per batch
    (``KeyedPartials``).

    ``keys`` are the view columns to group by: the snapshot timestamp
    ``ts_q`` by default, none for one count per batch (a tag string
    among them needs ``keytable``); ``cell`` is the cell indexer over
    the snapshot position. The rows are filtered by ``tag_filter``
    (which needs ``keytable``, the ingest sig keytable) or ``match`` (a
    LUT or a callable over the decoded versions), and ``aoi``.

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``, or for corpus-cardinality keys
    per key bucket with ``ops.relational.combine_by_key(docs, keys,
    {"n_part": "sum"}, stage=stage)``.
    """
    reads = (*keys, *(("lon_e7", "lat_e7") if cell is not None else ()))
    rows = ViewRows(
        np.asarray(list(timestamps), dtype=np.int64), 0, 0, tuple(dict.fromkeys(reads)),
        _lookup(reads, keytable), _match(tag_filter, keytable, match), aoi, deadline,
    )
    stage = KeyedPartials(rows, None, tuple(keys), cell)
    return stage, [*keys, *(["cell"] if cell is not None else [])]


def contribution_stats_stage(
    t_from: int,
    t_to: int,
    tag_filter: TagFilter | None = None,
    bins=None,
    flag_cols: list[str] | None = None,
    keytable: list[str] | None = None,
    deadline: Deadline | None = None,
    aoi=None,
    keys: tuple[str, ...] = (),
):
    """Stage of partial contribution stats per batch (``KeyedPartials``):
    count + per-type sums, keyed by floor-binned timestamp (``bins``)
    and the ``keys`` columns when given.

    ``flag_cols`` limits which classification flags are aggregated —
    and thereby how much of the decode runs: a query that never counts
    geometry changes never decodes coordinates. ``tag_filter``, ``aoi``
    and ``keytable`` as in snapshot_counts_stage.

    Returns (stage, key list); finish with ``combine_partials`` over
    ``io.map_blocks(docs, stage)``.
    """
    flags = tuple(_FLAGS if flag_cols is None else flag_cols)
    reads = (*(("ts",) if bins is not None else ()), *keys, *flags)
    rows = ViewRows(
        None, int(t_from), int(t_to), tuple(dict.fromkeys(reads)),
        _lookup(reads, keytable), _lut(tag_filter, keytable), aoi, deadline,
    )
    stage = KeyedPartials(
        rows, None if bins is None else np.asarray(list(bins), dtype=np.int64),
        tuple(keys), None, flags,
    )
    return stage, [*(["ts_q"] if bins is not None else []), *keys]
