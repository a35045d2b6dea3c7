"""Fluent MapReducer facade — the oshdb-api user surface on Ray Data.

Mirrors the reference's query-builder chain
(``oshdb-api/.../mapreducer/MapReducer.java``), so a user of

    OSMEntitySnapshotView.on(oshdb)
        .areaOfInterest(bbox)
        .timestamps("2024-01-01", "2024-02-01", "DAILY")
        .osmTag("building", "yes")
        .aggregateByTimestamp()
        .count()

can write the same chain here and get a pandas frame back:

    OSMEntitySnapshotView.on(sf_dir)
        .areaOfInterest(bbox=(x0, y0, x1, y1))
        .timestamps("2024-01-01", "2024-02-01", "DAILY")
        .osmTag("etype", "click")
        .aggregateByTimestamp()
        .count()

Method-for-method parity (reference file:line in each docstring);
execution is NOT a port: every terminal compiles the whole chain into
ONE fused stage over the span-document table — decode (pruned to
what the chain reads) + temporal interpolation + filters + AOI +
per-batch partial aggregation — run as one block task per resident
block, followed by a driver combine of the tiny partials (the
reference's accumulator/combiner split, MapReducer.java:896-1034). Builders are
immutable: every method returns a NEW MapReducer, so partial chains
can be reused and shared.

Semantic contracts that differ deliberately from the reference:

- ``map`` / ``filter`` / ``osmEntityFilter`` take VECTORIZED
  batch-level callables (``pyarrow.Table -> Table`` / ``-> bool
  ndarray``), not per-row lambdas — a per-row Python callable is the
  one shape that cannot run at 10^12 rows.
- grouped results come back as small pandas DataFrames (the
  reference's ``SortedMap`` analog), scalars as Python numbers.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .aggregate import KeyedPartials
from .functions.deadline import Deadline
from .io import blocks_table, dataset, map_blocks, materialize_blocks, reduce_by_key
from .model import tag_lookup
from .temporal import TagFilter
from .views import (
    AOI, CONTRIBUTION_COLUMNS, SNAPSHOT_COLUMNS, TAG_STRINGS, ViewRows, polygon,
    snapshot_rows,
)

# aggregation keys whose cardinality scales with the corpus: finals on
# these stay distributed (never combine_partials on the driver).
# Per CLAUDE.md: entity ids, distinct users, changesets and the tag
# vocabulary all grow with the corpus
_HIGH_CARD_KEYS = {"osm_id", "doc_id", "uid", "cs", "tag_sig"}


def _to_us(t) -> int:
    from .functions.timeutil import parse_iso

    return parse_iso(t) if isinstance(t, str) else int(t)


@dataclass(frozen=True, eq=False)
class _Match:
    """The per-version filter of a chain with an osmType or
    osmEntityFilter: the type (an exact check; the scan filter is a
    prefilter) AND the tag LUT AND every entity filter."""

    lut: np.ndarray | None  # the AND of the tag filters' LUTs
    types: tuple[str, ...]
    entity_filters: tuple[Callable, ...]

    def __call__(self, decoded: pa.Table) -> np.ndarray:
        m = np.ones(decoded.num_rows, dtype=bool)
        if self.types:
            m &= pc.is_in(decoded["osm_type"], value_set=pa.array(list(self.types))).to_numpy(
                zero_copy_only=False
            )
        if self.lut is not None:
            m &= self.lut[decoded["tag_id"].to_numpy(zero_copy_only=False)]
        for ef in self.entity_filters:
            m &= np.asarray(ef(decoded), dtype=bool)
        return m


@dataclass(frozen=True, eq=False)
class _AddKey:
    """A callable ``aggregateBy`` indexer, as the mapped key column
    ``name``."""

    name: str
    fn: Callable[[pa.Table], np.ndarray]

    def __call__(self, t: pa.Table) -> pa.Table:
        return t.append_column(self.name, pa.array(np.asarray(self.fn(t))))


@dataclass(frozen=True, eq=False)
class _ViewStage:
    """What a chain adds to its view rows (``views.ViewRows``): row
    filters and maps in chain order, then the region expansion of
    ``aggregateByGeometry``. A frozen module-level class, so it pickles
    by reference like the ``views.py`` stages."""

    rows: ViewRows
    transforms: tuple[tuple[str, Callable], ...]
    regions: tuple

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.rows(batch)
        for kind, fn in self.transforms:  # chain order is semantic
            if kind == "filter":
                out = out.filter(pa.array(np.asarray(fn(out), dtype=bool)))
            else:
                out = fn(out)
        if not self.regions:
            return out
        lon = out["lon_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = out["lat_e7"].to_numpy(zero_copy_only=False).astype(np.float64)
        if self.rows.ts is None and "is_deletion" in out.column_names:
            # a DELETION's current geometry is the constant-filled
            # origin; its region membership is where the entity WAS
            # (prev state) — same rule as the AOI clipped-empty
            # semantics (temporal.contributions)
            dele = out["is_deletion"].to_numpy(zero_copy_only=False)
            prev_lon = out["prev_lon_e7"].to_numpy(zero_copy_only=False)
            prev_lat = out["prev_lat_e7"].to_numpy(zero_copy_only=False)
            lon = np.where(dele, prev_lon.astype(np.float64), lon)
            lat = np.where(dele, prev_lat.astype(np.float64), lat)
        parts = []
        for name, rings in self.regions:
            inside = polygon(rings).contains(lon, lat)
            sub = out.filter(pa.array(inside))
            names = pa.array([name] * len(sub), type=pa.string())
            parts.append(sub.append_column("region_id", names))
        return pa.concat_tables(parts)


@dataclass(frozen=True)
class MapReducer:
    """Immutable query builder; construct via ``OSMEntitySnapshotView
    .on(...)`` / ``OSMContributionView.on(...)``."""

    _view: str  # "snapshot" | "contribution"
    _source: object  # sf_dir str or a node-document Dataset
    _ts: tuple[int, ...] = ()
    _tag_filters: tuple[TagFilter, ...] = ()
    _types: tuple[str, ...] = ()
    _bbox: tuple[int, int, int, int] | None = None
    _rings: tuple | None = None  # ((outer), (hole), ...) e7 coords
    _entity_filters: tuple[Callable, ...] = ()
    # (kind, fn) in CHAIN ORDER — filter/map interleaving is semantic
    # (a filter after a map reads the mapped columns)
    _transforms: tuple[tuple[str, Callable], ...] = ()
    _agg_ts: bool = False
    _agg_cols: tuple[str, ...] = ()
    _regions: tuple = ()  # ((name, (ring, ...)), ...) for aggregateByGeometry
    _timeout_s: float | None = None  # cooperative deadline (timeout())

    # ------------------------------------------------------- settings
    def timestamps(self, *args) -> MapReducer:
        """All reference overloads (MapReducer.java:291-394):
        ``timestamps(iso)``, ``timestamps(start, end, period)``,
        ``timestamps(list_or_args_of_iso_or_us)``. For the contribution
        view the first/last define the half-open interval [t0, tN) and
        the intermediate ones become aggregateByTimestamp bins, as in
        the reference (MapReducer.java:774-822)."""
        def _is_period(s) -> bool:
            from .functions.timeutil import UNITS

            return isinstance(s, str) and (s.upper() in UNITS or s.upper().startswith("P"))

        if len(args) == 3 and all(isinstance(a, str) for a in args) and _is_period(args[2]):
            from .functions.timeutil import timestamps as grid

            ts = grid(*args)
        elif len(args) == 1 and isinstance(args[0], (list, tuple)):
            ts = [_to_us(t) for t in args[0]]
        else:
            ts = [_to_us(t) for t in args]
        return replace(self, _ts=tuple(sorted(set(ts))))  # sorted-set, as OSHDBTimestamps

    def areaOfInterest(
        self, bbox: tuple | None = None, polygon: Sequence | None = None,
        holes: Sequence = (),
    ) -> MapReducer:
        """areaOfInterest (MapReducer.java:242-282). ``bbox`` =
        (lon0, lat0, lon1, lat1) in e7; ``polygon`` = outer ring
        [(lon, lat), ...] in e7 with optional ``holes`` (each a ring).
        Membership for non-convex/holed rings is the even-odd
        crossing-number test (spatial.fip); the entity-level bbox
        prefilter is pushed into the parquet scan either way."""
        if (bbox is None) == (polygon is None):
            raise ValueError("exactly one of bbox= or polygon= required")
        if bbox is not None:
            return replace(self, _bbox=tuple(int(v) for v in bbox), _rings=None)
        rings = (tuple(map(tuple, polygon)),) + tuple(tuple(map(tuple, h)) for h in holes)
        return replace(self, _rings=rings, _bbox=None)

    def osmType(self, *types: str) -> MapReducer:
        """osmType (MapReducer.java:397-408): restrict to
        node/way/relation — pushed into the parquet scan as an
        ``osm_type IN (...)`` row filter AND re-checked on the decoded
        versions (so Dataset sources are filtered too).

        An sf_dir source fans out per type, as the reference's single
        UNION-ALL cell fetch (backend/MapReducerJdbc.java:53-59): nodes
        stream through the fused span chain; way/relation histories go
        through the compound member-recursion tables
        (rayhist.members_vec). The compound legs support the snapshot
        ``count()`` terminal (with aggregateByTimestamp /
        aggregateBy('osm_type')); richer chains over way/relation
        raise loudly at the terminal instead of returning a silent 0.

        DEFAULT SCOPE: with NO osmType() call the facade reads the
        NODE span table only (every oracle-pinned chain relies on
        this), whereas the reference's unrestricted MapReducer
        processes all types present in its database — opt into the
        way/relation legs explicitly with
        ``osmType('node', 'way', 'relation')``."""
        if not types:
            # the zero-argument form used to silently CLEAR the
            # restriction back to node-only — reject it instead
            raise ValueError("osmType() needs at least one of node/way/relation")
        ok = {"node", "way", "relation"}
        if not set(types) <= ok:
            raise ValueError(f"osmType must be among {ok}")
        return replace(self, _types=tuple(sorted(set(types))))

    def osmTag(
        self, key: str, value: str | None = None, *,
        values: Sequence[str] | None = None, value_regex: str | None = None,
        exclude: bool = False, exclude_values: Sequence[str] | None = None,
    ) -> MapReducer:
        """All osmTag overloads (MapReducer.java:424-632) plus
        hasTagKeyExcluding (osm/OSMEntity.java:123-137) via
        ``exclude_values``. Multiple calls AND together, as in the
        reference. The collection overload (:595 — match ANY of a set
        of exact tags) takes a list of (key, value) pairs as the sole
        argument: ``osmTag([("building", "yes"), ("amenity", "cafe")])``.
        The filter runs through the keytable of an sf_dir source; over a
        Dataset source the terminal raises."""
        if isinstance(key, (list, tuple)):
            if value is not None or values or value_regex or exclude or exclude_values:
                raise ValueError("the collection overload takes no other selectors")
            from .temporal import AnyTagFilter

            tf = AnyTagFilter(tuple((str(k), str(v)) for k, v in key))
            return replace(self, _tag_filters=self._tag_filters + (tf,))
        n_sel = sum(
            x is not None for x in (value, values, value_regex, exclude_values)
        )
        if n_sel > 1:
            raise ValueError(
                "osmTag takes at most ONE of value/values/value_regex/"
                "exclude_values (conflicting selectors would silently narrow)"
            )
        tf = TagFilter(
            key, value,
            tuple(values) if values is not None else None,
            value_regex, exclude,
            tuple(exclude_values) if exclude_values is not None else None,
        )
        return replace(self, _tag_filters=self._tag_filters + (tf,))

    def osmEntityFilter(self, fn: Callable[[pa.Table], np.ndarray]) -> MapReducer:
        """osmEntityFilter (MapReducer.java:411-422): arbitrary
        predicate over entity VERSIONS, vectorized — ``fn(decoded
        version table) -> bool ndarray`` (columns: osm_id, v, ts, cs,
        uid, visible, tag_sig, lon_e7, lat_e7, ...)."""
        return replace(self, _entity_filters=self._entity_filters + (fn,))

    # ------------------------------------------------------ transforms
    def filter(self, fn: Callable[[pa.Table], np.ndarray]) -> MapReducer:
        """filter (MapReducer.java:680-692) over VIEW rows (snapshots /
        contributions), vectorized: ``fn(view table) -> bool ndarray``.
        Applied in CHAIN ORDER relative to map()."""
        return replace(self, _transforms=self._transforms + (("filter", fn),))

    def map(self, fn: Callable[[pa.Table], pa.Table]) -> MapReducer:
        """map (MapReducer.java:647-657), batch-level: ``fn(view
        table) -> table``. Use to add/derive columns for a downstream
        terminal (sum/average/uniq on the new column). Applied in
        CHAIN ORDER relative to filter()."""
        return replace(self, _transforms=self._transforms + (("map", fn),))

    def flatMap(self, fn: Callable[[pa.Table], pa.Table]) -> MapReducer:
        """flatMap (MapReducer.java:665-678): identical contract to
        ``map`` here — the batch-level callable already may return a
        table with more or fewer rows than its input."""
        return self.map(fn)

    # ----------------------------------------------------- aggregation
    def aggregateByTimestamp(self) -> MapReducer:
        """aggregateByTimestamp (MapReducer.java:775-836): snapshot
        rows group by their snapshot timestamp; contribution rows are
        floor-binned to the greatest query timestamp <= contribution
        timestamp. Zerofilled over the full grid (snapshot) / all bins
        (contribution), per MapAggregator.java:870-881."""
        return replace(self, _agg_ts=True)

    def timeout(self, seconds: float) -> MapReducer:
        """Cooperative query timeout (OSHDBDatabase.timeout /
        OSHDBTimeoutException, MapReducerJdbc.java:43-49): the deadline
        is armed when a terminal launches the pipeline and every fused
        batch checks it (Kernels.java:24-36), raising
        RayhistTimeoutError through Ray when exceeded."""
        return replace(self, _timeout_s=float(seconds))

    def aggregateBy(self, col, name: str = "_agg_key") -> MapReducer:
        """aggregateBy (MapReducer.java:735-766) keyed by a view/mapped
        column NAME, or by a custom vectorized indexer ``fn(view
        table) -> array`` (the reference's function-typed overload) —
        the indexer becomes a mapped column named ``name``. Combined
        with aggregateByTimestamp it zerofills the cross product of the
        timestamp grid x observed key levels (completeZerofill,
        MapAggregator.java:956-988)."""
        if callable(col):
            fn = col
            if name in self._agg_cols:
                # two callable indexers defaulting to the same name would
                # append a duplicate column and fail much later with a
                # confusing Arrow duplicate-field error — fail HERE
                raise ValueError(
                    f"aggregateBy: key name {name!r} already in use "
                    f"{tuple(self._agg_cols)}; pass a distinct name= for "
                    "each callable indexer"
                )

            return replace(
                self,
                _transforms=self._transforms + (("map", _AddKey(name, fn)),),
                _agg_cols=self._agg_cols + (name,),
            )
        if col in self._agg_cols:
            raise ValueError(f"aggregateBy: key {col!r} already in use {tuple(self._agg_cols)}")
        return replace(self, _agg_cols=self._agg_cols + (col,))

    def aggregateByGeometry(self, regions: dict) -> MapReducer:
        """aggregateByGeometry (MapAggregatable.java / MapReducer.java
        :857-888): 1->N expansion of each view row into every region
        containing it (regions may OVERLAP), keyed by ``region_id``.
        ``regions`` maps name -> outer ring [(lon, lat), ...] in e7, or
        (outer, hole, ...) for holed polygons. Membership is the
        general even-odd banded test (spatial.fip); results zerofill
        over ALL region names. For hundreds+ regions prefer a region
        index built once on the driver (spatial.join.RegionIndex or
        spatial.strtree.STRtreeRegionIndex) captured in the stage."""
        norm = []
        for name, rings in sorted(regions.items()):
            if rings and not isinstance(rings[0][0], (list, tuple)):
                rings = (rings,)  # a bare outer ring
            norm.append((str(name), tuple(tuple(map(tuple, r)) for r in rings)))
        return replace(
            self, _regions=tuple(norm), _agg_cols=self._agg_cols + ("region_id",)
        )

    def groupByEntity(self) -> MapReducer:
        """groupByEntity (MapReducer.java:707-733) — the aggregation
        analog: subsequent terminals group per osm entity."""
        return self.aggregateBy("osm_id")

    # -------------------------------------------------------- plumbing
    def _interval(self) -> tuple[int, int]:
        if len(self._ts) < 2:
            raise ValueError("contribution view needs >=2 timestamps (interval)")
        return self._ts[0], self._ts[-1]

    def _aoi_prefilter(self):
        """Row filter on the doc-level history bbox and type columns —
        the OSH pre-filter (the reference prunes at the cell level,
        CellIterator.java:182-195; here a ``Table.filter`` stage fused
        into the query's stage drops the documents, io.read_resident)."""
        flt = None
        box = self._bbox
        if self._rings is not None:
            box = tuple(polygon(self._rings).bbox)
        if box is not None:
            x0, y0, x1, y1 = box
            flt = (
                (pc.field("max_lon_e7") >= int(x0)) & (pc.field("min_lon_e7") <= int(x1))
                & (pc.field("max_lat_e7") >= int(y0)) & (pc.field("min_lat_e7") <= int(y1))
            )
        if self._types:
            tflt = pc.field("osm_type").isin(list(self._types))
            flt = tflt if flt is None else (flt & tflt)
        return flt

    def _compound_types(self) -> tuple[str, ...]:
        """way/relation legs requested over an sf_dir source — these
        stream through the compound member-recursion tables, not the
        fused node-span chain."""
        if not isinstance(self._source, str):
            return ()
        return tuple(t for t in self._types if t != "node")

    def _require_node_only(self, feature: str) -> None:
        if self._compound_types():
            raise NotImplementedError(
                f"{feature} over way/relation types needs the compound "
                "member-recursion engine (rayhist.members_vec); the "
                "fluent three-type union supports count() with "
                "aggregateByTimestamp()/aggregateBy('osm_type') — for "
                "richer way/relation chains see pipelines."
                "q_contrib_type_counts_ways / q_snapshot_way_geoms"
            )

    def _docs(self):
        """The node document table without its span text
        (``model.DECODE_COLUMNS``, ``io.read_resident`` blocks), or the
        Dataset source."""
        if not isinstance(self._source, str):
            return self._source
        from . import io as rio
        from .ingest import ensure_documents
        from .model import DECODE_COLUMNS

        rep = int(os.environ.get("RAYHIST_REP", "1"))
        return rio.read_resident(
            ensure_documents(self._source, rep),
            columns=DECODE_COLUMNS,
            filter=self._aoi_prefilter(),
        )

    def _aoi(self) -> AOI | None:
        if self._bbox is None and self._rings is None:
            return None
        return AOI(self._bbox, self._rings)

    def _check_reads(self, reads) -> None:
        """Raise, on the driver, when the chain reads a column its rows
        do not carry: a view column, ``region_id`` after
        aggregateByGeometry or a callable aggregateBy key. A chain with
        a ``map`` may add any column and is not checked."""
        view_cols = SNAPSHOT_COLUMNS if self._view == "snapshot" else CONTRIBUTION_COLUMNS
        known = set(view_cols) | ({"region_id"} if self._regions else set())
        for kind, fn in self._transforms:
            if kind != "map":
                continue
            if not isinstance(fn, _AddKey):
                return
            known.add(fn.name)
        missing = sorted(set(reads) - known)
        if missing:
            raise ValueError(
                f"{missing} not among the columns of the {self._view} view rows: "
                f"{list(view_cols)}"
            )

    def _view_stage(self, reads=None):
        """Compile the chain into its per-batch view kernel: the
        ``views.ViewRows`` of its timestamps, columns, filters, AOI and
        deadline, wrapped in a ``_ViewStage`` when the chain has row
        transforms or regions. ``reads`` names the view columns the
        caller reads (None: all of them): the view entry gathers only
        those and what the region step reads, and decodes only what
        they need; a read of a column the rows do not carry raises
        here. A chain with entity filters, row filters or maps reads
        every column (they may read any)."""
        is_snap = self._view == "snapshot"
        if is_snap and not self._ts:
            # symmetric with the contribution view's _interval() check:
            # a forgotten timestamps() must not return a silent 0
            raise ValueError("snapshot view needs timestamps()")
        t_from, t_to = (0, 0) if is_snap else self._interval()
        view_cols = SNAPSHOT_COLUMNS if is_snap else CONTRIBUTION_COLUMNS
        if reads is not None:
            self._check_reads(reads)
        full = reads is None or self._entity_filters or self._transforms
        need = set(view_cols) if full else set(reads)
        if self._regions:
            need |= {"lon_e7", "lat_e7"}
            if not is_snap:  # a deletion's region is where it was
                need |= {"is_deletion", "prev_lon_e7", "prev_lat_e7"}
        columns = tuple(c for c in view_cols if c in need)
        # tags are keytable ids (osm/OSMEntity.java:97-152): the tag
        # filters AND into one bool LUT over the keytable, built here once
        lookup, lut = None, None
        if TAG_STRINGS & need or self._tag_filters:
            if not isinstance(self._source, str):
                raise ValueError(
                    "tag filters and tag reads need the keytable of an sf_dir"
                    " source; a Dataset source has none"
                )
            from .ingest import sig_keytable

            kt = sig_keytable(self._source)
            if self._tag_filters:
                lut = np.logical_and.reduce([tf.sig_lut(kt) for tf in self._tag_filters])
            if TAG_STRINGS & need:
                lookup = tag_lookup(kt)
        # cooperative deadline, armed when the terminal builds the
        # pipeline (the reference counts from query launch,
        # MapReducerJdbc.java:43-49) and checked between batches
        # (Kernels.java:24-36 isActive())
        deadline = None if self._timeout_s is None else Deadline(self._timeout_s)
        # a tag LUT alone is the entry's own gather
        match = lut
        if self._types or self._entity_filters:
            match = _Match(lut, self._types, self._entity_filters)
        rows = ViewRows(
            np.asarray(self._ts, dtype=np.int64) if is_snap else None, t_from, t_to, columns,
            lookup, match, self._aoi(), deadline,
        )
        if not (self._transforms or self._regions):
            return rows
        return _ViewStage(rows, self._transforms, self._regions)

    def view(self) -> ray.data.Dataset:
        """Escape hatch: a Dataset of the view rows (snapshots or
        contributions) after filters/AOI/maps, for callers composing
        beyond the fluent terminals. It is the facade's one Dataset
        edge (``io.dataset`` over ``_view_blocks``); the terminals read
        the blocks themselves."""
        return dataset(self._view_blocks())

    def _view_blocks(self):
        """The view rows as blocks. Always a FULL decode: these rows are
        user-visible, so no column may be constant-filled (pruning
        belongs to the aggregation terminals, which know what they
        read)."""
        self._require_node_only("view()")
        return materialize_blocks(self._docs(), self._view_stage())

    # -------------------------------------------------------- terminals
    def _keys(self) -> list[str]:
        keys = (["ts_q"] if self._agg_ts else []) + list(self._agg_cols)
        if len(set(keys)) != len(keys):
            # e.g. aggregateByGeometry twice, or aggregateByTimestamp()
            # + aggregateBy('ts_q'): duplicate key columns would reach
            # the combine as duplicate labels and fail far downstream
            raise ValueError(
                f"duplicate aggregation keys {keys}: chain each "
                "aggregateBy*/aggregateByGeometry at most once"
            )
        return keys

    @staticmethod
    def _observed_levels(s) -> list:
        """Zerofill levels for one observed key column — SQL GROUP BY
        keeps the NULL group, so a null level joins the cross product
        when present (dropna would silently delete the whole group at
        the reindex)."""
        lv = sorted(s.dropna().unique())
        if s.isna().any():
            lv.append(np.nan)
        return lv

    def _bins(self) -> np.ndarray:
        # contribution aggregateByTimestamp bins = all but the last
        # timestamp (MapReducer.java:1857-1866)
        return np.asarray(self._ts[:-1], dtype=np.int64)

    def _zerofill_ts(self) -> list[int]:
        return list(self._ts) if self._view == "snapshot" else list(self._ts[:-1])

    def _grouped_numeric(self, sums: dict[str, str], count_alias: str | None):
        """Shared count/sum engine: per-batch partial aggregation inside
        the fused stage, driver combine of the tiny partials, zerofill."""
        from .aggregate import combine_partials, sorted_sums

        keys = self._keys()
        docs, stage = self._keyed_stage(list(sums))
        outmap = {"_n_part": count_alias or "_n"}
        outmap.update({c + "_part": out for c, out in sums.items()})
        if _HIGH_CARD_KEYS & set(keys):
            # per-entity/per-document keys: the final sums run per key
            # bucket (reduce_by_key), so the driver receives each key
            # once, never keys x blocks partials (combine_partials' own
            # contract — aggregate.py)
            parts = list(outmap)

            def final(t: pa.Table) -> pa.Table:
                g = pa.TableGroupBy(t, keys).aggregate([(c, "sum") for c in parts])
                return g.rename_columns([*keys, *parts])

            outs = blocks_table(reduce_by_key(docs, keys, final, stage=stage))
        else:
            outs = map_blocks(docs, stage)
        # a mapped float column's sum (combine_partials sums integers
        # only): Arrow float64 sums in partial order, aligned row for
        # row with the combine's keys
        floats = {
            c: out for c, out in outmap.items()
            if c in outs.column_names and pa.types.is_floating(outs.schema.field(c).type)
        }
        df = combine_partials(outs, keys, {c: o for c, o in outmap.items() if c not in floats})
        if floats:
            fl = sorted_sums(outs, keys, floats)
            df = df.assign(**{o: fl[o].to_numpy() for o in floats.values()})
            df = df[[*keys, *outmap.values()]]
        if not keys:
            return df  # single-row frame; terminal unwraps
        # a float sum fills 0.0 (an int fill would cast it to int64)
        df = self._zerofill(df, {v: 0.0 if v in floats.values() else 0 for v in outmap.values()})
        if count_alias is None:
            df = df.drop(columns=["_n"])
        return df.sort_values(keys, kind="mergesort").reset_index(drop=True)

    def _zerofill(self, df: pd.DataFrame, zero: dict) -> pd.DataFrame:
        """A keyed result zerofilled over the timestamp grid, ALL regions
        and the observed levels of every other key (completeZerofill,
        MapAggregator.java:956-988)."""
        if not (self._agg_ts or self._regions):
            return df
        from .aggregate import zerofill

        expected: dict[str, Sequence] = {"ts_q": self._zerofill_ts()} if self._agg_ts else {}
        region_names = [n for n, _ in self._regions]
        for c in self._agg_cols:
            expected[c] = region_names if c == "region_id" else self._observed_levels(df[c])
        if all(len(v) for v in expected.values()):
            df = zerofill(df, expected, zero)
        return df

    def _keyed_stage(self, cols: list[str], by: tuple[str, ...] = ()):
        """(docs, stage): the node table to read and the
        ``aggregate.KeyedPartials`` stage counting its view rows per (group
        keys..., ``by``...) with the sums of ``cols`` — ts binning
        applied. Its count column is ``_n_part`` (a user column ``n``
        would clash with ``n_part``)."""
        self._require_node_only("this terminal")
        is_snap = self._view == "snapshot"
        keys = (*self._agg_cols, *by)
        # grouping by a column reads it too
        reads = {*cols, *keys}
        if self._agg_ts:
            reads.add("ts_q" if is_snap else "ts")
            if is_snap:
                keys = ("ts_q", *keys)
        bins = self._bins() if (self._agg_ts and not is_snap) else None
        stage = KeyedPartials(self._view_stage(reads), bins, keys, None, tuple(cols), "_n_part")
        return self._docs(), stage

    def _keyed_rows(self, cols: list[str]):
        """Blocks of (group keys..., cols...) view rows, for the
        sketch terminals."""
        docs, stage = self._keyed_stage(cols)
        return materialize_blocks(docs, stage.keyed)

    def count(self, alias: str = "count"):
        """count (MapReducer.java:1122-1132): scalar, or a frame keyed
        by the aggregation index."""
        if self._compound_types():
            return self._count_compound(alias)
        res = self._grouped_numeric({}, alias)
        return res if self._keys() else int(res[alias].iloc[0])

    def _count_compound(self, alias: str):
        """Three-type union count: the reference's single UNION-ALL
        fetch across node/way/relation cell tables
        (backend/MapReducerJdbc.java:53-59) as ONE fused plan — the
        node leg is the usual pruned span chain, the way/relation legs
        are per-batch member-recursion snapshot counts over their
        compound document tables; all three emit (keys, n_part)
        partials into one combine. Supports the snapshot view with
        aggregateByTimestamp()/aggregateBy('osm_type'); anything the
        compound legs cannot express raises loudly."""
        from .aggregate import combine_partials, zerofill
        from .ingest import read_relation_documents, read_way_documents
        from .members import COMPOUND_BATCH
        from .members_vec import snapshot_geoms_batch_vec
        from .model import COMPOUND_READ_COLUMNS

        if self._view != "snapshot":
            raise NotImplementedError(
                "the three-type union chain supports the snapshot view; "
                "way/relation contributions: pipelines."
                "q_contrib_type_counts_ways / _relations"
            )
        if (
            self._tag_filters or self._entity_filters or self._transforms
            or self._rings or self._bbox is not None or self._regions
            or set(self._agg_cols) - {"osm_type"}
        ):
            self._require_node_only("this filter/transform/key combination")
        if not self._ts:
            raise ValueError("snapshot view needs timestamps()")
        ts_list = [int(t) for t in self._ts]
        ts = np.asarray(ts_list, dtype=np.int64)
        keys = self._keys()
        by_ts, by_type = self._agg_ts, "osm_type" in self._agg_cols
        types = self._types
        # all three corpora must describe the SAME amplification level:
        # the node leg's _docs() reads rep from RAYHIST_REP, so the
        # compound tables must too (a mixed-rep union would sum counts
        # over different corpora in one result frame)
        rep = int(os.environ.get("RAYHIST_REP", "1"))
        # cooperative deadline, same contract as the node-only chain
        # (_view_stage): armed when the terminal builds the plan,
        # checked between batches in EVERY leg
        deadline = None if self._timeout_s is None else Deadline(self._timeout_s)

        def partial(tsq: np.ndarray, otype: str) -> pa.Table:
            cols: dict[str, pa.Array] = {}
            if by_ts:
                u, n = np.unique(tsq, return_counts=True)
            else:
                u, n = np.array([0]), np.array([len(tsq)])
            if by_ts:
                cols["ts_q"] = pa.array(u, type=pa.int64())
            if by_type:
                cols["osm_type"] = pa.array([otype] * len(n), type=pa.string())
            cols["n_part"] = pa.array(n, type=pa.int64())
            return pa.table(cols)

        legs = []
        if "node" in types:

            def node_stage(batch: pa.Table) -> pa.Table:
                if deadline is not None:
                    deadline.check()
                s = snapshot_rows(batch, ts, ["ts_q"])
                return partial(s["ts_q"].to_numpy(zero_copy_only=False), "node")

            legs.append(map_blocks(self._docs(), node_stage))
        if "way" in types:

            def way_stage(batch: pa.Table) -> pa.Table:
                if deadline is not None:
                    deadline.check()
                s = snapshot_geoms_batch_vec(batch, ts_list)
                return partial(s["ts_q"].to_numpy(zero_copy_only=False), "way")

            legs.append(
                map_blocks(
                    read_way_documents(self._source, COMPOUND_READ_COLUMNS, rep), way_stage,
                    batch_size=COMPOUND_BATCH,
                )
            )
        if "relation" in types:

            def rel_stage(batch: pa.Table) -> pa.Table:
                if deadline is not None:
                    deadline.check()
                s = snapshot_geoms_batch_vec(batch, ts_list)
                return partial(s["ts_q"].to_numpy(zero_copy_only=False), "relation")

            legs.append(
                map_blocks(
                    read_relation_documents(self._source, COMPOUND_READ_COLUMNS, rep), rel_stage,
                    batch_size=COMPOUND_BATCH,
                )
            )
        df = combine_partials(pa.concat_tables(legs), keys, {"n_part": alias})
        if not keys:
            return int(df[alias].iloc[0])
        expected: dict[str, Sequence] = {}
        if by_ts:
            expected["ts_q"] = ts_list
        if by_type:
            expected["osm_type"] = sorted(types)
        df = zerofill(df, expected, {alias: 0})
        return df.sort_values(keys, kind="mergesort").reset_index(drop=True)

    def sum(self, col: str, alias: str | None = None):
        """sum (MapReducer.java:1097-1120) over a view/mapped column
        (booleans count ``True`` rows, as the reference's map-to-int)."""
        res = self._grouped_numeric({col: alias or f"sum_{col}"}, None)
        if self._keys():
            return res
        v = res[alias or f"sum_{col}"].iloc[0]
        return v.item() if hasattr(v, "item") else v  # Python scalar contract

    def average(self, col: str, alias: str | None = None):
        """average (MapReducer.java:1180-1205): exact integer partials,
        ONE IEEE division at the end (repo money/float rule)."""
        out = alias or f"avg_{col}"
        res = self._grouped_numeric({col: "_s"}, "_c")
        if not self._keys():
            return float(res["_s"].iloc[0] / res["_c"].iloc[0])
        res[out] = res["_s"] / res["_c"].replace(0, np.nan)
        return res.drop(columns=["_s", "_c"])

    def uniq(self, col: str):
        """uniq (MapReducer.java:1134-1161): exact distinct values of a
        view column, distributed (per-batch distinct partials). With an
        aggregation index: a frame of distinct (keys..., col) pairs."""
        keys = self._keys()
        if not keys:
            from .aggregate import uniq as _uniq

            return _uniq(self._keyed_rows([col]), col)
        return (
            self._distinct_pairs(col)
            .to_pandas()
            .sort_values([*keys, col], kind="mergesort")
            .reset_index(drop=True)
        )

    def _distinct_pairs(self, col: str, then=None, by=None) -> pa.Table:
        """Globally-distinct (keys..., col) rows: per-batch distinct
        partials, then one ``reduce_by_key`` routed by ``by`` (default:
        all of keys and ``col``) — no O(#distinct) driver pull. A
        bucket holds every row of its pairs, so its distinct rows are
        globally distinct; ``then`` maps them per bucket."""
        pair = [*self._keys(), col]
        # the per-batch partial counts per pair are its distinct pairs
        docs, stage = self._keyed_stage([], by=(col,))

        def reduce(t: pa.Table) -> pa.Table:
            distinct = pa.TableGroupBy(t, pair).aggregate([]).select(pair)
            return distinct if then is None else then(distinct)

        return blocks_table(reduce_by_key(docs, by or pair, reduce, stage=stage))

    def countUniq(self, col: str, alias: str | None = None):
        """countUniq (MapReducer.java:1166-1178): each bucket of the
        distinct-pair shuffle counts its globally-unique pairs per key;
        the driver sums the per-bucket counts."""
        from .aggregate import combine_partials

        keys = self._keys()
        out = alias or f"uniq_{col}"

        def counts(d: pa.Table) -> pa.Table:
            if not keys:
                return pa.table({"_part": pa.array([d.num_rows], type=pa.int64())})
            g = pa.TableGroupBy(d.select(keys), keys).aggregate([([], "count_all")])
            return g.rename_columns([*keys, "_part"])

        # per-entity keys route by the keys alone: each key's count is
        # final in its bucket, so the driver receives each key once
        # (combine_partials' cardinality contract)
        by = keys if _HIGH_CARD_KEYS & set(keys) else None
        df = combine_partials(self._distinct_pairs(col, counts, by), keys, {"_part": out})
        if not keys:
            return int(df[out].iloc[0])
        df = self._zerofill(df, {out: 0})
        return df.sort_values(keys, kind="mergesort").reset_index(drop=True)

    def estimatedMedian(self, col: str):
        """estimatedMedian (MapReducer.java:1228-1258)."""
        return self.estimatedQuantile(col, 0.5)

    def estimatedQuantile(self, col: str, q: float):
        """estimatedQuantile (MapReducer.java:1261-1293): mergeable
        t-digest partials."""
        r = self.estimatedQuantiles(col, [q])
        return r[0] if isinstance(r, list) else r

    def estimatedQuantiles(self, col: str, qs: Sequence[float]):
        """estimatedQuantiles (MapReducer.java:1296-1333). Grouped (one
        aggregation key): per-key digest partials merged per key —
        MapAggregator.estimatedQuantiles, the grouped-sketch shape."""
        keys = self._keys()
        if not keys:
            from .aggregate import estimated_quantiles

            return estimated_quantiles(self._keyed_rows([col]), col, qs)
        if len(keys) > 1:
            raise NotImplementedError("grouped quantiles support one aggregation key")
        if keys[0] in _HIGH_CARD_KEYS:
            # one driver-side digest PER KEY: corpus-cardinality keys
            # would OOM the driver (the combine_partials contract) —
            # use the distributed exact path instead
            raise NotImplementedError(
                f"estimatedQuantiles by {keys[0]!r} holds one digest per "
                "key on the driver; use "
                "ops.relational.grouped_exact_quantiles_int (distributed)"
            )
        from .aggregate import grouped_estimated_quantiles

        return grouped_estimated_quantiles(self._keyed_rows([col]), keys[0], col, qs)

    def weightedAverage(self, col: str, weight: str, alias: str | None = None):
        """weightedAverage (MapReducer.java:1207-1225): exact integer
        sum(w*x) / sum(w) partials, one IEEE division at the end.
        Integer columns only (the repo money/float rule)."""
        self._check_reads([col, weight])
        mr = self.map(
            lambda t: t.append_column(
                "_wx",
                # checked: a silently wrapped product would return a
                # plausible-looking wrong average
                pc.multiply_checked(t[col].cast(pa.int64()), t[weight].cast(pa.int64())),
            )
        )
        out = alias or f"wavg_{col}"
        res = mr._grouped_numeric({"_wx": "_s", weight: "_w"}, None)
        if not self._keys():
            return float(res["_s"].iloc[0] / res["_w"].iloc[0])
        res[out] = res["_s"] / res["_w"].replace(0, np.nan)
        return res.drop(columns=["_s", "_w"])

    def reduce(self, partial: Callable[[pa.Table], object], combine: Callable):
        """Generic reduce (MapReducer.java:896-1034 accumulator/combiner
        contract): ``partial(view batch) -> partial value`` runs
        distributed, ``combine(a, b)`` folds the per-batch partials on
        the driver (partials must be small — that is the contract)."""

        def stage(batch: pa.Table) -> pa.Table:
            import pickle

            return pa.table(
                {"_p": pa.array([pickle.dumps(partial(batch))], type=pa.binary())}
            )

        import pickle

        acc = None
        for row in map_blocks(self._view_blocks(), stage).to_pylist():
            v = pickle.loads(row["_p"])
            acc = v if acc is None else combine(acc, v)
        return acc

    def forEach(self, action: Callable[[pa.Table], None]) -> None:
        """forEach (MapReducer.java:1390-1400), batch-level, on the
        driver via the streaming iterator."""
        for batch in self.stream():
            action(batch)

    def _require_plain_history(self, name: str) -> None:
        """The per-doc history terminals below run over the RAW
        document stream (filters apply per version, which these
        whole-history analyses do not define yet) — raise loudly on
        any configured filter rather than silently ignoring it."""
        if (
            self._tag_filters
            or self._types
            or self._bbox is not None
            or self._rings is not None
            or self._entity_filters
            or self._transforms
        ):
            raise ValueError(
                f"{name} analyses the WHOLE entity history; combine it "
                "with filters via the direct pipelines instead"
            )

    def tagReverts(self) -> pd.DataFrame:
        """Edit-war terminal: per day, versions that revert their
        entity's tags to the state two versions back (A -> B -> A)
        and the distinct entities doing so — the vandalism-analysis
        primitive over the contribution history (pipelines.
        q_tag_reverts' fused lag-2 stage). Contribution view only;
        whole-history (no filters)."""
        if self._view != "contribution":
            raise ValueError("tagReverts() is a contribution-view terminal")
        self._require_plain_history("tagReverts()")
        from .aggregate import combine_partials
        from .pipelines import _revert_stage

        df = combine_partials(
            map_blocks(self._docs(), _revert_stage),
            ["day"],
            {"n_reverts_p": "n_reverts", "n_entities_p": "n_entities"},
        )
        df = df.astype({"day": "int64", "n_reverts": "int64", "n_entities": "int64"})
        return df.sort_values("day").reset_index(drop=True)

    def lifespans(self) -> pd.DataFrame:
        """Entity-age terminal: the (lifespan_days, deleted) histogram
        from creation to tombstone / window close (pipelines.
        q_entity_lifespans' zero-shuffle stage). Contribution view
        only; whole-history (no filters)."""
        if self._view != "contribution":
            raise ValueError("lifespans() is a contribution-view terminal")
        self._require_plain_history("lifespans()")
        from .aggregate import combine_partials
        from .pipelines import _LIFESPAN_COUNTS

        return combine_partials(
            map_blocks(self._docs(), _LIFESPAN_COUNTS),
            ["lifespan_days", "deleted"],
            {"n_part": "n_entities"},
        )

    def timeWeightedAverageDaily(self) -> pd.DataFrame:
        """Continuous-time terminal: per day, the EXACT integral of
        visible-entity microseconds over the day and its average
        (pipelines._twa_stage — the span-validity model the snapshot
        grid only samples; OSMEntitySnapshot.java's validTo).
        Contribution view only; whole-history (no filters)."""
        if self._view != "contribution":
            raise ValueError(
                "timeWeightedAverageDaily() is a contribution-view terminal"
            )
        self._require_plain_history("timeWeightedAverageDaily()")
        from .pipelines import twa_daily_final

        return twa_daily_final(self._docs())

    def convexHull(self) -> pd.DataFrame:
        """Strict convex hull vertices of the matching snapshot
        positions, PER TIMESTAMP (spatial/hull.py: exact integer
        monotone chain, per-batch local hulls as the combiner) —
        (ts_q, osm_id, lon_e7, lat_e7), one row per hull vertex. A
        target-side geometric terminal (the reference delegates hulls
        to JTS client-side); snapshot view only."""
        if self._view != "snapshot":
            raise ValueError("convexHull() is a snapshot-view terminal")
        from .spatial.hull import grouped_convex_hull

        return grouped_convex_hull(self._view_blocks(), "ts_q", "osm_id", "lon_e7", "lat_e7")

    def colocationPairs(self, radius_e7: int) -> pd.DataFrame:
        """All pairs of matching entities within planar distance
        ``radius_e7`` at the (single) snapshot timestamp, with exact
        int64 squared distance (spatial/radius.py grid-partitioned
        self-join) — (id_a, id_b, d2) sorted. Snapshot view with
        exactly ONE timestamp (pairs must not mix timestamps)."""
        if self._view != "snapshot":
            raise ValueError("colocationPairs() is a snapshot-view terminal")
        if len(self._ts) != 1:
            raise ValueError(
                f"colocationPairs() needs exactly one timestamp, got {len(self._ts)}"
            )
        import pyarrow as _pa

        from .spatial.radius import radius_self_join

        pts = materialize_blocks(
            self._view_blocks(),
            lambda b: _pa.table({"id": b["osm_id"], "x": b["lon_e7"], "y": b["lat_e7"]}),
        )
        df = radius_self_join(pts, radius_e7).to_pandas()
        df = df.astype({"id_a": "int64", "id_b": "int64", "d2": "int64"})
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def collect(self) -> pd.DataFrame:
        """collect (MapReducer.java:1404-1414) — materializes the view
        rows to the driver; small results only, stream() otherwise."""
        return self._view_blocks().to_pandas()

    def stream(self, batch_size: int | None = None):
        """stream (MapReducer.java:1422-1430): iterator of Arrow
        batches — the driver never holds the full result."""
        return self.view().iter_batches(batch_format="pyarrow", batch_size=batch_size)


class OSMEntitySnapshotView:
    """OSMEntitySnapshotView.on(...) (oshdb-api/.../OSMEntitySnapshotView.java)."""

    @staticmethod
    def on(source) -> MapReducer:
        return MapReducer("snapshot", source)


class OSMContributionView:
    """OSMContributionView.on(...) (oshdb-api/.../OSMContributionView.java)."""

    @staticmethod
    def on(source) -> MapReducer:
        return MapReducer("contribution", source)
