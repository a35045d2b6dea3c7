"""Temporal core: snapshot + contribution interpolation over version arrays.

This is the from-scratch, vectorized rewrite of the reference's
``CellIterator`` (``oshdb-util/.../celliterator/CellIterator.java``,
716 LoC) and ``OSHEntities`` timestamp helpers
(``oshdb/.../osh/OSHEntities.java:41-313``). Semantics reproduced:

snapshot view (``CellIterator.iterateByTimestamps``, :181-347):
  for each query timestamp T, the state of an entity is the latest
  version with ts <= T (``OSHEntities.getByTimestamps:41-60``; ties on
  ts resolved to the highest version, matching the newest->oldest scan
  there); a snapshot is emitted iff that state is visible AND matches
  the filter.

contribution view (``CellIterator.iterateByContribution``, :437-712):
  1. modification timestamps: versions where ``match := visible AND
     filter`` holds, plus the FIRST non-matching version directly after
     a matching one (``OSHEntities.getModificationTimestamps``
     :286-302 — leading/subsequent non-matches are dropped);
  2. changeset collapse: of consecutive kept versions sharing a
     changeset id, only the LAST survives (:241-267);
  3. walk the collapsed sequence keeping ``prev``; classify each
     modification inside the half-open interval [t_from, t_to)
     (``OSHDBTimestampInterval.includes``, time/OSHDBTimestampInterval.java:30-33):
       - cur absent (invisible / filtered out)  -> DELETION iff prev
         present (consecutive absents emit once, :533-552, :578-595)
       - cur present, prev absent-or-none       -> CREATION (:640-642)
       - cur present, prev present              -> TAG_CHANGE on raw
         tag inequality, GEOMETRY_CHANGE on geometry inequality; the
         type set may be empty (issue #87, views.md:48-52) — the
         contribution row is still emitted (:647-669);
     modifications before the interval update ``prev`` but are
     suppressed (:518-531); later ones terminate the walk.

Everything here is numpy over flat, doc-grouped version arrays — no
Python per-row loops. Inputs come from ``model.decode_spans`` and must
contain COMPLETE documents (all versions of every doc present), which
holds per construction: one span-table row carries a full history.

Version order: every document producer (ingest's pack, the pbfish and
osmpbf bridges, the tests' ``versions_to_documents``) writes a
document's versions oldest -> newest, so a decoded batch is already
sorted by (doc, ts, v). ``_sorted_versions`` checks that with one pass
of adjacent comparisons and uses the rows as they are, as the
reference trusts its on-disk order (OSHNodeImpl.java:30). Dirty data
(``model.reverse_version_runs``, hand-built version tables, interleaved
docs) fails the check and takes the fallback: a stable lexsort, with
every per-row mask realigned by the returned permutation — the
reference's ``HEADER_TIMESTAMPS_NOT_IN_ORDER`` path. Both give
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_STATE_COLS = [
    "doc_id",
    "osm_type",
    "osm_id",
    "v",
    "ts",
    "cs",
    "uid",
    "lon_e7",
    "lat_e7",
    "tag_sig",
    "etype",
    "kk",
]


@dataclass(frozen=True)
class TagFilter:
    """``osmTag(...)`` filters (``MapReducer.java:424-632``).

    A filter is a predicate over tag signatures (sorted ``k=v`` pairs
    joined with '|'), evaluated once per keytable entry on the driver
    (``sig_lut``); per version it is a bool gather by tag id — the
    reference's int-keytable scan (``OSMEntity.hasTagValue``,
    osm/OSMEntity.java:97-152).

    - value=None            -> key presence        (osmTag(key), :424-467)
    - value="x"             -> exact key=value     (:477-504)
    - values=("a","b")      -> key with value-in-set (:514-549)
    - value_regex="pat"     -> value matches regex (:559-585)
    - exclude=True          -> key absent (NOT hasTagKey)
    - exclude_values=("a",) -> key PRESENT with value NOT in the set —
                               the exact hasTagKeyExcluding predicate
                               (OSMEntity.java:123-137), a different
                               predicate from key-absent

    ENCODING LIMIT: the signature joins ``k=v`` pairs with '|' and no
    escaping (ingest and the fixtures build it; the SQL oracles mirror
    it), so tag VALUES containing '|' or '=' are ambiguous in the
    keytable. A corpus with such values needs an escaped signature
    encoding end to end (engine + oracle together, per the CLAUDE.md
    mirror rule).
    """

    key: str
    value: str | None = None
    values: tuple[str, ...] | None = None
    value_regex: str | None = None
    exclude: bool = False
    exclude_values: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.exclude and (
            self.value is not None
            or self.values is not None
            or self.value_regex is not None
            or self.exclude_values is not None
        ):
            # exclude=True inverts the computed mask AFTER the value
            # predicate, which composes into meaningless predicates
            # (e.g. 'key absent OR value in the excluded set') — the
            # reference has no such combinations either
            raise ValueError(
                "TagFilter: exclude=True takes no value/values/"
                "value_regex/exclude_values (it is NOT hasTagKey only)"
            )

    def pattern(self) -> str:
        import re

        if self.value is not None:
            return rf"(^|\|){re.escape(self.key)}={re.escape(self.value)}(\||$)"
        if self.values is not None:
            alts = "|".join(re.escape(v) for v in self.values)
            return rf"(^|\|){re.escape(self.key)}=({alts})(\||$)"
        return rf"(^|\|){re.escape(self.key)}="

    def _match_sigs(self, sigs: pa.Array) -> np.ndarray:
        """Predicate over an array of (unique) tag signatures."""
        if self.values is not None and not self.values:
            # 'value in EMPTY set' selects nothing — the empty regex
            # alternation would instead match empty-VALUED tags
            return np.zeros(len(sigs), dtype=bool)
        if self.value_regex is not None:
            # the reference applies the user pattern to the VALUE
            # ALONE with a FULL match (valuePattern.matcher(value)
            # .matches(), MapReducer.java:559-585). Embedding the raw
            # pattern into the signature regex leaked metacharacters
            # across tag boundaries ('.*' consumed the '|' separator)
            # and silently broke user anchors ('^cli.*$' matched
            # nothing). Per-UNIQUE-sig Python is fine: this runs over
            # the dictionary/keytable only, never per version.
            import re

            pat = re.compile(self.value_regex)
            kp = self.key + "="
            m = np.array(
                [
                    s is not None
                    and any(
                        part.startswith(kp) and pat.fullmatch(part[len(kp):])
                        for part in s.split("|")
                    )
                    for s in sigs.to_pylist()
                ],
                dtype=bool,
            )
            return m
        m = pc.match_substring_regex(sigs, self.pattern()).to_numpy(zero_copy_only=False)
        if self.exclude_values:  # empty set excludes NOTHING (the empty
            # alternation regex would mis-exclude empty-valued tags)
            # hasTagKeyExcluding: key present AND value not in the set
            import re

            alts = "|".join(re.escape(v) for v in self.exclude_values)
            bad = rf"(^|\|){re.escape(self.key)}=({alts})(\||$)"
            m = m & ~pc.match_substring_regex(sigs, bad).to_numpy(zero_copy_only=False)
        return ~m if self.exclude else m

    def sig_lut(self, keytable: list[str]) -> np.ndarray:
        """Boolean LUT over keytable signature ids + a trailing slot
        for id -1 (no tags, treated as the empty signature).

        Computed ONCE on the driver — the regex runs over the tiny
        keytable only; per-version filtering is then a pure int gather
        ``lut[tag_id]`` (numpy's -1 wraps to the trailing slot). This
        is the true int-keytable scan of osm/OSMEntity.java:97-152:
        per-version work touches only small ints.
        """
        return self._match_sigs(pa.array(list(keytable) + [""], type=pa.string()))


@dataclass(frozen=True)
class AnyTagFilter:
    """``osmTag(Collection<OSMTag>)`` (MapReducer.java:595-632): match
    entities carrying ANY of the given exact (key, value) tags — one
    alternation regex over the keytable, same LUT contract as
    TagFilter."""

    pairs: tuple[tuple[str, str], ...]

    def pattern(self) -> str:
        import re

        alts = "|".join(
            rf"{re.escape(k)}={re.escape(v)}" for k, v in self.pairs
        )
        return rf"(^|\|)({alts})(\||$)"

    def _match_sigs(self, sigs: pa.Array) -> np.ndarray:
        if not self.pairs:
            # 'ANY of zero tags' selects NOTHING — the empty
            # alternation '()' would instead match the empty string,
            # silently selecting every TAGLESS version
            return np.zeros(len(sigs), dtype=bool)
        return pc.match_substring_regex(sigs, self.pattern()).to_numpy(
            zero_copy_only=False
        )

    sig_lut = TagFilter.sig_lut


def _doc_codes(tbl: pa.Table) -> np.ndarray:
    enc = pc.dictionary_encode(tbl["doc_id"].combine_chunks())
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)


def _in_order(codes: np.ndarray, ts: np.ndarray, v: np.ndarray) -> bool:
    """True when the rows are non-decreasing in (doc code, ts, v).

    One pass of adjacent comparisons (no subtraction, so no int64
    wrap). ``np.lexsort`` is stable, so this holds exactly when the
    lexsort of these keys would be the identity permutation."""
    if len(codes) < 2:
        return True
    c0, c1, t0, t1 = codes[:-1], codes[1:], ts[:-1], ts[1:]
    later = (t0 > t1) | ((t0 == t1) & (v[:-1] > v[1:]))
    return not ((c0 > c1) | ((c0 == c1) & later)).any()


def _sorted_versions(tbl: pa.Table, codes: np.ndarray | None = None):
    """Return (table, codes, ts, v, order) sorted by (doc, ts, v);
    ``order`` is None when the input was already sorted, else the
    permutation (callers must realign any per-row masks with it).
    ``codes`` are the rows' document codes when the caller has them
    (``model.doc_codes`` of the batch ``tbl`` was decoded from), else
    they are derived from ``doc_id``.

    Every producer writes a document's versions oldest -> newest, so
    the order test passes and nothing is sorted. Out-of-order
    histories are sorted here, the way the reference's
    ``HEADER_TIMESTAMPS_NOT_IN_ORDER`` flag does (OSHNodeImpl.java:30).
    """
    if codes is None:
        codes = _doc_codes(tbl)
    ts = tbl["ts"].to_numpy(zero_copy_only=False)
    v = tbl["v"].to_numpy(zero_copy_only=False)
    if _in_order(codes, ts, v):
        return tbl, codes, ts, v, None
    order = np.lexsort((v, ts, codes))
    tbl = tbl.take(pa.array(order))
    return tbl, codes[order], ts[order], v[order], order


def _gather(tbl: pa.Table, columns, rows: np.ndarray, **extra) -> pa.Table:
    """The ``columns`` state columns (all of ``_STATE_COLS`` when None)
    at ``rows``, followed by the ``extra`` columns."""
    idx = pa.array(rows, type=pa.int64())
    cols = _STATE_COLS if columns is None else columns
    return pa.table({**{c: tbl[c].take(idx) for c in cols}, **extra})


# probe keys per searchsorted call in ``snapshots``: whole timestamps
# up to this many keys (8 MB per int64 temporary), at least one
# timestamp's n_docs keys, so a batch with many query timestamps never
# holds all its probe keys at once
_PROBE_KEYS = 1 << 20


def snapshots(
    tbl: pa.Table,
    timestamps: np.ndarray,
    match: np.ndarray | None = None,
    columns: list[str] | None = None,
    codes: np.ndarray | None = None,
) -> pa.Table:
    """Snapshot interpolation: one output row per (doc, T) with state.

    ``match`` is the per-version filter mask (True = version matches);
    emission requires visible AND match at the interpolated state.
    Output = the ``columns`` state columns (default: all of
    ``_STATE_COLS``) + ``ts_q`` (the query timestamp), ordered by query
    timestamp, then document. ``codes``: see ``_sorted_versions``.
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if len(tbl) == 0 or len(timestamps) == 0:
        return _gather(tbl, columns, np.zeros(0, np.int64), ts_q=pa.array([], pa.int64()))
    tbl, codes, ts, _v, order = _sorted_versions(tbl, codes)
    if order is not None and match is not None:
        match = match[order]
    visible = tbl["visible"].to_numpy(zero_copy_only=False)
    m = visible if match is None else (visible & match)

    ts_min = int(ts.min())
    rel = ts - ts_min
    # the key must accommodate QUERY offsets too: timestamps typically
    # extend past the last edit (found by hypothesis: a narrow history
    # with far query timestamps overflowed into the doc-code bits)
    t_span = max(int(rel.max()), int(timestamps.max()) - ts_min, 1)
    shift = t_span.bit_length() + 1
    if codes.max() >= (1 << (62 - shift)):
        # data-dependent invariant: must hold under `python -O` too —
        # a silent overflow would return states from the WRONG document
        raise ValueError("batch too wide for composite key")
    key = (codes << shift) | rel

    # one probe key per (doc, T): the latest version with ts <= T of
    # each doc is the last key <= (doc, T). Probed doc-major (ascending
    # keys when the timestamps are, which keeps the binary searches
    # local), then transposed to the T-major output order
    t_q = timestamps[timestamps >= ts_min]
    n_docs = int(codes.max()) + 1
    docs = np.arange(n_docs, dtype=np.int64)
    step = max(1, _PROBE_KEYS // n_docs)
    rows: list[np.ndarray] = [np.zeros(0, np.int64)]
    ts_q: list[np.ndarray] = [np.zeros(0, np.int64)]
    for i in range(0, len(t_q), step):
        chunk = t_q[i : i + step]
        probe = (docs[:, None] << shift) | (chunk[None, :] - ts_min)
        idx = np.searchsorted(key, probe.ravel(), side="right") - 1
        idx = idx.reshape(probe.shape).T.ravel()
        # idx -1 (no key <= probe) wraps to the last row; the first
        # term masks it out
        hit = (idx >= 0) & (codes[idx] == np.tile(docs, len(chunk))) & m[idx]
        rows.append(idx[hit])
        ts_q.append(np.repeat(chunk, n_docs)[hit])
    return _gather(tbl, columns, np.concatenate(rows), ts_q=pa.array(np.concatenate(ts_q)))


def contributions(
    tbl: pa.Table,
    t_from: int,
    t_to: int,
    match: np.ndarray | None = None,
    aoi: np.ndarray | None = None,
    columns: list[str] | None = None,
    codes: np.ndarray | None = None,
) -> pa.Table:
    """Contribution classification over [t_from, t_to) — see module doc.

    TAG_CHANGE compares ``tag_id``: keytable ids are bijective with tag
    signatures, so id equality is signature equality.

    ``aoi`` is a per-version mask for area-of-interest membership of
    the version's geometry: a state outside the AOI behaves like the
    reference's clipped-to-empty geometry — it emits a DELETION when
    the previous state was present, and re-entry emits a CREATION
    (CellIterator.java:625-642). The AOI does NOT affect which
    timestamps are modifications (the kept/collapse phases use only
    visibility+filter, as in the reference where the clip is evaluated
    during the walk).

    Output = the ``columns`` state columns of the modification's
    version (default: all of ``_STATE_COLS``) + boolean
    ``is_creation / is_deletion / is_tag_change / is_geom_change`` and
    previous-state columns ``prev_lon_e7 / prev_lat_e7``. ``codes``:
    see ``_sorted_versions``.
    """
    if len(tbl) == 0:
        return _empty_contributions(tbl, columns)
    tbl, codes, ts, _v, order = _sorted_versions(tbl, codes)
    if order is not None:
        if match is not None:
            match = match[order]
        if aoi is not None:
            aoi = aoi[order]
    visible = tbl["visible"].to_numpy(zero_copy_only=False)
    m = visible if match is None else (visible & match)
    p_all = m if aoi is None else (m & aoi)  # "present" incl. AOI membership

    # 1. modification timestamps under the filter
    same_prev = np.r_[False, codes[1:] == codes[:-1]]
    prev_m = np.r_[False, m[:-1]] & same_prev
    kept = m | prev_m
    k = np.flatnonzero(kept)
    if len(k) == 0:
        return _empty_contributions(tbl, columns)

    # 2. changeset collapse within the kept subsequence
    cs = tbl["cs"].to_numpy(zero_copy_only=False)
    doc_k, cs_k = codes[k], cs[k]
    last_of_run = np.r_[(doc_k[:-1] != doc_k[1:]) | (cs_k[:-1] != cs_k[1:]), True]
    f = k[last_of_run]

    # 3. classify vs the immediately preceding collapsed modification
    doc_f = codes[f]
    has_prev = np.r_[False, doc_f[1:] == doc_f[:-1]]
    pf = np.r_[0, f[:-1]]  # prev index (valid only where has_prev)
    present = p_all[f]
    prev_present = np.where(has_prev, p_all[pf], False)

    emit = present | prev_present  # emit iff either state is present
    in_interval = (ts[f] >= t_from) & (ts[f] < t_to)
    emit &= in_interval
    if not emit.any():
        return _empty_contributions(tbl, columns)

    lon = tbl["lon_e7"].to_numpy(zero_copy_only=False)
    lat = tbl["lat_e7"].to_numpy(zero_copy_only=False)
    tag = tbl["tag_id"].to_numpy(zero_copy_only=False)

    both = present & prev_present
    is_creation = present & ~prev_present
    is_deletion = ~present & prev_present
    is_tag_change = both & (tag[f] != tag[pf])
    is_geom_change = both & ((lon[f] != lon[pf]) | (lat[f] != lat[pf]))

    sel = np.flatnonzero(emit)
    prev_rows = pf[sel]
    prev_ok = has_prev[sel] & p_all[prev_rows]
    return _gather(
        tbl,
        columns,
        f[sel],
        is_creation=is_creation[sel],
        is_deletion=is_deletion[sel],
        is_tag_change=is_tag_change[sel],
        is_geom_change=is_geom_change[sel],
        prev_lon_e7=np.where(prev_ok, lon[prev_rows], 0),
        prev_lat_e7=np.where(prev_ok, lat[prev_rows], 0),
    )


def _empty_contributions(tbl: pa.Table, columns) -> pa.Table:
    flags = {c: np.zeros(0, bool) for c in ("is_creation", "is_deletion", "is_tag_change", "is_geom_change")}
    prev = {c: np.zeros(0, np.int64) for c in ("prev_lon_e7", "prev_lat_e7")}
    return _gather(tbl, columns, np.zeros(0, np.int64), **flags, **prev)
