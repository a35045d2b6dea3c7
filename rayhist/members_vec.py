"""Compound-document engine (way/relation member recursion) over the
typed compound columns.

Reads the columns ingest packs for way, relation and old-style
documents (``model.COMPOUND_SCHEMA``): every version record of a
document, the parent's own and its denormalized children's, in span
order; a packed child id per version; the member edges as flat lists;
one tag-signature id per version. No span text is read: tag and role
tests are keytable lookups resolved on the driver (``tag_match``,
``old_style_tags``, ``role_id``). Each batch runs one classifier over
batch-global (document, child) entities: member-version resolution is
one ``searchsorted`` over (entity, time rank) keys, the analog of the
reference's offset index into child histories
(``OSHWayImpl.java:79-101``).

Semantics mirror the per-document reference engine
(``tests/reference_members.py``, the differential oracle of
``tests/test_members_vec.py``), which itself mirrors the reference:

- recursive modification timestamps: ``OSHEntities.java:330-478``
- changeset collapse w/ parent putIfAbsent precedence: ``:122-170``
- member geometry resolution: ``OSHDBGeometryBuilder.java:72-110``
- contribution classification: ``CellIterator.java:437-712``
- child-attributed contributor uid: ``OSMContribution.java:211-257``

Exact-mirror notes:

- tag dicts compare equal iff their keytable signature ids do
  (signatures dedup keep-LAST per key and sort by key at ingest);
- the changeset map takes the LAST parent version per timestamp, then
  children in FIRST-APPEARANCE (span) order, first (ts,v) per child;
- member-validity windows need no merging for the membership test:
  per (entity, child), window los AND his are both ascending (hi = next
  version ts >= own ts), so "last window with lo <= t" is exact;
- uid attribution scans the state's DIRECT members in order, the last
  member having a version at exactly ts wins, first (ts,v) within it;
- a resolved member version with members recurses (way inside a
  relation); leaf-ness for coords is per RESOLVED VERSION, leaf-ness
  for modification recursion is per CHILD (any version has members).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .members import RELATION_AREA_TAGS, UNINTERESTING_TAG_KEYS
from .model import COMPOUND_COLUMNS, VERSION_COLUMNS, _combined

INF = 1 << 62
MAX_DEPTH = 8  # member nesting the resolver follows before it raises
NO_CS = -(1 << 61)  # changeset of a timestamp no version carries


# ---------------------------------------------- driver-side tag tests
def tag_match(keytable: dict, key: str, value: str) -> np.ndarray:
    """Per tag-signature id: the tag dict holds ``key=value``
    (``ingest.compound_keytable`` format)."""
    return np.array(
        [dict(map(tuple, sig)).get(key) == value for sig in keytable["tags"]], dtype=bool
    )


def old_style_tags(keytable: dict) -> np.ndarray:
    """Per tag-signature id: the tag side of
    ``BaseTagInterpreter.isOldStyleMultipolygon`` (:111-136) — every tag
    is a relation-area tag or uninteresting (tagless passes)."""
    return np.array(
        [all(tuple(kv) in RELATION_AREA_TAGS or kv[0] in UNINTERESTING_TAG_KEYS for kv in sig)
         for sig in keytable["tags"]],
        dtype=bool,
    )


def role_id(keytable: dict, role: str) -> int:
    """The role's keytable id; -1 when no member carries it."""
    return keytable["roles"].index(role) if role in keytable["roles"] else -1


# ------------------------------------------------------------ helpers
def _range_gather_idx(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices that concatenate values[starts[i] : starts[i]+counts[i]]."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.cumsum(counts) - counts
    return np.repeat(starts - prefix, counts) + np.arange(total, dtype=np.int64)


def _positions(counts: np.ndarray) -> np.ndarray:
    """0..counts[i]-1 for every i, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def _flat(batch: pa.Table, name: str, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """(values, per-document lengths) of a list column."""
    col = _combined(batch, name)
    return (
        col.flatten().to_numpy(zero_copy_only=False).astype(dtype, copy=False),
        np.diff(col.offsets.to_numpy(zero_copy_only=False)).astype(np.int64),
    )


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a value differs from the one before (the first too)."""
    out = np.ones(len(a), bool)
    out[1:] = a[1:] != a[:-1]
    return out


def _run_ends(a: np.ndarray) -> np.ndarray:
    """True where a value differs from the one after (the last too)."""
    out = np.ones(len(a), bool)
    out[:-1] = a[1:] != a[:-1]
    return out


def _segment_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Integer sum of each consecutive ``counts[i]``-long run of values."""
    out = np.zeros(len(counts), np.int64)
    nz = counts > 0
    if nz.any():
        out[nz] = np.add.reduceat(values, (np.cumsum(counts) - counts)[nz])
    return out


class ParsedBatch:
    """Struct-of-arrays view of one batch of compound documents, built
    from the typed compound columns with numpy only.

    Version records are kept in entity order (``*2`` arrays, sorted by
    entity, then (ts, v); an entity is a (doc, child) pair, numbered
    in order of first appearance); ``mem_*`` index the member edges,
    sorted by owning version. ``match`` is a bool per tag-signature id (None:
    every version matches)."""

    def __init__(self, batch: pa.Table, match: np.ndarray | None = None):
        missing = [c for c in ("osm_id", "tag_ids", *VERSION_COLUMNS, *COMPOUND_COLUMNS)
                   if c not in batch.column_names]
        if missing:
            raise ValueError(
                f"not a typed compound batch: no {missing} (read model.COMPOUND_READ_COLUMNS)"
            )
        signed, n_ver = _flat(batch, "ver_v")
        self.ndocs = len(n_ver)
        nver = len(signed)
        ts, cs, uid, lon, lat, child = (_flat(batch, c)[0] for c in (
            "ver_ts", "ver_cs", "ver_uid", "ver_lon_e7", "ver_lat_e7", "ver_child"))
        tag, n_tag = _flat(batch, "tag_ids")
        if not np.array_equal(n_tag, n_ver):
            raise ValueError("compound tag_ids must list one id per version record")
        mem_ver, n_mem = _flat(batch, "mem_ver")
        mem_child = _flat(batch, "mem_child")[0]
        mem_role = _flat(batch, "mem_role")[0]
        v, vis = np.abs(signed), signed > 0
        ver_doc = np.repeat(np.arange(self.ndocs, dtype=np.int64), n_ver)
        mem_doc = np.repeat(np.arange(self.ndocs, dtype=np.int64), n_mem)
        if len(mem_ver) and (mem_ver >= n_ver[mem_doc]).any():
            raise ValueError("a member edge names a version outside its document")
        mem_gv = (np.cumsum(n_ver) - n_ver)[mem_doc] + mem_ver  # owning version, batch-global

        # entities: (doc, child), numbered in order of first appearance, so
        # a batch whose entities' versions are contiguous and in (ts, v)
        # order (every table ingest writes) is already in entity order
        uc, cinv = np.unique(child, return_inverse=True)
        nc = max(len(uc), 1)
        ukeys, first, inv = np.unique(ver_doc * nc + cinv, return_index=True, return_inverse=True)
        self.nents = len(ukeys)
        ent_id = np.empty(self.nents, np.int64)
        ent_id[np.argsort(first)] = np.arange(self.nents)
        ent_of_ver = ent_id[inv]
        by_ent = np.argsort(ent_id)
        self.ent_doc = (ukeys // nc)[by_ent]
        self.ent_is_parent = uc[(ukeys % nc)[by_ent]] == -1 if len(uc) else np.zeros(0, bool)
        uts, t_rank = np.unique(ts, return_inverse=True)
        d_ent, d_ts, d_v = np.diff(ent_of_ver), np.diff(ts), np.diff(v)
        in_order = (d_ent >= 0).all() and not (
            (d_ent == 0) & ((d_ts < 0) | ((d_ts == 0) & (d_v < 0)))
        ).any()
        order2 = np.arange(nver) if in_order else np.lexsort((v, ts, ent_of_ver))
        self.ts2, self.cs2, self.uid2 = ts[order2], cs[order2], uid[order2]
        self.vis2, self.tag2 = vis[order2], tag[order2]
        self.lon2, self.lat2 = lon[order2], lat[order2]
        self.ent2 = ent_of_ver[order2]
        self.match2 = np.ones(nver, bool) if match is None else np.asarray(match, bool)[self.tag2]
        self.ent_start = np.searchsorted(self.ent2, np.arange(self.nents + 1))
        # (entity, time rank) keys: every temporal lookup is one searchsorted
        self.uts = uts
        self.R = len(uts) + 1
        self.K = self.ent2 * self.R + t_rank[order2]

        # member edges by owning version (entity order), child -> entity
        mo = np.argsort(mem_gv, kind="stable")
        mem_gv, mem_doc, mem_child = mem_gv[mo], mem_doc[mo], mem_child[mo]
        self.mem_role = mem_role[mo]
        starts, ends = (np.searchsorted(mem_gv, np.arange(nver), side=s) for s in ("left", "right"))
        self.mem_start2, self.mem_end2 = starts[order2], ends[order2]
        self.nmem2 = self.mem_end2 - self.mem_start2
        pos = np.minimum(np.searchsorted(uc, mem_child), len(uc) - 1)
        key = mem_doc * nc + pos
        e = np.minimum(np.searchsorted(ukeys, key), self.nents - 1)
        found = (uc[pos] == mem_child) & (ukeys[e] == key) if len(mem_child) else pos < 0
        self.mem_ent = np.where(found, ent_id[e], -1)

        ent_starts = self.ent_start[:-1]
        if self.nents:
            # first-appearance span position per entity (cs-map child order)
            self.ent_app = np.minimum.reduceat(order2, ent_starts)
            # modification-recursion leaf rule: per CHILD, any version has members
            self.ent_has_mem = np.maximum.reduceat(self.nmem2 > 0, ent_starts)
        else:
            self.ent_app = np.zeros(0, np.int64)
            self.ent_has_mem = np.zeros(0, bool)
        self.parent = np.full(self.ndocs, -1, np.int64)  # parent entity per doc
        parents = np.flatnonzero(self.ent_is_parent)
        self.parent[self.ent_doc[parents]] = parents
        self.has_children = np.bincount(
            self.ent_doc[~self.ent_is_parent], minlength=self.ndocs
        ) > 0

    # ---------------------------------------------------------- lookups
    def rank(self, t: np.ndarray) -> np.ndarray:
        """Time rank of ``t``: how many of the batch's distinct version
        timestamps are <= t (the argument of ``at_or_before``)."""
        return np.searchsorted(self.uts, t, side="right")

    def at_or_before(self, ents: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Entity-order index of each entity's latest version at or
        before time rank ``r`` (last (ts, v)); -1 when none or the entity
        is -1."""
        e = np.maximum(ents, 0)
        k = np.searchsorted(self.K, e * self.R + r - 1, side="right") - 1
        return np.where((ents >= 0) & (k >= self.ent_start[e]), k, -1)

    def exactly_at(self, ents: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Entity-order index of each entity's first version at exactly
        the batch timestamp of time rank ``r`` (``uts[r - 1]``); -1 when
        none."""
        q = np.maximum(ents, 0) * self.R + r - 1
        k = np.minimum(np.searchsorted(self.K, q), len(self.K) - 1)
        hit = (ents >= 0) & (k >= 0)
        hit[hit] &= self.K[k[hit]] == q[hit]
        return np.where(hit, k, -1)

    def members_of(self, k: np.ndarray):
        """Member edges of versions ``k``: (owner position in ``k``, edge
        index, member position within the version)."""
        n = self.nmem2[k]
        owner = np.repeat(np.arange(len(k), dtype=np.int64), n)
        return owner, _range_gather_idx(self.mem_start2[k], n), _positions(n)

    def state_rows(self, tsq: np.ndarray):
        """(doc, ts, time rank, parent state version) for every document
        with a parent and every query timestamp, doc-major; state -1 =
        none."""
        docs = np.flatnonzero(self.parent >= 0)
        d = np.repeat(docs, len(tsq))
        t = np.tile(tsq, len(docs))
        r = np.tile(self.rank(tsq), len(docs))
        return d, t, r, self.at_or_before(self.parent[d], r)


def _resolve_members(P: ParsedBatch, k: np.ndarray, r: np.ndarray):
    """Member-resolved leaf coordinates of versions ``k`` at time ranks
    ``r``: each member resolves to its latest version at r (missing or
    deleted: skipped); one with members of its own expands in place.
    Returns (counts per row of k, lon, lat), row by row in the
    reference's resolve_coords order: the expansion repeats every item
    in place, so the frontier never needs a sort."""
    rows, edge, _ = P.members_of(k)
    r, ents = r[rows], P.mem_ent[edge]
    lon, lat = np.zeros(len(rows), np.int64), np.zeros(len(rows), np.int64)
    todo = np.ones(len(rows), bool)  # items still naming an entity
    for _ in range(MAX_DEPTH):
        idx = np.flatnonzero(todo)
        if not len(idx):
            break
        kk = P.at_or_before(ents[idx], r[idx])
        ok = kk >= 0
        ok[ok] = P.vis2[kk[ok]]
        n = np.where(ok, P.nmem2[kk], 0)
        leaf = ok & (n == 0)
        lon[idx[leaf]], lat[idx[leaf]] = P.lon2[kk[leaf]], P.lat2[kk[leaf]]
        # each item becomes 1 (resolved), 0 (missing/deleted) or its members
        reps = np.ones(len(rows), np.int64)
        reps[idx] = np.where(leaf, 1, n)
        src = np.repeat(np.arange(len(rows)), reps)
        expanded = np.zeros(len(rows), bool)
        expanded[idx[n > 0]] = True
        first = np.zeros(len(rows), np.int64)
        first[idx] = P.mem_start2[kk]
        todo = expanded[src]
        ents = ents[src]
        ents[todo] = P.mem_ent[first[src[todo]] + _positions(reps)[todo]]
        rows, r, lon, lat = rows[src], r[src], lon[src], lat[src]
    if todo.any():
        # the per-document reference recurses unboundedly; truncating
        # deep leaves would diverge from it — raise loudly (also catches
        # membership cycles, which the reference surfaces as RecursionError)
        raise ValueError(
            f"member recursion exceeded depth {MAX_DEPTH} (cycle or unsupported nesting)"
        )
    return np.bincount(rows, minlength=len(k)).astype(np.int64), lon, lat


# --------------------------------------------------------- snapshots
def snapshot_geoms_batch_vec(batch, timestamps, match=None, id_name="way_id"):
    """Snapshot rows per (doc, query ts) with member-resolved geometry
    stats (integer-exact count + coordinate sums, so the result is
    oracle-hashable): the parent state at ts must be visible, match and
    — in a document with children — have members
    (CellIterator.java:250-258). ``match``: bool per tag-signature id
    (``tag_match``), None = no filter."""
    P = ParsedBatch(batch, match)
    tsq = np.asarray([int(x) for x in timestamps], dtype=np.int64)
    d, t, r, k = P.state_rows(tsq)
    ok = k >= 0
    ok[ok] = P.vis2[k[ok]] & P.match2[k[ok]] & ((P.nmem2[k[ok]] > 0) | ~P.has_children[d[ok]])
    d, t, r, k = d[ok], t[ok], r[ok], k[ok]
    counts, lon, lat = _resolve_members(P, k, r)
    ids = _combined(batch, "osm_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            id_name: pa.array(ids[d]),
            "ts_q": pa.array(t),
            "n_nodes": pa.array(counts),
            "sum_lon": pa.array(_segment_sums(counts, lon)),
            "sum_lat": pa.array(_segment_sums(counts, lat)),
        }
    )


# ----------------------------------------------------- contributions
def _modification_keys(P: ParsedBatch) -> np.ndarray:
    """Sorted (entity, time rank) keys of every entity's recursive
    modification timestamps (``OSHEntities._getModificationTimestamps``,
    :330-478), level by level up the member graph: a leaf child (no
    version with members) contributes every version timestamp; the
    others keep their own timestamps (visible, and matching for a
    document's parent, plus the first version after such a one) and
    the timestamps of their children inside the member-validity windows
    [ts_i, ts_{i+1}] of those kept-by-rule versions."""
    m = P.vis2 & np.where(P.ent_is_parent[P.ent2], P.match2, True)
    first = _run_starts(P.ent2)
    kept = m | (np.r_[False, m[:-1]][: len(m)] & ~first)
    rec = P.ent_is_parent | P.ent_has_mem
    leaf_ver = ~rec[P.ent2]
    keys = [P.K[leaf_ver]]
    # windows of matching versions with members: (entity, child, lo, hi)
    nxt = np.r_[P.ts2[1:], INF][: len(m)]
    nxt[_run_ends(P.ent2)] = INF
    opening = np.flatnonzero(m & (P.nmem2 > 0))
    owner, edge, _ = P.members_of(opening)
    vers = opening[owner]
    w_ent, w_child = P.ent2[vers], P.mem_ent[edge]
    live = w_child >= 0
    w_ent, w_child, w_lo, w_hi = w_ent[live], w_child[live], P.ts2[vers][live], nxt[vers][live]
    # one pair per (entity, child); windows sorted by (pair, version)
    pair_key, pair = np.unique(w_ent * P.nents + w_child, return_inverse=True)
    o = np.argsort(pair, kind="stable")
    pair, w_lo, w_hi = pair[o], w_lo[o], w_hi[o]
    WK = pair * P.R + np.searchsorted(P.uts, w_lo)
    w_hi_rank = np.searchsorted(P.uts, w_hi)  # INF -> len(uts)
    p_ent, p_child = pair_key // max(P.nents, 1), pair_key % max(P.nents, 1)

    done = ~rec
    own = kept & rec[P.ent2]
    for _ in range(MAX_DEPTH + 1):
        todo = rec & ~done
        if not todo.any():
            break
        blocked = np.zeros(P.nents, bool)
        blocked[p_ent[~done[p_child]]] = True
        now = todo & ~blocked
        if not now.any():
            raise ValueError("member recursion has a cycle")
        mk = np.unique(np.concatenate(keys))
        keys.append(P.K[own & now[P.ent2]])
        # the children's timestamps inside the windows of each pair
        sel = np.flatnonzero(now[p_ent])
        lo = np.searchsorted(mk, p_child[sel] * P.R)
        hi = np.searchsorted(mk, (p_child[sel] + 1) * P.R)
        cand_pair = np.repeat(sel, hi - lo)
        cand_rank = mk[_range_gather_idx(lo, hi - lo)] % P.R
        j = np.searchsorted(WK, cand_pair * P.R + cand_rank, side="right") - 1
        ok = (j >= 0) & (WK[np.maximum(j, 0)] // P.R == cand_pair)
        ok[ok] &= cand_rank[ok] <= w_hi_rank[j[ok]]
        keys.append(p_ent[cand_pair[ok]] * P.R + cand_rank[ok])
        done |= now
    else:
        raise ValueError(f"member recursion exceeded depth {MAX_DEPTH}")
    return np.unique(np.concatenate(keys))


def _changesets(P: ParsedBatch, d: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The changeset map at (doc, time rank) rows
    (``OSHEntities.getChangesetTimestamps``, :122-170): the LAST parent
    version at that timestamp wins, else the first-appearing child
    having one, its first (ts, v) version."""
    n = len(P.ts2)
    is_parent = P.ent_is_parent[P.ent2]
    doc = P.ent_doc[P.ent2]
    r = np.searchsorted(P.uts, P.ts2)
    o = np.lexsort((np.where(is_parent, -np.arange(n), np.arange(n)),
                    np.where(is_parent, -1, P.ent_app[P.ent2]), r, doc))
    dk = (doc * P.R + r)[o]
    first = _run_starts(dk)
    keys, vals = dk[first], P.cs2[o][first]
    q = d * P.R + rank
    j = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    hit = (keys[j] == q) if len(keys) else np.zeros(len(q), bool)
    return np.where(hit, vals[j] if len(keys) else 0, NO_CS)


def contribution_stats_batch_vec(batch, t_from: int, t_to: int, match=None):
    """Per-batch contribution partials over compound documents
    (member recursion, CellIterator.java:437-712): one row of n /
    creation / deletion / tag / geom counts and uid_part, the sum of
    contributor uids (pins the child-attribution rule,
    OSMContribution.java:211-257). ``match``: bool per tag-signature id
    (``tag_match``), None = no filter. Finish with combine_partials."""
    P = ParsedBatch(batch, match)
    zero = pa.table({c: pa.array([0], type=pa.int64()) for c in (
        "n_part", "creation_part", "deletion_part", "tag_part", "geom_part", "uid_part")})
    mk = _modification_keys(P)
    ent, rank = mk // P.R, mk % P.R
    mk_parent = P.ent_is_parent[ent]
    d, rank = P.ent_doc[ent[mk_parent]], rank[mk_parent]  # (doc, ts) rows, doc-major
    if not len(d):
        return zero
    cs = _changesets(P, d, rank)
    keep = _run_ends(d) | _run_ends(cs)
    d, t, r = d[keep], P.uts[rank[keep]], rank[keep] + 1
    k = P.at_or_before(P.parent[d], r)
    ok = k >= 0  # a timestamp before the first parent version has no state
    d, t, r, k = d[ok], t[ok], r[ok], k[ok]
    if not len(d):
        return zero
    first = _run_starts(d)
    p = P.vis2[k] & P.match2[k]
    p_prev = np.r_[False, p[:-1]] & ~first
    emitted = p | p_prev
    compare = p & p_prev
    tag_chg = compare & (P.tag2[k] != np.r_[-1, P.tag2[k][:-1]])

    # geometry: each present row against the previous row (present too)
    present = np.flatnonzero(p)
    counts, lon, lat = _resolve_members(P, k[present], r[present])
    offs = np.cumsum(counts) - counts
    geom_chg = np.zeros(len(d), bool)
    cmp_rows = np.flatnonzero(compare)
    if len(cmp_rows):
        a = np.cumsum(p)[cmp_rows] - 1  # present rank; row r-1 holds a-1
        diff = counts[a] != counts[a - 1]
        same_n = np.flatnonzero(~diff)
        n_each = counts[a[same_n]]
        ga = _range_gather_idx(offs[a[same_n]], n_each)
        gb = _range_gather_idx(offs[a[same_n] - 1], n_each)
        neq = (lon[ga] != lon[gb]) | (lat[ga] != lat[gb])
        seg = np.repeat(np.arange(len(same_n)), n_each)
        diff[same_n] = np.bincount(seg[neq], minlength=len(same_n)) > 0
        geom_chg[cmp_rows] = diff

    # a pure member edit (state ts != ts) takes the uid of the LAST
    # direct member with a version at exactly ts (its first (ts, v))
    uid = P.uid2[k].copy()
    edit = present[P.ts2[k[present]] != t[present]]
    owner, edge, _ = P.members_of(k[edit])
    hit = P.exactly_at(P.mem_ent[edge], r[edit][owner])
    owner, hit = owner[hit >= 0], hit[hit >= 0]  # still in (row, member) order
    winner = _run_ends(owner)
    uid[edit[owner[winner]]] = P.uid2[hit[winner]]

    rng = emitted & (t >= t_from) & (t < t_to)
    sums = (rng, p & ~p_prev & rng, ~p & p_prev & rng, tag_chg & rng, geom_chg & rng)
    return pa.table(
        {
            **{c: pa.array([int(x.sum())], type=pa.int64()) for c, x in zip(
                ("n_part", "creation_part", "deletion_part", "tag_part", "geom_part"), sums)},
            "uid_part": pa.array([int(uid[rng].sum())], type=pa.int64()),
        }
    )


# ------------------------------------------------ old-style multipolygons
def snapshots_old_style_batch_vec(batch, timestamps, old_style, outer: int, inner: int, match=None):
    """Old-style multipolygon snapshots (CellIterator.java:260-318,
    BaseTagInterpreter.isOldStyleMultipolygon:111-136): per (doc, ts)
    where the relation version at ts is visible, old-style on the tag
    side (``old_style``: bool per tag-signature id, ``old_style_tags``),
    has EXACTLY one member of role id ``outer`` whose way at ts is
    visible and matches ``match``, emit the inner-hole metrics of the
    members of role id ``inner`` (``role_id``): ring count (rings with
    no resolved points are skipped) and the integer sums of hole-ring
    point coordinates. Rings start one level DOWN from the relation
    (inner member version first, then ITS members), so a memberless
    inner member contributes nothing. Output: one row per qualifying
    (doc, ts) with columns ts_q, n_holes, sum_lon, sum_lat."""
    P = ParsedBatch(batch, match)
    tsq = np.asarray([int(x) for x in timestamps], dtype=np.int64)
    d, t, r, k = P.state_rows(tsq)
    ok = k >= 0
    kk = k[ok]
    ok[ok] = (P.vis2[kk] & ((P.nmem2[kk] > 0) | ~P.has_children[d[ok]])
              & np.asarray(old_style, bool)[P.tag2[kk]])
    t, r, k = t[ok], r[ok], k[ok]
    owner, edge, _ = P.members_of(k)
    role = P.mem_role[edge]
    is_outer = role == outer
    keep = np.bincount(owner[is_outer], minlength=len(k)) == 1
    # the single outer member's way at ts: visible + filter match
    outer_ent = np.full(len(k), -1, np.int64)
    outer_ent[owner[is_outer]] = P.mem_ent[edge[is_outer]]
    ow = P.at_or_before(outer_ent, r)
    keep &= ow >= 0
    keep[keep] &= P.vis2[ow[keep]] & P.match2[ow[keep]]
    # inner rings: one resolver row per inner member of a kept row
    ring = (role == inner) & keep[owner]
    ring_row, ring_r = owner[ring], r[owner[ring]]
    rk = P.at_or_before(P.mem_ent[edge[ring]], ring_r)
    live = np.flatnonzero(rk >= 0)
    live = live[P.vis2[rk[live]]]
    counts = np.zeros(len(ring_row), np.int64)
    slon = np.zeros(len(ring_row), np.int64)
    slat = np.zeros(len(ring_row), np.int64)
    c, lon, lat = _resolve_members(P, rk[live], ring_r[live])
    counts[live], slon[live], slat[live] = c, _segment_sums(c, lon), _segment_sums(c, lat)
    n_holes = np.bincount(ring_row[counts > 0], minlength=len(k)).astype(np.int64)
    sum_lon, sum_lat = np.zeros(len(k), np.int64), np.zeros(len(k), np.int64)
    np.add.at(sum_lon, ring_row, slon)
    np.add.at(sum_lat, ring_row, slat)
    return pa.table(
        {
            "ts_q": pa.array(t[keep]),
            "n_holes": pa.array(n_holes[keep]),
            "sum_lon": pa.array(sum_lon[keep]),
            "sum_lat": pa.array(sum_lat[keep]),
        }
    )
