"""Edit-distance-1 string similarity join (fuzzy join).

Candidate generation is the d=1 instance of the partition scheme of
PassJoin (Li, Deng, Feng, "PASS-JOIN: A Partition-based Method for
Similarity Joins", PVLDB 5(3), 2011 — public literature): split the
SHORTER string of a pair into two segments; a single edit corrupts at
most one segment, so the other survives VERBATIM in the longer string
— anchored at the PREFIX (left segment: nothing to its left moved) or
at the SUFFIX (right segment: its end stays the end of the string).
Each string therefore emits two SHORT-side keys (its own halves) and,
for every compatible shorter length l in {len-1, len}, two LONG-side
probe keys (its prefix of h(l) bytes / suffix of l-h(l) bytes, h(l) =
l//2). Candidates are the partitioned hash EQUI-join on (role,
segment, l) — never an all-pairs product — and the verify step is an
exact vectorized hamming / one-deletion check (no DP needed at d=1).

Byte-level contract: distances are over UTF-8 BYTES (identical to
character edits on ASCII corpora — the tested regime; a multi-byte
character substitution would count as several byte edits, so callers
with non-ASCII text get the documented byte semantics, loudly stated
here rather than silently approximated).

Scale shape: emission is 6 bounded keys per row; the join shuffles
|keys| rows through one ``io.reduce_by_key`` (ops/relational.hash_join);
verification and pair normalization run in-stage; the global pair
dedupe is one groupby over candidate-pair cardinality, never the
corpus. Skew guard: a segment shared by many strings (hot key) makes
that bucket's candidate block quadratic — the in-stage verify keeps
only true pairs, and the documented mitigation is the segment count
(d+1 partitions shrink per-key collision classes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import io as rio


def _byte_matrix(strs: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """-> (uint8 matrix padded with zeros, byte lengths)."""
    a = np.char.encode(strs.to_numpy(dtype="U"), "utf-8")
    lens = np.char.str_len(a).astype(np.int64)
    w = max(int(a.dtype.itemsize), 1)
    m = np.frombuffer(
        np.ascontiguousarray(a.astype(f"S{w}")), dtype=np.uint8
    ).reshape(len(a), w)
    return m, lens


def edit1_verify(sa: pd.Series, sb: pd.Series) -> np.ndarray:
    """Exact edit-distance <= 1 (byte-level) for aligned string pairs,
    fully vectorized: equal lengths -> hamming <= 1; lengths differing
    by one -> common-prefix + common-suffix covers the shorter."""
    if len(sa) == 0:
        return np.zeros(0, dtype=bool)
    am, la = _byte_matrix(sa)
    bm, lb = _byte_matrix(sb)
    w = max(am.shape[1], bm.shape[1])
    if am.shape[1] < w:
        am = np.pad(am, ((0, 0), (0, w - am.shape[1])))
    if bm.shape[1] < w:
        bm = np.pad(bm, ((0, 0), (0, w - bm.shape[1])))
    idx = np.arange(w)[None, :]
    minlen = np.minimum(la, lb)[:, None]
    neq = am != bm
    # equal length: hamming distance over the common width
    ham = (neq & (idx < minlen)).sum(axis=1)
    ok_same = (la == lb) & (ham <= 1)
    # off-by-one length: one deletion iff common prefix + common suffix
    # of the END-ALIGNED strings covers the shorter string
    mism = neq | (idx >= minlen)
    pfx = np.where(mism.any(axis=1), mism.argmax(axis=1), minlen[:, 0])
    cols_a = np.maximum(la[:, None] - 1 - idx, 0)
    cols_b = np.maximum(lb[:, None] - 1 - idx, 0)
    rneq = np.take_along_axis(am, cols_a, axis=1) != np.take_along_axis(
        bm, cols_b, axis=1
    )
    rmism = rneq | (idx >= minlen)
    sfx = np.where(rmism.any(axis=1), rmism.argmax(axis=1), minlen[:, 0])
    ok_diff = (np.abs(la - lb) == 1) & (pfx + sfx >= minlen[:, 0])
    return (ok_same | ok_diff).astype(bool)


def _emit_keys(batch: pa.Table, id_col: str, s_col: str, side: str) -> pa.Table:
    """SHORT-side keys (side='a'): the string's own two halves.
    LONG-side keys (side='b'): prefix/suffix probes for each
    compatible shorter length l in {len-1, len}. The outer loop is
    over DISTINCT LENGTHS (bounded, like a fixed offset table); every
    slice inside is a vectorized pandas str kernel."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    ss = pd.Series(batch[s_col].to_numpy(zero_copy_only=False))
    lens = ss.str.len().to_numpy()
    if len(lens) and int(lens.min()) == 0:
        # an empty string's pairs would need l=0 probe keys, which the
        # l >= 1 window never emits — reject loudly instead of missing
        # pairs silently
        raise ValueError("edit1_pairs: empty strings unsupported")
    out_id, out_s, out_role, out_seg, out_l = [], [], [], [], []

    def emit(mask: np.ndarray, role: str, seg: pd.Series, l: int) -> None:
        out_id.append(ids[mask])
        out_s.append(ss.to_numpy()[mask])
        out_role.append(np.full(int(mask.sum()), role, dtype=object))
        out_seg.append(seg.to_numpy())
        out_l.append(np.full(int(mask.sum()), l, dtype=np.int64))

    for length in np.unique(lens):
        m = lens == length
        sub = ss[m]
        ls = [int(length)] if side == "a" else [
            l for l in (int(length) - 1, int(length)) if l >= 1
        ]
        for l in ls:
            h = l // 2
            if side == "a" and l != int(length):
                continue
            emit(m, "p", sub.str[:h], l)
            emit(m, "s", sub.str[int(length) - (l - h):], l)
    if not out_id:
        return pa.table(
            {
                f"id_{side}": pa.array([], type=pa.int64()),
                f"s_{side}": pa.array([], type=pa.string()),
                "role": pa.array([], type=pa.string()),
                "seg": pa.array([], type=pa.string()),
                "l": pa.array([], type=pa.int64()),
            }
        )
    return pa.table(
        {
            f"id_{side}": np.concatenate(out_id),
            f"s_{side}": pa.array(np.concatenate(out_s), type=pa.string()),
            "role": pa.array(np.concatenate(out_role), type=pa.string()),
            "seg": pa.array(np.concatenate(out_seg), type=pa.string()),
            "l": np.concatenate(out_l),
        }
    )


def edit1_pairs(ds: rio.Blocks, id_col: str, s_col: str) -> rio.Blocks:
    """All unordered id pairs whose strings are within ONE byte-level
    edit (including distance 0: exact duplicates under distinct ids).
    Returns blocks with columns (id_a, id_b), id_a < id_b, globally
    deduplicated."""
    from .relational import hash_join

    short = rio.materialize_blocks(ds, lambda b: _emit_keys(b, id_col, s_col, "a"))
    long_ = rio.materialize_blocks(ds, lambda b: _emit_keys(b, id_col, s_col, "b"))
    cand = hash_join(short, long_, on=["role", "seg", "l"])

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["id_a"] != g["id_b"]]
        if g.empty:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64")}
            )
        ok = edit1_verify(
            g["s_a"].reset_index(drop=True), g["s_b"].reset_index(drop=True)
        )
        g = g[ok]
        lo = np.minimum(g["id_a"].to_numpy(dtype=np.int64),
                        g["id_b"].to_numpy(dtype=np.int64))
        hi = np.maximum(g["id_a"].to_numpy(dtype=np.int64),
                        g["id_b"].to_numpy(dtype=np.int64))
        # in-stage pre-dedupe (a pair can match on both halves within
        # one block); the global dedupe is the pair shuffle below
        return pd.DataFrame({"id_a": lo, "id_b": hi}).drop_duplicates()

    def distinct(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t, ["id_a", "id_b"]).aggregate([])

    return rio.reduce_by_key(cand, ["id_a", "id_b"], distinct, stage=rio.on_pandas(verify))
