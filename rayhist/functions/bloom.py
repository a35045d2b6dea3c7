"""Distributed Bloom filter — shuffle-pruning semi-join helper.

A both-sides-large semi-join must shuffle every left row to its key
bucket before the membership test (ops/relational.hash_semi_join). At
100-TB scale most left rows often DON'T match; a Bloom filter of the
right-side keys, built as per-batch bitmap partials OR-merged and
broadcast once via ``ray.put``, lets the scan stage drop non-matching
left rows BEFORE the shuffle. False positives only pass extra rows to
the exact in-bucket filter (correctness unaffected — the filter is a
sound pre-prune, never a semantic); false negatives are impossible.

Public construction: double hashing (Kirsch & Mitzenmacher 2006):
position_i = h1 + i * h2 (mod m), with h1/h2 derived from the engine's
fmix64-finalized FNV path (bit-position consumers need full-avalanche
hashes — see ops/text.fmix64). Bitmaps are numpy uint8 arrays: the
partial merge is a vectorized OR (associative/commutative/idempotent —
safe under task retries), and the membership probe is fully
vectorized.

Sizing: fp_rate ~ (1 - e^(-k n / m))^k; the helper picks m for a
target rate given expected n, with k = round(m/n ln 2).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..io import map_blocks
from ..ops.text import fmix64, fnv1a_batch


def _h12(keys: pa.ChunkedArray | pa.Array | list) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit hash lanes over string-cast keys. Null
    keys hash as "" — sound for a Bloom pre-prune (a null can only add
    a false-positive pattern, and the exact in-bucket filter drops
    null keys per SQL semantics anyway); fnv1a_batch itself would
    refuse a null-bearing arrow array."""
    import pyarrow.compute as pc

    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(keys)
    keys = pc.fill_null(pc.cast(keys, pa.string()), "")
    h1 = fmix64(fnv1a_batch(keys))
    h2 = fmix64(h1 ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)  # odd: full cycle
    return h1, h2


def bloom_params(expected_n: int, fp_rate: float = 0.01) -> tuple[int, int]:
    """(m_bits, k_hashes) for a target false-positive rate. m is
    rounded up to a power of two so the position fold is a mask."""
    if not 0 < fp_rate < 1:
        raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
    n = max(expected_n, 1)
    m = int(math.ceil(-n * math.log(fp_rate) / (math.log(2) ** 2)))
    m = 1 << max(10, (m - 1).bit_length())
    k = max(1, round(m / n * math.log(2)))
    return m, min(k, 16)


class BloomFilter:
    __slots__ = ("m", "k", "bits")

    def __init__(self, m_bits: int, k_hashes: int, bits: np.ndarray | None = None):
        if m_bits & (m_bits - 1):
            raise ValueError("m_bits must be a power of two")
        self.m = m_bits
        self.k = k_hashes
        self.bits = np.zeros(m_bits >> 3, dtype=np.uint8) if bits is None else bits

    def add(self, keys) -> "BloomFilter":
        h1, h2 = _h12(keys)
        mask = np.uint64(self.m - 1)
        for i in range(self.k):
            pos = (h1 + np.uint64(i) * h2) & mask
            np.bitwise_or.at(self.bits, (pos >> np.uint64(3)).astype(np.int64),
                             np.left_shift(np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)))
        return self

    def contains(self, keys) -> np.ndarray:
        """Vectorized membership probe -> bool mask (no false
        negatives; false positives at the configured rate)."""
        h1, h2 = _h12(keys)
        mask = np.uint64(self.m - 1)
        out = np.ones(len(h1), dtype=bool)
        for i in range(self.k):
            pos = (h1 + np.uint64(i) * h2) & mask
            bit = self.bits[(pos >> np.uint64(3)).astype(np.int64)] & np.left_shift(
                np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)
            )
            out &= bit != 0
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError("bloom shape mismatch")
        return BloomFilter(self.m, self.k, self.bits | other.bits)


def build_bloom(
    ds, on: str, expected_n: int, fp_rate: float = 0.01
) -> BloomFilter:
    """Build a Bloom filter of ``ds[on]`` distributed: one bitmap
    partial per batch (the batch's distinct keys only), OR-merged on
    the driver. Partials are m/8 bytes each — size m for the expected
    DISTINCT key count, not the row count."""
    m, k = bloom_params(expected_n, fp_rate)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        bf = BloomFilter(m, k).add(pc.unique(batch[on]))
        return pa.table({"bits": pa.array([bf.bits.tobytes()], type=pa.binary())})

    out = BloomFilter(m, k)
    for row in map_blocks(ds, partial).to_pylist():
        out.bits |= np.frombuffer(row["bits"], dtype=np.uint8)
    return out
