"""The .rosh binary block codec: round-trip vs ensure_documents and
varint/zigzag kernel properties (mirrors the reference's
RxOshPbfReader block split + OSHNodeImpl delta/flag decode)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_varint_zigzag_roundtrip():
    from rayhist.sources.pbfish import _decode_varints, _encode_varints, _unzigzag, _zigzag

    rng = np.random.default_rng(11)
    vals = np.concatenate(
        [
            np.array([0, 1, 127, 128, 2**32, 2**63 - 1, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**63, 200, dtype=np.int64).astype(np.uint64),
        ]
    )
    got = _decode_varints(np.frombuffer(_encode_varints(vals), dtype=np.uint8))
    assert np.array_equal(got, vals)
    sv = np.array([0, -1, 1, -(2**62), 2**62, np.iinfo(np.int64).min + 1], dtype=np.int64)
    assert np.array_equal(_unzigzag(_zigzag(sv)), sv)


def test_block_roundtrip_synthetic():
    """Encode->decode of a hand-built history exercises every flag:
    multiversion, out-of-order timestamps, tombstones (no geometry),
    unchanged-tag/uid/location carry-forward, empty tag set."""
    from rayhist.sources.pbfish import decode_block, encode_block

    vers = pd.DataFrame(
        {
            "osm_id": [7, 7, 7, 9, 12],
            "v": [1, 2, 3, 1, 1],
            "ts": [100, 90, 200, 5, 6],  # out of order for id 7
            "cs": [1, 1, 2, 4, 5],
            "uid": [3, 3, 4, 1, 2],
            "visible": [True, False, True, True, False],
            "lon_e7": [10, 0, 10, -50, 0],  # v3 returns to v1's location
            "lat_e7": [20, 0, 25, -60, 0],
            "tags": [("a=1", "b=2"), ("a=1", "b=2"), ("a=2",), (), ("x=9",)],
            "min_lon_e7": [10, 10, 10, -50, 0],
            "max_lon_e7": [10, 10, 10, -50, 0],
            "min_lat_e7": [20, 20, 20, -60, 0],
            "max_lat_e7": [25, 25, 25, -60, 0],
        }
    )
    out = decode_block(encode_block(vers)).to_pandas().set_index("doc_id")
    assert list(out.index) == ["node/7", "node/9", "node/12"]
    assert out.loc["node/7", "n_versions"] == 3
    spans7 = out.loc["node/7", "spans"]
    texts = [s["text"] for s in spans7]
    kinds = [s["kind"] for s in spans7]
    assert kinds == ["version", "tag", "tag", "geom",  # v1 visible
                     "version", "tag", "tag",          # v2 tombstone: no geom
                     "version", "tag", "geom"]         # v3 one tag
    assert texts[0] == "v=1;ts=100;cs=1;uid=3;vis=1"
    assert texts[4] == "v=2;ts=90;cs=1;uid=3;vis=0"
    assert [s["media_ref"] for s in spans7 if s["kind"] == "geom"] == [
        "geom:v=1;lon=10;lat=20",
        "geom:v=3;lon=10;lat=25",
    ]
    assert [s["offset"] for s in spans7] == list(range(10))
    # tombstone-only entity: bbox zeros, no geom span
    assert out.loc["node/12", "min_lon_e7"] == 0
    assert all(s["kind"] != "geom" for s in out.loc["node/12", "spans"])
    # empty tag set round-trips
    assert [s["kind"] for s in out.loc["node/9", "spans"]] == ["version", "geom"]


def test_corpus_roundtrip_equals_ensure_documents():
    """encode(ensure_documents) -> read_binary_files -> decode must
    reproduce the span-document table EXACTLY: span-sequence equality
    on (kind, text, media_ref, offset) per doc, plus every scalar, the
    keytable-resolved tag_ids and the typed per-version columns."""
    from rayhist import io as rio
    from rayhist.ingest import ensure_documents, sig_keytable
    from rayhist.model import VERSION_COLUMNS
    from rayhist.sources.pbfish import ensure_pbfish, read_pbfish

    sf = "/root/testdata/sf0.001"
    docs = rio.read_table(ensure_documents(sf)).to_pandas()
    kt = {s: i for i, s in enumerate(sig_keytable(sf))}
    got = read_pbfish(ensure_pbfish(sf), keytable=kt).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert len(docs) == len(got)
    for col in ("doc_id", "osm_type", "osm_id", "n_versions",
                "min_lon_e7", "max_lon_e7", "min_lat_e7", "max_lat_e7"):
        assert docs[col].tolist() == got[col].tolist(), col
    for a, b in zip(docs["spans"], got["spans"]):
        sa = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in a]
        sb = [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in b]
        assert sa == sb
    for col in ("tag_ids", *VERSION_COLUMNS):
        for a, b in zip(docs[col], got[col]):
            assert list(a) == list(b), col
