"""Real OSM PBF wire-format codec + ingest bridge (sources.osmpbf).

Round-trip coverage for the protobuf wire encoding the reference reads
(RxOshPbfReader.java:70-102): blob framing, zlib, DenseNodes/DenseInfo
delta streams, plain Nodes, Ways, Relations, header feature gating,
granularity/offset math, and the id-bucket regroup across split block
boundaries.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rayhist.sources import osmpbf as m


def _rows():
    return pd.DataFrame(
        {
            "etype": ["node"] * 5 + ["way", "relation"],
            "osm_id": [1, 1, 1, 2, 2, 10, 20],
            "v": [1, 2, 3, 1, 2, 1, 1],
            "ts": [
                1704067200_000_000,
                1704070000_001_000,  # µs part is truncated by the wire
                1704080000_002_000,
                1704067200_000_000,
                1704090000_000_000,
                1704067200_000_000,
                1704067200_000_000,
            ],
            "cs": [5, 6, 7, 100, 101, 7, 8],
            "uid": [3, 4, 4, 9, 9, 3, 3],
            "user": ["u3", "u4", "u4", "u9", "u9", "u3", "u3"],
            "visible": [True, False, True, True, True, True, True],
            "lon_e7": [123456789, 0, -123456789, 1799999999, 5, 0, 0],
            "lat_e7": [-898765432, 0, 898765432, -900000000, 7, 0, 0],
            "tag_k": [["etype", "k"], [], ["highway"], ["name"], ["name"], ["building"], ["type"]],
            "tag_v": [["click", "7"], [], ["primary"], ["x"], ["y"], ["yes"], ["multipolygon"]],
            "refs": [[]] * 5 + [[1, 2, 5, 3], []],
            "member_ids": [[]] * 6 + [[10, 1]],
            "member_roles": [[]] * 6 + [["outer", "admin_centre"]],
            "member_types": [[]] * 6 + [["way", "node"]],
        }
    )


def _decode_file(path: str) -> pd.DataFrame:
    tables = []
    for b in m.scan_blobs(path):
        with open(path, "rb") as f:
            f.seek(b["offset"])
            payload = m._blob_payload(f.read(b["size"]))
        if b["type"] == "OSMHeader":
            feats = m.check_header(payload)
            assert "OsmSchema-V0.6" in feats
        else:
            tables.append(m.decode_primitive_block(payload))
    return pa.concat_tables(tables).to_pandas()


def _canon(df: pd.DataFrame) -> list:
    order = {"node": 0, "way": 1, "relation": 2}
    df = df.sort_values(
        ["etype", "osm_id", "v"],
        key=lambda c: c.map(order) if c.name == "etype" else c,
        kind="mergesort",
    ).reset_index(drop=True)
    return [
        [list(x) if isinstance(x, (list, np.ndarray)) else x for x in df[c]]
        for c in sorted(df.columns)
    ]


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("compress", [True, False])
def test_roundtrip(tmp_path, dense, compress):
    rows = _rows()
    path = str(tmp_path / "t.osh.pbf")
    m.write_osmpbf(path, rows, block_elems=3, dense=dense, compress=compress)
    out = _decode_file(path)
    src = rows.copy()
    src["ts"] = (src["ts"] // 1000) * 1000  # wire stores whole ms
    assert _canon(out) == _canon(src)


def test_blocks_split_on_entity_boundaries(tmp_path):
    """block_elems=1 still never splits a history mid-entity."""
    rows = _rows()
    path = str(tmp_path / "t.osh.pbf")
    m.write_osmpbf(path, rows, block_elems=1)
    blobs = [b for b in m.scan_blobs(path) if b["type"] == "OSMData"]
    assert len(blobs) == 4  # node/1 (3v), node/2 (2v), way/10, rel/20
    out = _decode_file(path)
    src = rows.copy()
    src["ts"] = (src["ts"] // 1000) * 1000
    assert _canon(out) == _canon(src)


def test_unknown_required_feature_rejected(tmp_path):
    payload = m._ld(4, b"Sort.Type_then_ID") + m._ld(4, b"LocationsOnWays")
    blob = m._frame_blob("OSMHeader", payload)
    path = tmp_path / "bad.osm.pbf"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="LocationsOnWays"):
        _decode_file(str(path))


def test_unsupported_compression_rejected(tmp_path):
    # Blob with lzma_data (field 4) must loud-fail, not mis-decode
    blob_body = m._fv(2, 3) + m._ld(4, b"xyz")
    header = m._ld(1, b"OSMData") + m._fv(3, len(blob_body))
    import struct

    raw = struct.pack(">i", len(header)) + header + blob_body
    path = tmp_path / "lzma.osm.pbf"
    path.write_bytes(raw)
    b = m.scan_blobs(str(path))[0]
    with pytest.raises(NotImplementedError, match="zlib"):
        with open(path, "rb") as f:
            f.seek(b["offset"])
            m._blob_payload(f.read(b["size"]))


def test_granularity_and_offsets_decode():
    """Reader handles non-default granularity / offsets (writer pins
    100/0, so this block is constructed by hand): nano = offset +
    gran*raw, e7 = nano // 100."""
    st = m._StringTable()
    dense = (
        m._packed(1, np.array([7]), zz=True)  # id 7
        + m._ld(
            5,
            m._packed(1, np.array([1]))  # version
            + m._packed(2, np.array([1704067200_123]), zz=True)  # ts ms/dg
            + m._packed(3, np.array([9]), zz=True)
            + m._packed(4, np.array([2]), zz=True)
            + m._packed(5, np.array([0]), zz=True)
            + m._packed(6, np.array([1])),
        )
        + m._packed(8, np.array([123456]), zz=True)  # lat raw
        + m._packed(9, np.array([-654321]), zz=True)  # lon raw
    )
    block = (
        st.encode()
        + m._ld(2, m._ld(2, dense))
        + m._fv(17, 1000)  # granularity
        + m._fv(18, 2)  # date_granularity: 2ms units
        + m._fv(19, 55)  # lat_offset (nano)
        + m._fv(20, -75)  # lon_offset (nano)
    )
    out = m.decode_primitive_block(block).to_pandas()
    assert out.loc[0, "lat_e7"] == (55 + 1000 * 123456) // 100
    assert out.loc[0, "lon_e7"] == (-75 + 1000 * -654321) // 100
    assert out.loc[0, "ts"] == 1704067200_123 * 2 * 1000  # µs
    assert out.loc[0, "osm_id"] == 7 and bool(out.loc[0, "visible"])


def test_dense_visible_defaults_true():
    """DenseInfo.visible absent (a plain .osm.pbf, not history) ->
    all versions visible."""
    st = m._StringTable()
    dense = (
        m._packed(1, np.array([1, 1]), zz=True)  # ids 1,2
        + m._ld(
            5,
            m._packed(1, np.array([1, 1]))
            + m._packed(2, np.array([5, 0]), zz=True)
            + m._packed(3, np.array([1, 0]), zz=True)
            + m._packed(4, np.array([1, 0]), zz=True)
            + m._packed(5, np.array([0, 0]), zz=True),
        )
        + m._packed(8, np.array([10, 1]), zz=True)
        + m._packed(9, np.array([20, 1]), zz=True)
    )
    block = st.encode() + m._ld(2, m._ld(2, dense))
    out = m.decode_primitive_block(block).to_pandas()
    assert out["visible"].all() and len(out) == 2
    # default granularity 100, default date_granularity 1000 (ms)
    assert out.loc[0, "lat_e7"] == 10 and out.loc[1, "lon_e7"] == 21
    assert out.loc[0, "ts"] == 5 * 1000 * 1000


def test_documents_bridge_matches_direct_pack(ray_session, tmp_path):
    """osmpbf_documents (scan -> range-read decode -> id-bucket
    regroup -> span pack) over a file whose blocks SPLIT one entity's
    history == packing the same rows directly. Exercises the
    OshMerger.java split-run concern."""
    rows = _rows()
    nodes = rows[rows["etype"] == "node"].reset_index(drop=True)
    path = str(tmp_path / "t.osh.pbf")
    # block_elems=1 put each entity in its own block; to FORCE a split
    # history, write two single-entity files sharing osm_id=1's history
    m.write_osmpbf(str(tmp_path / "a.osh.pbf"), nodes.iloc[:2])
    m.write_osmpbf(str(tmp_path / "b.osh.pbf"), nodes.iloc[2:])
    docs = (
        m.osmpbf_documents([str(tmp_path / "a.osh.pbf"), str(tmp_path / "b.osh.pbf")])
        .to_pandas()
        .sort_values("osm_id")
        .reset_index(drop=True)
    )
    assert list(docs["osm_id"]) == [1, 2]
    assert list(docs["n_versions"]) == [3, 2]
    # bbox over visible versions only
    assert docs.loc[0, "min_lon_e7"] == -123456789
    assert docs.loc[0, "max_lon_e7"] == 123456789
    # spans: version count + tags + geom-per-visible
    spans = docs.loc[0, "spans"]
    kinds = [s["kind"] for s in spans]
    assert kinds.count("version") == 3 and kinds.count("geom") == 2
    texts = [s["text"] for s in spans if s["kind"] == "tag"]
    assert texts == ["etype=click", "k=7", "highway=primary"]


def test_documents_bridge_empty_inputs(ray_session, tmp_path):
    """A bucket with no node rows packs to the typed empty documents
    table: an empty path list and a ways/relations-only file both give
    an empty DOCUMENTS_SCHEMA result, not a reduce error."""
    from rayhist import io as rio
    from rayhist.model import DOCUMENTS_SCHEMA

    rows = _rows()
    m.write_osmpbf(str(tmp_path / "w.osh.pbf"), rows[rows["etype"] != "node"].reset_index(drop=True))
    for paths in ([], [str(tmp_path / "w.osh.pbf")]):
        docs = m.osmpbf_documents(paths)
        assert rio.num_rows(docs) == 0
        assert rio.schema(docs) == DOCUMENTS_SCHEMA


def test_varint_negative_int_fields_roundtrip():
    """Negative non-zigzag varints (protobuf int32/int64) sign-extend
    to 10 bytes and decode back exactly."""
    b = m._fv(19, -75)
    buf = np.frombuffer(b, dtype=np.uint8)
    fields = list(m._fields(buf, 0, len(buf)))
    assert len(fields) == 1
    fno, wt, a, _ = fields[0]
    assert fno == 19 and np.int64(np.uint64(a)) == -75


def test_dense_empty_tag_value_fails_at_encode_time():
    """String-table index 0 ("") is the keys_vals run TERMINATOR: an
    empty tag key/value silently corrupts the dense stream (decoder
    would mis-split runs). The encoder must refuse loudly instead."""
    import pandas as pd
    import pytest

    from rayhist.sources import osmpbf as m

    rows = pd.DataFrame(
        [{
            "etype": "node", "osm_id": 1, "v": 1, "ts": 1_700_000_000_000_000,
            "cs": 1, "uid": 1, "user": "u", "visible": True,
            "lon_e7": 10, "lat_e7": 20, "tag_k": ["amenity"], "tag_v": [""],
            "refs": [], "member_ids": [], "member_roles": [], "member_types": [],
        }]
    )
    with pytest.raises(ValueError, match="empty tag"):
        m.encode_primitive_block(rows, dense=True)
    # the non-dense encoding CAN represent it (separate keys/vals arrays)
    blk = m.encode_primitive_block(rows, dense=False)
    out = m.decode_primitive_block(blk).to_pandas()
    assert out["tag_k"].iloc[0] == ["amenity"] and out["tag_v"].iloc[0] == [""]


# ---------------------------------------------- property-based round-trip
from hypothesis import given, settings
from hypothesis import strategies as st

_TAG = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"'),
    min_size=1,
    max_size=8,
)


@st.composite
def _node_history(draw):
    """One node's version rows with adversarial values: huge/negative
    deltas, boundary coordinates, unicode tags/users, tombstones."""
    osm_id = draw(st.integers(1, 2**48))
    nv = draw(st.integers(1, 4))
    rows = []
    for v in range(1, nv + 1):
        nt = draw(st.integers(0, 2))
        rows.append(
            {
                "etype": "node",
                "osm_id": osm_id,
                "v": v,
                "ts": draw(st.integers(0, 2**52)) * 1000,  # whole ms (wire res)
                "cs": draw(st.integers(0, 2**52)),
                "uid": draw(st.integers(0, 2**31 - 1)),
                "user": draw(_TAG),
                "visible": draw(st.booleans()),
                "lon_e7": draw(st.integers(-1800000000, 1800000000)),
                "lat_e7": draw(st.integers(-900000000, 900000000)),
                "tag_k": [draw(_TAG) for _ in range(nt)],
                "tag_v": [draw(_TAG) for _ in range(nt)],
                "refs": [],
                "member_ids": [],
                "member_roles": [],
                "member_types": [],
            }
        )
    return rows


@settings(max_examples=40, deadline=None)
@given(
    histories=st.lists(_node_history(), min_size=1, max_size=4),
    dense=st.booleans(),
)
def test_roundtrip_property_nodes(histories, dense, tmp_path_factory):
    """encode -> decode == input for random node histories, both the
    DenseNodes and plain-Node encodings (delta/zigzag/varint paths hit
    with adversarial magnitudes and unicode strings)."""
    rows = pd.DataFrame([r for h in histories for r in h])
    # distinct ids per history (duplicates across draws are fine — they
    # merge into one longer history; keep (id, v) unique for comparison)
    rows = rows.drop_duplicates(["osm_id", "v"]).reset_index(drop=True)
    path = str(tmp_path_factory.mktemp("pbf") / "prop.osh.pbf")
    m.write_osmpbf(path, rows, block_elems=3, dense=dense)
    got = _decode_file(path)
    assert _canon(got) == _canon(rows)


# ------------------------------------------- cache-key fingerprinting
def test_code_fingerprint_tracks_source(tmp_path):
    """The ensure_* cache-key version suffix is a pure function of the
    generating module's SOURCE BYTES: stable across calls for the same
    bytes, different after any edit (the round-4 stale-cache fix — a
    hand-bumped ':v1' only invalidates when a human remembers)."""
    import importlib.util

    from rayhist.io import code_fingerprint

    import os

    p = tmp_path / "fpmod_demo.py"
    p.write_text("X = 1\n")
    # backdate the mtime: the edited-after-import loud-fail guard
    # (io._IMPORT_TIME_NS) must not fire for this synthetic module —
    # the guard itself is pinned by
    # test_code_fingerprint_rejects_post_import_edit
    os.utime(p, (0, 0))
    spec = importlib.util.spec_from_file_location("fpmod_demo", p)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    f1 = code_fingerprint(mod)
    code_fingerprint.cache_clear()
    assert code_fingerprint(mod) == f1, "same bytes -> same key"
    p.write_text("X = 2\n")
    os.utime(p, (0, 0))
    code_fingerprint.cache_clear()
    f2 = code_fingerprint(mod)
    code_fingerprint.cache_clear()
    assert f2 != f1, "source edit -> new cache key (cold rebuild)"


def test_relation_fixture_cold_cache_rebuild(ray_session, monkeypatch, tmp_path):
    """A cold rebuild of the relation .osh.pbf fixture (fresh
    RAYHIST_CACHE) reproduces the warm-cache query values exactly —
    the regression test for round-4's osmpbf_relation_member_sums
    hash mismatch (stale fixture served under an unbumped key)."""
    from rayhist.pipelines import q_osmpbf_relation_member_sums

    sf = "/root/testdata/sf0.001"
    warm = q_osmpbf_relation_member_sums(sf)
    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path / "cold"))
    cold = q_osmpbf_relation_member_sums(sf)
    pd.testing.assert_frame_equal(warm, cold)


@pytest.mark.parametrize("ensure", ["ensure_osmpbf_ways", "ensure_osmpbf_relations"])
def test_member_partials_carry_no_schema_metadata(ray_session, monkeypatch, tmp_path, ensure):
    """The per-block (wid, ts) partial of the way and relation fixture
    builds is built from arrays: pandas schema metadata is a dict,
    which Ray cannot hash, so every cold build logged "Failed to hash
    the schemas"."""
    from rayhist import io as rio

    seen = []

    def spy(docs, key_col, partial, build_rows, out):
        seen.append(partial(rio.blocks_table(docs)))

    monkeypatch.setenv("RAYHIST_CACHE", str(tmp_path))
    monkeypatch.setattr(m, "_encode_bucketed", spy)
    getattr(m, ensure)("/root/testdata/sf0.001")
    (partial,) = seen
    assert partial.num_rows and partial.schema.metadata is None
