"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Media payloads ride as ``binary`` columns (or as ``media_ref`` blob
keys in the span table, rayhist.model). ``MediaDecodeStage`` is a
plain callable that runs in the block tasks of the media queries. It
PROBES the codec dependency (PIL) once, when it is built on the
driver: when importable, the real decode kernel runs; otherwise a
deterministic byte-hash fake with the same signature, schema and
batch shape. ``RAYHIST_FAKE_DECODE=1`` forces the fake even when PIL
exists (reproducibility pin). The Ray-side plumbing — schema, stage
signature, output layout — is real and contract-tested in whichever
mode the environment provides.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("kind", pa.string()),  # image | audio | video
        pa.field("payload", pa.binary()),
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("duration_ms", pa.int32()),
    ]
)

FEATURE_DIM = 16


def synth_media_table(refs: list[str], kind: str = "image") -> pa.Table:
    """Deterministic fake media rows for plumbing tests: payload is a
    seeded byte blob derived from the ref."""
    payloads, widths, heights = [], [], []
    for r in refs:
        seed = hashlib.md5(r.encode()).digest()
        payloads.append(seed * 8)  # 128 opaque bytes
        widths.append(16 + seed[0] % 64)
        heights.append(16 + seed[1] % 64)
    return pa.table(
        {
            "media_ref": pa.array(refs),
            "kind": pa.array([kind] * len(refs)),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array(widths, type=pa.int32()),
            "height": pa.array(heights, type=pa.int32()),
            "duration_ms": pa.array([0] * len(refs), type=pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


def _codec_mode() -> str:
    """Optional-dependency probe, run once per stage construction:
    ``"pil"`` when PIL is importable and ``RAYHIST_FAKE_DECODE=1`` does
    not force the fake, else ``"fake"``."""
    if os.environ.get("RAYHIST_FAKE_DECODE", "") == "1":
        return "fake"
    return "fake" if importlib.util.find_spec("PIL") is None else "pil"


class MediaDecodeStage:
    """Decode payload -> fixed-dim feature vector.

    With PIL (``mode == "pil"``) the real decode runs — open image,
    grayscale, resample to a dim-sized grid, normalize; otherwise the
    deterministic byte-hash fake runs — same signature, same output
    schema, same batch shape. The contract test runs whichever branch
    the environment provides.
    """

    def __init__(self, feature_dim: int = FEATURE_DIM):
        self.dim = feature_dim
        self.mode = _codec_mode()

    def _fake_feature(self, payload: bytes) -> np.ndarray:
        n_blocks = -(-self.dim * 2 // 32)  # sha256 yields 32 bytes; chain
        # counter-suffixed digests for dims > 16 (a bare slice silently
        # TRUNCATED to 16 dims)
        if n_blocks == 1:  # dims <= 16: the original single digest
            h = hashlib.sha256(payload).digest()
        else:
            h = b"".join(
                hashlib.sha256(payload + bytes([i])).digest() for i in range(n_blocks)
            )
        return np.frombuffer(h[: self.dim * 2], dtype=np.uint16).astype(np.float32) / 65535.0

    def _pil_feature(self, payload: bytes) -> np.ndarray:  # pragma: no cover
        import io

        from PIL import Image  # optional dependency (see _codec_mode)

        side = max(1, int(np.ceil(np.sqrt(self.dim))))
        img = Image.open(io.BytesIO(payload)).convert("L").resize((side, side))
        px = np.asarray(img, dtype=np.float32).ravel()[: self.dim] / 255.0
        if len(px) < self.dim:
            px = np.pad(px, (0, self.dim - len(px)))
        return px

    def __call__(self, batch: pa.Table) -> pa.Table:
        decode = self._pil_feature if self.mode == "pil" else self._fake_feature
        feats = [decode(p) for p in batch["payload"].to_pylist()]
        out = batch.select(["media_ref", "kind", "width", "height"])
        return out.append_column(
            "feature", pa.array([f.tolist() for f in feats], type=pa.list_(pa.float32()))
        )
