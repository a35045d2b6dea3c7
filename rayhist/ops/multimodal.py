"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Media payloads ride as ``binary`` columns (or as ``media_ref`` blob
keys in the span table, rayhist.model). The stages are plain callables
that run as Ray tasks. Each PROBES the codec dependency (PIL) once,
when it is built on the driver: when importable, the real decode/resize
kernels run; otherwise a deterministic byte-hash fake with the same
signature, schema and batch shape. ``RAYHIST_FAKE_DECODE=1`` forces the
fake even when PIL exists (reproducibility pin). The Ray-side plumbing
— schema, stage signature, batch sizing, output layout — is real and
contract-tested in whichever mode the environment provides.

Scale notes: media batches are sized by BYTES not rows — a stage
holding decoded frames must keep ``batch_size`` small (rows) and rely
on the object store for the encoded payloads.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

import numpy as np
import pyarrow as pa
import ray.data

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


def decode_media(ds: ray.data.Dataset, batch_size: int = 256) -> ray.data.Dataset:
    """The media feature-extraction pipeline stage: small batches
    (payloads are wide)."""
    return ds.map_batches(MediaDecodeStage(), batch_format="pyarrow", batch_size=batch_size)


class MediaResizeStage:
    """Resize images to fit a bounding box, keeping
    aspect ratio. The pixel resample is the stubbed codec step (same
    RAYHIST_FAKE_DECODE contract as MediaDecodeStage: the fake rewrites
    the payload deterministically from (ref, target) so downstream
    stages see a changed payload); the metadata math (target size,
    aspect preservation) is real and tested."""

    def __init__(self, max_w: int = 32, max_h: int = 32):
        self.max_w, self.max_h = max_w, max_h
        self.mode = _codec_mode()

    def _resample(self, payload: bytes, w: int, h: int) -> bytes:
        if self.mode == "pil":  # pragma: no cover - real path needs PIL
            import io

            from PIL import Image  # optional dependency (see _codec_mode)

            img = Image.open(io.BytesIO(payload)).resize((int(w), int(h)))
            buf = io.BytesIO()
            img.save(buf, format="PNG")
            return buf.getvalue()
        return hashlib.sha256(payload + f":{w}x{h}".encode()).digest() * 4

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = batch["width"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch["height"].to_numpy(zero_copy_only=False).astype(np.float64)
        scale = np.minimum(np.minimum(self.max_w / w, self.max_h / h), 1.0)
        nw = np.maximum((w * scale).astype(np.int32), 1)
        nh = np.maximum((h * scale).astype(np.int32), 1)
        payloads = [
            self._resample(p, a, b)
            for p, a, b in zip(batch["payload"].to_pylist(), nw, nh)
        ]
        out = batch.drop_columns(["payload", "width", "height"])
        out = out.append_column("payload", pa.array(payloads, type=pa.binary()))
        out = out.append_column("width", pa.array(nw, type=pa.int32()))
        return out.append_column("height", pa.array(nh, type=pa.int32()))


class FrameSampleStage:
    """Flat-map stage: sample N frames per video payload at
    evenly spaced timestamps (1 -> N row explosion, the video analog of
    the shingle explode). Frame extraction is the stubbed codec step;
    the timestamp math and row fan-out are real."""

    def __init__(self, n_frames: int = 4):
        self.n = n_frames
        # frame extraction needs ffmpeg/imageio (absent here and not
        # probed — video decode has no PIL-class pure-Python fallback);
        # the timestamp math + fan-out below run identically either way
        # and the fake frame is the sha256 of (payload, ts)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch["media_ref"].to_pylist()
        durs = batch["duration_ms"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"].to_pylist()
        out_ref, out_idx, out_ts, out_frame = [], [], [], []
        for r, d, p in zip(refs, durs, payloads):
            step = max(int(d), 1) / self.n
            for i in range(self.n):
                t = int(i * step + step / 2)
                out_ref.append(r)
                out_idx.append(i)
                out_ts.append(t)
                out_frame.append(hashlib.sha256(p + t.to_bytes(8, "little")).digest())
        return pa.table(
            {
                "media_ref": pa.array(out_ref),
                "frame_idx": pa.array(out_idx, type=pa.int32()),
                "ts_ms": pa.array(out_ts, type=pa.int32()),
                "frame": pa.array(out_frame, type=pa.binary()),
            }
        )


def resize_media(ds: ray.data.Dataset, max_w: int = 32, max_h: int = 32,
                 batch_size: int = 256) -> ray.data.Dataset:
    return ds.map_batches(
        MediaResizeStage(max_w, max_h), batch_format="pyarrow", batch_size=batch_size
    )


def sample_frames(ds: ray.data.Dataset, n_frames: int = 4,
                  batch_size: int = 64) -> ray.data.Dataset:
    return ds.map_batches(FrameSampleStage(n_frames), batch_format="pyarrow", batch_size=batch_size)
