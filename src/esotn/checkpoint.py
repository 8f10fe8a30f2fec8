"""Binary parameter checkpoints with a text sidecar.

Layout: magic ``ESOTN1``, a length-prefixed manifest (tensor count, then per
tensor a name and shape), then the flat values as little-endian float64. The
sidecar ``<file>.meta`` carries policy configuration and training metadata
as ``key = value`` lines; it is informational and never read back into the
binary payload, so checkpoints produced by identical runs are byte-identical.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .policy import ParamManifest, PolicyParams

MAGIC = b"ESOTN1"


class CheckpointError(ValueError):
    """Raised for unreadable or mismatched checkpoint files."""


def _pack_manifest(manifest: ParamManifest) -> bytes:
    parts = [struct.pack("<I", len(manifest.tensors))]
    for name, shape in manifest.tensors:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", len(shape)))
        parts.append(struct.pack(f"<{len(shape)}I", *shape))
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes, path: Path) -> None:
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _write_atomic(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory, flushed to disk before
    ``os.replace``, so the path holds either its previous content or all of
    ``data``, never a part, even after a crash of the process or the machine."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, params: PolicyParams, metadata: dict | None = None) -> None:
    path = Path(path)
    payload = MAGIC + _pack_manifest(params.manifest)
    payload += params.values.astype("<f8").tobytes()
    _write_atomic(path, payload)
    if metadata is not None:
        lines = [f"{key} = {value}" for key, value in metadata.items()]
        _write_atomic(sidecar_path(path), ("\n".join(lines) + "\n").encode("utf-8"))


def load_checkpoint(path: str | Path) -> PolicyParams:
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    tensors = []
    for _ in range(reader.u32()):
        raw_name = reader.take(reader.u32())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name {raw_name!r} is not UTF-8") from None
        ndim = reader.u32()
        shape = struct.unpack(f"<{ndim}I", reader.take(4 * ndim))
        tensors.append((name, tuple(int(d) for d in shape)))
    manifest = ParamManifest(tensors=tuple(tensors))
    raw = reader.take(8 * manifest.total_dim)
    if reader.offset != len(reader.data):
        raise CheckpointError(f"{path}: {len(reader.data) - reader.offset} trailing bytes")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    try:
        return PolicyParams(manifest=manifest, values=values)
    except ValueError as exc:  # non-finite values
        raise CheckpointError(f"{path}: {exc}") from None


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta")


def load_sidecar(path: str | Path) -> dict[str, str]:
    text = sidecar_path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
