"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic b"RDCKPT01" (format name + version)
    8       4     u32 header length H
    12      H     header JSON, UTF-8: format_version, config_hash, epoch,
                  network part shapes, array count
    12+H    ...   array records, repeated array-count times:
                      u16 name length, name UTF-8,
                      u8 ndim, ndim x u64 dims,
                      float64 raw values (little-endian, row-major)

Parameter values are stored as raw float64 bytes, so save -> load -> forward
is bit-identical to the pre-save network. A human-readable sidecar
``<path>.meta.json`` mirrors the header. Loading verifies the magic, the
declared lengths, and that the file ends exactly after the last array;
truncated or corrupt files raise without returning partial state.

The header holds no metrics snapshot; a run directory's
``selected_metrics.json`` records the selected epoch's metrics. Loading reads
only the header keys it needs, so older files whose header still carries a
``metrics`` key load unchanged.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .network import MlpSpec, Network, NetworkSpec

MAGIC = b"RDCKPT01"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


@dataclass
class Checkpoint:
    """A parameter snapshot plus the context needed to reuse it."""

    params: dict[str, np.ndarray]
    network_spec: NetworkSpec
    epoch: int
    config_hash: str

    def build_network(self) -> Network:
        net = Network.initialize(self.network_spec, np.random.default_rng(0))
        net.load_state(self.params)
        return net


def _spec_to_dict(spec: NetworkSpec) -> dict:
    return {
        part: {
            "input_dim": m.input_dim,
            "hidden_dims": list(m.hidden_dims),
            "output_dim": m.output_dim,
            "activation": m.activation,
        }
        for part, m in (
            ("extractor", spec.extractor),
            ("classifier", spec.classifier),
            ("discriminator", spec.discriminator),
        )
    }


def _spec_from_dict(payload: dict) -> NetworkSpec:
    def mlp(p):
        return MlpSpec(
            input_dim=int(p["input_dim"]),
            hidden_dims=tuple(int(v) for v in p["hidden_dims"]),
            output_dim=int(p["output_dim"]),
            activation=p["activation"],
        )

    return NetworkSpec(
        extractor=mlp(payload["extractor"]),
        classifier=mlp(payload["classifier"]),
        discriminator=mlp(payload["discriminator"]),
    )


def save_checkpoint(cp: Checkpoint, path) -> None:
    names = sorted(cp.params)
    header = {
        "format_version": FORMAT_VERSION,
        "config_hash": cp.config_hash,
        "epoch": cp.epoch,
        "network": _spec_to_dict(cp.network_spec),
        "array_count": len(names),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            arr = np.ascontiguousarray(cp.params[name], dtype="<f8")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, expect_config_hash: str | None = None) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(offset: int, n: int, what: str) -> tuple[bytes, int]:
        if offset + n > len(blob):
            raise CheckpointError(f"{path}: truncated while reading {what}")
        return blob[offset : offset + n], offset + n

    raw, pos = take(0, len(MAGIC), "magic")
    if raw != MAGIC:
        if raw[:6] == MAGIC[:6]:
            raise CheckpointError(f"{path}: unsupported checkpoint version {raw[6:]!r}")
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic {raw!r})")
    raw, pos = take(pos, 4, "header length")
    (header_len,) = struct.unpack("<I", raw)
    raw, pos = take(pos, header_len, "header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')} != {FORMAT_VERSION}"
        )
    try:
        network_spec = _spec_from_dict(header["network"])
        epoch = int(header["epoch"])
        config_hash = str(header["config_hash"])
        array_count = int(header["array_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    params: dict[str, np.ndarray] = {}
    for _ in range(array_count):
        raw, pos = take(pos, 2, "array name length")
        (name_len,) = struct.unpack("<H", raw)
        raw, pos = take(pos, name_len, "array name")
        name = raw.decode("utf-8")
        raw, pos = take(pos, 1, "array ndim")
        ndim = raw[0]
        raw, pos = take(pos, 8 * ndim, "array shape")
        shape = struct.unpack(f"<{ndim}Q", raw)
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw, pos = take(pos, 8 * count, f"array {name!r} data")
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes after last array")
    if expect_config_hash is not None and expect_config_hash != config_hash:
        warnings.warn(
            f"{path}: checkpoint config hash {config_hash[:12]} does not match "
            f"expected {expect_config_hash[:12]}; resuming across configs",
            stacklevel=2,
        )
    return Checkpoint(
        params=params, network_spec=network_spec, epoch=epoch, config_hash=config_hash
    )
