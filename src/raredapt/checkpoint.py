"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    offset  size             field
    0       8                magic b"RDCKPT02" (format name + version)
    8       4                u32 header length H
    12      H                header JSON, UTF-8: format_version, config_hash,
                             epoch, network part shapes, param_count
    12+H    8 x param_count  the network's flat parameter vector as one
                             record of raw float64 values (little-endian)

The record is ``Network.params`` exactly as the network lays it out (see
:mod:`raredapt.network`), so save -> load -> forward is bit-identical to the
pre-save network. A human-readable sidecar ``<path>.meta.json`` mirrors the
header. Loading verifies the magic, the declared lengths, that
``param_count`` is the parameter count the network spec implies, and that the
file ends exactly after the record; truncated, corrupt or mismatched files
raise without returning partial state. Version-1 files, which stored one
record per named array, are rejected as an unsupported version.

The header holds no metrics snapshot; a run directory's
``selected_metrics.json`` records the selected epoch's metrics. Loading reads
only the header keys it needs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .network import MlpSpec, Network, NetworkSpec

MAGIC = b"RDCKPT02"
FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


@dataclass
class Checkpoint:
    """A parameter snapshot plus the context needed to reuse it."""

    params: np.ndarray  # the flat ``Network.params`` vector
    network_spec: NetworkSpec
    epoch: int
    config_hash: str

    def build_network(self) -> Network:
        net = Network(self.network_spec)
        net.load_state(self.params)
        return net


def _spec_to_dict(spec: NetworkSpec) -> dict:
    return {
        part: {
            "input_dim": m.input_dim,
            "hidden_dims": list(m.hidden_dims),
            "output_dim": m.output_dim,
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
        )

    return NetworkSpec(
        extractor=mlp(payload["extractor"]),
        classifier=mlp(payload["classifier"]),
        discriminator=mlp(payload["discriminator"]),
    )


def save_checkpoint(cp: Checkpoint, path) -> None:
    params = np.ascontiguousarray(cp.params, dtype="<f8")
    header = {
        "format_version": FORMAT_VERSION,
        "config_hash": cp.config_hash,
        "epoch": cp.epoch,
        "network": _spec_to_dict(cp.network_spec),
        "param_count": params.size,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(params.tobytes())
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
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
        param_count = int(header["param_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    if param_count != network_spec.param_count:
        raise CheckpointError(
            f"{path}: param_count {param_count} != {network_spec.param_count} "
            "implied by the network spec"
        )
    raw, pos = take(pos, 8 * param_count, "parameters")
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes after the parameters")
    return Checkpoint(
        params=np.frombuffer(raw, dtype="<f8").astype(np.float64),
        network_spec=network_spec,
        epoch=epoch,
        config_hash=config_hash,
    )
