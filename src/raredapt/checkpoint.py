"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    offset  size             field
    0       8                magic b"RDCKPT03" (format name + version)
    8       4                u32 header length H
    12      H                header JSON, UTF-8: format_version, config_hash,
                             epoch, network (the five NetworkSpec fields),
                             param_count
    12+H    8 x param_count  the network's flat parameter vector as one
                             record of raw float64 values (little-endian)

The record is ``Network.params`` exactly as the network lays it out (see
:mod:`raredapt.network`), so save -> load -> forward is bit-identical to the
pre-save network. Loading verifies the magic, the declared lengths, that
``epoch`` and ``param_count`` are non-negative ints, that ``param_count`` is
the parameter count the network spec implies, that the file ends exactly
after the record, and that every parameter is finite (the forward pass does
not scan values, see :mod:`raredapt.network`). The spec is built through
``NetworkSpec`` itself, so a header dimension passes the same checks as a
config's: a string, float or bool is rejected, not converted. Truncated,
corrupt or mismatched files raise without returning partial state.
Version-1 files (one record per named array) and version-2 files (a spec
nested as three parts) are rejected as an unsupported version. Saving
rejects a parameter vector whose length disagrees with the spec before
writing; each file is replaced atomically.

The header holds no metrics snapshot; a run directory's
``selected_metrics.json`` records the selected epoch's metrics. Loading reads
only the header keys it needs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .artifacts import atomic_open
from .network import Network, NetworkSpec
from .numerics import json_tuples

MAGIC = b"RDCKPT03"
FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or version-incompatible checkpoint file."""


@dataclass(eq=False)  # == is identity: an array field makes the generated == raise
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


def _header_count(header: dict, key: str) -> int:
    value = header[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{key} must be a non-negative int, got {value!r}")
    return value


def save_checkpoint(cp: Checkpoint, path) -> None:
    """Write ``path``; a parameter vector whose length disagrees with the
    network spec raises before it is written."""
    params = np.ascontiguousarray(cp.params, dtype="<f8")
    if params.size != cp.network_spec.param_count:
        raise CheckpointError(
            f"{path}: {params.size} parameters, but the network spec implies "
            f"{cp.network_spec.param_count}"
        )
    header = {
        "format_version": FORMAT_VERSION,
        "config_hash": cp.config_hash,
        "epoch": cp.epoch,
        "network": asdict(cp.network_spec),
        "param_count": params.size,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + params.tobytes())


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')} != {FORMAT_VERSION}"
        )
    try:
        network_spec = NetworkSpec(**json_tuples(header["network"]))
        epoch = _header_count(header, "epoch")
        config_hash = str(header["config_hash"])
        param_count = _header_count(header, "param_count")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from exc
    if param_count != network_spec.param_count:
        raise CheckpointError(
            f"{path}: param_count {param_count} != {network_spec.param_count} "
            "implied by the network spec"
        )
    raw, pos = take(pos, 8 * param_count, "parameters")
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes after the parameters")
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(params).all():
        raise CheckpointError(f"{path}: non-finite parameter values")
    return Checkpoint(
        params=params,
        network_spec=network_spec,
        epoch=epoch,
        config_hash=config_hash,
    )
