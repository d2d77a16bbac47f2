import json
import struct

import numpy as np
import pytest

from raredapt import (
    Checkpoint,
    CheckpointError,
    Network,
    load_checkpoint,
    make_rng,
    save_checkpoint,
)
from raredapt.checkpoint import MAGIC
from raredapt.network import MlpSpec, NetworkSpec


def make_checkpoint():
    spec = NetworkSpec(MlpSpec(4, (5,), 3), MlpSpec(3, (), 4), MlpSpec(3, (3,), 2))
    net = Network.initialize(spec, make_rng(31))
    return Checkpoint(
        params=net.snapshot(),
        network_spec=spec,
        epoch=7,
        config_hash="abc123",
    )


def test_round_trip_bit_identical_params_and_forward(tmp_path):
    cp = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(cp, path)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 7
    assert loaded.config_hash == "abc123"
    assert np.array_equal(loaded.params, cp.params)
    x = make_rng(32).standard_normal((6, 4))
    before = cp.build_network()
    after = loaded.build_network()
    f_b, _ = before.forward_features(x)
    f_a, _ = after.forward_features(x)
    assert np.array_equal(f_b, f_a)


def rewrite_header(path, edit) -> None:
    """Replace a checkpoint's JSON header by ``edit(header)``; the arrays stay."""
    blob = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<I", blob[len(MAGIC) : start])
    new_header = json.dumps(edit(json.loads(blob[start : start + length]))).encode("utf-8")
    path.write_bytes(
        MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[start + length :]
    )


def test_header_with_legacy_metrics_key_loads(tmp_path):
    cp = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(cp, path)

    def add_metrics(header):
        assert "metrics" not in header
        header["metrics"] = {"selected_epoch": 7, "splits": {"trans_val": {"rare_acc": 0.5}}}
        return header

    rewrite_header(path, add_metrics)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 7
    assert np.array_equal(loaded.params, cp.params)


def test_malformed_header_fields_raise_checkpoint_error(tmp_path):
    def drop(key):
        return lambda header: {k: v for k, v in header.items() if k != key}

    def wide_input(header):
        header["network"]["extractor"]["input_dim"] = "wide"
        return header

    def wider_hidden(header):
        header["network"]["extractor"]["hidden_dims"] = [63]
        return header

    for edit, reason in (
        (drop("network"), "KeyError: 'network'"),
        (drop("epoch"), "KeyError: 'epoch'"),
        (wide_input, "ValueError: invalid literal for int()"),
        (lambda header: list(header), "header is not a JSON object"),
        (wider_hidden, "param_count 79 != 543 implied by the network spec"),
    ):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(), path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and reason in str(info.value)


def test_sidecar_metadata_written(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    sidecar = tmp_path / "model.ckpt.meta.json"
    assert sidecar.is_file()
    assert '"config_hash": "abc123"' in sidecar.read_text()


def test_truncated_file_errors_cleanly(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    blob = path.read_bytes()
    for cut in (4, 10, len(blob) // 2, len(blob) - 3):
        (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "cut.ckpt")


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(make_checkpoint(), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTACKPTxxxx")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        load_checkpoint(path)
    path.write_bytes(MAGIC[:6] + b"99" + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    # format 1 stored one named record per array after the same header framing
    header = json.dumps({"format_version": 1, "array_count": 0}).encode("utf-8")
    path.write_bytes(b"RDCKPT01" + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version b'01'"):
        load_checkpoint(path)
