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
from raredapt.network import NetworkSpec


def make_checkpoint():
    spec = NetworkSpec(4, 4, (5, 3), (), (3,))
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
    assert loaded.network_spec == cp.network_spec
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

    def setting(key, value, part=None):
        def edit(header):
            (header if part is None else header[part])[key] = value
            return header
        return edit

    for edit, reason in (
        (drop("network"), "KeyError: 'network'"),
        (drop("epoch"), "KeyError: 'epoch'"),
        (setting("input_dim", "wide", "network"), "ValueError: input_dim must be int, got 'wide'"),
        (lambda header: list(header), "header is not a JSON object"),
        (setting("format_version", 2), "format version 2 != 3"),
        (setting("feature_dims", [63, 3], "network"),
         "param_count 79 != 543 implied by the network spec"),
        # dimensions are checked, never converted: "5" or 5.7 must not load as 5
        (setting("feature_dims", "5", "network"),
         "ValueError: feature_dims must be tuple[int, ...], got '5'"),
        (setting("feature_dims", [5.7, 3], "network"),
         "ValueError: feature_dims must be tuple[int, ...], got (5.7, 3)"),
        (setting("class_count", True, "network"), "ValueError: class_count must be int, got True"),
        (setting("network", 5), "TypeError"),
        (setting("network", [1]), "TypeError"),
        (setting("network", {"extractor": {}}), "TypeError"),
        # so are the counts: 2.9 must not load as epoch 2
        (setting("epoch", 2.9), "ValueError: epoch must be a non-negative int, got 2.9"),
        (setting("epoch", -4), "ValueError: epoch must be a non-negative int, got -4"),
        (setting("epoch", True), "ValueError: epoch must be a non-negative int, got True"),
        (setting("param_count", 79.0),
         "ValueError: param_count must be a non-negative int, got 79.0"),
    ):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(), path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and reason in str(info.value)


@pytest.mark.parametrize("depth", [100_000, 600])
def test_header_nested_past_the_recursion_limit_raises_checkpoint_error(tmp_path, depth):
    # 100,000 levels stop json.loads; 600 pass it and stop json_tuples, which
    # takes two frames per level
    header = b'{"format_version": 3, "network": {"feature_dims": ' + b"[" * depth + b"]" * depth
    header += b"}}"
    path = tmp_path / "deep.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointError, match="maximum recursion depth exceeded"):
        load_checkpoint(path)


def test_save_rejects_params_that_disagree_with_the_spec(tmp_path):
    cp = make_checkpoint()
    assert cp.network_spec.param_count == 79
    cp.params = np.zeros(3)
    path = tmp_path / "model.ckpt"
    message = "3 parameters, but the network spec implies 79"
    with pytest.raises(CheckpointError, match=message) as err:
        save_checkpoint(cp, path)
    assert str(path) in str(err.value)
    assert not list(tmp_path.iterdir())


def test_non_finite_parameter_rejected_on_load(tmp_path):
    # the forward pass trusts parameter values, so the file boundary checks them
    cp = make_checkpoint()
    cp.params[5] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(cp, path)
    with pytest.raises(CheckpointError, match="non-finite parameter values") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


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
    # format 2 nested the spec as three parts inside the same framing
    save_checkpoint(make_checkpoint(), path)
    path.write_bytes(b"RDCKPT02" + path.read_bytes()[len(MAGIC):])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version b'02'"):
        load_checkpoint(path)
