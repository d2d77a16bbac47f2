import csv
import dataclasses
import json
import struct

import pytest

from raredapt import cli
from raredapt.checkpoint import MAGIC
from raredapt.cli import main

from conftest import tiny_gen_spec
from test_checkpoint import rewrite_header


def write_tiny_csv(tmp_path):
    spec = tmp_path / "spec.json"
    payload = {k: list(v) if isinstance(v, tuple) else v
               for k, v in dataclasses.asdict(tiny_gen_spec()).items()}
    spec.write_text(json.dumps(payload), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    return data


def sweep_argv(data, out, seeds="0,1", jobs=1, counts="0,50"):
    return ["sweep", "--data", str(data), "--method", "deerdann", f"--counts={counts}",
            f"--seeds={seeds}", "--out", str(out), "--jobs", str(jobs),
            "--epochs", "1", "--batch-size", "32"]


def test_sweep_rejects_duplicate_seeds(tmp_path, capsys):
    # also negative seeds and counts; each is rejected before the output exists
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    for kwargs, message in (
        (dict(seeds="0,0"), "seeds must be distinct"),
        (dict(seeds="-1"), "must be >= 0"),
        (dict(counts="-5,0"), "must be >= 0"),
    ):
        capsys.readouterr()
        assert main(sweep_argv(data, out, **kwargs)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sweep_cells_identical_with_one_and_two_jobs(tmp_path):
    data = write_tiny_csv(tmp_path)
    outs = {jobs: tmp_path / f"sweep{jobs}" for jobs in (1, 2)}
    for jobs, out in outs.items():
        assert main(sweep_argv(data, out, jobs=jobs)) == 0
        assert not (out / "failures.json").exists()
        assert cli._SWEEP_STATE == {}  # the in-process sweep lets go of the dataset
    cells = sorted(p.name for p in (outs[1] / "cells").iterdir())
    assert len(cells) == 4
    assert cells == sorted(p.name for p in (outs[2] / "cells").iterdir())
    for cell in cells:
        serial = (outs[1] / "cells" / cell / "history.csv").read_bytes()
        assert serial == (outs[2] / "cells" / cell / "history.csv").read_bytes()
    assert (outs[1] / "sweep_deerdann.csv").read_bytes() == (
        outs[2] / "sweep_deerdann.csv"
    ).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_records_failed_cells_and_keeps_going(tmp_path, jobs):
    data = write_tiny_csv(tmp_path)  # its synthetic pool holds 400 samples
    out = tmp_path / "sweep"
    assert main(sweep_argv(data, out, jobs=jobs, counts="0,100000")) == 0
    with open(out / "sweep_deerdann.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["count"], r["seed"]) for r in rows] == [("0", "0"), ("0", "1")]
    failures = json.loads((out / "failures.json").read_text(encoding="utf-8"))
    assert sorted(failures) == ["count100000_seed0", "count100000_seed1"]
    for message in failures.values():
        assert message == "requested 100000 synthetic samples but the pool has 400"
    assert sorted(p.name for p in (out / "cells").iterdir()) == [
        "deerdann_count0_seed0",
        "deerdann_count0_seed1",
    ]


def test_sweep_unreadable_data_fails_alike_with_one_and_two_jobs(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[1] = "abc" + lines[1][lines[1].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for path, reason in (
        (bad, f"{bad}: line 2: could not convert string to float: 'abc'"),
        (tmp_path / "missing.csv", "No such file or directory"),
    ):
        errors = []
        for jobs in (1, 2):
            capsys.readouterr()
            assert main(sweep_argv(path, tmp_path / f"sweep{jobs}", jobs=jobs)) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"sweep{jobs}").exists()
            assert cli._SWEEP_STATE == {}
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and reason in errors[0]
        assert errors[0].count("\n") == 1


def test_project_malformed_checkpoint_header_is_a_clean_error(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    ckpt = run / "checkpoint.ckpt"
    original = ckpt.read_bytes()

    def wider_hidden(header):  # the parameter record no longer fits the spec
        header["network"]["extractor"]["hidden_dims"] = [63]
        return header

    for edit, reason in (
        (lambda header: {k: v for k, v in header.items() if k != "network"}, "KeyError: 'network'"),
        (wider_hidden, "implied by the network spec"),
    ):
        ckpt.write_bytes(original)
        rewrite_header(ckpt, edit)
        capsys.readouterr()
        assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                     "--out", str(tmp_path / "proj")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err and reason in err


def test_project_unknown_split_is_a_usage_error(tmp_path, capsys):
    # rejected by the parser, before any checkpoint or CSV is read
    out = tmp_path / "proj"
    with pytest.raises(SystemExit) as info:
        main(["project", "--run", str(tmp_path / "run"), "--data", str(tmp_path / "data.csv"),
              "--split", "bogus", "--out", str(out)])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def checkpoint_header(path) -> dict:
    blob = path.read_bytes()
    assert blob[: len(MAGIC)] == MAGIC
    (length,) = struct.unpack("<I", blob[len(MAGIC) : len(MAGIC) + 4])
    return json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + length])


def test_gen_data_train_compare_project_end_to_end(tmp_path):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--method", "deercoral", "--out", str(run),
                 "--epochs", "2", "--batch-size", "32", "--synthetic-count", "60"]) == 0
    for name in ("config.json", "checkpoint.ckpt", "checkpoint.ckpt.meta.json",
                 "history.csv", "selected_metrics.json", "train.log"):
        assert (run / name).is_file(), name
    assert "metrics" not in checkpoint_header(run / "checkpoint.ckpt")
    meta = json.loads((run / "checkpoint.ckpt.meta.json").read_text(encoding="utf-8"))
    assert "metrics" not in meta
    assert meta == checkpoint_header(run / "checkpoint.ckpt")

    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--runs", str(run), "--out", str(cmp_dir)]) == 0
    selected = json.loads((run / "selected_metrics.json").read_text(encoding="utf-8"))
    with open(cmp_dir / "comparison.csv", newline="", encoding="utf-8") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row.pop("method") == "run"
    assert row.keys() == selected["table_row"].keys()
    for key, value in selected["table_row"].items():
        assert float(row[key]) == value, key

    proj = tmp_path / "proj"
    assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                 "--out", str(proj)]) == 0
    projection = json.loads((proj / "projection.json").read_text(encoding="utf-8"))
    assert isinstance(projection["bimodality_score"], float)
    assert (proj / "scatter_trans_test.csv").is_file()
    assert (proj / "scatter_trans_test.svg").is_file()


def test_project_truncated_checkpoint_is_a_clean_error(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    ckpt = run / "checkpoint.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                 "--out", str(tmp_path / "proj")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "truncated" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        ('{"method": "baseline"}', "KeyError: 'table_row'"),
        ('{"table_row": {"trans_rare_acc": 1.0}}', "KeyError: 'cis_rare_acc'"),
        ("{not json", "JSONDecodeError"),
    ],
)
def test_compare_malformed_selected_metrics_names_the_file(tmp_path, capsys, content, reason):
    run = tmp_path / "run"
    run.mkdir()
    (run / "selected_metrics.json").write_text(content, encoding="utf-8")
    assert main(["compare", "--runs", str(run), "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(run / "selected_metrics.json") in err and reason in err
