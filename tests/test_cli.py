import csv
import dataclasses
import errno
import gc
import hashlib
import json
import math
import os
import re
import struct
import weakref
from pathlib import Path

import pytest

from raredapt import cli, data as data_module, generate, parallel, save_csv
from raredapt.checkpoint import MAGIC
from raredapt.training import CORAL_LAYERS, DISCRIMINATOR_LABELS, TrainConfig, TrainingDiverged
from raredapt.cli import main
from raredapt.data import cache_path

from conftest import counting_forks, force_csv_workers, rows_moved, tiny_gen_spec
from test_checkpoint import rewrite_header
from test_data import OUTSIZED_IDS, _write_tiny_with_cell, counting_parses


def write_tiny_spec(tmp_path, **fields):
    """The tiny spec as a ``gen-data --spec`` file, ``fields`` written over it."""
    spec = tmp_path / "spec.json"
    payload = {k: list(v) if isinstance(v, tuple) else v
               for k, v in dataclasses.asdict(tiny_gen_spec()).items()}
    spec.write_text(json.dumps({**payload, **fields}), encoding="utf-8")
    return spec


def write_tiny_csv(tmp_path, **fields):
    """gen-data on the tiny spec with ``fields`` written over it; returns the CSV."""
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--spec", str(write_tiny_spec(tmp_path, **fields)),
                 "--out", str(data)]) == 0
    return data


def gen_data_error(tmp_path, capsys, **fields) -> str:
    """Run ``gen-data`` on the tiny spec with ``fields`` written over it; expect
    exit 1 and no output file, return stderr."""
    spec, out = write_tiny_spec(tmp_path, **fields), tmp_path / "data.csv"
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def sweep_argv(data, out, seeds="0,1", jobs=1, counts="0,50"):
    return ["sweep", "--data", str(data), "--method", "deerdann", f"--counts={counts}",
            f"--seeds={seeds}", "--out", str(out), "--jobs", str(jobs),
            "--epochs", "1", "--batch-size", "32"]


def usage_error(argv, capsys) -> str:
    """Run ``main(argv)``, expect argparse's exit 2, return its stderr."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return capsys.readouterr().err


def test_sweep_rejects_duplicate_seeds(tmp_path, capsys):
    # also negative, unsorted or non-int lists and lists with an empty entry
    # (which would otherwise be dropped silently), written as --flag=value
    # and as a separate argument; each is a usage error raised before the
    # output exists
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    for kwargs, message in (
        (dict(seeds="0,0"), "seeds must be distinct"),
        (dict(seeds="-1"), "must be >= 0"),
        (dict(counts="-5,0"), "must be >= 0"),
        (dict(counts="50,0"), "counts must be strictly increasing"),
        (dict(counts=","), "empty entry in ','"),
        (dict(counts="0,,500,"), "argument --counts: empty entry in '0,,500,'"),
        (dict(seeds=",0"), "argument --seeds: empty entry in ',0'"),
        (dict(seeds=""), "argument --seeds: empty entry in ''"),
        (dict(seeds="0,x"), "invalid int list"),
    ):
        (flag, value), = kwargs.items()
        argv = sweep_argv(data, out, **kwargs)
        assert message in usage_error(argv, capsys)
        at = argv.index(f"--{flag}={value}")
        usage_error(argv[:at] + [f"--{flag}", value] + argv[at + 1 :], capsys)
        assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    err = usage_error(sweep_argv(tmp_path / "data.csv", out, jobs=jobs), capsys)
    assert "argument --jobs: must be >= 1" in err
    assert not out.exists()


def test_sweep_jobs_that_is_not_an_int_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sweep"
    err = usage_error(sweep_argv(tmp_path / "data.csv", out, jobs="x"), capsys)
    assert "argument --jobs: invalid int value: 'x'" in err
    assert not out.exists()


def test_sweep_asks_for_no_more_workers_than_cells(tmp_path, monkeypatch):
    data = write_tiny_csv(tmp_path)
    forks = counting_forks(monkeypatch)
    assert main(sweep_argv(data, tmp_path / "sweep", jobs=8, counts="0")) == 0
    assert len(forks) == 2


def recording_loads(monkeypatch) -> list:
    """Patch ``cli.load_csv`` to record, in the returned list, a weak reference
    to each dataset it returns in this process."""
    loaded = []
    real_load = cli.load_csv

    def recording_load(path):
        dataset = real_load(path)
        loaded.append(weakref.ref(dataset))
        return dataset

    monkeypatch.setattr(cli, "load_csv", recording_load)
    return loaded


def test_sweep_cells_identical_with_one_and_two_jobs(tmp_path, monkeypatch):
    data = write_tiny_csv(tmp_path)
    outs = {jobs: tmp_path / f"sweep{jobs}" for jobs in (1, 2)}
    loaded = recording_loads(monkeypatch)
    for jobs, out in outs.items():
        assert main(sweep_argv(data, out, jobs=jobs)) == 0
        assert not (out / "failures.json").exists()
        # loaded once, before the fork, and not kept once the sweep returns
        gc.collect()
        assert len(loaded) == 1 and loaded.pop()() is None
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
    assert not list(tmp_path.rglob("*.tmp"))


def test_sweep_without_a_failed_cell_removes_an_earlier_failures_file(tmp_path):
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    assert main(sweep_argv(data, out, seeds="0", counts="0,100000")) == 0
    assert (out / "failures.json").is_file()
    assert main(sweep_argv(data, out, seeds="0", counts="0,50")) == 0
    assert not (out / "failures.json").exists()
    with open(out / "sweep_deerdann.csv", newline="", encoding="utf-8") as fh:
        assert [(r["count"], r["seed"]) for r in csv.DictReader(fh)] == [("0", "0"), ("50", "0")]


def test_sweep_records_a_diverged_cell(tmp_path, monkeypatch):
    real_train = cli.train

    def diverge_at_count_50(dataset, config):
        if config.synthetic_count == 50:
            raise TrainingDiverged("non-finite loss at count 50")
        return real_train(dataset, config)

    monkeypatch.setattr(cli, "train", diverge_at_count_50)  # the forked workers inherit it
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    assert main(sweep_argv(data, out, seeds="0", jobs=2)) == 0
    failures = json.loads((out / "failures.json").read_text(encoding="utf-8"))
    assert failures == {"count50_seed0": "non-finite loss at count 50"}
    assert [p.name for p in (out / "cells").iterdir()] == ["deerdann_count0_seed0"]


def record_cell_threads(monkeypatch) -> None:
    """Patch the sweep's cell function to write, into each cell directory, the
    OS thread count and the BLAS thread count of its worker after the cell."""
    real_cell = cli._sweep_run_one

    def recording_cell(job):
        result = real_cell(job)
        tasks = Path("/proc/self/task")
        blas = parallel.blas_threads()
        (job[2] / "threads.json").write_text(json.dumps({
            "os": len(list(tasks.iterdir())) if tasks.is_dir() else None,
            "blas": blas[0]() if blas else None,
        }), encoding="utf-8")
        return result

    monkeypatch.setattr(cli, "_sweep_run_one", recording_cell)


def sweep_cell_threads(tmp_path, monkeypatch, jobs) -> list[dict]:
    record_cell_threads(monkeypatch)
    out = tmp_path / "sweep"
    assert main(sweep_argv(write_tiny_csv(tmp_path), out, jobs=jobs)) == 0
    seen = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((out / "cells").glob("*/threads.json"))]
    assert len(seen) == 4
    return seen


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
def test_sweep_workers_start_no_blas_helper_thread(tmp_path, monkeypatch):
    # a BLAS setter call inside a forked worker starts a busy-waiting helper thread
    assert [cell["os"] for cell in sweep_cell_threads(tmp_path, monkeypatch, 2)] == [1] * 4


@pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS found")
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_workers_inherit_one_blas_thread_and_the_parent_keeps_its_count(
    tmp_path, monkeypatch, jobs
):
    get_threads = parallel.blas_threads()[0]
    before = get_threads()
    seen = sweep_cell_threads(tmp_path, monkeypatch, jobs)
    assert [cell["blas"] for cell in seen] == [1 if jobs > 1 else before] * 4
    assert get_threads() == before


def test_a_rerun_deletes_only_the_temp_files_a_killed_run_dir_writer_left(tmp_path):
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    argv = sweep_argv(data, out, seeds="0", counts="0")
    assert main(argv) == 0
    cell = out / "cells" / "deerdann_count0_seed0"
    written = {p.name: p.read_bytes() for p in cell.iterdir()}
    stale = ["history.csv.4242.tmp", "checkpoint.ckpt.17.tmp", "selected_metrics.json.1.tmp"]
    kept = ["notes.tmp", "history.csv.tmp", "history.csv.12a.tmp", "data.csv.4242.tmp",
            "train.log.1.tmp"]
    for name in stale + kept:
        (cell / name).write_text("partial", encoding="utf-8")
    assert main(argv) == 0
    assert sorted(p.name for p in cell.iterdir()) == sorted([*written, *kept])
    assert {name: (cell / name).read_bytes() for name in written} == written


def test_a_rerun_of_gen_data_deletes_only_the_temp_files_a_killed_writer_left(tmp_path):
    data = write_tiny_csv(tmp_path)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    stale = ["data.csv.4242.tmp", "data.csv.parsed.npz.17.tmp", "data.csv.1.tmp"]
    kept = ["data.csv.tmp", "data.csv.12a.tmp", "data.csv.parsed.npz.tmp", "data.csv.4242.tmp.bak",
            "xdata.csv.1.tmp", "data.csv.parsed.4242.tmp", "history.csv.4242.tmp"]
    for name in stale + kept:
        (tmp_path / name).write_text("partial", encoding="utf-8")
    assert write_tiny_csv(tmp_path) == data
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*written, *kept])
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def exit_in_worker(monkeypatch, module, name) -> None:
    """Patch ``module.name`` with a function that ends its process at once, as
    a worker killed by a signal or the OOM killer ends."""
    def killed(*args):
        os._exit(3)

    monkeypatch.setattr(module, name, killed)


# the error line of a worker killed as above, with its pid, the item (counted
# from 1) it did not return, and the number of items
POOL_BROKEN = r"error: worker process \d+ exited with code 3 before returning item 1 of {}\n"


@pytest.mark.parametrize("earlier", [True, False])
def test_gen_data_worker_that_dies_is_one_error_and_leaves_the_earlier_files(
    tmp_path, monkeypatch, capsys, earlier
):
    out = tmp_path / "data.csv"
    if earlier:
        write_tiny_csv(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    force_csv_workers(monkeypatch)
    exit_in_worker(monkeypatch, data_module, "_csv_block")
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(write_tiny_spec(tmp_path)), "--out", str(out)]) == 1
    # the tiny dataset's 1,031 rows make 148 blocks of 7
    assert re.fullmatch(POOL_BROKEN.format(148), capsys.readouterr().err)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "spec.json"}
    assert after == {name: b for name, b in before.items() if name != "spec.json"}
    assert out.exists() == earlier


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_worker_that_dies_is_one_error(tmp_path, monkeypatch, capsys, jobs):
    data = write_tiny_csv(tmp_path)
    exit_in_worker(monkeypatch, cli, "_sweep_run_one")
    capsys.readouterr()
    assert main(sweep_argv(data, tmp_path / "sweep", jobs=jobs)) == 1
    assert re.fullmatch(POOL_BROKEN.format(4), capsys.readouterr().err)  # 2 counts x 2 seeds
    assert not (tmp_path / "sweep").exists()


def test_sweep_ends_on_an_error_that_is_not_the_cells(tmp_path, monkeypatch, capsys):
    # a bug is not recorded as a failed cell: it raises with its traceback
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"

    def buggy_train(dataset, config):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(cli, "train", buggy_train)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(sweep_argv(data, out, jobs=2))
    assert not out.exists()
    # a failed write exits 1 with one error line
    monkeypatch.undo()

    def failing_write_csv(path, header, rows):
        raise OSError(f"disk full: {path.name}")

    monkeypatch.setattr(cli, "write_csv", failing_write_csv)
    capsys.readouterr()
    assert main(sweep_argv(data, out, seeds="0", counts="0")) == 1
    assert capsys.readouterr().err == "error: disk full: history.csv\n"
    assert not (out / "failures.json").exists()
    assert not (out / "sweep_deerdann.csv").exists()


def test_sweep_unreadable_data_fails_alike_with_one_and_two_jobs(tmp_path, capsys, monkeypatch):
    data = write_tiny_csv(tmp_path)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[1] = "abc" + lines[1][lines[1].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(bad.read_bytes().replace(b"abc", b"\xff"))
    forks = counting_forks(monkeypatch)
    for path, reason in (
        (bad, f"{bad}: line 2: could not convert string to float: 'abc'"),
        (not_utf8, f"{not_utf8}: line 2: could not convert string to float: '\\udcff'"),
        (tmp_path / "missing.csv", "No such file or directory"),
    ):
        errors = []
        for jobs in (1, 2):
            capsys.readouterr()
            assert main(sweep_argv(path, tmp_path / f"sweep{jobs}", jobs=jobs)) == 1
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / f"sweep{jobs}").exists()
            assert forks == []  # it fails in this process, before any worker starts
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and reason in errors[0]
        assert errors[0].count("\n") == 1


def test_train_out_of_range_config_fails_before_training(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--method", "deerdann", "--out", str(run),
                 "--epochs", "1", "--selection-tolerance", "-5", "--domain-weight", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid train config: ")
    assert "domain_weight must be >= 0, got -1.0" in err
    assert "selection_tolerance_points must be >= 0, got -5.0" in err
    assert not run.exists()


def test_train_config_value_of_wrong_type_is_a_clean_error(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    config = tmp_path / "train.json"
    run = tmp_path / "run"
    for payload, message in (
        ({"epochs": 1.5}, "epochs must be int, got 1.5"),
        ({"epochs": True}, "epochs must be int, got True"),
        ({"batch_size": 32.0, "grl_ramp_epochs": 2.5},
         "batch_size must be int, got 32.0; grl_ramp_epochs must be int, got 2.5"),
        ({"feature_dims": [16.5, 8]}, "feature_dims must be tuple[int, ...], got (16.5, 8)"),
    ):
        config.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--method", "deerdann", "--out", str(run),
                     "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: invalid train config: {message}\n"
        assert not run.exists()


def test_train_writes_selected_metrics_last(tmp_path, monkeypatch, capsys):
    # a run directory without selected_metrics.json is an incomplete run
    data = write_tiny_csv(tmp_path)

    def failing_history(path, header, rows):
        raise OSError(f"disk full: {path.name}")

    monkeypatch.setattr(cli, "write_csv", failing_history)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 1
    assert capsys.readouterr().err == "error: disk full: history.csv\n"
    assert (run / "checkpoint.ckpt").is_file()
    assert not (run / "selected_metrics.json").exists()


def test_train_checks_the_config_before_reading_the_csv(tmp_path, capsys):
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "missing.csv"), "--method", "deerdann",
                 "--out", str(run), "--epochs", "0"]) == 1
    assert capsys.readouterr().err == "error: invalid train config: epochs must be >= 1, got 0\n"
    assert not run.exists()


@pytest.mark.parametrize("column, cell, reason", OUTSIZED_IDS)
def test_train_on_an_outsized_id_is_one_error_line(tmp_path, capsys, column, cell, reason):
    data = tmp_path / "outsized.csv"
    _write_tiny_with_cell(data, column, cell)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--synthetic-count", "0"]) == 1
    assert capsys.readouterr().err == f"error: {data}: line 7: {reason}\n"
    assert not run.exists()


def test_train_on_data_with_no_other_class_in_trans_val_fails_before_training(tmp_path, capsys):
    # every epoch would train, then selection would find no eligible epoch
    dataset = generate(tiny_gen_spec())
    data = tmp_path / "data.csv"
    save_csv(rows_moved(dataset, "trans_val", "trans_test", keep_class=dataset.rare_class_id),
             data)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--method", "deerdann", "--out", str(run),
                 "--epochs", "20", "--batch-size", "32", "--synthetic-count", "40"]) == 1
    assert capsys.readouterr().err == (
        "error: split 'trans_val' has no real samples outside rare class 3\n"
    )
    assert not run.exists()


@pytest.mark.parametrize("content, message", [
    ("{not json", "cannot read config {path}: Expecting property name"),
    ("[1, 2]", "config {path} must be a JSON object"),
    ('{"epochs": 1, "momentum": 0.9, "dropout": 0.1}',
     "unknown TrainConfig field(s) in {path}: dropout, momentum"),
    pytest.param('{"epochs": "\xff"}'.encode("latin-1"),
                 "cannot read config {path}: 'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    # 100,000 levels stop json.loads; 600 pass it and stop json_tuples
    *(pytest.param('{"feature_dims": ' + "[" * depth + "]" * depth + "}",
                   "cannot read config {path}: maximum recursion depth exceeded",
                   id=f"nested-{depth}") for depth in (100_000, 600)),
])
def test_train_config_file_errors_name_the_file(tmp_path, capsys, content, message):
    config = tmp_path / "train.json"
    config.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "missing.csv"), "--method", "deerdann",
                 "--out", str(run), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=config))
    assert err.count("\n") == 1
    assert not run.exists()


@pytest.mark.parametrize("payload, message", [
    ({"feature_dims": []}, "feature_dims must be non-empty, got ()"),
    ({"discriminator_hidden": [0]}, "discriminator_hidden must be all >= 1, got (0,)"),
])
def test_sweep_bad_network_shape_fails_before_any_cell_runs(tmp_path, capsys, payload, message):
    data = write_tiny_csv(tmp_path)
    config = tmp_path / "train.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main(sweep_argv(data, out) + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: invalid train config: {message}\n"
    assert not out.exists()


def test_sweep_out_of_range_config_fails_before_any_cell_runs(tmp_path, capsys):
    # build_domains would reject it too, but only inside each cell, as a failed cell
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main(sweep_argv(data, out) + ["--oversample-factor", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid train config: oversample_factor must be >= 1, got 0\n"
    )
    assert not out.exists()


def test_sweep_has_no_synthetic_count_flag(tmp_path, capsys):
    # --counts sets every cell's synthetic count, so the flag would do nothing
    out = tmp_path / "sweep"
    err = usage_error(sweep_argv(tmp_path / "data.csv", out) + ["--synthetic-count", "300"],
                      capsys)
    assert "unrecognized arguments: --synthetic-count 300" in err
    assert not out.exists()


def test_train_flags_override_config_file_fields(tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"learning_rate": 0.5, "discriminator_labels": "provenance",
                                  "selection_tolerance_points": 3.0, "feature_dims": [6, 4]}),
                      encoding="utf-8")
    args = cli.build_parser().parse_args([
        "train", "--data", "d.csv", "--method", "deerdann", "--out", "run",
        "--config", str(config), "--lr", "0.01", "--selection-tolerance", "2",
    ])
    resolved = cli._build_config(TrainConfig, args.config, args, "train config")
    assert resolved.learning_rate == 0.01  # the flag wins over the file
    assert resolved.selection_tolerance_points == 2.0
    assert resolved.discriminator_labels == "provenance"  # the file wins over the default
    assert resolved.feature_dims == (6, 4)
    assert resolved.method == "deerdann" and resolved.epochs == 100


@pytest.mark.parametrize("flag, field, choices", [
    ("--coral-layer", "coral_layer", CORAL_LAYERS),
    ("--disc-labels", "discriminator_labels", DISCRIMINATOR_LABELS),
])
def test_choice_flags_offer_exactly_the_config_values(capsys, flag, field, choices):
    argv = ["train", "--data", "d.csv", "--method", "deercoral", "--out", "run", flag]
    for choice in choices:
        args = cli.build_parser().parse_args(argv + [choice])
        assert getattr(cli._build_config(TrainConfig, None, args, "train config"), field) == choice
    err = usage_error(argv + ["bogus"], capsys)
    offered = err[err.index("(choose from ") + len("(choose from "):err.rindex(")")]
    assert [c.strip("'") for c in offered.split(", ")] == list(choices)


def test_gen_data_scalar_gap_matrix_is_a_clean_error(tmp_path, capsys):
    err = gen_data_error(tmp_path, capsys, gap_matrix=5)
    assert err == "error: gap_matrix must be 8x8, got ()\n"


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("field, value, message", [
    pytest.param("gap_matrix", [[1.0] * 8] * 7 + [[1.0] * 7], "be 8x8", id="ragged"),
    pytest.param("gap_matrix", [[1.0] * 8] * 7 + [["1.0"] * 8], "be 8x8", id="string"),
    pytest.param("gap_matrix", [[1.0] * 8] * 7 + [[None] * 8], "be 8x8", id="null"),
    pytest.param("gap_matrix", [[1.0] * 8] * 7 + [[{"a": 1}] * 8], "be 8x8", id="object"),
    # deeper than numpy's 64 dimensions
    pytest.param("gap_matrix", nested(1.0, 70), "be 8x8", id="too-deep"),
    pytest.param("gap_offset_vector", [0.0] * 7 + [[0.0]], "have length 8", id="ragged-vector"),
    pytest.param("gap_offset_vector", [True] * 8, "have length 8", id="bool-vector"),
])
def test_gen_data_ragged_or_non_numeric_gap_field_is_named(tmp_path, capsys, field, value,
                                                           message):
    err = gen_data_error(tmp_path, capsys, **{field: value})
    assert err == f"error: {field} must {message}, got a ragged or non-numeric value\n"


@pytest.mark.parametrize("field, value", [
    ("gap_matrix", [[1.0] * 8] * 7 + [[1.0] * 7 + [math.nan]]),
    ("gap_offset_vector", [0.0] * 7 + [math.inf]),
])
def test_gen_data_non_finite_gap_field_is_named(tmp_path, capsys, field, value):
    assert gen_data_error(tmp_path, capsys, **{field: value}) == f"error: {field} must be finite\n"


@pytest.mark.parametrize("field, value, message", [
    ("synthetic_pool_size", 10.0, "synthetic_pool_size must be int, got 10.0"),
    ("val_count_per_class", 0, "val_count_per_class must be >= 1, got 0"),
    ("test_count_per_class", -3, "test_count_per_class must be >= 1, got -3"),
    ("max_train_count", 0, "max_train_count must be >= 1, got 0"),
    ("max_train_count", -5, "max_train_count must be >= 1, got -5"),
    ("rare_train_count", 0, "rare_train_count must be >= 1, got 0"),
    ("synthetic_pool_size", -5, "synthetic_pool_size must be >= 0, got -5"),
    ("noise_scale", -1, "noise_scale must be >= 0, got -1"),
    ("class_mean_scale", -1.0, "class_mean_scale must be >= 0, got -1.0"),
    ("location_jitter", -0.5, "location_jitter must be >= 0, got -0.5"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("noise_scale", math.nan, "noise_scale must be finite"),
    ("gap_rotation", math.inf, "gap_rotation must be finite"),
    ("gap_condition", math.inf, "gap_condition must be finite"),
    ("class_mean_scale", -math.inf, "class_mean_scale must be finite"),
])
def test_gen_data_bad_spec_value_is_a_clean_error(tmp_path, capsys, field, value, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({field: value}), encoding="utf-8")
    out = tmp_path / "data.csv"
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: invalid generator spec: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("out", ["", ".", "existing", "new/.."])
def test_gen_data_out_that_names_a_directory_is_a_clean_error(tmp_path, monkeypatch, capsys,
                                                              out):
    # rejected before any temporary file is made; "new/.." creates no "new"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").mkdir()
    spec = write_tiny_spec(Path())
    capsys.readouterr()
    assert main(["gen-data", "--spec", str(spec), "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(Path(out))!r}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing", "spec.json"]


def test_project_malformed_checkpoint_header_is_a_clean_error(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    ckpt = run / "checkpoint.ckpt"
    original = ckpt.read_bytes()

    def wider_hidden(header):  # the parameter record no longer fits the spec
        header["network"]["feature_dims"] = [63, 32]
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


@pytest.mark.parametrize("command, missing", [
    (["compare", "--runs"], "selected_metrics.json"),
    (["project", "--data", "missing.csv", "--split", "trans_test", "--run"], "checkpoint.ckpt"),
])
def test_run_directory_without_the_file_read_is_one_error(tmp_path, capsys, command, missing):
    run, out = tmp_path / "run", tmp_path / "out"
    run.mkdir()
    assert main([*command, str(run), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: run directory {run} has no {missing}\n"
    assert not out.exists()


def test_project_without_the_synthetic_pool_has_no_bimodality_score(tmp_path, capsys):
    data = write_tiny_csv(tmp_path, synthetic_pool_size=0)
    run, proj = tmp_path / "run", tmp_path / "proj"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    capsys.readouterr()
    assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                 "--out", str(proj)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bimodality score unavailable: rare class has only real samples; "
                          "need both domains\n")
    assert "bimodality score:" not in out
    projection = json.loads((proj / "projection.json").read_text(encoding="utf-8"))
    assert projection["bimodality_score"] is None


def test_project_unknown_split_is_a_usage_error(tmp_path, capsys):
    # rejected by the parser, before any checkpoint or CSV is read
    out = tmp_path / "proj"
    with pytest.raises(SystemExit) as info:
        main(["project", "--run", str(tmp_path / "run"), "--data", str(tmp_path / "data.csv"),
              "--split", "bogus", "--out", str(out)])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--components", "2"], ["--include-synthetic"],
                                  ["--no-include-synthetic"]], ids=lambda flag: flag[0])
def test_project_has_no_component_or_synthetic_pool_switch(tmp_path, capsys, flag):
    # project always keeps two components of the split plus the synthetic pool
    out = tmp_path / "proj"
    err = usage_error(["project", "--run", str(tmp_path / "run"), "--data",
                       str(tmp_path / "data.csv"), "--split", "trans_test", "--out", str(out),
                       *flag], capsys)
    assert f"unrecognized arguments: {' '.join(flag)}" in err
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
    assert "metrics" not in checkpoint_header(run / "checkpoint.ckpt")

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
    assert not list(tmp_path.rglob("*.tmp"))


# SHA-256 of each file ``project`` writes for a 2-epoch baseline run on the
# tiny data: pins the forward pass, the PCA and the CSV and JSON formatting
PROJECT_GOLDEN = {
    "projection.json": "d7954c1da52fa63f7343a23857e668b4b6990066e6dfb04088ebf0c6eaf29515",
    "scatter_trans_test.csv": "68c96b7d44095c086641b9fc492cced19e7ed9c8e9c1f8fca0afd15025dbd197",
}


def test_project_output_matches_its_golden_digests(tmp_path):
    data = write_tiny_csv(tmp_path)
    run, proj = tmp_path / "run", tmp_path / "proj"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "2", "--batch-size", "32", "--synthetic-count", "60"]) == 0
    assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                 "--out", str(proj)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in proj.iterdir()}
    assert digests == PROJECT_GOLDEN


def run_dir_digests(root) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by its relative POSIX path."""
    return {f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(root.rglob("*")) if f.is_file()}


# SHA-256 of every file that ``train`` (each method, 2 epochs), ``sweep``
# (deerdann, two jobs, one failing count) and ``compare`` write on the tiny
# data, all run from the data's directory with relative paths so that
# ``config.json`` holds no temporary path
RUN_DIR_GOLDEN = {
    "runs": {
        "alldann/checkpoint.ckpt":
            "6e592083f84619dee8f5103bac4dfcdd712ee9b734c59e19b67002e544167ace",
        "alldann/config.json":
            "6a90f12497734dbf77970a2f0e2eb50af3aa8292a800eb1a13b8fe34ec3bd978",
        "alldann/history.csv":
            "b8f363a94ce3da80d378483e348622b0d1d446077a244afa43ad9e73bee89f87",
        "alldann/selected_metrics.json":
            "0a5888ac76e053ab21e87640885ac8080b1a1b95f79b847a1836aa8d24a7ee04",
        "baseline/checkpoint.ckpt":
            "791004aa3df153953184b34c2cabc01b41389169fd89a09901f27bafdec7d4ac",
        "baseline/config.json":
            "d3ebfb7b8eb1a74188f28dd090afc62b1a9f983e0482a321a1816181e6ddf6d1",
        "baseline/history.csv":
            "7bc46a5eed526cdb4b9bfe0409d96c07b6d6b2f75cb03ae038fde61792a30339",
        "baseline/selected_metrics.json":
            "778cc91eb5b1cd4291adfea21fe5c88c83d6b4ee3e756f3a23bc4a8c66074423",
        "deercoral/checkpoint.ckpt":
            "b9532a86fcb08fe142ce56924faed657c8bf39b0ad267efe680ebfcbc3d21c73",
        "deercoral/config.json":
            "87882ec09bf1463374cc782a949f01b639fee345c3eccb50964361012189bdfc",
        "deercoral/history.csv":
            "6f766b46d345879af59a1a1d9bf53fcc2ffa1e20457ed31cd73562a6f9195d3c",
        "deercoral/selected_metrics.json":
            "aae0f635ae39cb394ed33a111defbd3bbf6bf6cdbb8c0b9f22f642b5e6817f3a",
        "deerdann/checkpoint.ckpt":
            "8306960f4becd2c5e12f51af037c290313ac3357d23994434cdd480ab177c754",
        "deerdann/config.json":
            "b938de09e7f0f14734bc4a0cbc6e9ca41b9cf617e880999ef63e7e699c9bf671",
        "deerdann/history.csv":
            "7e71d6b621e5485fe375a14b34f781461e764c1d538301f991fe1d5cf827bdf7",
        "deerdann/selected_metrics.json":
            "cbcc6384d09a962937b2ebbc21798697e5fd3691417200fc4da7abb40d76cb1c",
    },
    "sweep": {
        "cells/deerdann_count0_seed0/checkpoint.ckpt":
            "4489106c0cfc39799fcc06c755b82ace33982c8adb5d66e6a943e36bdeaebca8",
        "cells/deerdann_count0_seed0/config.json":
            "6509db685eb53b5a88d9afce1039e2d0091531c3ba71fa7d8efea8ce1a0610a5",
        "cells/deerdann_count0_seed0/history.csv":
            "397a04ac9c930e0405c10ac9dacfc299aa6c2bc29d180a74ae86b8b1e9e3a789",
        "cells/deerdann_count0_seed0/selected_metrics.json":
            "db159a643e3b2511fce5241810784a226d0933f084a5979c3fe540bebd483ee1",
        "cells/deerdann_count0_seed1/checkpoint.ckpt":
            "aeaef9f33c8818cfb820517b76d762a979bbdaa6918b8f18deb24d93010c25e5",
        "cells/deerdann_count0_seed1/config.json":
            "a0c5bf8e0b16257619cab5a9ada6ca26630d546a03f76eddc29a3eb4ef893d64",
        "cells/deerdann_count0_seed1/history.csv":
            "2fb0bb6fc0bf2a7393c2ab4fcba097357d8b2a2085619d6156eb0d7298c5b5ab",
        "cells/deerdann_count0_seed1/selected_metrics.json":
            "30b415146212097b4d262e46644d68659ac1ae9b38f90713a99a9c14e86f2e85",
        "cells/deerdann_count50_seed0/checkpoint.ckpt":
            "6b18edecc3bf4d171fbafe2ae2c081818fc7e0f0beea138a7ede5a9484954ca9",
        "cells/deerdann_count50_seed0/config.json":
            "12f9071de6e3421649a44e0fc962fbb295205c414991d7a768151eaeacda06a3",
        "cells/deerdann_count50_seed0/history.csv":
            "63f028cc771d675f5d49972af07a5ca4aeefddc15685f0a97a2919b6c514e446",
        "cells/deerdann_count50_seed0/selected_metrics.json":
            "984e6a3f93d159dc78587739277788547e92fd9a8c89ed8e8d0f528d7edf966d",
        "cells/deerdann_count50_seed1/checkpoint.ckpt":
            "98af4387b5da1d97c50d98ca27b0804a646d8199721bf5a43ad5c96417ff42c7",
        "cells/deerdann_count50_seed1/config.json":
            "2830e0e44ec7954f74929bceb5d5cea7bbd2822c4a9f4324411ea9e1e3e85aed",
        "cells/deerdann_count50_seed1/history.csv":
            "efee77c59df8a5ca4f831671d54c1cedd17e893660594ab4d62e543995be625a",
        "cells/deerdann_count50_seed1/selected_metrics.json":
            "c6b92823a928f6a7bbefb0145753503d346f511f443d2c10f44e79eef2c306ed",
        "failures.json":
            "670bef3e0a42e948c3c51c974600c3ac6b9ecc16b1760322b72ae5f903deae26",
        "sweep_deerdann.csv":
            "f10e2383e05acfde0dbb7daba6c08bd87919b1068daceb4d756aa10ec6e6c37e",
    },
    "cmp": {
        "comparison.csv":
            "def57a16f09aadab631255b9e0a8f00b45ee35c44779eaccab4de236b2bfc272",
        "comparison.txt":
            "a9962352bf115a0f367efee7b2ea38b975dbb4ac01fab53b9bc3d1dec0036555",
    },
}


def test_run_directories_match_their_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = write_tiny_csv(Path())
    runs = []
    for method in sorted(cli.METHODS):
        runs.append(f"runs/{method}")
        assert main(["train", "--data", str(data), "--method", method, "--out", runs[-1],
                     "--epochs", "2", "--batch-size", "32", "--synthetic-count", "60"]) == 0
    assert main(sweep_argv(data, "sweep", jobs=2, counts="0,50,100000")) == 0
    runs += sorted(f"sweep/cells/{cell.name}" for cell in (tmp_path / "sweep/cells").iterdir())
    assert main(["compare", "--runs", ",".join(runs), "--out", "cmp"]) == 0
    digests = {top: run_dir_digests(tmp_path / top) for top in ("runs", "sweep", "cmp")}
    assert digests == RUN_DIR_GOLDEN


def test_train_and_project_read_the_cache_gen_data_wrote(tmp_path):
    data = write_tiny_csv(tmp_path)
    assert cache_path(data).is_file()
    run = tmp_path / "run"
    with counting_parses() as parses:
        assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                     "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
        assert main(["project", "--run", str(run), "--data", str(data), "--split", "trans_test",
                     "--out", str(tmp_path / "proj")]) == 0
    assert parses.call_count == 0


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


def test_a_train_run_directory_holds_exactly_the_files_its_writer_cleans_up_after(tmp_path):
    data = write_tiny_csv(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    assert cli._RUN_DIR_FILES == ("config.json", "checkpoint.ckpt", "history.csv",
                                  "selected_metrics.json")
    assert sorted(p.name for p in run.iterdir()) == sorted(cli._RUN_DIR_FILES)


@pytest.mark.parametrize("fields, found", [
    (dict(class_count=5, rare_class_id=4, train_counts=(120, 90, 60, 50, 41)), (8, 5)),
    (dict(feature_dim=6), (6, 4)),
])
def test_project_rejects_a_dataset_that_does_not_fit_the_checkpoint(
    tmp_path, capsys, fields, found
):
    data = write_tiny_csv(tmp_path)
    run, proj = tmp_path / "run", tmp_path / "proj"
    assert main(["train", "--data", str(data), "--method", "baseline", "--out", str(run),
                 "--epochs", "1", "--batch-size", "32", "--synthetic-count", "0"]) == 0
    other = tmp_path / "other.csv"
    assert main(["gen-data", "--spec", str(write_tiny_spec(tmp_path, **fields)),
                 "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["project", "--run", str(run), "--data", str(other), "--split", "trans_test",
                 "--out", str(proj)]) == 1
    assert capsys.readouterr().err == (
        f"error: {other} has {found[0]} features and {found[1]} classes, but "
        f"{run / 'checkpoint.ckpt'} expects 8 features and 4 classes\n"
    )
    assert not proj.exists()


def write_selected_metrics(run, trans_rare_acc=0.5):
    """A run directory holding only the ``selected_metrics.json`` that compare reads."""
    run.mkdir(parents=True, exist_ok=True)
    row = {"trans_rare_acc": trans_rare_acc, "cis_rare_acc": 0.5, "trans_other_avg": 0.25,
           "cis_other_avg": None}
    (run / "selected_metrics.json").write_text(json.dumps({"table_row": row}), encoding="utf-8")


@pytest.mark.parametrize("runs, message", [
    ("", "empty run directory in ''"),
    (",", "empty run directory in ','"),
    ("r1,", "empty run directory in 'r1,'"),
    ("r1,,r2", "empty run directory in 'r1,,r2'"),
    ("r1,./r1", "run directories must be distinct, got 'r1,./r1'"),
    ("r1,r2,r1/", "run directories must be distinct, got 'r1,r2,r1/'"),
    ("r1,{cwd}/r1", "run directories must be distinct, got 'r1,{cwd}/r1'"),
    ("r2,r1,link", "run directories must be distinct, got 'r2,r1,link'"),
])
def test_compare_runs_with_an_empty_or_repeated_entry_is_a_usage_error(
    tmp_path, monkeypatch, capsys, runs, message
):
    # even from inside a run directory, where an empty entry once read
    # ./selected_metrics.json as an unnamed row
    write_selected_metrics(tmp_path)
    for name in ("r1", "r2"):
        write_selected_metrics(tmp_path / name)
    (tmp_path / "link").symlink_to("r1")
    monkeypatch.chdir(tmp_path)
    runs, message = (text.format(cwd=tmp_path) for text in (runs, message))
    err = usage_error(["compare", "--runs", runs, "--out", "cmp"], capsys)
    assert f"argument --runs: {message}" in err
    assert not (tmp_path / "cmp").exists()


def test_compare_names_runs_with_the_same_directory_name_apart(tmp_path):
    runs = [tmp_path / "a" / "run", tmp_path / "b" / "run"]
    for i, run in enumerate(runs):
        write_selected_metrics(run, 0.5 + i / 4)
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--runs", ",".join(map(str, runs)), "--out", str(cmp_dir)]) == 0
    with open(cmp_dir / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["trans_rare_acc"]) for r in rows] == [
        ("a/run", "0.5"), ("b/run", "0.75")]
    text = (cmp_dir / "comparison.txt").read_text(encoding="utf-8")
    assert [line.split()[0] for line in text.splitlines()[1:]] == ["a/run", "b/run"]


def table_row_json(cis_rare_acc: str) -> str:
    """A ``selected_metrics.json`` whose table_row holds ``cis_rare_acc`` as JSON text."""
    return ('{"table_row": {"trans_rare_acc": 0.5, "cis_rare_acc": %s, "trans_other_avg": 0.25, '
            '"cis_other_avg": null}}' % cis_rare_acc)


@pytest.mark.parametrize(
    "content, reason",
    [
        ('{"method": "baseline"}', "KeyError: 'table_row'"),
        ('{"table_row": {"trans_rare_acc": 1.0}}', "KeyError: 'cis_rare_acc'"),
        ("{not json", "JSONDecodeError"),
        pytest.param("[" * 100_000 + "]" * 100_000, "RecursionError", id="nested-100000"),
        # train writes each value as null or a float in [0, 1], nothing else
        *(pytest.param(table_row_json(value), f"ValueError: cis_rare_acc is {shown}, not null "
                       "or a float in [0, 1]", id=f"value-{value}")
          for value, shown in [("true", "True"), ('"0.5"', "'0.5'"), ("Infinity", "inf"),
                               ("NaN", "nan"), ("1.5", "1.5")]),
    ],
)
def test_compare_malformed_selected_metrics_names_the_file(tmp_path, capsys, content, reason):
    run = tmp_path / "run"
    run.mkdir()
    (run / "selected_metrics.json").write_text(content, encoding="utf-8")
    assert main(["compare", "--runs", str(run), "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(run / "selected_metrics.json") in err and reason in err
