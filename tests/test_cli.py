import dataclasses
import json

from raredapt.cli import main

from conftest import tiny_gen_spec


def write_tiny_csv(tmp_path):
    spec = tmp_path / "spec.json"
    payload = {k: list(v) if isinstance(v, tuple) else v
               for k, v in dataclasses.asdict(tiny_gen_spec()).items()}
    spec.write_text(json.dumps(payload), encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    return data


def sweep_argv(data, out, seeds="0,1", jobs=1):
    return ["sweep", "--data", str(data), "--method", "deerdann", "--counts", "0,50",
            "--seeds", seeds, "--out", str(out), "--jobs", str(jobs),
            "--epochs", "1", "--batch-size", "32"]


def test_sweep_rejects_duplicate_seeds(tmp_path, capsys):
    data = write_tiny_csv(tmp_path)
    out = tmp_path / "sweep"
    assert main(sweep_argv(data, out, seeds="0,0")) == 1
    assert "seeds must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cells_identical_with_one_and_two_jobs(tmp_path):
    data = write_tiny_csv(tmp_path)
    outs = {jobs: tmp_path / f"sweep{jobs}" for jobs in (1, 2)}
    for jobs, out in outs.items():
        assert main(sweep_argv(data, out, jobs=jobs)) == 0
        assert not (out / "failures.json").exists()
    cells = sorted(p.name for p in (outs[1] / "cells").iterdir())
    assert len(cells) == 4
    assert cells == sorted(p.name for p in (outs[2] / "cells").iterdir())
    for cell in cells:
        serial = (outs[1] / "cells" / cell / "history.csv").read_bytes()
        assert serial == (outs[2] / "cells" / cell / "history.csv").read_bytes()
    assert (outs[1] / "sweep_deerdann.csv").read_bytes() == (
        outs[2] / "sweep_deerdann.csv"
    ).read_bytes()
