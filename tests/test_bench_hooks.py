"""The traced benchmark (perfbench/tracing.py) patches raredapt by attribute
name, and its workloads (perfbench/workloads.py) pass their inputs by keyword.

A refactor that renames or removes one of those attributes, fields or keywords
breaks every benchmark run; these tests catch it without running the benchmark.
"""

from pathlib import Path

import pytest

import raredapt.cli
import raredapt.training
from raredapt import TrainConfig, generate
from raredapt.cli import main
from raredapt.data import SPLITS

from test_cli import sweep_argv, write_tiny_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def hooked(tracing):
    """Every (owner, attribute) that ``Tracer.install`` replaces."""
    return [(owner, attr) for owner, attr, *_ in tracing._TARGETS] + [
        (raredapt.training, "paired_sampler"),
        (raredapt.cli, "train"),
        (raredapt.cli, "_sweep_run_one"),
    ]


def test_tracer_targets_exist(tracing):
    for owner, attr in hooked(tracing):
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


def test_tracer_install_uninstall_restores_originals(tracing, tmp_path):
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in hooked(tracing)}
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        # pool workers must look the cell function up by name, so the patch reaches them
        data = write_tiny_csv(tmp_path)
        assert main(sweep_argv(data, tmp_path / "sweep", jobs=2, counts="0")) == 0
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    tracer.collect_files()
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.sweep.cell") == 2
    assert names.count("training.train") == 2


def test_traced_table_run_produces_every_step_metric(tracing, tiny_dataset, tmp_path):
    # one epoch per method, as the traced ``table`` workload runs them
    import catalogue

    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        for method in catalogue.METHODS:
            config = TrainConfig(method=method, epochs=1, batch_size=32, synthetic_count=80)
            tracer.traced_train(tiny_dataset, config)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 1)
    assert catalogue.PRODUCED["table"] - {"trace.overhead"} <= set(metrics)
    # every split is evaluated in sight of the tracer: one call and one
    # forward_features pass per split, epoch and method
    runs = len(catalogue.METHODS)  # one epoch each
    assert metrics["metrics.evaluate.calls"] == len(SPLITS) * runs
    real_rows = sum(tiny_dataset.real_split_indices[s].size for s in SPLITS)
    assert metrics["metrics.evaluate.rows"] == real_rows * runs
    assert metrics["domains.paired_sampler.batches"] == metrics["training.adam_step.calls"]
    train_ns = sum(span[3] for span in tracer.spans if span[0] == "training.train")
    assert sum(span[4] for span in tracer.spans) == train_ns


def test_workload_inputs_are_fields_and_keywords_the_package_has(workloads, tmp_path):
    # every GenSpec/TrainConfig field is pinned, the pinned values build both
    # configs, and build_domains/paired_sampler take the keywords they are given
    assert workloads.unpinned_fields() == []
    run = workloads.Run("table", 0, 1.0, workloads.TINY, tmp_path, None)
    dataset = generate(run.gen_spec())
    for method in workloads.METHODS:
        assert workloads.count_steps(dataset, run.train_config(method)) > 0
