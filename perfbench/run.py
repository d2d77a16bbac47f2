"""Run one benchmark workload of raredapt and print its metrics.

    python3 perfbench/run.py --workload {table,sweep,ingest} --seed N --seconds S --trace {0,1}

Run it from the repository root. The package is imported from ``src/`` next to
this directory, never from an installed copy. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``. The line before it is the run's record: environment,
history digests and any failed checks; the same record is written to
``perfbench/.work/results/``, and a traced run also leaves its spans there. Metric names, units and the workloads are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    if not (SRC / "raredapt" / "__init__.py").is_file():
        raise SystemExit(f"error: no raredapt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import raredapt

    if SRC not in Path(raredapt.__file__).resolve().parents:
        raise SystemExit(f"error: raredapt imported from {raredapt.__file__}, not {SRC}")
    return raredapt


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        import contextlib
        import io

        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        return {"show_config": text.getvalue()}


def environment(raredapt, unpinned: list[str]) -> dict:
    """What the numbers depend on besides the code. Thread variables are recorded
    as found: the benchmark never sets them."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "raredapt": raredapt.__version__,
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "unpinned_fields": unpinned,
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "sweep", "ingest"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small spec and 1-2 epochs, for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    raredapt = _import_package()
    import catalogue
    import workloads
    from tracing import Tracer

    unpinned = workloads.unpinned_fields()
    if unpinned:
        print(f"warning: inputs not pinned by the benchmark: {', '.join(unpinned)}", file=sys.stderr)
    env = environment(raredapt, unpinned)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(workdir / "spans") if args.trace else None
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        workloads.TINY if args.tiny else workloads.FULL, workdir, tracer)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload](run)
        if tracer:
            tracer.write(WORK / "results" / f"{args.workload}-trace.spans.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for metric, unit in catalogue.expected(bool(args.trace)).items():
        value = run.metrics.get(metric)
        if value is None and args.trace and metric not in catalogue.PRODUCED[args.workload]:
            value = 0.0  # this workload never calls that layer
        if value is None or not math.isfinite(value):
            run.problems.append(f"metric {metric} was not measured")
            continue
        metrics[metric] = {"value": value, "unit": unit}
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "environment": env,
              "problems": run.problems, **run.record}
    result = {"correct": not run.problems and run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (WORK / "results" / f"{name}.json").write_text(
        json.dumps({**record, "result": result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
