"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload, untraced and traced, on the tiny spec (1-2 epochs) with
the seed 0 and a held-out seed, and asserts that each run passes its output
checks and prints exactly the metrics ``catalogue.py`` lists, with their units
(the same names for every workload).
It also checks that ``BENCHMARK.json`` names the same metrics and units, and
that the benchmark exits non-zero without a result in a directory that holds
only ``BENCHMARK.json`` and ``perfbench/``. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 7919)  # 7919 is held out: no tuning used it

sys.path.insert(0, str(HERE))
import catalogue  # noqa: E402


def run_benchmark(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_benchmark_json(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != catalogue.END_TO_END:
        errors.append(f"BENCHMARK.json end_to_end {e2e} != catalogue {catalogue.END_TO_END}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != catalogue.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from the catalogue")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(catalogue.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from the catalogue")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s must have the largest bound")


def check_runs(errors: list[str]) -> None:
    for workload in catalogue.WORKLOADS:
        for trace in (0, 1):
            want = catalogue.expected(bool(trace))
            for seed in SEEDS:
                what = f"{workload} trace={trace} seed={seed}"
                proc = run_benchmark(ROOT, workload, seed, trace)
                if proc.returncode != 0:
                    errors.append(f"{what}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    errors.append(f"{what}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    errors.append(f"{what}: correct={result['correct']} attempted="
                                  f"{result['attempted']} failed={result['failed']}: {proc.stderr[-500:]}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    errors.append(f"{what}: missing {missing}, unexpected {extra}, or units differ")
                print(f"ok? {not errors}: {what}", flush=True)


def check_bare_directory(errors: list[str]) -> None:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_benchmark(bare, "table", 0, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("the benchmark ran without the package sources")


def main() -> int:
    errors: list[str] = []
    check_benchmark_json(errors)
    check_bare_directory(errors)
    check_runs(errors)
    for error in errors:
        print(f"FAIL: {error}")
    print("selftest passed" if not errors else f"selftest failed ({len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
