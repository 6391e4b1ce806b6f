"""Quick self-check of the benchmark; exits nonzero on the first problem.

    python3 bench/selfcheck.py

Runs one round of every workload in BENCHMARK.json at a small seed,
untraced and traced, and asserts that each run prints every end-to-end
(respectively per-layer) metric with the unit BENCHMARK.json gives it,
that the report's error_rate is 0 and that all jobs passed their
checks.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's own files and asserts that it fails
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def expect(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
        *_, report_line, result_line = proc.stdout.strip().split("\n")
        result, report = json.loads(result_line), json.loads(report_line)["report"]
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
        expect(report["error_rate"] == {"value": 0.0, "unit": "ratio"}, report["failures"])
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
        print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} jobs")


def check_refuses_bare_directory(workload: str) -> None:
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workload, 0)
        expect(proc.returncode != 0, "benchmark succeeded without the package source")
        expect('"metrics"' not in proc.stdout, "benchmark printed a result without the package")
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_refuses_bare_directory(spec["workloads"][0]["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
