"""The benchmark's own test; not part of the repository's pytest suite.

    python3 perfbench/selftest.py

1. Every workload run.py knows, on two seeds: each run is correct with zero failures,
   the two seeds give different input digests, and the result line has
   exactly the keys and metrics BENCHMARK.json names, all positive.
2. cli_cold with seed 11, the seed its byte-identical rerun commands use,
   over at least two cycles: zero failures (the seeded commands vary per cycle
   and must not be held to the rerun check).
3. One traced run prints exactly the per-layer metrics BENCHMARK.json names.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Runs take --seconds 1, so each is one cycle of its workload (spectral_n4
needs ten to fifteen seconds for its cycle); the seed-11 run takes 10.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT, seconds: int = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def check_seeds(workload: str) -> None:
    digests = []
    names = {m["name"] for m in SPECS["end_to_end"]}
    for seed in (1, 2):
        proc = run(workload, seed, 0)
        expect(proc.returncode == 0, f"{workload} seed {seed} exits 0")
        report = json.loads(proc.stdout.splitlines()[-2])
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == RESULT_KEYS, f"{workload} seed {seed} result keys")
        expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload} seed {seed} has zero failures ({report['failures'][:1]})")
        expect(set(result["metrics"]) == names, f"{workload} seed {seed} reports every end-to-end metric")
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{workload} seed {seed} metrics are positive")
        expect(report["seed"] == seed, f"{workload} seed {seed} is recorded")
        digests.append(report["inputs_sha256"])
    expect(digests[0] != digests[1], f"{workload} seeds 1 and 2 give different inputs")


def check_rerun_seed() -> None:
    proc = run("cli_cold", 11, 0, seconds=10)
    expect(proc.returncode == 0, "cli_cold seed 11 exits 0")
    report = json.loads(proc.stdout.splitlines()[-2])
    expect(report["cycles"] >= 2 and report["failed"] == 0,
           f"cli_cold seed 11 has zero failures over {report['cycles']} cycles ({report['failures'][:1]})")


def check_trace() -> None:
    proc = run("appendix", 1, 1)
    expect(proc.returncode == 0, "traced appendix run exits 0")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(result["failed"] == 0, "traced appendix run has zero failures")
    expect(list(result["metrics"]) == [m["name"] for m in SPECS["per_layer"]],
           "traced run reports exactly the per-layer metrics")
    expect(result["metrics"]["case_study.compute_rhs_total.calls"]["value"] == 1,
           "traced run counts one compute_rhs_total call per operation")


def check_bare_directory() -> None:
    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run("appendix", 1, 0, cwd=bare)
        expect(proc.returncode != 0, "without src/ the benchmark exits non-zero")
        expect('"correct"' not in proc.stdout, "without src/ it prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for workload in WORKLOADS:
        check_seeds(workload)
    check_rerun_seed()
    check_trace()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
