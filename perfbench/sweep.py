"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds N]
                               [--trace-seed N] [--write perfbench/baseline/FILE.json]

For every workload it runs perfbench/run.py once per seed with --trace 0,
then prints, for each end-to-end metric with its unit, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the bound in BENCHMARK.json.  With
--trace-seed it also makes one traced run per workload.  With --write it
saves every report line and the summary as a baseline file.

Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = ("ops_per_s", "norm_ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib", "failed_frac")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report_line, result_line = proc.stdout.splitlines()[-2:]
    report = json.loads(report_line)
    report["result"] = json.loads(result_line)
    return report


def summarise(reports: list[dict]) -> dict:
    bounds = {m["name"]: m["bound"] for m in SPECS["end_to_end"]}
    summary = {}
    for name in METRICS:
        values = [r["metrics"][name]["value"] for r in reports]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": reports[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def print_summary(workload: str, summary: dict, reports: list[dict]) -> None:
    tails = sorted({(round(r["op_tail_percentile"], 1), r["op_tail_samples_beyond"]) for r in reports})
    ops = sorted({r["ops"] for r in reports})
    print(f"\n{workload}  runs={len(reports)}  ops/run={ops}  tail percentile, samples beyond={tails}")
    print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
        flag = ""
        if s["spread"] is not None and s["bound"] is not None and name != "setup_s" \
                and s["spread"] > s["bound"] / 3:
            flag = "  > bound/3"
        print(f"  {name:14s} {s['unit']:6s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{spread:>8s} {bound:>6s}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPECS["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPECS["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write")
    args = parser.parse_args()
    out = {"seconds": args.seconds, "workloads": {}}
    started = time.perf_counter()
    for workload in args.workloads.split(","):
        reports = [run_once(workload, seed, args.seconds, 0) for seed in seed_list(args.seeds)]
        summary = summarise(reports)
        print_summary(workload, summary, reports)
        entry = {"summary": summary, "runs": reports}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, args.seconds, 1)
            m = entry["traced"]["metrics"]
            print(f"  traced seed {args.trace_seed}: overhead_frac={m['trace.overhead_frac']['value']:.4f} "
                  f"remainder_frac={m['trace.remainder_frac']['value']:.4f}")
        out["workloads"][workload] = entry
        sys.stdout.flush()
    print(f"\nsweep took {time.perf_counter() - started:.0f} s")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
