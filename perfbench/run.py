"""The nodaltrade benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the program is imported from the
checkout's src/ (through sys.path here and PYTHONPATH in child processes),
never from an installed copy.  Workloads: trade_n3, spectral_n4, appendix,
cli_cold (see NOTES.md for why each exists).

--trace 0 measures the end-to-end metrics with no wrappers installed;
norm_ops_per_s is ops_per_s with the machine's speed during the run,
measured by a fixed probe between operations, divided out.
--trace 1 makes the separate traced run: a traced cache fill, an untraced
pass over whole cycles, then the same operations again with spans, and it
reports the per-layer metrics and the tracing overhead.

Standard output ends with two JSON lines: the full report (seed, input
digest, commit, source digest, Python, nproc, every metric and its unit)
and the result line {"correct", "attempted", "failed", "metrics"}.  A
human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 15
TAIL_BEYOND = 10
# The speed probe: a fixed piece of exact rational arithmetic, the kind of
# work nodaltrade does, run between operations for about PROBE_SHARE of the
# time operations take, so that norm_ops_per_s can divide out the machine's
# speed during the run (NOTES.md, "The speed probe").  PROBE_REF_S is the
# probe time norm_ops_per_s is scaled to, a round figure just above the
# 3-4.5 ms the probe takes on a 2-vCPU Xeon VM.
PROBE_SHARE = 0.05
PROBE_REF_S = 0.005
PROBE_ROWS = [[Fraction(3 * i + j + 1, 2 * i + j + 7) for j in range(8)] for i in range(100)]
PROBE_VECTOR = [Fraction(j - 3, j + 2) for j in range(8)]
CLI_SUBCOMMANDS = ("pairings", "loopmat", "oracle", "trade", "graphs", "oracle-p2", "appendix", "models")
SETUP_TRACED = (
    "pairings.enumerate_pairings",
    "pairings.loop_number",
    "loop_matrix.build_loop_matrix",
    "loop_matrix.decompose_isotypic",
    "tensor_oracle.all_form_tensors",
    "tensor_oracle.all_diagonal_multivectors",
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "norm_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "failed_frac": "ratio",
}
# The result line carries the metrics BENCHMARK.json gates (NOTES.md says
# why ops_per_s, op_p50_ms, op_tail_ms and failed_frac are not gated); the
# report line carries all of them.
RESULT_METRICS = ("norm_ops_per_s", "setup_s", "peak_rss_mib")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    units = {
        "trace.ops": "count",
        "trace.ops_per_s": "1/s",
        "trace.untraced_ops_per_s": "1/s",
        "trace.overhead_frac": "ratio",
        "trace.remainder_frac": "ratio",
        "setup.traced_s": "s",
    }
    for name in SETUP_TRACED:
        units[f"setup.{name}.calls"] = "count"
        units[f"setup.{name}.self_s"] = "s"
    for module, path in spans.TIMED:
        name = spans.metric_name(module, path)
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    for module, path in spans.COUNTED:
        units[f"{spans.metric_name(module, path)}.calls"] = "count/op"
    units[f"{spans.DENSE_COEFFS}"] = "count/op"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.p50_ms"] = "ms"
    units["cli.startup_ms"] = "ms"
    units["cli.stdout_bytes"] = "bytes/op"
    return units


# -- provenance ---------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(base: Path) -> str:
    """sha256 over the relative paths and contents of the program's source files."""
    h = hashlib.sha256()
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256": tree_digest(root / "src" / "nodaltrade"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- measurement --------------------------------------------------------------


def probe() -> float:
    """Seconds one run of the fixed probe work takes now."""
    t0 = time.perf_counter()
    for row in PROBE_ROWS:
        sum(a * b for a, b in zip(row, PROBE_VECTOR))
    return time.perf_counter() - t0


def probe_mean(probes) -> float:
    """Mean probe time with a tenth cut at each end, so that a probe the
    operating system preempted does not count."""
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Loop:
    """Closed loop with one client: the next operation starts when the last is checked."""

    def __init__(self, workload):
        self.workload = workload
        self.inputs: list[dict] = []
        self.digest = hashlib.sha256()

    def _input(self, i):
        """Input i, generated once; the digest leaves out argv, whose file
        paths lie in the run's scratch directory and differ between runs."""
        if i == len(self.inputs):
            inp = self.workload.make_input(i)
            self.inputs.append(inp)
            self.digest.update(json.dumps({k: v for k, v in inp.items() if k != "argv"},
                                          sort_keys=True).encode())
        return self.inputs[i]

    def run(self, seconds=None, count=None, before=None, after=None, probes=None):
        """Exactly `count` operations, or whole cycles ending at the cycle
        boundary nearest to `seconds` (at least one cycle).

        With a `probes` list, each operation is followed, outside its timed
        span, by speed probes for PROBE_SHARE of its latency (at least one),
        whose times are appended to the list."""
        latencies, failures = [], []
        cycle = self.workload.cycle
        start = time.perf_counter()
        i = 0
        while True:
            if count is not None:
                if i == count:
                    break
            elif i and i % cycle == 0:
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / (i // cycle) / 2 >= seconds:
                    break
            inp = self._input(i)
            if before:
                before(i)
            t0 = time.perf_counter()
            try:
                out = self.workload.op(inp)
            except Exception as exc:  # an unexpected exception is a failed operation
                out = exc
            latencies.append(time.perf_counter() - t0)
            if after:
                after(i, inp, out)
            try:
                reason = self.workload.check(inp, out)
            except Exception as exc:  # a malformed result that the check cannot read
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append((i, reason))
            if probes is not None:
                budget = PROBE_SHARE * latencies[-1]
                spent = 0.0
                while not spent or spent < budget:
                    probes.append(probe())
                    spent += probes[-1]
            i += 1
        return latencies, failures


def setup_sample(workload) -> tuple[float, str | None]:
    """Seconds from process start until the caches are filled, in a fresh process,
    and the reason the sample failed, if it did."""
    if not workload.in_process:
        t0 = time.perf_counter()
        code, stdout, stderr = workload.version()
        seconds = time.perf_counter() - t0
        if code != 0 or stdout.decode().strip() != workload.version_string:
            return seconds, f"--version exited {code} with {stdout[:40]!r}"
        return seconds, None
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_child.py"), workload.name]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=workload.env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if line != b"ready\n" or proc.returncode != 0:
        return seconds, f"set-up exited {proc.returncode}: {err.decode(errors='replace')[-200:]}"
    return seconds, None


class SetupSampler:
    """SETUP_SAMPLES set-up samples spread evenly over a run of `seconds`: one
    before the first operation, the others between operations once their
    share of the run has passed, and any still missing after the last one.
    Spreading them makes their median less hostage to the machine's speed
    at one moment."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.samples: list[float] = []
        self.failures: list[str] = []
        self.start = time.perf_counter()

    def take(self) -> None:
        seconds, failure = setup_sample(self.workload)
        self.samples.append(seconds)
        if failure:
            self.failures.append(failure)

    def due(self, *_) -> None:
        elapsed = time.perf_counter() - self.start
        if len(self.samples) < SETUP_SAMPLES and elapsed >= self.seconds * len(self.samples) / SETUP_SAMPLES:
            self.take()

    def finish(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def untraced(workload, loop, seconds) -> tuple[dict, dict, list[str]]:
    sampler = SetupSampler(workload, seconds)
    sampler.take()
    workload.setup()
    probes: list[float] = []
    latencies, failures = loop.run(seconds=seconds, after=sampler.due, probes=probes)
    sampler.finish()
    samples, setup_failures = sampler.samples, sampler.failures
    tail_s, tail_pct, beyond = tail(latencies)
    attempted = len(latencies) + len(samples)
    failed = len(failures) + len(setup_failures)
    ops_per_s = len(latencies) / sum(latencies)
    probe_s = probe_mean(probes)
    metrics = {
        "ops_per_s": ops_per_s,
        "norm_ops_per_s": ops_per_s * probe_s / PROBE_REF_S,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(samples),
        "peak_rss_mib": peak_rss_mib(workload),
        "failed_frac": failed / attempted,
    }
    extra = {
        "ops": len(latencies),
        "cycles": len(latencies) // workload.cycle,
        "attempted": attempted,
        "failed": failed,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "setup_samples_s": samples,
        "probes": len(probes),
        "probe_s": probe_s,
    }
    reasons = setup_failures + [f"op {i}: {r}" for i, r in failures]
    return metrics, extra, reasons


def traced(workload, loop, seconds) -> tuple[dict, dict, list[str]]:
    import nodaltrade.cli  # noqa: F401  (loads every module, so every binding gets wrapped)

    tracer = spans.Tracer()
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    stdout_bytes = []

    if workload.in_process:
        tracer.op = "setup"
        tracer.install()
        t0 = time.perf_counter()
        workload.setup()
        metrics["setup.traced_s"] = time.perf_counter() - t0
        tracer.uninstall()
        setup_calls, setup_self = tracer.totals(["setup"])
        for name in SETUP_TRACED:
            metrics[f"setup.{name}.calls"] = setup_calls[name]
            metrics[f"setup.{name}.self_s"] = setup_self[name]
        tracer.counts.clear()
        plain, plain_failures = loop.run(seconds=seconds / 2)
        ops = len(plain)

        def before(i):
            tracer.op = i

        tracer.install()
        try:
            timed, timed_failures = loop.run(count=ops, before=before)
        finally:
            tracer.uninstall()
        attempted = 2 * ops
    else:
        sampler = SetupSampler(workload, seconds)
        sampler.finish()
        startup, setup_failures = sampler.samples, sampler.failures
        metrics["cli.startup_ms"] = statistics.median(startup) * 1e3

        def record(i, inp, out):
            if not isinstance(out, BaseException):
                stdout_bytes.append(len(out[1]))

        plain, plain_failures = loop.run(seconds=seconds / 2, after=record)
        ops = len(plain)
        by_sub: dict[str, list[float]] = {}
        for inp, latency in zip(loop.inputs, plain):
            by_sub.setdefault(inp["template"][0], []).append(latency)
        for sub, values in by_sub.items():
            metrics[f"cli.{sub}.p50_ms"] = statistics.median(values) * 1e3
        metrics["cli.stdout_bytes"] = sum(stdout_bytes) / ops
        span_file = os.path.join(workload.workdir, "child-spans.json")
        workload.traced_spans = span_file

        def absorb(i, inp, out):
            try:  # a child killed before it could write leaves no spans
                with open(span_file) as fh:
                    tracer.absorb(i, json.load(fh))
                os.remove(span_file)
            except FileNotFoundError:
                pass

        timed, timed_failures = loop.run(count=ops, after=absorb)
        plain_failures += [(-1, r) for r in setup_failures]
        attempted = 2 * ops + len(startup)

    op_ids = range(ops)
    calls, self_s = tracer.totals(op_ids)
    for module, path in spans.TIMED:
        name = spans.metric_name(module, path)
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.self_s"] = self_s[name] / ops
    for module, path in spans.COUNTED:
        name = spans.metric_name(module, path)
        metrics[f"{name}.calls"] = tracer.counts[name] / ops
    metrics[spans.DENSE_COEFFS] = tracer.counts[spans.DENSE_COEFFS] / ops
    covered = tracer.top_level_seconds(op_ids)
    metrics["trace.ops"] = ops
    metrics["trace.ops_per_s"] = ops / sum(timed)
    metrics["trace.untraced_ops_per_s"] = ops / sum(plain)
    metrics["trace.overhead_frac"] = sum(timed) / sum(plain) - 1
    metrics["trace.remainder_frac"] = 1 - covered / sum(timed)
    write_spans(tracer, workload)

    failures = plain_failures + timed_failures
    extra = {"ops": ops, "attempted": attempted, "failed": len(failures),
             "wrapped_self_s": sum(self_s.values()), "traced_op_s": sum(timed)}
    return metrics, extra, [f"op {i}: {r}" for i, r in failures]


def write_spans(tracer, workload) -> None:
    """All spans, one JSON object a line, next to the run's other outputs."""
    out = ROOT / "perfbench" / "_work" / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    with open(out, "w") as fh:
        for op, span_id, parent, name, start, end, own in tracer.spans:
            fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                 "start": start, "end": end, "self": own}) + "\n")


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program(root: Path) -> None:
    """Import nodaltrade from the checkout's src/, refusing any other copy."""
    src = root / "src"
    if not (src / "nodaltrade" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'nodaltrade'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import nodaltrade

    if Path(nodaltrade.__file__).resolve().parent != (src / "nodaltrade").resolve():
        raise SystemExit(f"perfbench: imported nodaltrade from {nodaltrade.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program(ROOT)
    workroot = ROOT / "perfbench" / "_work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot)
    started = time.perf_counter()
    try:
        workload = WORKLOADS[args.workload](str(ROOT), args.seed, workdir)
        loop = Loop(workload)
        measure = traced if args.trace else untraced
        metrics, extra, reasons = measure(workload, loop, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": loop.digest.hexdigest(),
        "inputs": len(loop.inputs),
        **provenance(ROOT),
        **extra,
        "wall_s": time.perf_counter() - started,
        "failures": reasons[:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    shown = RESULT_METRICS if not args.trace else list(units)
    result = {
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: report["metrics"][name] for name in shown},
    }
    summary = [n for n in units if n.startswith("trace.")] if args.trace else units
    for name in summary:
        print(f"{args.workload:12s} {name:28s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    for reason in reasons[:5]:
        print(f"{args.workload:12s} FAILED {reason}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
