#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stencil|churn|frontend \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (the library from src/ plus the hpfbench measuring
program) with CMake under .bench_build/, then runs one workload. Build
output goes to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}, holding exactly the metrics
BENCHMARK.json lists for the kind of run: "end_to_end" for --trace 0,
"per_layer" for --trace 1. A per-layer metric of a layer the workload does
not exercise reads 0. --trace 1 also writes the run's spans, one JSON
object per line, to .bench_build/spans/<workload>-<seed>.jsonl.

--self-test runs the benchmark's own tests: every output check must pass
on the true reference and trip on a deliberately wrong one.

Exits non-zero, printing no result, when the sources or BENCHMARK.json are
missing, the build fails, or the measuring program fails, runs too long or
reports metrics that do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_build"
WORKLOADS = ("stencil", "churn", "frontend")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds hpfbench; returns its path."""
    if not (ROOT / "src" / "exec" / "assign.hpp").is_file():
        fail(f"no library sources under {ROOT / 'src'}; "
             "run from a checkout root")
    out = OUT_DIR / "perfbench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "hpfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = out / "hpfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def listed_metrics(trace):
    """The metrics BENCHMARK.json lists for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        fail(f"no {spec}; run from a checkout root")
    with open(spec) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def complete(line, listed, trace):
    """The result line with exactly the listed metrics, in listed order.

    Every end-to-end metric must be reported. A per-layer metric that is
    not reported belongs to a layer the workload does not exercise: 0.
    """
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the measuring program printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in listed})
    if unknown:
        fail(f"reported metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not trace:
                fail(f"end-to-end metric {name} was not reported")
            got[name] = {"value": 0, "unit": unit}
        if got[name]["unit"] != unit:
            fail(f"{name} is in {got[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        metrics[name] = got[name]
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    listed = None if args.self_test else listed_metrics(args.trace)
    exe = build()
    if args.self_test:
        cmd = [str(exe), "--selftest"]
    else:
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = OUT_DIR / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            name = f"{args.workload}-{args.seed}.jsonl"
            cmd += ["--spans", str(spans / name)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} ran longer than {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    if not args.self_test:
        lines[-1] = complete(lines[-1], listed, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
