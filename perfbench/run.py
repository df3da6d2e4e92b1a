#!/usr/bin/env python3
"""Builds the FARMER benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root, and durable_ingest writes its persist directories below it.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
provenance and every figure with its unit and sample count. With
--workload all, every workload runs in turn and the metrics of the last line
are prefixed with the workload's name.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["bulk_ingest", "online_serve", "async_mixed", "durable_ingest"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configures once, then builds `target` incrementally; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as ex:
            fail(f"build failed: {ex}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return out


def source_sha256():
    """Digest of every file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None when it is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_one(out, workload, seed, seconds, trace):
    """Runs the binary; returns (lines, result) or exits on failure."""
    workdir = out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    if sha == "none":
        sha = "none; source sha256 " + source_sha256()
    cmd = [str(out / "farmer_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir),
           "--git-sha", sha]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload}: exit code {done.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload}: last line is not a result object", 1)
    declared = declared_metrics()
    if declared is not None:
        want = declared[1] if trace else declared[0]
        if sorted(result["metrics"]) != sorted(want):
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"{workload}: metrics differ from BENCHMARK.json", 1)
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        out = build("perfbench_tests")
        tests = out / "perfbench_tests"
        if not tests.is_file():
            fail("perfbench_tests was not built (GTest not found)")
        sys.exit(subprocess.run([str(tests)], cwd=out, check=False).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    out = build("farmer_perfbench")
    if args.workload != "all":
        lines, result = run_one(out, args.workload, args.seed, args.seconds,
                                args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_one(out, workload, args.seed, args.seconds,
                                args.trace)
        print(f"== {workload}")
        print("\n".join(lines))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
