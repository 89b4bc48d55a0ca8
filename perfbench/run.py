#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig11-cxl-sweep --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --smoke

The first form builds the perfbench driver (Release) from this checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), runs one workload and
passes its output through: the last stdout line is the result JSON. A
traced run (--trace 1) also writes its spans as Chrome trace JSON into the
build directory. `--workload all` runs every workload of BENCHMARK.json in
turn and exits non-zero if any of them fails.

--smoke runs every workload, untraced and traced, at tiny sizes and checks
each result against BENCHMARK.json: the benchmark's own test. Exit status is
non-zero on any failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    commands = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        commands.append(["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    commands.append(["cmake", "--build", out_dir, "--target", "perfbench",
                     "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for command in commands:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(command))
    return os.path.join(out_dir, "perfbench")


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def run_driver(binary, args):
    """Runs the driver to completion; returns (exit code, stdout)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def check_result(stdout, names):
    """Problems with one run's result line against the expected metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if result.get("failed") != 0:
        problems.append("failed = %s" % result.get("failed"))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json")
    return problems


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(binary):
    spec = benchmark_spec()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            args = ["--workload", workload, "--seconds", "0.5",
                    "--trace", str(trace), "--smoke"]
            if trace:
                args += ["--trace-out", os.path.join(
                    os.path.dirname(binary), "smoke-%s.json" % workload)]
            code, stdout = run_driver(binary, args)
            problems = check_result(stdout, names)
            if code != 0:
                problems.append("exit code %d" % code)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-20s trace=%d %s" % (workload, trace, status))
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if args.smoke:
        return smoke(binary)

    workloads = [args.workload]
    if args.workload == "all":
        workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    failed = 0
    for workload in workloads:
        driver_args = ["--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--git", git_describe()]
        if args.trace:
            driver_args += ["--trace-out", os.path.join(
                out_dir, "trace-%s-%d.json" % (workload, args.seed))]
        code, stdout = run_driver(binary, driver_args)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        failed = failed or code
    return failed


if __name__ == "__main__":
    sys.exit(main())
