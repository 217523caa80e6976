#!/usr/bin/env python3
"""Serving benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload rank-full --seed 1 --seconds 30 --trace 0

Builds the repository's library and the benchmark binary from source into
.bench_build/ (or $CARGO_TARGET_DIR), runs the benchmark's own self-tests,
then runs the named workload with the shape fixed in perfbench/workloads.json.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced replay (spans are written to .bench_build/traces/). The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE="],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_serving")


def workload_flags(spec):
    flags = []
    for key, value in spec["flags"].items():
        if isinstance(value, bool):
            value = int(value)
        flags.append("--%s=%s" % (key, value))
    flags.append("--light-qps=%s" % spec["light_qps"])
    flags.append("--ladder=%s" % ",".join(str(r) for r in spec["ladder"]))
    flags.append("--sat-qps=%s" % spec["sat_qps"])
    flags.append("--limit-ms=%s" % spec["limit_ms"])
    flags.append("--max-lag-ms=%s" % spec["max_lag_ms"])
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = {w["name"]: w for w in json.load(f)["workloads"]}
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" % (args.workload, ", ".join(workloads)))
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
        subprocess.run([binary, "--self-test"], check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("build or self-test failed: %s" % e)
        return 1

    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    cmd += workload_flags(workloads[args.workload])
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--spans-out=" + os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("benchmark run failed with exit code %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        log("benchmark result is incorrect or malformed")
        return 1
    # The binary's metric names and units must be exactly the declared ones.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
