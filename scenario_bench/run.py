#!/usr/bin/env python3
"""Scenario benchmark: build, run one workload, print its metrics.

Builds scenario_bench from the enclosing source tree (into .bench_build/),
runs one workload in it and prints its metrics. The last stdout line is
one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of the traced replay. Usage, from the source-tree root:

    python3 scenario_bench/run.py --workload link_bulk --seed 1 --seconds 10 --trace 0
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "scenario_bench")
BINARY = os.path.join(BUILD_DIR, "scenario_bench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no oci source tree at " + ROOT + "; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "scenario_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=None,
                        help="spec seed of the run (default: the spec's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to repro scale 0.01 (self-test)")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=3 * args.seconds + 90)
    if proc.returncode != 0:
        die("scenario_bench exited with %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.splitlines()
    if not lines:
        die("scenario_bench printed nothing")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    environment = dict(result["env"], git_sha=git_sha())
    print("environment: " + json.dumps(environment, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    out = {"correct": attempted >= 1 and failed == 0, "attempted": attempted,
           "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = "%s-seed%s-trace%d.json" % (args.workload,
                                       "spec" if args.seed is None else args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(dict(out, environment=environment), f, indent=1, sort_keys=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
