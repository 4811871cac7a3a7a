#!/usr/bin/env python3
"""Self-test of the scenario benchmark.

For every workload, at repro scale 0.01:
  1. a timed run and a traced run must print every metric that
     BENCHMARK.json names for that mode, each with its unit, and pass
     the output check;
  2. `scenario_bench --selftest` must flag each corruption it applies
     to a real report: a one-ulp metric change, rng_draws or chunks off
     by one, and a broken physics invariant.

Usage, from the source-tree root:  python3 scenario_bench/selftest.py
"""
import json
import os
import subprocess
import sys

import run


def benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_run(workload, trace, problems):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", workload, "--seconds", "1", "--trace", str(trace),
                           "--tiny"],
                          stdout=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        problems.append(where + ": run.py exited with %d" % proc.returncode)
        return
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["attempted"] < 1:
        problems.append(where + ": output check failed")
    for spec in benchmark()["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            problems.append(where + ": metric %s [%s] missing" % (spec["name"], spec["unit"]))
        elif not any(spec["name"] in l and l.rstrip().endswith(spec["unit"])
                     for l in lines[:-1]):
            problems.append(where + ": %s not printed with its unit" % spec["name"])


def main():
    run.build()
    problems = []
    for workload in (w["name"] for w in benchmark()["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, problems)
        proc = subprocess.run([run.BINARY, "--workload", workload, "--tiny", "--selftest"],
                              stdout=subprocess.PIPE, text=True, cwd=run.ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            problems.append(workload + ": a corrupted report passed the output check")
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
