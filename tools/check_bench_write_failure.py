#!/usr/bin/env python3
"""A bench piped to a file prints plain rows, and one whose trajectory
document cannot be written must fail.

Usage: check_bench_write_failure.py BENCH_LINK_ENGINE

Runs bench_link_engine's BM_SampleAndDecodeFused twice, each in an
empty temporary directory:

1. with stdout read through a pipe: some line must start with
   BM_SampleAndDecodeFused and no byte may be ESC (0x1b), because the
   console rows are coloured only on a terminal
   (bench/support/bench_json.hpp);
2. with BENCH_link.json a symlink to /dev/full, so the document's bytes
   cannot land: the run must exit nonzero and name the path on stderr;
   exiting 0 would let CI upload an earlier document as this run's.

No --benchmark_min_time is passed, because Google Benchmark 1.7 and 1.8
spell its value differently.

Exit status: 0 when both hold, 1 when either does not, 77 (skipped)
where /dev/full does not exist and the first check passed.
"""

import os
import subprocess
import sys
import tempfile

SKIPPED = 77
BENCHMARK = "BM_SampleAndDecodeFused"


def run_bench(bench, cwd, **streams):
    return subprocess.run([bench, f"--benchmark_filter={BENCHMARK}"], cwd=cwd,
                          timeout=120, **streams)


def piped_rows_are_plain(bench):
    with tempfile.TemporaryDirectory() as cwd:
        run = run_bench(bench, cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if run.returncode != 0:
        print(f"check_bench_write_failure: the piped run exited {run.returncode}")
        return False
    if b"\x1b" in run.stdout:
        print("check_bench_write_failure: the piped output carries ANSI escape codes")
        return False
    if not any(line.startswith(BENCHMARK.encode()) for line in run.stdout.splitlines()):
        print(f"check_bench_write_failure: no piped line starts with {BENCHMARK}")
        return False
    print(f"the piped output has a plain {BENCHMARK} row")
    return True


def write_failure_is_reported(bench):
    with tempfile.TemporaryDirectory() as cwd:
        os.symlink("/dev/full", os.path.join(cwd, "BENCH_link.json"))
        run = run_bench(bench, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = run.stderr.decode(errors="replace")
    if run.returncode == 0:
        print("check_bench_write_failure: the bench exited 0 although "
              "BENCH_link.json could not be written")
        return False
    if "could not write BENCH_link.json" not in stderr:
        print(f"check_bench_write_failure: the bench exited {run.returncode} "
              f"without naming BENCH_link.json:\n{stderr}")
        return False
    print(f"the bench exited {run.returncode} and named the path")
    return True


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bench = os.path.abspath(sys.argv[1])
    if not piped_rows_are_plain(bench):
        return 1
    if not os.path.exists("/dev/full"):
        print("check_bench_write_failure: no /dev/full here, write check skipped")
        return SKIPPED
    return 0 if write_failure_is_reported(bench) else 1


if __name__ == "__main__":
    sys.exit(main())
