#!/usr/bin/env python3
"""A bench whose trajectory document cannot be written must fail.

Usage: check_bench_write_failure.py BENCH_LINK_ENGINE

Runs bench_link_engine's BM_SampleAndDecodeFused in an empty temporary
directory whose BENCH_link.json is a symlink to /dev/full, so the
document's bytes cannot land. The run must exit nonzero and name the
path on stderr (bench/support/bench_json.hpp); exiting 0 would let CI
upload an earlier document as this run's. No --benchmark_min_time is
passed, because Google Benchmark 1.7 and 1.8 spell its value
differently.

Exit status: 0 when the failure is reported, 1 when it is not, 77
(skipped) where /dev/full does not exist.
"""

import os
import subprocess
import sys
import tempfile

SKIPPED = 77


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if not os.path.exists("/dev/full"):
        print("check_bench_write_failure: no /dev/full here, skipped")
        return SKIPPED
    with tempfile.TemporaryDirectory() as cwd:
        os.symlink("/dev/full", os.path.join(cwd, "BENCH_link.json"))
        run = subprocess.run([sys.argv[1], "--benchmark_filter=BM_SampleAndDecodeFused"],
                             cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             timeout=120)
    stderr = run.stderr.decode(errors="replace")
    if run.returncode == 0:
        print("check_bench_write_failure: the bench exited 0 although "
              "BENCH_link.json could not be written")
        return 1
    if "could not write BENCH_link.json" not in stderr:
        print(f"check_bench_write_failure: the bench exited {run.returncode} "
              f"without naming BENCH_link.json:\n{stderr}")
        return 1
    print(f"the bench exited {run.returncode} and named the path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
