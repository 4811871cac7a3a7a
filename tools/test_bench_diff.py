#!/usr/bin/env python3
"""Self-test for tools/bench_diff.py's statistical gate.

Run directly (python3 tools/test_bench_diff.py) or via ctest
(bench_diff_selftest). Builds synthetic schema-2 trajectory documents
and checks the gate's contract: in-interval noise passes, an
out-of-interval regression fails, baselines, old schemas and engine
revision changes never fail.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py")


def doc(ser, lo, hi, schema=2, name="link_jitter/jitter_ps=40", goodput=1.25e9,
        revision=9):
    meta = {"git_sha": "deadbeef", "threads": 2, "compiler": "gcc 12"}
    if revision is not None:
        meta["engine_revision"] = revision
    d = {
        "schema_version": schema,
        "binary": "scenario_link_jitter",
        "config": {"repro_scale": 1.0, "seed": 7, "topology": "point-to-point",
                   "adaptive": True},
        "meta": meta,
        "results": [
            {
                "name": name,
                "ns_per_op": 512.0,
                "iterations": 4000,
                "chunks": 4,
                "rng_draws_per_op": 11.0,
                "metrics": {
                    "ser": {"value": ser, "ci_low": lo, "ci_high": hi,
                            "n_samples": 4000},
                    # Deterministic zero-width metric: exercises the
                    # relative-epsilon path.
                    "goodput_bps": {"value": goodput, "ci_low": goodput,
                                    "ci_high": goodput, "n_samples": 4000},
                },
            }
        ],
    }
    return d


def write(tmp, filename, document):
    path = os.path.join(tmp, filename)
    with open(path, "w") as f:
        json.dump(document, f)
    return path


def run(prev, cur, *flags):
    r = subprocess.run(
        [sys.executable, BENCH_DIFF, prev, cur, *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    return r.returncode, r.stdout


def check(label, got, want):
    if got != want:
        raise AssertionError(f"{label}: expected exit {want}, got {got}")
    print(f"ok: {label}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        baseline = write(tmp, "prev.json", doc(0.020, 0.016, 0.025))

        # Noise: the point estimate moved but the intervals overlap.
        noise = write(tmp, "noise.json", doc(0.022, 0.018, 0.027))
        check("in-interval noise passes the gate", run(baseline, noise, "--gate")[0], 0)

        # Regression: intervals fully disjoint even after slack.
        regression = write(tmp, "regress.json", doc(0.080, 0.072, 0.089))
        code, out = run(baseline, regression, "--gate")
        check("out-of-interval regression fails the gate", code, 1)
        if "STATISTICALLY SIGNIFICANT" not in out:
            raise AssertionError(f"gate failure must name the drifted metric:\n{out}")
        # The gate verdict itself must name the failing metric/point
        # pair -- the tail of a CI log has to say WHAT regressed.
        if "bench_diff: FAILED metric 'ser' at 'link_jitter/jitter_ps=40'" not in out:
            raise AssertionError(f"gate verdict must name the metric and point:\n{out}")
        print("ok: gate verdict names the failing metric/point pair")
        check("same regression is informational without --gate",
              run(baseline, regression)[0], 0)

        # Deterministic metric: last-bit FP wobble passes, a real change fails.
        wobble = write(tmp, "wobble.json",
                       doc(0.020, 0.016, 0.025, goodput=1.25e9 * (1 + 1e-9)))
        check("zero-width FP wobble passes", run(baseline, wobble, "--gate")[0], 0)
        shifted = write(tmp, "shifted.json", doc(0.020, 0.016, 0.025, goodput=1.5e9))
        check("zero-width real change fails", run(baseline, shifted, "--gate")[0], 1)

        # Baseline situations never fail, even gated.
        check("missing previous is a baseline",
              run(os.path.join(tmp, "absent.json"), noise, "--gate")[0], 0)
        old = write(tmp, "old.json", doc(0.020, 0.016, 0.025, schema=99))
        check("unknown previous schema is a baseline", run(old, noise, "--gate")[0], 0)
        # The schema-1 -> schema-2 transition re-baselines even with
        # wildly different values: the producer's semantics changed.
        schema1 = write(tmp, "schema1.json", doc(0.9, 0.9, 0.9, schema=1))
        check("schema bump is a baseline", run(schema1, regression, "--gate")[0], 0)

        # An engine-revision bump moves numbers on purpose: the drift
        # table still prints, but the gate re-baselines. A previous
        # report written before the field existed counts as a change.
        for label, prev_revision in (("engine revision change", 8),
                                     ("missing previous engine revision", None)):
            older = write(tmp, "older.json", doc(0.020, 0.016, 0.025, revision=prev_revision))
            code, out = run(older, regression, "--gate")
            check(f"{label} is a baseline", code, 0)
            if "STATISTICALLY SIGNIFICANT" not in out or "baseline run" not in out:
                raise AssertionError(f"{label}: drift table and baseline note expected:\n{out}")
        # Documents without the field on both sides (the microbench
        # trajectories) keep the plain gate.
        unrevised = write(tmp, "unrevised.json", doc(0.020, 0.016, 0.025, revision=None))
        unrevised_regression = write(tmp, "unrevised_regress.json",
                                     doc(0.080, 0.072, 0.089, revision=None))
        check("no engine revision on either side still gates",
              run(unrevised, unrevised_regression, "--gate")[0], 1)

        # Mistyped options must fail loudly, not silently un-gate.
        check("unknown option is an error", run(baseline, noise, "--gate=1")[0], 2)
        check("garbled slack is an error", run(baseline, noise, "--slack=abc")[0], 2)
        check("gated run with a missing document is an error",
              run(baseline, "--gate")[0], 2)

        # A new benchmark in the current run only informs.
        renamed = write(tmp, "renamed.json",
                        doc(0.020, 0.016, 0.025, name="link_jitter/jitter_ps=80"))
        check("new/removed benchmarks pass the gate",
              run(baseline, renamed, "--gate")[0], 0)

    print("bench_diff self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
