#!/usr/bin/env python3
"""Diff two bench-trajectory documents (BENCH_*.json, schema 1 or 2).

Usage: bench_diff.py PREVIOUS.json CURRENT.json [--gate] [--slack=F]

Prints a per-benchmark table of ns/op and rng_draws/op deltas. Wall
clock on shared CI runners is noisy, so timing deltas are always
informational; rng_draws/op barely moves between runs, so a >2% shift
is flagged loudly: it means the hot path's draw structure itself
changed.

schema_version 2 documents additionally carry per-metric interval
estimates ({value, ci_low, ci_high, n_samples}). For those, drift is
classified as *statistically significant* when the previous and
current confidence intervals do not overlap even after widening both
by a slack factor (default 0.25 of the wider interval's half-width,
plus a tiny relative epsilon for deterministic zero-width metrics).

Exit status: 0 by default (the trajectory is a record). With --gate,
exits 1 when any metric drifted significantly — this is the CI
regression gate. Missing/unreadable/old-schema PREVIOUS is never an
error (baseline run of a new trajectory), and new or removed
benchmarks only inform. Neither is a PREVIOUS scenario report whose
meta.engine_revision differs from CURRENT's or is missing: the engine
changed the numbers on purpose (kEngineRevision), so the drift table
is printed but the gate re-baselines instead of failing.
"""

import json
import sys

# Interval widening applied before the overlap test: slack * the wider
# half-width. Absorbs chunk-granularity wobble in adaptive runs without
# hiding genuine regressions (a significant shift separates the
# intervals entirely).
DEFAULT_SLACK = 0.25

# Deterministic metrics (zero-width intervals at fixed seed) still
# wobble in the last few bits across compiler/libm versions; treat
# anything within this relative distance as identical.
REL_EPSILON = 1e-6


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_diff: cannot read {path}: {err}")
        return None
    if doc.get("schema_version") not in (1, 2):
        print(f"bench_diff: {path} has unknown schema_version, skipping diff")
        return None
    return doc


def engine_revision(doc):
    """meta.engine_revision of a scenario report; None when absent."""
    meta = doc.get("meta")
    return meta.get("engine_revision") if isinstance(meta, dict) else None


def interval(metric):
    """Normalises a schema-2 metric entry to (value, lo, hi) or None."""
    if not isinstance(metric, dict):
        # schema-1 style bare number: a zero-width interval.
        if isinstance(metric, (int, float)):
            return (float(metric), float(metric), float(metric))
        return None
    value = metric.get("value")
    if value is None:
        return None
    lo = metric.get("ci_low", value)
    hi = metric.get("ci_high", value)
    return (float(value), float(lo), float(hi))


def significant(prev, cur, slack):
    """True when the two interval estimates are incompatible."""
    pv, plo, phi = prev
    cv, clo, chi = cur
    pad = slack * max(phi - plo, chi - clo) / 2.0
    pad += REL_EPSILON * max(1.0, abs(pv), abs(cv))
    return clo - pad > phi + pad or chi + pad < plo - pad


def diff_metrics(name, prev_result, cur_result, slack, drifts):
    prev_metrics = prev_result.get("metrics", {})
    cur_metrics = cur_result.get("metrics", {})
    for key, cur_entry in cur_metrics.items():
        cur_iv = interval(cur_entry)
        prev_iv = interval(prev_metrics.get(key)) if key in prev_metrics else None
        if cur_iv is None or prev_iv is None:
            continue
        if significant(prev_iv, cur_iv, slack):
            detail = (
                f"{name} :: {key}: {prev_iv[0]:.6g} [{prev_iv[1]:.6g}, {prev_iv[2]:.6g}]"
                f" -> {cur_iv[0]:.6g} [{cur_iv[1]:.6g}, {cur_iv[2]:.6g}]"
            )
            drifts.append((name, key, detail))


def main():
    args = []
    gate = False
    slack = DEFAULT_SLACK
    for a in sys.argv[1:]:
        if a == "--gate":
            gate = True
        elif a.startswith("--slack="):
            try:
                slack = float(a.split("=", 1)[1])
            except ValueError:
                print(f"bench_diff: --slack needs a number, got '{a}'")
                return 2
        elif a.startswith("--"):
            # A mistyped option must never silently disable the gate.
            print(f"bench_diff: unknown option '{a}'")
            print(__doc__)
            return 2
        else:
            args.append(a)
    if len(args) != 2:
        print(__doc__)
        # A gated invocation that cannot even name its two documents
        # must not pass vacuously.
        return 2 if gate else 0
    prev, cur = load(args[0]), load(args[1])
    if cur is None:
        return 0
    if prev is None:
        print(f"bench_diff: no previous trajectory for {cur.get('binary')}; baseline run")
        return 0
    if prev.get("schema_version") != cur.get("schema_version"):
        # A schema bump re-baselines the trajectory: the producer's
        # semantics changed (e.g. adaptive budgets re-rolled every
        # stream), so cross-schema value comparisons are meaningless.
        print(
            f"bench_diff: schema changed ({prev.get('schema_version')} -> "
            f"{cur.get('schema_version')}); treating as baseline run"
        )
        return 0

    # Only scenario reports carry an engine revision; the microbench
    # trajectories (neither side has one) keep the plain comparison.
    cur_rev, prev_rev = engine_revision(cur), engine_revision(prev)
    rebaseline = cur_rev is not None and prev_rev != cur_rev
    if rebaseline:
        shown = "missing" if prev_rev is None else prev_rev
        print(
            f"bench_diff: engine revision changed ({shown} -> {cur_rev}); "
            "treating as baseline run, drift below is informational"
        )

    prev_by_name = {r["name"]: r for r in prev.get("results", [])}
    print(f"== {cur.get('binary')} (repro_scale {cur.get('config', {}).get('repro_scale')}) ==")
    print(f"{'benchmark':44s} {'prev ns/op':>12s} {'cur ns/op':>12s} {'delta':>8s}  draws/op")
    draw_changes = []
    drifts = []
    for r in cur.get("results", []):
        name = r["name"]
        p = prev_by_name.get(name)
        if p is None:
            print(f"{name:44s} {'-':>12s} {r['ns_per_op']:12.1f} {'new':>8s}")
            continue
        delta = "n/a"
        if p["ns_per_op"] > 0:
            delta = f"{100.0 * (r['ns_per_op'] - p['ns_per_op']) / p['ns_per_op']:+.1f}%"
        draws = ""
        if "rng_draws_per_op" in r or "rng_draws_per_op" in p:
            dp, dc = p.get("rng_draws_per_op"), r.get("rng_draws_per_op")
            fmt = lambda v: "-" if v is None else f"{v:.2f}"  # noqa: E731
            draws = f"{fmt(dp)} -> {fmt(dc)}"
            # draws/op is an average over a timing-chosen iteration
            # count, so the low decimals flutter between runs; only a
            # material shift means the draw structure itself changed.
            if (dp is None) != (dc is None) or (
                dp is not None and dc is not None and abs(dc - dp) > 0.02 * max(dp, dc)
            ):
                draw_changes.append((name, fmt(dp), fmt(dc)))
        print(f"{name:44s} {p['ns_per_op']:12.1f} {r['ns_per_op']:12.1f} {delta:>8s}  {draws}")
        diff_metrics(name, p, r, slack, drifts)
    for name in prev_by_name.keys() - {r["name"] for r in cur.get("results", [])}:
        print(f"{name:44s} (removed)")
    if draw_changes:
        print("\nNOTE: rng_draws/op shifted by >2% (the hot path's draw structure changed):")
        for name, dp, dc in draw_changes:
            print(f"  {name}: {dp} -> {dc}")
    if drifts:
        print("\nSTATISTICALLY SIGNIFICANT metric drift (confidence intervals disjoint"
              f" at slack {slack}):")
        for _, _, detail in drifts:
            print(f"  {detail}")
        if gate and rebaseline:
            print("bench_diff: --gate set, but the engine revision changed: baseline run")
        elif gate:
            # Name every failing metric/point pair in the gate verdict:
            # the CI log's last lines must say WHAT regressed, not just
            # that something did.
            for name, key, _ in drifts:
                print(f"bench_diff: FAILED metric '{key}' at '{name}'")
            print(f"bench_diff: --gate set, failing on {len(drifts)} significant drift(s)")
            return 1
    elif gate:
        print("\nbench_diff: no statistically significant metric drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
