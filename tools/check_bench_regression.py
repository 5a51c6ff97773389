#!/usr/bin/env python3
"""Perf-regression gate over BENCH_micro.json.

Compares a freshly measured bench JSON (schema cspls-bench-micro/3) against
the committed baseline and fails if any kernel's *speedup ratio*
(reference-path seconds / kernel-path seconds) regressed by more than the
threshold.  The ratio is a dimensionless per-iteration cost ratio measured
inside one binary on one machine, so it transfers across hosts far better
than raw iterations/sec — the gate deliberately never compares absolute
throughput.

Usage: check_bench_regression.py FRESH BASELINE [--threshold 0.25]
"""

import argparse
import json
import sys

SCHEMA = "cspls-bench-micro/3"


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read bench file: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON: {e}")
    if not isinstance(data, dict):
        sys.exit(f"{path}: expected a JSON object, got {type(data).__name__}")
    schema = data.get("schema", "")
    if schema != SCHEMA:
        sys.exit(
            f"{path}: unexpected schema {schema!r} (expected {SCHEMA!r}); "
            "re-measure with the current bench_micro_solver"
        )
    return data


def by_instance(data, path):
    results = data.get("results", [])
    if not isinstance(results, list) or not all(
        isinstance(r, dict) and "instance" in r for r in results
    ):
        sys.exit(
            f"{path}: \"results\" must be a list of objects with an "
            "\"instance\" member"
        )
    if not results:
        sys.exit(f"{path}: \"results\" is empty — nothing to gate")
    return {r["instance"]: r for r in results}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated relative drop in a speedup ratio (default "
        "0.25, i.e. fresh must stay above 75%% of the baseline ratio)",
    )
    args = ap.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)
    fresh_by = by_instance(fresh, args.fresh)
    base_by = by_instance(base, args.baseline)

    failures = []
    rows = []
    for instance, b in base_by.items():
        f = fresh_by.get(instance)
        if f is None:
            renamed = sorted(set(fresh_by) - set(base_by))
            hint = (
                f" (fresh-only instances, possible rename: {', '.join(renamed)})"
                if renamed
                else ""
            )
            failures.append(f"{instance}: missing from fresh results{hint}")
            continue
        if not f.get("paths_agree", False):
            failures.append(f"{instance}: hot paths diverged")
        b_ratio = b.get("speedup", 0.0)
        f_ratio = f.get("speedup", 0.0)
        if not isinstance(b_ratio, (int, float)) or not isinstance(
            f_ratio, (int, float)
        ):
            failures.append(
                f"{instance}: speedup is not numeric "
                f"(base {b_ratio!r}, fresh {f_ratio!r})"
            )
            continue
        if b_ratio <= 0:
            failures.append(
                f"{instance}: baseline speedup is {b_ratio} — a zero or "
                "negative baseline ratio gates nothing; re-measure the "
                "baseline"
            )
            continue
        rel = f_ratio / b_ratio
        ok = rel >= 1.0 - args.threshold
        rows.append((instance, b_ratio, f_ratio, rel, ok))
        if not ok:
            failures.append(
                f"{instance}: speedup regressed {b_ratio:.2f}x -> "
                f"{f_ratio:.2f}x ({rel:.0%} of baseline)"
            )

    width = max((len(r[0]) for r in rows), default=8)
    print(f"{'instance':<{width}}  {'base':>6} {'fresh':>6} {'rel':>5}")
    for instance, b_ratio, f_ratio, rel, ok in rows:
        mark = "ok" if ok else "FAIL"
        print(f"{instance:<{width}}  {b_ratio:>5.2f}x {f_ratio:>5.2f}x "
              f"{rel:>4.0%}  {mark}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: {len(rows)} ratios within {args.threshold:.0%} of baseline")


if __name__ == "__main__":
    main()
