#!/usr/bin/env python3
"""Compare two sets of BENCH_<id>.json perf reports.

Usage:
  scripts/bench_diff.py [options] BASELINE CURRENT
  scripts/bench_diff.py --speedup [--min-speedup X] REPORT

BASELINE and CURRENT are directories holding BENCH_*.json files (as
written by the bench binaries via DXREC_BENCH_JSON_DIR), or two
individual .json files. Rows are matched per experiment:

  - google-benchmark rows ({"name", "real_time", "time_unit", ...})
    match on "name"; the compared metric is real_time, normalized to ms.
  - experiment rows ({"p": 2, "q": 2, ..., "time_ms": 0.28}) match on
    every field that is not a timing output; the metric is time_ms.

The thread count is part of a row's identity ("threads" field, or a
"/threads:N" token in a google-benchmark name), so a threads:4 row is
only ever compared against a threads:4 baseline — a parallel speedup can
never be misread as a single-thread regression, nor a multi-thread
regression be hidden by comparing against a slower sequential baseline.
Two transition cases are handled explicitly: current threads:1 rows fall
back to a pre-threads-dimension baseline row (same identity, no threads
field), and threads>1 rows with no baseline partner are reported as new
parallel rows rather than counted unmatched.

A row regresses when current > baseline * (1 + --threshold). A row
recorded with --benchmark_repetitions carries its median as real_time
and the distance between its quartiles as real_time_iqr; when either
side has one, the larger IQR is the row's noise band instead: the row
regresses when current > baseline + band and improves when current <
baseline - band. Rows where both sides are under --min-time-ms are
skipped as noise. Exit status is 1 when any regression is found, unless
--warn-only.

--speedup takes a single report and, for every row group differing only
in thread count, prints real_time(threads=1) / real_time(threads=N).
With --min-speedup X the exit status is 1 unless every such pair reaches
X (this is the gate for the multithreaded BENCH_E8 snapshot).
"""

import argparse
import json
import os
import re
import sys

# Output fields excluded from the row identity for experiment rows.
TIMING_KEYS = {"time_ms", "real_time", "cpu_time", "iterations",
               "time_unit", "real_time_iqr", "repetitions"}

THREADS_RE = re.compile(r"/threads:(\d+)")

TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def load_reports(path):
    """Returns {filename: parsed json} for a directory or single file."""
    reports = {}
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path)
                       if n.startswith("BENCH_") and n.endswith(".json"))
        paths = [(n, os.path.join(path, n)) for n in names]
    else:
        paths = [(os.path.basename(path), path)]
    for name, p in paths:
        try:
            with open(p) as f:
                reports[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: skipping {p}: {e}", file=sys.stderr)
    return reports


def row_key(row):
    if "name" in row:
        return ("name", row["name"])
    items = tuple(sorted((k, json.dumps(v, sort_keys=True))
                         for k, v in row.items() if k not in TIMING_KEYS))
    return items


def row_threads(row):
    """Thread count encoded in the row identity, or None."""
    if "name" in row:
        m = THREADS_RE.search(row["name"])
        return int(m.group(1)) if m else None
    t = row.get("threads")
    return int(t) if t is not None else None


def sequential_key(row):
    """Row identity with the threads dimension removed."""
    if "name" in row:
        return ("name", THREADS_RE.sub("", row["name"]))
    items = tuple(sorted((k, json.dumps(v, sort_keys=True))
                         for k, v in row.items()
                         if k not in TIMING_KEYS and k != "threads"))
    return items


def row_time_ms(row):
    if "time_ms" in row:
        return float(row["time_ms"])
    if "real_time" in row:
        scale = TIME_UNIT_TO_MS.get(row.get("time_unit", "ns"), 1e-6)
        return float(row["real_time"]) * scale
    return None


def row_iqr_ms(row):
    """The row's real_time IQR in ms, or None for a single run."""
    if "real_time_iqr" not in row:
        return None
    scale = TIME_UNIT_TO_MS.get(row.get("time_unit", "ns"), 1e-6)
    return float(row["real_time_iqr"]) * scale


def key_label(key):
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "name":
        return key[1]
    return " ".join(f"{k}={json.loads(v)}" for k, v in key)


def diff_experiment(name, base, cur, threshold, min_time_ms):
    """Compares one report pair; returns (regressions, improvements,
    compared, unmatched, new_parallel) where the first two are printable
    strings."""
    base_rows = {}
    # Pre-threads-dimension fallback: a baseline row without a threads
    # field stands in for the current threads:1 row of the same identity.
    base_seq = {}
    for row in base.get("rows", []):
        t = row_time_ms(row)
        if t is None:
            continue
        base_rows[row_key(row)] = (t, row_iqr_ms(row))
        if row_threads(row) is None:
            base_seq.setdefault(sequential_key(row), row_key(row))
    regressions, improvements = [], []
    compared = 0
    unmatched = 0
    new_parallel = 0
    for row in cur.get("rows", []):
        t = row_time_ms(row)
        if t is None:
            continue
        key = row_key(row)
        if key not in base_rows:
            threads = row_threads(row)
            fallback = (base_seq.get(sequential_key(row))
                        if threads == 1 else None)
            if fallback in base_rows:
                key = fallback
            elif threads is not None and threads > 1:
                new_parallel += 1  # new thread count: nothing to diff
                continue
            else:
                unmatched += 1
                continue
        b, base_iqr = base_rows.pop(key)
        if b < min_time_ms and t < min_time_ms:
            continue  # both under the noise floor
        compared += 1
        delta = (t - b) / b if b > 0 else float("inf")
        line = (f"{key_label(row_key(row))}: {b:.3f}ms -> {t:.3f}ms "
                f"({delta:+.1%})")
        iqrs = [q for q in (base_iqr, row_iqr_ms(row)) if q is not None]
        if iqrs:
            band = max(iqrs)
            line += f" [IQR band {band:.3f}ms]"
            regressed, improved = t - b > band, b - t > band
        else:
            regressed, improved = delta > threshold, delta < -threshold
        if regressed:
            regressions.append(line)
        elif improved:
            improvements.append(line)
    unmatched += len(base_rows)  # baseline rows with no current partner
    return regressions, improvements, compared, unmatched, new_parallel


def speedup_report(reports, min_speedup):
    """Prints threads=1 vs threads=N speedups per row group; returns the
    number of pairs below min_speedup (and fails when gating finds no
    pairs at all)."""
    below = 0
    pairs = 0
    for name in sorted(reports):
        groups = {}
        for row in reports[name].get("rows", []):
            t = row_time_ms(row)
            threads = row_threads(row)
            if t is None or threads is None:
                continue
            groups.setdefault(sequential_key(row), {})[threads] = t
        for key in sorted(groups, key=key_label):
            by_threads = groups[key]
            if 1 not in by_threads:
                continue
            t1 = by_threads[1]
            for threads in sorted(by_threads):
                if threads == 1:
                    continue
                pairs += 1
                tn = by_threads[threads]
                s = t1 / tn if tn > 0 else float("inf")
                line = (f"{name} {key_label(key)}: threads=1 {t1:.3f}ms"
                        f" -> threads={threads} {tn:.3f}ms = {s:.2f}x")
                if min_speedup is not None and s < min_speedup:
                    below += 1
                    print(f"  BELOW TARGET ({min_speedup:.2f}x) {line}")
                else:
                    print(f"  {line}")
    if pairs == 0:
        print("bench_diff: no threads=1 vs threads=N row pairs found",
              file=sys.stderr)
        return 1 if min_speedup is not None else 0
    return below


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?",
                        help="omitted in --speedup mode")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative slowdown treated as a regression "
                             "on rows without an IQR (default 0.10 = "
                             "10%%)")
    parser.add_argument("--min-time-ms", type=float, default=1.0,
                        help="skip rows where both sides are faster than "
                             "this (noise floor, default 1.0)")
    parser.add_argument("--warn-only", action="store_true",
                        help="always exit 0; print regressions as warnings")
    parser.add_argument("--speedup", action="store_true",
                        help="report threads=1 vs threads=N speedups "
                             "within a single report set")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="with --speedup, fail unless every pair "
                             "reaches this factor")
    args = parser.parse_args()

    if args.speedup:
        if args.current is not None:
            parser.error("--speedup takes a single report set")
        reports = load_reports(args.baseline)
        if not reports:
            print("bench_diff: nothing to report", file=sys.stderr)
            return 1 if args.min_speedup is not None else 0
        below = speedup_report(reports, args.min_speedup)
        if below and not args.warn_only:
            return 1
        return 0
    if args.current is None:
        parser.error("CURRENT is required (unless --speedup)")

    base_reports = load_reports(args.baseline)
    cur_reports = load_reports(args.current)
    if not base_reports or not cur_reports:
        print("bench_diff: nothing to compare", file=sys.stderr)
        return 0  # an empty side is not a regression

    total_regressions = 0
    for name in sorted(cur_reports):
        if name not in base_reports:
            print(f"{name}: new report (no baseline)")
            continue
        regs, imps, compared, unmatched, new_parallel = diff_experiment(
            name, base_reports[name], cur_reports[name],
            args.threshold, args.min_time_ms)
        total_regressions += len(regs)
        summary = (f"{name}: {compared} rows compared, "
                   f"{len(regs)} regressions, {len(imps)} improvements")
        if new_parallel:
            summary += f", {new_parallel} new parallel rows"
        if unmatched:
            summary += f", {unmatched} unmatched"
        print(summary)
        for line in regs:
            print(f"  REGRESSION {line}")
        for line in imps:
            print(f"  improved   {line}")
    for name in sorted(set(base_reports) - set(cur_reports)):
        print(f"{name}: report disappeared from current run")

    if total_regressions and not args.warn_only:
        print(f"bench_diff: {total_regressions} regression(s) beyond "
              f"the noise band (IQR, or +{args.threshold:.0%})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
