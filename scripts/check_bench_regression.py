#!/usr/bin/env python3
"""Gate BENCH_*.json files against checked-in baselines.

Closes the ROADMAP item "Regression gating on BENCH JSON": instead of
only uploading bench artifacts, CI compares each run's BENCH_*.json
(the schema-1 format written by bench/common.h's BenchReport) against
a baseline committed under scripts/bench_baselines/ and fails on drift.

Comparison policy, per metric (keyed by name + config):

  - deterministic units (miss rates, record counts, survival %, ...):
    exact match — the simulator is deterministic, so any drift is a
    behavior change that must be explained by updating the baseline;
  - wall-clock / throughput units (us, ms, s, MB/s, records/s, x):
    within a relative band (default +-60%), because CI hardware varies;
    a baseline metric may carry its own "band" field to widen or
    tighten this (recovery-latency percentiles use a wide one).

A baseline metric missing from the run fails (a bench silently dropped
coverage); a run metric missing from the baseline is only a warning
(new coverage awaiting `--update`).

Usage:
  check_bench_regression.py [--baselines DIR] FILE_OR_DIR...
  check_bench_regression.py --update [--baselines DIR] FILE_OR_DIR...

A file named on the command line must be a readable schema-1 report with
a baseline; files in a named directory that are not are skipped with a
note. Exit codes: 0 clean, 1 drift/missing-metric, 2 usage, unreadable
input, a named report without a baseline, or no report gated.
"""

import argparse
import json
import os
import sys

# Units whose values depend on the machine running the bench. "pct"
# covers sampled phase-breakdown shares (obs/spans.h profiler), which
# shift with host timing just like raw wall-clock numbers.
BANDED_UNITS = {"us", "ms", "s", "MB/s", "records/s", "x", "/s", "pct"}
DEFAULT_BAND = 0.60


def metric_key(metric):
    config = metric.get("config") or {}
    return (metric["name"], tuple(sorted(config.items())))


def load_report(path):
    """Returns (report dict, None) or (None, reason-to-skip)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return None, f"unreadable ({err})"
    if not isinstance(data, dict) or data.get("schema") != 1:
        return None, "not a schema-1 bench report"
    if "bench" not in data or not isinstance(data.get("metrics"), list):
        return None, "missing bench/metrics fields"
    return data, None


def collect_inputs(paths):
    """Returns [(path, named)]: named is True for a file given by name."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.startswith("BENCH_") and name.endswith(".json"):
                    files.append((os.path.join(path, name), False))
        else:
            files.append((path, True))
    return files


def exact(value):
    """A value as it compares: every digit, so a change always shows."""
    return repr(int(value)) if value.is_integer() else repr(value)


def compare(report, baseline, label):
    """Returns a list of failure strings (empty = clean)."""
    failures = []
    current = {metric_key(m): m for m in report["metrics"]}
    for base in baseline["metrics"]:
        key = metric_key(base)
        got = current.pop(key, None)
        pretty = base["name"] + (
            " " + dict(key[1]).__repr__() if key[1] else "")
        if got is None:
            failures.append(f"{label}: metric disappeared: {pretty}")
            continue
        want, have = float(base["value"]), float(got["value"])
        unit = base.get("unit", "")
        if unit in BANDED_UNITS:
            band = float(base.get("band", DEFAULT_BAND))
            ref = max(abs(want), 1e-12)
            drift = abs(have - want) / ref
            if drift > band:
                failures.append(
                    f"{label}: {pretty}: {have:g} {unit} drifted "
                    f"{drift:+.0%} from baseline {want:g} "
                    f"(band +-{band:.0%})")
        else:
            if have != want:
                failures.append(
                    f"{label}: {pretty}: exact-match metric changed: "
                    f"{exact(want)} -> {exact(have)} {unit} "
                    "(update the baseline if intended)")
    for key in current:
        print(f"note: {label}: new metric not in baseline: {key[0]} "
              f"{dict(key[1]) if key[1] else ''} (run --update to adopt)")
    return failures


def update_baseline(report, base_path):
    """Writes/refreshes a baseline, preserving per-metric band overrides."""
    old_bands = {}
    old, skip = load_report(base_path)
    if old is not None:
        for m in old["metrics"]:
            if "band" in m:
                old_bands[metric_key(m)] = m["band"]
    slim = {
        "bench": report["bench"],
        "schema": 1,
        "metrics": [],
    }
    for m in report["metrics"]:
        entry = {
            "name": m["name"],
            "value": m["value"],
            "unit": m.get("unit", ""),
            "config": m.get("config") or {},
        }
        if metric_key(m) in old_bands:
            entry["band"] = old_bands[metric_key(m)]
        slim["metrics"].append(entry)
    os.makedirs(os.path.dirname(base_path), exist_ok=True)
    with open(base_path, "w", encoding="utf-8") as f:
        json.dump(slim, f, indent=2)
        f.write("\n")
    print(f"updated {base_path}")


def main():
    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json against checked-in baselines.")
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "bench_baselines"),
        help="baseline directory (default: scripts/bench_baselines)")
    parser.add_argument("--update", "--update-baselines",
                        action="store_true", dest="update",
                        help="write current results as the new baseline")
    parser.add_argument("inputs", nargs="+",
                        help="BENCH_*.json files or directories of them")
    args = parser.parse_args()

    files = collect_inputs(args.inputs)
    if not files:
        print("error: no BENCH_*.json inputs found", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    regressed = []  # bench names with at least one failure, in order
    for path, named in files:
        report, skip = load_report(path)
        if report is None and named:
            print(f"error: {path}: {skip}", file=sys.stderr)
            return 2
        if report is None:
            print(f"skip: {path}: {skip}")
            continue
        base_path = os.path.join(args.baselines,
                                 f"BENCH_{report['bench']}.json")
        if args.update:
            update_baseline(report, base_path)
            continue
        baseline, skip = load_report(base_path)
        if baseline is None and named:
            print(f"error: {path}: no baseline ({base_path}: {skip})",
                  file=sys.stderr)
            return 2
        if baseline is None:
            print(f"skip: {path}: no baseline ({base_path}: {skip}); "
                  "adopt with --update")
            continue
        checked += 1
        bench_failures = compare(report, baseline, report["bench"])
        if bench_failures:
            regressed.append(report["bench"])
        failures.extend(bench_failures)

    if args.update:
        return 0
    if checked == 0:
        print("error: no report was gated", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        # Every regressing bench is reported in one run, so one CI pass
        # shows the full damage instead of one bench per attempt.
        print(f"bench regression gate: {len(regressed)} of {checked} "
              f"bench(es) regressed: {', '.join(regressed)}",
              file=sys.stderr)
        return 1
    print(f"bench regression gate: {checked} report(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
