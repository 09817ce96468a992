#!/usr/bin/env python3
"""Summarize perfbench runs into one committed BENCH_<workload>.json.

Usage: scripts/bench_snapshot.py [--out-dir DIR] [--repo DIR] [WORKLOAD ...]

Reads every `.perfbench_out/result-<workload>-seed<n>-trace<t>.json` that
`perfbench/run.py` left in DIR (default: the repository root) and writes
`BENCH_<workload>.json` at the repository root, one per workload (default:
every workload that has results). Each file holds, per metric, the median,
the quartiles and the interquartile range over the runs, plus the runs'
host fingerprint and the git commit the runs were taken at (HEAD, suffixed
`-dirty` when src/ or perfbench/ differ from it; the fingerprint's
`source` hash names the exact tree either way).

Untraced runs (trace0) give the end-to-end metrics; traced runs (trace1),
when present, give the per-layer metrics. Runs of one workload must share a
host fingerprint, and a run whose results were not all correct is refused:
a snapshot only summarizes clean runs.

Two snapshots are compared with scripts/bench_report.py, whose gate fails
only on an end-to-end regression beyond its BENCHMARK.json bound, e.g.
  scripts/bench_report.py OLD/BENCH_join_spill.json BENCH_join_spill.json \\
      --gate BENCHMARK.json
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

RESULT_RE = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)"
                       r"-trace(?P<trace>[01])\.json$")


def quartiles(values):
    """(q1, median, q3) with the inclusive method, so n = 1 works too."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_units(repo):
    """{metric: unit} from BENCHMARK.json (result files carry bare values)."""
    try:
        with open(os.path.join(repo, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("unit", "")
            for key in ("end_to_end", "per_layer") for m in bench.get(key, [])}


def summarize(runs, units):
    """{metric: {median, q1, q3, iqr, n, unit}} over the runs' metrics."""
    values = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(name, []).append(float(value))
    out = {}
    for name in sorted(values):
        q1, median, q3 = quartiles(sorted(values[name]))
        out[name] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                     "n": len(values[name]), "unit": units.get(name, "")}
    return out


def git_sha(repo):
    try:
        sha = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", repo, "status", "--porcelain",
                                "--", "src", "perfbench"],
                               check=True, capture_output=True,
                               text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def load_runs(out_dir):
    """{workload: {trace: [run, ...]}} from the result files in out_dir."""
    runs = {}
    pattern = os.path.join(out_dir, ".perfbench_out", "result-*.json")
    for path in sorted(glob.glob(pattern)):
        match = RESULT_RE.search(os.path.basename(path))
        if match is None:
            continue
        with open(path) as f:
            run = json.load(f)
        run["_path"] = path
        runs.setdefault(match["workload"], {}).setdefault(
            int(match["trace"]), []).append(run)
    return runs


def snapshot(workload, by_trace, sha, units):
    all_runs = [run for runs in by_trace.values() for run in runs]
    bad = [run["_path"] for run in all_runs if not run.get("correct")]
    if bad:
        raise ValueError(f"{workload}: runs with wrong results: {bad}")
    hosts = {json.dumps(run["host"], sort_keys=True) for run in all_runs}
    if len(hosts) != 1:
        raise ValueError(f"{workload}: runs come from different hosts or "
                         f"sources: {sorted(hosts)}")
    doc = {
        "workload": workload,
        "git_sha": sha,
        "host": all_runs[0]["host"],
        "seconds_per_run": all_runs[0].get("seconds"),
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runs = by_trace.get(trace, [])
        if runs:
            doc[key] = {"runs": len(runs),
                        "seeds": sorted(run["seed"] for run in runs),
                        "metrics": summarize(runs, units)}
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        help="workloads to snapshot (default: all found)")
    parser.add_argument("--out-dir", default=None,
                        help="directory holding .perfbench_out "
                             "(default: the repository root)")
    parser.add_argument("--repo", default=None,
                        help="repository root to write BENCH_*.json into")
    args = parser.parse_args()

    repo = args.repo or os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))
    runs = load_runs(args.out_dir or repo)
    workloads = args.workloads or sorted(runs)
    if not workloads:
        print("bench_snapshot: no perfbench results found", file=sys.stderr)
        return 1
    sha = git_sha(repo)
    units = metric_units(repo)
    for workload in workloads:
        if workload not in runs:
            print(f"bench_snapshot: no results for {workload}",
                  file=sys.stderr)
            return 1
        try:
            doc = snapshot(workload, runs[workload], sha, units)
        except ValueError as exc:
            print(f"bench_snapshot: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(repo, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
