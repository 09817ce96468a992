#!/usr/bin/env python3
"""Diff two bench result files (results/<bench>.json or BENCH_*.json).

Usage: scripts/bench_report.py OLD.json NEW.json [--threshold PCT]
                               [--fail-above PCT] [--gate BENCHMARK.json]
       scripts/bench_report.py --self-test

Walks both documents, pairs every numeric leaf by its JSON path, and prints
the ones that moved by more than --threshold percent (default 2), plus any
path present on only one side. Exit code 0 by default — the report is
informational.

With --fail-above PCT the report becomes a gate: exit code 2 when any
shared numeric leaf moved by more than PCT percent in either direction
(CI uses this to catch silent perf/behavior drift between paired runs of
the same bench; missing-on-one-side paths stay informational since benches
legitimately grow new counters).

Works on any file bench::WriteResultsJson produces: the envelope is
{"bench", "options", ...payload...} and QueryProfile counters are flat
dotted keys, so paths line up mechanically between runs of the same bench.

--gate BENCHMARK.json is the performance gate for two BENCH_<workload>.json
snapshots (scripts/bench_snapshot.py): it reads the benchmark's end-to-end
metrics, each with its `better` direction and `bound` (a fraction), and
exits 2 when a snapshot median got worse by more than its bound. Gains pass
and quartile/IQR moves stay informational. BENCHMARK.json is only read.
"""

import argparse
import json
import sys


def numeric_leaves(node, path, out):
    """Flattens node into {path: float} for every numeric leaf."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        out[path] = float(node)
    elif isinstance(node, dict):
        for key, value in node.items():
            numeric_leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            numeric_leaves(value, f"{path}[{i}]", out)


def gate(old_doc, new_doc, spec):
    """Checks the end-to-end medians of two BENCH snapshots against the
    bounds of a BENCHMARK.json spec. Returns (report lines, failures)."""
    old_metrics = old_doc.get("end_to_end", {}).get("metrics", {})
    new_metrics = new_doc.get("end_to_end", {}).get("metrics", {})
    lines, failures = [], []
    for metric in spec.get("end_to_end", []):
        name, bound = metric["name"], metric["bound"]
        if name not in old_metrics or name not in new_metrics:
            failures.append(name)
            lines.append(f"  {name:<14} missing from a snapshot  FAIL")
            continue
        old_v = old_metrics[name]["median"]
        new_v = new_metrics[name]["median"]
        change = (new_v - old_v) / abs(old_v) if old_v else 0.0
        worse = -change if metric["better"] == "higher" else change
        verdict = "FAIL" if worse > bound else "ok"
        if verdict == "FAIL":
            failures.append(name)
        lines.append(f"  {name:<14} {old_v:>14g} -> {new_v:>14g}  "
                     f"({change * 100:+.1f}%, {metric['better']} is better, "
                     f"bound {bound * 100:g}%)  {verdict}")
    return lines, failures


def self_test():
    """Synthetic before/after snapshots: a big gain and a move within the
    bound pass, a regression past the bound in either direction fails, and
    a quartile move with equal medians is ignored."""
    spec = {"end_to_end": [
        {"name": "rows_per_s", "better": "higher", "bound": 0.24},
        {"name": "query_p50_s", "better": "lower", "bound": 0.24}]}

    def snapshot(rows, p50, spread=0.1):
        return {"end_to_end": {"metrics": {
            name: {"median": v, "q1": v * (1 - spread),
                   "q3": v * (1 + spread), "iqr": 2 * spread * v}
            for name, v in (("rows_per_s", rows), ("query_p50_s", p50))}}}

    before = snapshot(100.0, 1.0)
    cases = [
        ("big gain", snapshot(169.0, 0.59), []),
        ("within bound", snapshot(80.0, 1.2), []),
        ("throughput regression", snapshot(70.0, 1.0), ["rows_per_s"]),
        ("latency regression", snapshot(100.0, 1.3), ["query_p50_s"]),
        ("quartile move", snapshot(100.0, 1.0, spread=0.8), []),
        ("missing metric", {"end_to_end": {"metrics": {}}},
         ["rows_per_s", "query_p50_s"]),
    ]
    for label, after, expected in cases:
        _, failures = gate(before, after, spec)
        if failures != expected:
            print(f"bench_report self-test: {label}: gate failed {failures}, "
                  f"expected {expected}", file=sys.stderr)
            return 1
    print(f"bench_report self-test ok ({len(cases)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="report changes above this percentage")
    parser.add_argument("--fail-above", type=float, default=None,
                        metavar="PCT",
                        help="exit 2 if any shared numeric leaf moved by "
                             "more than PCT percent")
    parser.add_argument("--gate", metavar="BENCHMARK.json",
                        help="exit 2 if an end-to-end median got worse by "
                             "more than its bound in this spec")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate on synthetic snapshots")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        parser.error("OLD and NEW are required")

    try:
        with open(args.old) as f:
            old_doc = json.load(f)
        with open(args.new) as f:
            new_doc = json.load(f)
        spec = None
        if args.gate is not None:
            with open(args.gate) as f:
                spec = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_report: {exc}", file=sys.stderr)
        return 1

    gate_failures = []
    if spec is not None:
        lines, gate_failures = gate(old_doc, new_doc, spec)
        print(f"gate: end-to-end medians against {args.gate}")
        print("\n".join(lines))
        print()

    old_vals, new_vals = {}, {}
    numeric_leaves(old_doc, "", old_vals)
    numeric_leaves(new_doc, "", new_vals)

    changed = []
    for path in sorted(old_vals.keys() & new_vals.keys()):
        old_v, new_v = old_vals[path], new_vals[path]
        if old_v == new_v:
            continue
        if old_v == 0:
            pct = float("inf")
        else:
            pct = (new_v - old_v) / abs(old_v) * 100
        if abs(pct) >= args.threshold:
            changed.append((path, old_v, new_v, pct))

    only_old = sorted(old_vals.keys() - new_vals.keys())
    only_new = sorted(new_vals.keys() - old_vals.keys())

    bench = new_doc.get("bench", "?")
    print(f"bench: {bench}   {args.old} -> {args.new}   "
          f"threshold {args.threshold:g}%")
    failures = []
    if args.fail_above is not None:
        failures = sorted((c for c in changed if abs(c[3]) > args.fail_above),
                          key=lambda c: -abs(c[3]))
    if not changed and not only_old and not only_new:
        print("no differences above threshold")
        return 2 if gate_failures else 0
    if changed:
        width = max(len(p) for p, *_ in changed)
        print(f"\n{len(changed)} changed value(s):")
        for path, old_v, new_v, pct in sorted(
                changed, key=lambda c: -abs(c[3])):
            arrow = "+" if pct >= 0 else ""
            pct_text = f"{arrow}{pct:.1f}%" if pct != float("inf") else "new"
            print(f"  {path:<{width}}  {old_v:>14g} -> {new_v:>14g}  "
                  f"({pct_text})")
    for label, paths in (("only in old", only_old), ("only in new",
                                                     only_new)):
        if paths:
            print(f"\n{len(paths)} path(s) {label}:")
            for path in paths[:20]:
                print(f"  {path}")
            if len(paths) > 20:
                print(f"  ... and {len(paths) - 20} more")
    if failures:
        print(f"\nFAIL: {len(failures)} value(s) moved more than "
              f"{args.fail_above:g}% (largest: {failures[0][0]} "
              f"{failures[0][3]:+.1f}%)", file=sys.stderr)
    if gate_failures:
        print(f"\nFAIL: end-to-end regression beyond the bound: "
              f"{', '.join(gate_failures)}", file=sys.stderr)
    return 2 if failures or gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
