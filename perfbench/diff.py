"""Baseline-vs-change tables from two sets of benchmark run records.

    python3 perfbench/diff.py BASELINE CHANGE

Each side is one record written by ``run.py`` (``perfbench/runs/*.json``)
or a directory of them.  Records are grouped by workload and by traced
or untraced run; each metric shows the median over a group's runs with
the run count, then the change as a share of the baseline.  Exact counts
and point digests must not move between two runs of the same program,
so any difference in them is flagged.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    groups = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        key = (record["workload"], "traced" if record["trace"]
               else "untraced")
        groups.setdefault(key, []).append(record)
    return groups


def medians(records):
    values = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1] \
                .append(metric["value"])
    return {name: (unit, statistics.median(vals))
            for name, (unit, vals) in values.items()}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def metric_table(base, change):
    rows = ["| metric | unit | baseline | change | delta |",
            "|---|---|---:|---:|---:|"]
    base_m, change_m = medians(base), medians(change)
    for name in base_m:
        unit, old = base_m[name]
        if name not in change_m:
            rows.append(f"| {name} | {unit} | {fmt(old)} | missing | |")
            continue
        new = change_m[name][1]
        delta = f"{(new - old) / old:+.1%}" if old else \
            ("same" if new == old else "from 0")
        rows.append(f"| {name} | {unit} | {fmt(old)} | {fmt(new)} "
                    f"| {delta} |")
    return rows


def exact_differences(base, change):
    """Counts and digests that differ between two runs of one
    simulation seed."""
    found = []
    for section in ("counts", "points"):
        seen = {}
        for record in base + change:
            for key, value in record.get(section, {}).items():
                slot = (record["sim_seed"], key)
                if slot in seen and seen[slot] != value:
                    found.append(f"seed {record['sim_seed']} "
                                 f"{section}.{key}: {seen[slot]} vs {value}")
                seen.setdefault(slot, value)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    base, change = load(args.baseline), load(args.change)
    for key in sorted(set(base) | set(change)):
        workload, kind = key
        if key not in base or key not in change:
            print(f"## {workload} ({kind}): only on one side\n")
            continue
        print(f"## {workload} ({kind}, {len(base[key])} vs "
              f"{len(change[key])} runs, medians)\n")
        print("\n".join(metric_table(base[key], change[key])))
        differences = exact_differences(base[key], change[key])
        print("\nexact counts and digests: "
              + ("identical" if not differences else "DIFFER"))
        for line in differences:
            print(f"  {line}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
