"""Regenerate ``reference.json``, the pinned results the benchmark checks.

    python3 perfbench/pin.py [--force]

Runs every point of every workload once per simulation seed in
``workloads.SIM_SEEDS`` and stores each point's result fields.  It
refuses to overwrite an existing reference without ``--force``: a
re-pin is a change of what the benchmark calls correct, and belongs in
its own commit with the reason stated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from profiler import Spans
from run import REFERENCE
from setup_probe import setup
from workloads import (SIM_SEEDS, build_spec, point_label, result_fields,
                       workloads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing reference.json")
    args = parser.parse_args(argv)
    if os.path.exists(REFERENCE) and not args.force:
        print(f"{REFERENCE} exists; pass --force to re-pin",
              file=sys.stderr)
        return 1
    reference = {}
    for workload in workloads().values():
        __, app, profiles = setup(workload.app, Spans())
        from repro.harness.experiment import run_experiment
        for seed in SIM_SEEDS:
            pinned = reference.setdefault(str(seed), {}) \
                .setdefault(workload.name, {})
            for topology, clients in workload.points:
                start = time.perf_counter()
                spec = build_spec(workload, app, profiles, topology,
                                  clients, seed)
                label = point_label(topology, clients)
                pinned[label] = result_fields(run_experiment(spec))
                print(f"{workload.name} seed {seed} {label}: "
                      f"{time.perf_counter() - start:.1f}s", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
