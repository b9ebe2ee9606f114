"""Determinism self-check of the benchmark (about five minutes).

    python3 -m pytest perfbench -q

Each workload runs traced twice, under ``PYTHONHASHSEED`` 0 and 1: both
runs must pass every check (pinned digests, bypass guard) and agree on
every exact count and point digest.  ``composed-ordering`` runs with a
non-default seed.  The last test shows the composed point's idle
degradation gates leave its results unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from profiler import Spans  # noqa: E402
from setup_probe import setup  # noqa: E402
from workloads import (SIM_SEEDS, build_spec, result_fields,  # noqa: E402
                       workloads)

EXACT = ("sim.kernel_events", "db.statements", "net.bytes",
         "workload.interactions", "cache.hit_rate",
         "cache.invalidated_entries", "shard.twopc_commits",
         "shard.scatter_legs")


def run_benchmark(workload, seed, hash_seed):
    """One traced one-pass run: ``(result line, full record)``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    lines = done.stdout.splitlines()
    record_path = next(line.split(": ", 1)[1] for line in lines
                       if line.startswith("record: "))
    with open(os.path.join(ROOT, record_path)) as fh:
        return json.loads(lines[-1]), json.load(fh)


@pytest.mark.parametrize("workload,seed", [("paper-shopping", 0),
                                           ("auction-browsing", 0),
                                           ("composed-ordering", 4)])
def test_runs_repeat_exactly_across_hash_seeds(workload, seed):
    runs = [run_benchmark(workload, seed, hash_seed)
            for hash_seed in (0, 1)]
    for result, record in runs:
        assert result["correct"], record["failures"]
        assert result["failed"] == 0
    (first, first_record), (second, second_record) = runs
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_record["counts"] == second_record["counts"]
    assert first_record["points"] == second_record["points"]
    assert first["metrics"]["sim.kernel_events"]["value"] > 0


def test_idle_degradation_gates_leave_results_unchanged():
    workload = workloads()["composed-ordering"]
    __, app, profiles = setup(workload.app, Spans())
    from repro.harness.experiment import run_experiment
    (topology, clients), = workload.points
    spec = build_spec(workload, app, profiles, topology, clients,
                      SIM_SEEDS[0])
    assert spec.degradation is not None
    gated = result_fields(run_experiment(spec))
    plain = result_fields(run_experiment(
        dataclasses.replace(spec, degradation=None)))
    assert gated == plain
