"""Host-time benchmark of the simulator, timed from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-shopping --seed 0 \\
        --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: cold set-up time
(median of several fresh processes), the host time to run every point of
the workload in units of a reference loop timed alongside it, the
process's peak RSS, and the share of points whose result matched the
pinned reference.  With ``--trace 1`` it runs each point once untraced
and once under the sampling profiler and reports the per-layer table
instead.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object, and the full
record of the run is written to ``perfbench/runs/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
RUNS_DIR = os.path.join(HERE, "runs")

from profiler import (ReferenceClock, Sampler, Spans,  # noqa: E402
                      layer_seconds, patched)
from setup_probe import setup  # noqa: E402
from workloads import (AXIS_PACKAGES, build_spec, digest,  # noqa: E402
                       field_mismatches, point_label, point_order,
                       result_fields, sim_seed, workloads)

#: setup_s is the median of several cold set-ups: the workload process's
#: own, then fresh ``setup_probe.py`` processes until the samples add up
#: to SETUP_BUDGET_S, within SETUP_SAMPLES.  A cheap set-up (auction,
#: ~1.5 s) thus gets more samples than an expensive one (bookstore, ~9 s).
SETUP_BUDGET_S = 8.0
SETUP_SAMPLES = (3, 9)
PROBE_TIMEOUT_S = 120

AXIS_LAYERS = tuple(name.split(".", 1)[1] for name in AXIS_PACKAGES)
SIM_LAYERS = ("sim.kernel", "sim.resources", "machine", "net", "topology",
              "workload") + AXIS_LAYERS
SETUP_LAYERS = ("db", "apps", "middleware", "harness.profiles")
FLAVORS = ("php", "servlet", "servlet_sync", "ejb")
PHASES = ("ramp_up", "measure", "ramp_down")

E2E_UNITS = {"setup_s": "s", "sim_wall_ref": "ref", "peak_rss_mb": "MB",
             "ok_frac": "ratio"}


def per_layer_units():
    units = {"sim.kernel_events": "count", "sim.host_us_per_event": "us",
             "net.bytes": "bytes", "cache.hit_rate": "ratio",
             "cache.invalidated_entries": "count",
             "shard.twopc_commits": "count", "shard.scatter_legs": "count",
             "workload.interactions": "count", "db.statements": "count",
             "obs.trace_overhead": "ratio", "span.build_app_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in SIM_LAYERS})
    units.update({f"{layer}.setup_self_s": "s" for layer in SETUP_LAYERS})
    units.update({f"span.profile.{f}_s": "s" for f in FLAVORS})
    units.update({f"span.{p}_s": "s" for p in PHASES})
    return units


# -- running points ---------------------------------------------------------

class Observer:
    """Coarse spans and exact counts around one traced point."""

    PHASE_OF_CALL = dict(enumerate(PHASES))

    def __init__(self, spans: Spans):
        self.spans = spans
        #: Exact counts of the last point run.
        self.counts = {}

    def _run_spans(self, run):
        calls = []

        def traced(sim, *args, **kwargs):
            name = self.PHASE_OF_CALL.get(len(calls), "run")
            calls.append(name)
            with self.spans.span(name):
                return run(sim, *args, **kwargs)
        return traced

    def _capture_site(self, build_site):
        def capture(sim, spec):
            site = build_site(sim, spec)
            self._site = site
            return site
        return capture

    def _capture_stats(self, end_measurement):
        def capture(population):
            stats = end_measurement(population)
            self.counts["workload.interactions"] = \
                stats.interactions_completed
            return stats
        return capture

    def run(self, spec):
        import repro.harness.experiment as experiment
        from repro.sim.kernel import Simulator
        from repro.workload.client import ClientPopulation
        self._site = None
        self.counts = {}
        with patched(Simulator, "run", self._run_spans), \
                patched(experiment, "build_site", self._capture_site), \
                patched(ClientPopulation, "end_measurement",
                        self._capture_stats), \
                self.spans.span("run_experiment"):
            point = experiment.run_experiment(spec)
        self.counts["net.bytes"] = sum(
            m.nic.bytes_sent for m in self._site.machines.values()
            if m.nic is not None)
        return point


def run_point(spec, observer=None, clock=None):
    """``(wall seconds, point or None, error text or None)``; a ``clock``
    runs alongside the point."""
    from repro.harness.experiment import run_experiment
    with clock.running() if clock else nullcontext():
        start = time.perf_counter()
        try:
            point = observer.run(spec) if observer else run_experiment(spec)
        except Exception:  # a failing point is counted, the run goes on
            return time.perf_counter() - start, None, traceback.format_exc()
        return time.perf_counter() - start, point, None


def check_point(label, point, error, reference, failures):
    """Compare one result against the pinned fields; True when it holds."""
    if error is not None:
        failures.append(f"{label}: raised\n{error}")
        return False
    mismatches = field_mismatches(result_fields(point), reference)
    if mismatches:
        failures.append(f"{label}: differs from reference: "
                        + "; ".join(mismatches))
        return False
    return True


def point_counts(point):
    counts = {"sim.kernel_events": point.kernel_events}
    cache = getattr(point, "cache", None)
    if cache is not None:
        counts.update({
            "cache.hits": cache.query_hits + cache.page_hits,
            "cache.lookups": cache.query_lookups + cache.page_lookups,
            "cache.invalidated_entries": cache.invalidated_entries})
    shard = getattr(point, "shard", None)
    if shard is not None:
        counts.update({"shard.twopc_commits": shard.twopc_commits,
                       "shard.scatter_legs": shard.scatter_legs})
    return counts


def add_counts(total, counts):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


# -- the run ----------------------------------------------------------------

def probe_setup(app_name):
    """One cold set-up in a fresh process: ``(seconds, statements)``."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), app_name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["statements"]


def git_revision():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment():
    return {"python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "git_revision": git_revision()}


def run(workload, seed, seconds, trace):
    references = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            references = json.load(fh).get(str(sim_seed(seed)), {}) \
                .get(workload.name, {})
    spans = Spans()
    sampler = Sampler(os.path.join(SRC, "repro")) if trace else None
    failures = []

    with sampler.phase("setup") if trace else nullcontext():
        setup_s, app, profiles = setup(workload.app, spans)
    statements = app.database.queries_executed
    setup_samples = [setup_s]
    fewest, most = SETUP_SAMPLES
    while not trace and (len(setup_samples) < fewest or (
            sum(setup_samples) < SETUP_BUDGET_S
            and len(setup_samples) < most)):
        sample, probe_statements = probe_setup(workload.app)
        setup_samples.append(sample)
        if probe_statements != statements:
            failures.append(f"set-up executed {probe_statements} SQL "
                            f"statements in a fresh process, "
                            f"{statements} in the workload process")

    order = point_order(workload, seed)
    specs = [(point_label(t, c),
              build_spec(workload, app, profiles, t, c, sim_seed(seed)))
             for t, c in order]
    walls = {label: [] for label, __ in specs}
    ref_walls = {label: [] for label, __ in specs}
    traced_walls = {label: [] for label, __ in specs}
    clock = ReferenceClock()
    point_records = {}
    pass_counts = []
    attempted = failed = 0
    observer = Observer(spans) if trace else None
    planned = 1
    while len(pass_counts) < planned:
        pass_start = time.perf_counter()
        counts = {}
        for label, spec in specs:
            wall, point, error = run_point(spec, clock=clock)
            walls[label].append(wall)
            ref_walls[label].append(wall / clock.harmonic_mean_s())
            results = [(point, error)]
            if trace:
                with sampler.phase("sim"), spans.span(label):
                    wall, traced, traced_error = run_point(spec, observer,
                                                           clock)
                traced_walls[label].append(wall / clock.harmonic_mean_s())
                results.append((traced, traced_error))
                if traced_error is None:
                    add_counts(counts, observer.counts)
            for result, result_error in results:
                attempted += 1
                if not check_point(label, result, result_error,
                                   references.get(label), failures):
                    failed += 1
            if error is None:
                add_counts(counts, point_counts(point))
                point_records[label] = {
                    "digest": digest(result_fields(point)),
                    "kernel_events": point.kernel_events,
                    "throughput_ipm": point.throughput_ipm}
        pass_counts.append(counts)
        if len(pass_counts) == 1:
            # As many whole passes as fit the measuring time, at least one.
            planned = round(seconds / (time.perf_counter() - pass_start))
    passes = len(pass_counts)
    if any(c != pass_counts[0] for c in pass_counts):
        failures.append(f"exact counts differ between passes: {pass_counts}")

    if workload.bypasses_axes:
        imported = [m for m in AXIS_PACKAGES if m in sys.modules]
        if imported:
            failures.append(f"{workload.name} imported {imported}")

    sim_wall_s = sum(statistics.median(w) for w in walls.values())
    sim_wall_ref = sum(statistics.median(w) for w in ref_walls.values())
    record = {"workload": workload.name, "seed": seed,
              "sim_seed": sim_seed(seed), "trace": trace,
              "seconds": seconds, "passes": passes,
              "sim_wall_s": sim_wall_s,
              "environment": environment(),
              "setup_samples_s": setup_samples,
              "point_walls_s": walls, "point_walls_ref": ref_walls,
              "points": point_records,
              "counts": dict(pass_counts[0], **{"db.statements": statements}),
              "failures": failures}
    if trace:
        metrics = layer_metrics(workload, sampler, spans, passes,
                                sim_wall_s, sim_wall_ref, traced_walls,
                                pass_counts[0], statements, failures)
        record["layers"] = {phase: sampler.self_seconds(phase)
                            for phase in ("setup", "sim")}
        record["spans"] = spans.records
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "sim_wall_ref": sim_wall_ref,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted}
        units = E2E_UNITS
    record.update(correct=not failures, attempted=attempted, failed=failed,
                  metrics={name: {"value": metrics[name],
                                  "unit": units[name]} for name in units})
    return record


def layer_metrics(workload, sampler, spans, passes, sim_wall_s,
                  sim_wall_ref, traced_walls, counts, statements, failures):
    sim_self = sampler.self_seconds("sim")
    setup_self = sampler.self_seconds("setup")
    traced_wall_ref = sum(statistics.median(w)
                          for w in traced_walls.values())
    kernel_events = counts.get("sim.kernel_events", 0)
    lookups = counts.get("cache.lookups", 0)
    metrics = {
        "sim.kernel_events": kernel_events,
        "sim.host_us_per_event": (sim_wall_s / kernel_events * 1e6
                                  if kernel_events else 0.0),
        "net.bytes": counts.get("net.bytes", 0),
        "cache.hit_rate": (counts.get("cache.hits", 0) / lookups
                           if lookups else 0.0),
        "cache.invalidated_entries": counts.get(
            "cache.invalidated_entries", 0),
        "shard.twopc_commits": counts.get("shard.twopc_commits", 0),
        "shard.scatter_legs": counts.get("shard.scatter_legs", 0),
        "workload.interactions": counts.get("workload.interactions", 0),
        "db.statements": statements,
        "obs.trace_overhead": traced_wall_ref / sim_wall_ref,
        "span.build_app_s": spans.total("build_app"),
    }
    for layer in SIM_LAYERS:
        metrics[f"{layer}.self_s"] = layer_seconds(sim_self, layer) / passes
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.setup_self_s"] = layer_seconds(setup_self, layer)
    for flavor in FLAVORS:
        metrics[f"span.profile.{flavor}_s"] = spans.total(
            f"profile.{flavor}")
    for phase in PHASES:
        metrics[f"span.{phase}_s"] = spans.total(phase) / passes

    axis_self = {layer: metrics[f"{layer}.self_s"] for layer in AXIS_LAYERS}
    if workload.bypasses_axes and any(axis_self.values()):
        failures.append(f"axis layers took self time on {workload.name}: "
                        f"{axis_self}")
    if workload.composes_axes and not all(axis_self.values()):
        failures.append(f"an axis layer took no self time on "
                        f"{workload.name}: {axis_self}")
    return metrics


def print_table(record):
    print(f"{record['workload']} seed={record['seed']} "
          f"(simulation seed {record['sim_seed']}) trace={record['trace']} "
          f"passes={record['passes']} "
          f"sim_wall_s={record['sim_wall_s']:.6g}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<32} {text:>14} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None):
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    record = run(table[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    os.makedirs(RUNS_DIR, exist_ok=True)
    path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_table(record)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
