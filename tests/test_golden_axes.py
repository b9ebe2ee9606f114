"""Golden regression test: one reduced point per composed topology axis.

The fig05 golden pins the six paper configurations; this one pins the
axis layers on top of them -- replicated, cached, sharded, degraded and
faulted sites -- at a tenth of the bench phases, seed 42.  Each point
records every declared ``ThroughputPoint`` field plus the undeclared
``cache`` and ``shard`` snapshots (which ``asdict`` drops), compared
field for field against ``tests/golden/axes_reduced.json``.

Regenerate (only when an intentional behavior change lands)::

    PYTHONPATH=src python tests/test_golden_axes.py
"""

import json
import os
from dataclasses import asdict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "axes_reduced.json")

# (label, app, mix, topology, clients, degraded?, faulted?)
POINTS = [
    ("replicated", "bookstore", "shopping", "Ws{2}-Servlet{2}-DB(1+1)",
     300, False, False),
    ("cached", "auction", "browsing", "Ws-Servlet-Cache{2}-DB",
     1000, False, False),
    ("sharded", "bookstore", "ordering", "Ws-Servlet-DB[2](1+1)",
     300, False, False),
    ("composed", "bookstore", "ordering",
     "Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)", 300, True, False),
    ("faulted", "bookstore", "shopping", "Ws{2}-Servlet{2}-DB(1+1)",
     300, False, True),
]


def _spec(app_name, mix, topology, clients, degraded, faulted):
    from repro.experiments.common import get_app, get_profiles
    from repro.faults.plan import FaultEvent, FaultPlan
    from repro.harness.experiment import ExperimentSpec
    from repro.harness.perf import BENCH_PHASES
    from repro.topology.spec import parse_topology
    from repro.workload.client import RetryPolicy

    app = get_app(app_name)
    config = parse_topology(topology)
    ramp_up, measure, ramp_down = BENCH_PHASES[app_name]
    extra = {}
    if degraded:
        from repro.overload import DegradationPolicy
        extra["degradation"] = DegradationPolicy()
    if faulted:
        # One servlet pool member, then the read replica, crash and
        # recover inside the measurement window.
        extra["fault_plan"] = FaultPlan((
            FaultEvent(kind="crash", tier="servlet#2", at=35.0,
                       duration=10.0),
            FaultEvent(kind="crash", tier="db.r1", at=45.0,
                       duration=10.0)))
        extra["retry"] = RetryPolicy(deadline=10.0, max_retries=2)
    return ExperimentSpec(
        config=config, profile=get_profiles(app_name)[config.profile_flavor],
        mix=app.mix(mix), clients=clients, ramp_up=ramp_up,
        measure=measure, ramp_down=ramp_down, seed=42,
        ssl_interactions=app.SSL_INTERACTIONS, app_name=app_name,
        **extra).scaled(0.1)


def _record(point):
    record = asdict(point)
    for extra in ("cache", "shard"):
        value = getattr(point, extra, None)
        record[extra] = asdict(value) if value is not None else None
    return record


def _run_points():
    from repro.harness.experiment import run_experiment

    return [{"label": label, "topology": topology, "clients": clients,
             "point": _record(run_experiment(
                 _spec(app_name, mix, topology, clients, degraded,
                       faulted)))}
            for label, app_name, mix, topology, clients, degraded, faulted
            in POINTS]


def test_reduced_axis_points_match_golden():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(_run_points()))   # exact float round-trip
    assert [e["label"] for e in got] == [e["label"] for e in golden]
    for g, e in zip(got, golden):
        assert g == e, (f"{g['label']} ({g['topology']}@{g['clients']}) "
                        f"diverged from golden (regenerate only for "
                        f"intentional behavior changes)")


def _regenerate():
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(_run_points(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
