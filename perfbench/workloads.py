"""The benchmark's three workloads, built only from public entry points.

A workload is one application, one interaction mix and a short list of
topology points.  Every point is a closed loop of emulated clients with
the repo's default 7 s mean think time, run with the reduced bench
phases of ``repro.harness.perf``.  Points run serially in one process.

The workload seed picks one of ``SIM_SEEDS`` as the simulation seed and
shuffles the order the points run in.  Under a pinned simulation seed
the simulator is deterministic, so each point's result fields are
compared against the reference pinned in ``reference.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Simulation seeds with pinned reference results; 42 is the repo default
#: and gives the canonical ``WsServlet-DB@300`` point (1,433,245 events).
SIM_SEEDS = (42, 43, 44)

#: Axis packages the paper configurations must never import.
AXIS_PACKAGES = ("repro.cluster", "repro.cache", "repro.shard",
                 "repro.overload")


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    mix: str
    #: (topology name, clients) in the order the paper lists them.
    points: Tuple[Tuple[str, int], ...]
    degradation: bool = False
    #: The axis packages must stay unimported (and take no samples).
    bypasses_axes: bool = False
    #: Every axis package must take samples in the traced run.
    composes_axes: bool = False


#: The lower client count of each paper configuration's fig05 bench grid
#: (``repro.harness.perf.BENCH_GRIDS``: 300 clients, 100 for EJB).  The
#: whole grid (twelve points, ~40 s per pass) would not fit the run
#: budget; this row still holds the canonical ``WsServlet-DB@300`` point.
#: The points are spelled out so the benchmark's work stays fixed when
#: the program's grids change.
FIG05_POINTS = (("WsPhp-DB", 300), ("WsServlet-DB", 300),
                ("WsServlet-DB(sync)", 300), ("Ws-Servlet-DB", 300),
                ("Ws-Servlet-DB(sync)", 300), ("Ws-Servlet-EJB-DB", 100))


def workloads() -> Dict[str, Workload]:
    return {w.name: w for w in (
        Workload("paper-shopping", "bookstore", "shopping",
                 FIG05_POINTS, bypasses_axes=True),
        Workload("auction-browsing", "auction", "browsing",
                 (("Ws-Servlet-DB", 2000),
                  ("Ws-Servlet-Cache{2}-DB", 2000))),
        Workload("composed-ordering", "bookstore", "ordering",
                 (("Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)", 300),),
                 degradation=True, composes_axes=True),
    )}


def sim_seed(seed: int) -> int:
    return SIM_SEEDS[seed % len(SIM_SEEDS)]


def point_order(workload: Workload, seed: int) -> List[Tuple[str, int]]:
    order = list(workload.points)
    random.Random(seed).shuffle(order)
    return order


def point_label(topology: str, clients: int) -> str:
    return f"{topology}@{clients}"


def build_spec(workload: Workload, app, profiles, topology: str,
               clients: int, simulation_seed: int):
    """The ``ExperimentSpec`` of one point."""
    from repro.harness.experiment import ExperimentSpec
    from repro.harness.perf import BENCH_PHASES
    from repro.topology.spec import parse_topology

    config = parse_topology(topology)
    ramp_up, measure, ramp_down = BENCH_PHASES[workload.app]
    degradation = None
    if workload.degradation:
        from repro.overload import DegradationPolicy
        degradation = DegradationPolicy()
    return ExperimentSpec(
        config=config, profile=profiles[config.profile_flavor],
        mix=app.mix(workload.mix), clients=clients, ramp_up=ramp_up,
        measure=measure, ramp_down=ramp_down, seed=simulation_seed,
        ssl_interactions=app.SSL_INTERACTIONS, app_name=workload.app,
        degradation=degradation)


# -- correctness digest -----------------------------------------------------

def result_fields(point) -> Dict[str, str]:
    """Every declared ``ThroughputPoint`` field plus the undeclared
    ``cache`` and ``shard`` snapshots (which ``asdict`` drops), flattened
    to ``path -> repr(value)`` so floats compare bit for bit."""
    record = dataclasses.asdict(point)
    for extra in ("cache", "shard"):
        value = getattr(point, extra, None)
        record[extra] = (dataclasses.asdict(value) if value is not None
                         else None)
    flat: Dict[str, str] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            flat[prefix] = repr(value)

    walk("", record)
    return flat


def digest(fields: Dict[str, str]) -> str:
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def field_mismatches(fields: Dict[str, str],
                     reference: Optional[Dict[str, str]]) -> List[str]:
    """Human-readable differences from the pinned reference fields."""
    if reference is None:
        return ["no pinned reference for this point and seed"]
    return [f"{key}: got {fields.get(key)} want {reference.get(key)}"
            for key in sorted(set(fields) | set(reference))
            if fields.get(key) != reference.get(key)]
