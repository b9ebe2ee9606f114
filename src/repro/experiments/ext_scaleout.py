"""Extension experiment: horizontal scale-out with read replicas.

The paper scales each configuration *up* (one machine per tier); this
experiment scales *out* (:mod:`repro.cluster`): for a growing number of
database read replicas it sizes the front pools to match, sweeps a
client grid, and reports peak throughput per replica count -- once for
a CPU-bound mix and once for a lock-bound one.  The contrast is the
point:

* the bookstore **shopping** mix is read-heavy and CPU-bound on the
  database, so read replicas buy near-linear throughput (0.92-0.97x
  per added database box, measured) until every box -- the write
  primary included -- pins at 100% CPU;
* the bookstore **ordering** mix is dominated by write-lock convoys:
  replicas still help (they split the reader herd that the writers
  convoy behind), but each one replays the full write stream under its
  own table locks and lagging replicas bounce read-your-writes
  sessions back to the primary, so the marginal gain *decays* as
  replicas are added and the traced bottleneck stays ``db locks``.

``--trace`` re-runs the peak point of each replica count with
request-level tracing (:mod:`repro.obs`) and appends the
bottleneck-attribution verdict, showing where the residual bottleneck
went (db CPU -> primary writes / lock wait).

Run:  python -m repro scale [--scale tiny|quick|full] [--trace]
      (or python -m repro.experiments.ext_scaleout)

Heads-up: ``--scale quick`` simulates client populations up to
``(1 + max replicas) x`` the base grid and takes tens of minutes
serially on one CPU; ``--jobs 0`` fans the independent runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import get_app, get_profiles, run_keyed_tasks
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.metrics.report import ThroughputPoint
from repro.topology.configs import configuration_by_name
from repro.topology.spec import TopologySpec, clustered

#: Default base configuration per bookstore mix: the shopping mix is
#: database-CPU-bound on the dedicated-servlet configurations, the
#: ordering mix is write-lock-bound on the explicit-locking flavor.
DEFAULT_BASES = {"shopping": "Ws-Servlet-DB(sync)",
                 "ordering": "Ws-Servlet-DB"}
DEFAULT_MIXES = ("shopping", "ordering")


@dataclass(frozen=True)
class ScaleoutScale:
    """Grids and phase durations for one scale level.

    ``grids`` holds the zero-replica client grid per mix, bracketing
    that mix's saturation point (probed: the shopping mix saturates the
    database CPU below 240 clients, the ordering mix saturates on table
    locks near 800).  For ``r`` replicas a grid is multiplied by
    ``1 + r`` -- a scaled-out deployment must be driven past its larger
    saturation point -- and clamped to ``max_clients`` to bound the
    wall-clock cost of the biggest deployments.
    """

    replica_counts: Tuple[int, ...]
    grids: Dict[str, Tuple[int, ...]]
    default_grid: Tuple[int, ...]
    max_clients: int
    ramp_up: float
    measure: float
    ramp_down: float

    def clients_for(self, mix_name: str, replicas: int) -> Tuple[int, ...]:
        grid = self.grids.get(mix_name, self.default_grid)
        out: List[int] = []
        for clients in grid:
            clients = min(self.max_clients, clients * (1 + replicas))
            if clients not in out:
                out.append(clients)
        return tuple(out)


SCALES = {
    "tiny": ScaleoutScale(replica_counts=(0, 1),
                          grids={"shopping": (60,), "ordering": (60,)},
                          default_grid=(60,), max_clients=240,
                          ramp_up=120.0, measure=150.0, ramp_down=10.0),
    "quick": ScaleoutScale(replica_counts=(0, 1, 2, 4),
                           grids={"shopping": (160, 240),
                                  "ordering": (600, 1000)},
                           default_grid=(160, 240), max_clients=2400,
                           ramp_up=400.0, measure=450.0, ramp_down=10.0),
    "full": ScaleoutScale(replica_counts=(0, 1, 2, 4, 8),
                          grids={"shopping": (160, 240, 320),
                                 "ordering": (600, 1000, 1500)},
                          default_grid=(160, 240, 320), max_clients=4000,
                          ramp_up=500.0, measure=1200.0, ramp_down=30.0),
}


def cluster_for(base_name: str, replicas: int) -> object:
    """The deployment for ``replicas`` read replicas over ``base_name``.

    Front pools are sized to ``1 + replicas`` so the web/servlet tiers
    never cap the curve -- the experiment isolates the database axis.
    Zero replicas is the trivial cluster, which reproduces the paper
    configuration field for field.
    """
    base = configuration_by_name(base_name)
    front = 1 + replicas
    spec = TopologySpec(web=front, gen=front, db_replicas=replicas)
    return clustered(base, spec)


@dataclass
class ScalePoint:
    """Peak observation for one (mix, replica count)."""

    replicas: int
    configuration: str
    points: List[ThroughputPoint] = field(default_factory=list)
    bottleneck: Optional[str] = None    # trace verdict (None if untraced)

    @property
    def peak(self) -> ThroughputPoint:
        return max(self.points, key=lambda p: p.throughput_ipm)


@dataclass
class ScaleoutReport:
    """One table per mix: replica count vs peak throughput."""

    title: str
    app_name: str
    scale: str
    mixes: Dict[str, List[ScalePoint]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [self.title]
        for mix_name, rows in self.mixes.items():
            base = rows[0].peak.throughput_ipm or 1.0
            lines.append("")
            lines.append(f"{self.app_name}/{mix_name} "
                         f"(scale={self.scale})")
            header = (f"{'replicas':>8}  {'configuration':<32} "
                      f"{'peak ipm':>9}  {'at':>6}  {'gain':>6}  "
                      f"{'primary cpu':>11}")
            lines.append(header)
            for row in rows:
                peak = row.peak
                lines.append(
                    f"{row.replicas:>8}  {row.configuration:<32} "
                    f"{peak.throughput_ipm:>9.0f}  {peak.clients:>6}  "
                    f"{peak.throughput_ipm / base:>5.2f}x  "
                    f"{peak.cpu.database:>11.2f}")
            last = rows[-1]
            gain = last.peak.throughput_ipm / base
            lines.append(f"  -> x{gain:.2f} peak throughput with "
                         f"{last.replicas} read replicas")
            for row in rows:
                if row.bottleneck:
                    lines.append(f"  bottleneck at {row.replicas} "
                                 f"replica(s): {row.bottleneck}")
        return "\n".join(lines)


def _scale_task(task) -> ThroughputPoint:
    """Worker entry for the parallel path (profiles come from the
    worker's warm cache; tasks ship only names and scalars)."""
    (app_name, mix_name, base_name, replicas, clients,
     ramp_up, measure, ramp_down, seed, trace) = task
    app = get_app(app_name)
    config = cluster_for(base_name, replicas)
    profile = get_profiles(app_name)[config.profile_flavor]
    spec = ExperimentSpec(
        config=config, profile=profile, mix=app.mix(mix_name),
        clients=clients, ramp_up=ramp_up, measure=measure,
        ramp_down=ramp_down, seed=seed,
        ssl_interactions=app.SSL_INTERACTIONS, app_name=app_name,
        trace=trace)
    return run_experiment(spec)


def run_scaleout(app_name: str = "bookstore",
                 mix_names: Tuple[str, ...] = DEFAULT_MIXES,
                 base_configs: Optional[Dict[str, str]] = None,
                 scale: str = "quick",
                 replica_counts: Optional[Tuple[int, ...]] = None,
                 seed: int = 42,
                 jobs: Optional[int] = None,
                 trace: bool = False) -> ScaleoutReport:
    """The full experiment: every mix through the replica grid.

    ``base_configs`` maps mix name to the paper configuration to
    cluster (defaults: :data:`DEFAULT_BASES`, falling back to
    ``Ws-Servlet-DB(sync)``).  ``jobs`` > 1 fans the independent
    (mix, replicas, clients) simulations over a process pool; results
    are merged in serial order, bit-identical to the serial path.
    ``trace`` additionally re-runs each replica count's peak point
    with request-level tracing (serial) and records the verdict.
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; have {sorted(SCALES)}")
    timeline = SCALES[scale]
    if replica_counts is not None:
        timeline = replace(timeline,
                           replica_counts=tuple(replica_counts))
    bases = dict(DEFAULT_BASES)
    if base_configs:
        bases.update(base_configs)

    tasks = []
    keys = []       # (mix_name, replicas) per task, same order
    for mix_name in mix_names:
        base_name = bases.get(mix_name, "Ws-Servlet-DB(sync)")
        for replicas in timeline.replica_counts:
            for clients in timeline.clients_for(mix_name, replicas):
                tasks.append((app_name, mix_name, base_name, replicas,
                              clients, timeline.ramp_up,
                              timeline.measure, timeline.ramp_down,
                              seed, False))
                keys.append((mix_name, replicas))

    grouped = run_keyed_tasks(_scale_task, tasks, keys, jobs=jobs,
                              app_names=(app_name,))

    report = ScaleoutReport(
        title=f"Scale-out: peak throughput vs database read replicas "
              f"({app_name}, scale={scale})",
        app_name=app_name, scale=scale)
    for (mix_name, replicas), points in grouped.items():
        base_name = bases.get(mix_name, "Ws-Servlet-DB(sync)")
        report.mixes.setdefault(mix_name, []).append(ScalePoint(
            replicas=replicas,
            configuration=cluster_for(base_name, replicas).name,
            points=list(points)))

    if trace:
        # Serial traced re-runs of each row's peak point (span
        # aggregation lives in the simulator process).
        for mix_name, rows in report.mixes.items():
            base_name = bases.get(mix_name, "Ws-Servlet-DB(sync)")
            for row in rows:
                traced = _scale_task((
                    app_name, mix_name, base_name, row.replicas,
                    row.peak.clients, timeline.ramp_up,
                    timeline.measure, timeline.ramp_down, seed, True))
                row.bottleneck = traced.bottleneck
    return report


def render(scale: str = "quick", **kwargs) -> str:
    return run_scaleout(scale=scale, **kwargs).render()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Scale-out experiment: peak throughput vs database "
                    "read replicas for CPU-bound and lock-bound mixes")
    parser.add_argument("--app", default="bookstore",
                        choices=("bookstore", "auction", "bboard"))
    parser.add_argument("--mix", action="append", default=None,
                        metavar="NAME",
                        help="workload mix (repeatable; default: "
                             "shopping and ordering for the bookstore)")
    parser.add_argument("--config", default=None, metavar="NAME",
                        help="base paper configuration to cluster for "
                             "every mix (default: per-mix choices)")
    parser.add_argument("--replicas", action="append", type=int,
                        default=None, metavar="N",
                        help="replica count to sweep (repeatable; "
                             "default: the scale level's grid)")
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES))
    parser.add_argument("--trace", action="store_true",
                        help="re-run each replica count's peak with "
                             "request tracing; append the bottleneck "
                             "verdict")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep (default: "
                             "serial; 0 = one per CPU)")
    args = parser.parse_args(argv)

    if args.config is not None:
        from repro.topology.spec import validate_config_names
        errors = validate_config_names([args.config], paper_only=True)
        if errors:
            import sys
            print("\n".join(errors), file=sys.stderr)
            return 2
    mixes = tuple(args.mix) if args.mix else (
        DEFAULT_MIXES if args.app == "bookstore"
        else ({"auction": ("bidding",),
               "bboard": ("submission",)}[args.app]))
    bases = ({mix: args.config for mix in mixes}
             if args.config is not None else None)
    print(render(scale=args.scale, app_name=args.app, mix_names=mixes,
                 base_configs=bases,
                 replica_counts=(tuple(args.replicas)
                                 if args.replicas else None),
                 seed=args.seed, jobs=args.jobs, trace=args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
