"""The site core and its axis layers: the fixed composition order, and
every axis combination (replicated, cached, sharded; with and without
degradation) running to a clean quiesce -- no held or waiting lock in
any table-lock or sync registry, no slot or waiter left on any
admission gate, no undecided 2PC transaction."""

import pytest

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.harness.experiment import ExperimentSpec, build_site
from repro.harness.profiles import profile_all_flavors
from repro.overload import DegradationPolicy
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.simulation import LAYER_ORDER, SimulatedSite
from repro.topology.spec import topology
from repro.workload.client import ClientPopulation, RetryPolicy, ThinkTimeSpec
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def profiles(app):
    return profile_all_flavors(app, repetitions=2)


def _spec(config, profiles, app, **overrides):
    kwargs = dict(config=config, profile=profiles[config.profile_flavor],
                  mix=app.mix("ordering"), clients=12, seed=5)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


COMPOSED = "Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)"


# -- composition ---------------------------------------------------------------


def test_layers_nest_in_the_fixed_order(app, profiles):
    from repro.topology.spec import parse_topology
    site = build_site(Simulator(), _spec(
        parse_topology(COMPOSED), profiles, app,
        degradation=DegradationPolicy()))
    assert [layer.axis for layer in site.layers] == list(LAYER_ORDER)
    cluster, shard, cache, degradation = site.layers
    # A statement meets the degradation gate, the query cache, shard
    # routing, then the core; the cluster's replica routing sits
    # beneath the shard layer (which routes per shard itself).
    assert site.stages.db_query.__self__ is degradation
    assert degradation.inner.db_query.__self__ is cache
    assert cache.inner.db_query.__self__ is shard
    assert shard.inner.db_query.__self__ is cluster
    assert cluster.inner.db_query.__self__ is site
    # A commit ships the log (shard) before the cache invalidates.
    assert site.stages.note_commit.__self__ is cache
    assert cache.inner.note_commit.__self__ is shard
    # Requests route through the cluster outside the shedding check.
    assert site.stages.dispatch.__self__ is cluster
    assert cluster.inner.dispatch.__self__ is site
    assert site.stages.perform.__self__ is degradation
    # The bookstore looks its pages up inside the container.
    assert site.stages.generate.__self__ is cache
    assert degradation.inner.run_container.__self__ is cache


def test_compose_sorts_its_input_and_runs_once(app, profiles):
    from repro.cache.layer import CacheLayer
    from repro.cluster.layer import ClusterLayer
    config = topology("Ws-Servlet-DB", db_replicas=1, cache_nodes=1,
                      cache_mb=8.0)
    site = SimulatedSite(Simulator(), config,
                         profiles[config.profile_flavor])
    cluster = ClusterLayer(site, RngStreams(1))
    cache = CacheLayer(site)
    site.compose([cache, cluster])
    assert site.layers == (cluster, cache)
    assert site.layer("cache") is cache
    assert site.layer("shard") is None
    with pytest.raises(RuntimeError, match="already composed"):
        site.compose([cluster])


# -- every axis combination quiesces clean -------------------------------------


AXES = {
    "replica": dict(web=2, gen=2, db_replicas=1),
    "cache": dict(cache_nodes=2, cache_mb=8.0),
    "shard": dict(db_shards=2, db_replicas=1),
}

# Tight gates so backpressure and queueing fire with a dozen clients.
TIGHT = DegradationPolicy(container_concurrency=2, container_backlog=2,
                          db_concurrency=2, db_backlog=2)


def _lock_registries(site):
    registries = [site._table_locks, site._sync_locks]
    cluster = site.layer("cluster")
    registries.extend(cluster._sync_registries.values())
    repls = [cluster.repl]
    shard = site.layer("shard")
    if shard is not None:
        repls = shard.shard_repls
    for repl in repls:
        registries.append(repl.primary.table_locks)
        registries.extend(r.table_locks for r in repl.replicas)
    return registries


@pytest.mark.parametrize("degraded", [False, True],
                         ids=["plain", "degraded"])
@pytest.mark.parametrize("axis", sorted(AXES))
def test_axis_combination_quiesces_clean(app, profiles, axis, degraded):
    config = topology("Ws-Servlet-DB", **AXES[axis])
    spec = _spec(config, profiles, app,
                 degradation=TIGHT if degraded else None)
    sim = Simulator()
    site = build_site(sim, spec)
    assert site.layer(axis if axis != "replica" else "cluster") is not None
    population = ClientPopulation(
        sim, spec.clients, spec.mix, site, RngStreams(spec.seed),
        choose_interaction, think=ThinkTimeSpec(think_mean=0.5),
        retry=RetryPolicy(deadline=5.0, max_retries=1))
    population.start()
    sim.run(until=40.0)
    population.stop()
    sim.run()

    assert site.interactions_done > 0
    assert all(p.finished for p in population._procs), "stuck client"
    assert not site.inflight_processes(), "stuck in-flight interaction"
    for registry in _lock_registries(site):
        for lock in registry.values():
            assert not (lock.writer or lock.readers or lock.waiting_writers
                        or lock.waiting_readers), f"dangling {lock.name}"
    gates = list(site.layer("cluster")._web_processes.values())
    degradation = site.layer("degradation")
    if degraded:
        gates += [degradation.container_gate, degradation.db_gate]
        rejects = degradation.backpressure_rejects
        assert degradation.degraded_served or sum(rejects.values()), \
            "the tight gates never engaged"
    else:
        assert degradation is None
    for gate in gates:
        assert gate.in_use == 0, f"stranded slot on {gate.name}"
        assert gate.queue_length == 0, f"stranded waiter on {gate.name}"
    shard = site.layer("shard")
    if shard is not None:
        assert shard.twopc.in_flight == {}, "prepared-but-undecided txn"
    assert sim.quiescent()
