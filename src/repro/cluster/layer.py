"""The cluster layer: replicated tiers behind load balancers.

:class:`ClusterLayer` wraps a :class:`~repro.topology.simulation.
SimulatedSite` whose configuration carries a topology axis, and keeps
every mechanism of the core -- the same cost tables, lock semantics,
fault surface and tracing hooks -- while adding the scale-out plumbing:

* per-request routing: the web and servlet pools sit behind
  :class:`~repro.cluster.balancer.LoadBalancer` instances, and the
  route (which machines, which Apache process pool, which sync-lock
  registry) travels with the request;
* a :class:`~repro.cluster.replication.ReplicatedDb`: writes and
  explicit ``LOCK TABLES`` spans go to the primary, plain reads go to
  caught-up replicas (read-your-writes per session), and committed
  writes ship asynchronously to every replica;
* crash containment: when a pool member crashes, only the requests
  routed *through that member* are interrupted, and interrupted
  requests re-route through the balancer instead of aborting (unless
  they already committed a write -- those surface the error so the
  client's retry policy decides).

A trivial cluster (1 web, 1 gen, 0 replicas) takes none of the new
paths that schedule events or draw RNG, so its reports are field-for-
field identical to the paper configuration it wraps -- tests assert
this, and the ``scale-smoke`` CI job guards it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.balancer import LoadBalancer
from repro.cluster.replication import DbInstance, ReplicatedDb, SessionState
from repro.faults.errors import TierDown
from repro.sim.kernel import Interrupt
from repro.sim.resources import Resource, RWLock
from repro.sim.rng import RngStreams
from repro.topology.simulation import SimulatedSite, SiteLayer
from repro.web.server import SPAN_LB_ROUTE


class ClusterRoute:
    """The machines (and bookkeeping) serving one request."""

    __slots__ = ("web", "gen", "ejb", "db", "db_client", "web_processes",
                 "session", "client_id", "web_token", "gen_token",
                 "db_busy_on", "writes_committed", "interaction", "rng",
                 "cache_keys", "cache_seq", "page_plan", "shard_groups",
                 "span_shards", "shard_writes", "scatter_shards")

    def __init__(self, web, gen, ejb, db, db_client, web_processes,
                 session, client_id, web_token, gen_token, interaction,
                 rng):
        self.web = web
        self.gen = gen
        self.ejb = ejb
        self.db = db                  # the write primary
        self.db_client = db_client
        self.web_processes = web_processes
        self.session = session
        self.client_id = client_id
        self.web_token = web_token    # balancer slots to release
        self.gen_token = gen_token
        self.db_busy_on = None        # replica currently serving a read
        self.writes_committed = 0     # commits by *this* attempt
        self.interaction = interaction
        self.rng = rng                # the client's stream
        self.cache_keys = {}          # cache layer: table -> entity
        self.cache_seq = 0            # cache layer: cacheable-query ordinal
        self.page_plan = None         # cache layer: this page's key + tags
        self.shard_groups = {}        # shard layer: group -> shard
        self.span_shards = ()         # shards locked by the current span
        self.shard_writes = set()     # shards written by the current span
        self.scatter_shards = ()      # shards a scatter-gather is touching


class ClusterLayer(SiteLayer):
    """Load-balanced pools and a replicated database around one site."""

    axis = "cluster"
    wraps = ("dispatch", "db_query", "table_lock_of", "note_commit",
             "sync_registry", "new_session", "end_session", "mark_up",
             "crash_victims")

    def __init__(self, site: SimulatedSite, rng: RngStreams):
        super().__init__(site)
        config = site.config
        spec = config.cluster
        sim = site.sim
        is_up = lambda name: name not in site.down   # noqa: E731

        # -- web / gen pools ------------------------------------------------
        web_names = config.pool("web")
        self.web_pool = [site.machines[n] for n in web_names]
        # One Apache process pool per front end; member 1 *is* the core
        # site's pool object, so tests and admission control see it.
        self._web_processes: Dict[str, Resource] = {
            site.web.name: site.web_processes}
        for machine in self.web_pool[1:]:
            self._web_processes[machine.name] = Resource(
                sim, capacity=site.web_config.max_processes,
                name=f"httpd@{machine.name}")
        self.web_lb = LoadBalancer(
            "lb.web", web_names, policy=spec.web_policy,
            rng=rng.stream("cluster.lb.web"), is_up=is_up)

        if config.colocated("web", "gen"):
            self.gen_pool = self.web_pool
            self.gen_lb = None        # the web pick is the gen pick
        else:
            gen_names = config.pool("gen")
            self.gen_pool = [site.machines[n] for n in gen_names]
            self.gen_lb = LoadBalancer(
                "lb.gen", gen_names, policy=spec.gen_policy,
                rng=rng.stream("cluster.lb.gen"), is_up=is_up)
        # Each servlet engine is its own JVM: private sync-lock
        # registry per pool member (member 1 shares the core site's, so
        # the trivial cluster and the tests see the same dict).
        self._sync_registries: Dict[str, Dict[str, RWLock]] = {
            machine.name: {} for machine in self.gen_pool}
        self._sync_registries[site.gen.name] = site._sync_locks

        # -- replicated database -------------------------------------------
        primary = DbInstance(sim, site.db,
                             write_priority=site.costs.db_write_priority,
                             table_locks=site._table_locks, is_primary=True)
        replica_names = config.db_replica_names()
        replicas = [DbInstance(sim, site.machines[n],
                               write_priority=site.costs.db_write_priority)
                    for n in replica_names]
        read_lb = LoadBalancer(
            "lb.db", replica_names or [site.db.name],
            policy=spec.db_read_policy,
            rng=rng.stream("cluster.lb.db"), is_up=is_up)
        self.repl = ReplicatedDb(
            sim, site, primary, replicas,
            replication_lag=spec.replication_lag,
            apply_cost_factor=spec.apply_cost_factor, balancer=read_lb)
        self.db_instances: Dict[str, DbInstance] = {site.db.name: primary}
        self.db_instances.update((r.machine.name, r) for r in replicas)
        self._db_replica_names = frozenset(replica_names)

        # -- routing state --------------------------------------------------
        self._sessions: Dict[int, SessionState] = {}
        self.routes: Dict[object, ClusterRoute] = {}
        self._pool_names: Dict[str, tuple] = {}
        if len(web_names) > 1:
            members = tuple(web_names)
            for name in members:
                self._pool_names[name] = members
        if self.gen_lb is not None and len(self.gen_pool) > 1:
            members = tuple(m.name for m in self.gen_pool)
            for name in members:
                self._pool_names[name] = members
        self.reroutes = 0             # requests resubmitted by a balancer

    # -- sessions -------------------------------------------------------------

    def session(self, client_id: int) -> SessionState:
        session = self._sessions.get(client_id)
        if session is None:
            session = SessionState(client_id)
            self._sessions[client_id] = session
        return session

    def new_session(self, client_id: int, rng) -> None:
        """Session start: fresh consistency watermark, fresh affinity."""
        self.session(client_id).reset()
        self.web_lb.forget_session(client_id)
        if self.gen_lb is not None:
            self.gen_lb.forget_session(client_id)
        self.repl.balancer.forget_session(client_id)

    def end_session(self, client_id: int) -> None:
        """Session end: release the sticky balancer bindings so an
        affinity pool re-spreads when the client comes back."""
        self.web_lb.forget_session(client_id)
        if self.gen_lb is not None:
            self.gen_lb.forget_session(client_id)
        self.repl.balancer.forget_session(client_id)

    # -- routing --------------------------------------------------------------

    def _route(self, name: str, client_id: int, rng) -> ClusterRoute:
        site = self.site
        session = self.session(client_id)
        web_token = self._acquire_member(self.web_lb, client_id)
        web = site.machines[web_token] if web_token is not None \
            else self.web_pool[0]
        if self.gen_lb is None:
            gen, gen_token = web, None
        else:
            try:
                gen_token = self._acquire_member(self.gen_lb, client_id)
            except BaseException:
                if web_token is not None:
                    self.web_lb.release(web_token)
                raise
            gen = site.machines[gen_token] if gen_token is not None \
                else self.gen_pool[0]
        db_client = site.ejb if site.config.flavor == "ejb" else gen
        route = ClusterRoute(
            web=web, gen=gen, ejb=site.ejb, db=site.db,
            db_client=db_client,
            web_processes=self._web_processes[web.name],
            session=session, client_id=client_id,
            web_token=web_token, gen_token=gen_token, interaction=name,
            rng=rng)
        if site._track_inflight:
            proc = site.sim.current_process
            if proc is not None:
                self.routes[proc] = route
        tracer = site.sim.tracer
        if tracer is not None and len(self.web_pool) > 1:
            rc = tracer.current()
            if rc is not None:
                span = rc.push(SPAN_LB_ROUTE, "lb", web.name,
                               meta={"web": web.name, "gen": gen.name,
                                     "policy": self.web_lb.policy})
                rc.pop(span)
        return route

    @staticmethod
    def _acquire_member(balancer: LoadBalancer,
                        client_id: int) -> Optional[str]:
        """Pick a pool member; with the whole pool down, fall back to
        member 1 un-acquired so the request fails at exactly the point
        the single-machine site would fail (down-check in the replay
        path), keeping trivial-cluster fault runs identical."""
        try:
            return balancer.acquire(session_key=client_id)
        except TierDown:
            return None

    def _end_route(self, route: ClusterRoute) -> None:
        if route.web_token is not None:
            self.web_lb.release(route.web_token)
        if route.gen_token is not None:
            self.gen_lb.release(route.gen_token)
        if self.routes:
            proc = self.site.sim.current_process
            if proc is not None and self.routes.get(proc) is route:
                del self.routes[proc]

    def dispatch(self, variant, name, client_id, rng):
        """Route through the balancers and run the pipeline; a crash of
        a replicated pool member resubmits the request elsewhere."""
        perform = self.site.stages.perform
        attempts = 0
        while True:
            route = self._route(name, client_id, rng)
            try:
                yield from perform(variant, name, rng, route)
                return
            except Interrupt as exc:
                cause = exc.cause
                machine = cause.machine if isinstance(cause, TierDown) \
                    else None
                if machine is None \
                        or not self._reroutable(machine, route, attempts):
                    raise
            except TierDown as exc:
                if not self._reroutable(exc.machine, route, attempts):
                    raise
            finally:
                self._end_route(route)
            attempts += 1
            self.reroutes += 1

    def _reroutable(self, machine: str, route: ClusterRoute,
                    attempts: int) -> bool:
        """Can the balancer resubmit this attempt elsewhere?  Only when
        the failed machine belongs to a replicated pool with a live
        sibling and the attempt has not committed a write (resubmitting
        a committed purchase would double it; the client retry policy
        owns that decision)."""
        if route.writes_committed:
            return False
        pool = self._pool_names.get(machine)
        if pool is None:
            return False
        if attempts + 1 >= len(pool):
            return False
        return any(m not in self.site.down for m in pool)

    # -- database routing -----------------------------------------------------

    def db_query(self, step, held_explicit, route, rc=None, label=""):
        # Writes and LOCK TABLES spans always execute on the primary;
        # so does everything when there are no replicas (identity).
        if held_explicit or step[5] or not self.repl.replicas:
            return self.inner.db_query(step, held_explicit, route, rc,
                                       label)
        return self.read_replicated(step, route, self.repl, route.session,
                                    rc, label)

    def read_replicated(self, step, route, repl, session, rc=None,
                        label="", held_explicit=None):
        """Serve one read via ``repl``'s balancer + read-your-writes
        routing, resubmitting on a replica crash.  Shared with the shard
        layer (which passes each shard's own ``ReplicatedDb`` and
        per-shard session).  A truthy ``held_explicit`` marks a
        reference read issued from inside a lock span: it skips
        statement-level locks wherever it lands (mid-span acquisition
        would break the global lock order)."""
        run_on = self.site._db_query
        while True:
            instance, token = repl.route_read(session, rc)
            if token is not None:
                route.db_busy_on = instance.machine.name
            try:
                yield from run_on(step, held_explicit or {}, route, rc,
                                  label, instance.machine)
                return
            except Interrupt as exc:
                cause = exc.cause
                if token is None or not isinstance(cause, TierDown) \
                        or cause.machine != instance.machine.name:
                    raise
                # The crashed replica is marked down before the
                # interrupt lands, so the next route excludes it and
                # the read resubmits on a survivor (or the primary).
                self.reroutes += 1
            finally:
                if token is not None:
                    repl.release_read(token)
                    route.db_busy_on = None

    def table_lock_of(self, db, table: str) -> RWLock:
        instance = self.db_instances.get(db.name)
        if instance is None or instance.is_primary:
            return self.site.table_lock(table)
        return instance.table_lock(table)

    def note_commit(self, route: ClusterRoute, writes, db_cpu: float,
                    db=None) -> None:
        self.repl.commit_write(route.session, writes, db_cpu)
        route.writes_committed += 1

    # -- fault surface --------------------------------------------------------

    def mark_up(self, machine_name: str) -> None:
        self.inner.mark_up(machine_name)
        self.repl.notify_up(machine_name)

    def crash_victims(self, machine_name: str) -> list:
        down = self.site.down
        pool = self._pool_names.get(machine_name)
        if pool is not None \
                and any(m != machine_name and m not in down for m in pool):
            return [proc for proc, route in self.routes.items()
                    if not proc.finished
                    and (route.web.name == machine_name
                         or route.gen.name == machine_name)]
        if machine_name in self._db_replica_names \
                and self.site.db.name not in down:
            return [proc for proc, route in self.routes.items()
                    if not proc.finished
                    and route.db_busy_on == machine_name]
        return self.inner.crash_victims(machine_name)

    # -- sync locks -----------------------------------------------------------

    def sync_registry(self, route) -> Dict[str, RWLock]:
        if route is None or route is self.site:
            return self.site._sync_locks
        return self._sync_registries[route.gen.name]
