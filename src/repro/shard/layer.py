"""The shard layer: a horizontally partitioned database.

:class:`ShardLayer` deploys a ``DB[N]`` topology: N independent write
primaries, each owning one horizontal slice of the schema's partitioned
table groups (see :mod:`repro.shard.routing`), each optionally fronted
by its own replica set (``DB[N](1+R)`` gives every shard R read
replicas with the cluster layer's log shipping and read-your-writes
routing).

Shard 1 *is* the cluster layer's database -- same machine name (``db``),
same site-owned lock registry, same ``ReplicatedDb`` -- so every
mechanism the cluster layer already proved (replica crash rerouting,
lag fallbacks, session watermarks) applies per shard unchanged.
Shards 2..N get private lock registries (``db.s2.items`` ...), which is
the whole point: a checkout's ``LOCK TABLES`` span now serializes only
the sessions that hashed to the *same* shard, so the bookstore ordering
mix's table-lock convoy shrinks by roughly the shard count.

Routing is driver-level, per statement:

* tables within one group -> that group's shard (the fast path; group
  draws are memoized per request, session groups per session);
* an unrouted multi-group read -> scatter-gather: every shard runs a
  ``1/N`` slice, the issuer pays a merge cost per leg;
* writes route by their written group; a ``LOCK TABLES`` span is
  partitioned across the shards its tables live on, and when the span
  wrote two or more shards the ``UNLOCK`` runs two-phase commit
  (:mod:`repro.shard.twopc`) *before* any lock drops.

``DB[1]`` never builds this layer (``build_site`` installs it for
``db_shards > 1`` only), and nothing here is imported by the paper
configurations -- the import-isolation invariant the CI smoke job
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.balancer import LoadBalancer
from repro.cluster.layer import ClusterLayer
from repro.cluster.replication import DbInstance, ReplicatedDb, SessionState
from repro.shard.routing import ShardScheme, scheme_for, shard_index
from repro.shard.twopc import ShardStats, TwoPcCoordinator, TwoPcCosts
from repro.sim.resources import (
    RWLock,
    safe_acquire_read,
    safe_acquire_write,
    traced_acquire_lock,
)
from repro.sim.rng import RngStreams
from repro.topology.simulation import SimulatedSite, SiteLayer

#: Span name for a scatter-gather read fan-out.
SPAN_SCATTER = "db.scatter"

#: Pseudo-group pinning sessions of a schema with no partition scheme.
HOME_GROUP = "__home__"


@dataclass(frozen=True)
class ShardCosts:
    """Sharding-layer cost constants."""

    #: issuer CPU to merge one shard's partial result into the answer.
    scatter_merge_cpu: float = 0.08e-3
    twopc: TwoPcCosts = field(default_factory=TwoPcCosts)


class ShardLayer(SiteLayer):
    """Statement routing over ``DB[N]`` shard primaries."""

    axis = "shard"
    wraps = ("db_query", "db_lock", "db_unlock", "table_lock_of",
             "note_commit", "new_session", "end_session", "mark_up",
             "crash_victims")

    def __init__(self, site: SimulatedSite, cluster: ClusterLayer,
                 rng: RngStreams, cache=None,
                 shard_costs: Optional[ShardCosts] = None,
                 scheme: Optional[ShardScheme] = None):
        config = site.config
        spec = config.cluster
        if spec.db_shards <= 1:
            raise ValueError(f"{config.name!r} has a single shard")
        super().__init__(site)
        sim = site.sim
        self.cluster = cluster
        # The cache layer, when present, supplies the partition-key
        # draw: its per-session entity for the group's root table, so
        # cache keys and shard routing agree on which row a request
        # touches (a cached checkout page invalidates on the shard that
        # executed the write).
        self.cache = cache
        self.shard_costs = shard_costs or ShardCosts()
        self.scheme = scheme if scheme is not None \
            else scheme_for(site.profile.app_name)
        self.n_shards = spec.db_shards
        self.strategy = spec.shard_strategy
        self._session_group_set = frozenset(self.scheme.session_groups) \
            | (frozenset((HOME_GROUP,)) if not self.scheme.groups
               else frozenset())

        # -- shards 2..N (shard 1 is the cluster layer's database) ----------
        is_up = lambda name: name not in site.down   # noqa: E731
        write_priority = site.costs.db_write_priority
        repls = [cluster.repl]
        self._db_instances = dict(cluster.db_instances)
        for primary_name in config.db_shard_names()[1:]:
            machine = site.machines[primary_name]
            primary = DbInstance(sim, machine,
                                 write_priority=write_priority,
                                 is_primary=True)
            names = config.shard_replica_names(primary_name)
            replicas = [DbInstance(sim, site.machines[n],
                                   write_priority=write_priority)
                        for n in names]
            balancer = LoadBalancer(
                f"lb.{primary_name}", names or [primary_name],
                policy=spec.db_read_policy,
                rng=rng.stream(f"shard.lb.{primary_name}"), is_up=is_up)
            repls.append(ReplicatedDb(
                sim, site, primary, replicas,
                replication_lag=spec.replication_lag,
                apply_cost_factor=spec.apply_cost_factor,
                balancer=balancer))
            self._db_instances[primary_name] = primary
            self._db_instances.update(
                (r.machine.name, r) for r in replicas)
        self.shard_repls = tuple(repls)
        self._shard_primaries = tuple(
            r.primary.machine for r in self.shard_repls)
        self._shard_of_machine: Dict[str, int] = {}
        for idx, repl in enumerate(self.shard_repls):
            self._shard_of_machine[repl.primary.machine.name] = idx
            for replica in repl.replicas:
                self._shard_of_machine[replica.machine.name] = idx

        # -- routing/commit state -------------------------------------------
        # (client, shard >= 1) -> per-shard RYW session watermark.
        self._shard_sessions: Dict[Tuple[int, int], SessionState] = {}
        # client -> {session group -> shard} (a session is one customer).
        self._session_shards: Dict[int, Dict[str, int]] = {}
        self.twopc = TwoPcCoordinator(site, self.shard_costs.twopc)
        self.stats = ShardStats()

    # -- sessions -------------------------------------------------------------

    def _shard_session(self, client_id: int, shard: int) -> SessionState:
        if shard == 0:
            return self.cluster.session(client_id)
        key = (client_id, shard)
        session = self._shard_sessions.get(key)
        if session is None:
            session = SessionState(client_id)
            self._shard_sessions[key] = session
        return session

    def new_session(self, client_id: int, rng) -> None:
        self.inner.new_session(client_id, rng)
        self._session_shards.pop(client_id, None)
        for shard in range(1, self.n_shards):
            session = self._shard_sessions.get((client_id, shard))
            if session is not None:
                session.reset()
            self.shard_repls[shard].balancer.forget_session(client_id)

    def end_session(self, client_id: int) -> None:
        self.inner.end_session(client_id)
        self._session_shards.pop(client_id, None)
        for shard in range(1, self.n_shards):
            self._shard_sessions.pop((client_id, shard), None)
            self.shard_repls[shard].balancer.forget_session(client_id)

    # -- routing: group -> shard ----------------------------------------------

    def _shard_of_group(self, route, group: str) -> int:
        shard = route.shard_groups.get(group)
        if shard is not None:
            return shard
        if group in self._session_group_set:
            per_session = self._session_shards.setdefault(
                route.client_id, {})
            shard = per_session.get(group)
            if shard is None:
                shard = self._draw_shard(route, group)
                per_session[group] = shard
        else:
            shard = self._draw_shard(route, group)
        route.shard_groups[group] = shard
        return shard

    def _draw_shard(self, route, group: str) -> int:
        """The shard of the partition-key entity this request targets
        in ``group``."""
        space = max(1, self.site.profile.key_spaces.get(group, 1_000_000))
        if self.cache is not None:
            entity = self.cache.entity(route, group)
        else:
            entity = route.rng.randrange(space)
        return shard_index(group, entity, space, self.n_shards,
                           self.strategy)

    def _home_shard(self, route) -> int:
        home = self.scheme.home_group or HOME_GROUP
        return self._shard_of_group(route, home)

    def _statement_shards(self, route, reads, writes):
        """``(shards, scatter?)`` for a statement outside a lock span."""
        scheme = self.scheme
        if writes:
            groups = scheme.groups_of(writes)
            # A statement writing several groups at once does not occur
            # in the shipped profiles; route by the first group if ever.
            shard = self._shard_of_group(route, groups[0]) if groups \
                else self._home_shard(route)
            return (shard,), False
        groups = scheme.groups_of(reads)
        if not groups:
            # Global/local tables only: replicated everywhere, served
            # by the session's home shard.
            return (self._home_shard(route),), False
        if len(groups) == 1:
            return (self._shard_of_group(route, groups[0]),), False
        return tuple(range(self.n_shards)), True

    # -- statement execution ---------------------------------------------------

    def db_query(self, step, held_explicit, route, rc=None, label=""):
        stats = self.stats
        if held_explicit:
            stats.span_statements += 1
            return self._span_statement(step, held_explicit, route, rc,
                                        label)
        writes = step[5]
        shards, scatter = self._statement_shards(route, step[4], writes)
        if scatter:
            stats.scatter_queries += 1
            return self._scatter_read(step, route, shards, rc, label)
        shard = shards[0]
        if writes:
            stats.single_shard_writes += 1
            return self.site._db_query(step, held_explicit, route, rc,
                                       label, self._shard_primaries[shard])
        stats.single_shard_reads += 1
        repl = self.shard_repls[shard]
        if repl.replicas:
            return self.cluster.read_replicated(
                step, route, repl,
                self._shard_session(route.client_id, shard), rc, label)
        return self.site._db_query(step, {}, route, rc, label,
                                   self._shard_primaries[shard])

    def _span_statement(self, step, held_explicit, route, rc=None,
                        label=""):
        """A statement inside a ``LOCK TABLES`` span: run it on the
        shard(s) whose locks the span holds for its tables.  The group
        draws are memoized on the route, so the lock partition and the
        statements always agree on which shard owns what."""
        __, db_cpu, req_bytes, rep_bytes, reads, writes, count = step
        groups = self.scheme.groups_of(writes if writes else reads)
        if not groups:
            shards = (route.span_shards[0],) if route.span_shards \
                else (self._home_shard(route),)
        else:
            shards = tuple(sorted({self._shard_of_group(route, g)
                                   for g in groups}))
        if writes and len(shards) > 1:
            shards = shards[:1]      # as in _statement_shards
        # Shards the span holds locks on run under those locks.  A slice
        # on a shard the span only references is a *reference read*: it
        # runs on that shard's primary without statement locks.  No
        # locks, because mid-span acquisition would violate the global
        # lock order and allow distributed deadlock (span A holds
        # order_line@1 and reads items@2 while span B holds items@2 and
        # waits for order_line@1).  The primary, not a replica, because
        # the span is holding its home shard's write locks while this
        # statement runs: primaries serve only short OLTP statements,
        # while the replicas' CPU queues behind multi-millisecond
        # browsing reads would stretch every span's hold time and
        # re-couple the convoys through the read tier.
        n = len(shards)
        sub = step if n == 1 else (
            step[0], db_cpu / n, req_bytes, max(1, rep_bytes // n),
            reads, writes, count)
        for shard in shards:
            yield from self.site._db_query(sub, held_explicit, route, rc,
                                           label,
                                           self._shard_primaries[shard])

    def _scatter_read(self, step, route, shards, rc=None, label=""):
        """Fan an unrouted read out to every shard *in parallel* and
        merge: each leg is a ``1/N`` slice of the statement (perfect
        partition pruning) running as its own process, served by the
        shard's replicas when it has them, so the statement waits for
        the slowest shard instead of the sum of all queues.  The issuer
        pays a per-leg merge cost after the join.

        Legs run untraced (a request's span stack is strictly nested,
        and the legs interleave); the parent's ``db.scatter`` span
        captures the whole fan-out latency, and the site-level
        ``db_lock_wait_time`` counter still sees every leg's lock wait.
        """
        __, db_cpu, req_bytes, rep_bytes, reads, __w, count = step
        site = self.site
        n = len(shards)
        span = rc.push(SPAN_SCATTER, "db", site.db.name,
                       meta={"shards": n, "origin": label}) \
            if rc is not None else None
        route.scatter_shards = shards
        outcomes: list = []
        try:
            sub = (step[0], db_cpu / n, req_bytes,
                   max(1, rep_bytes // n), reads, (), count)
            procs = [site.sim.spawn(
                self._scatter_leg(sub, route, shard, outcomes),
                name=f"scatter.{self._shard_primaries[shard].name}")
                for shard in shards]
            for proc in procs:
                yield proc
            for kind, exc in outcomes:
                if kind == "err":
                    raise exc
            yield from route.db_client.cpu.execute(
                n * self.shard_costs.scatter_merge_cpu)
        finally:
            route.scatter_shards = ()
            if span is not None:
                rc.pop(span)

    def _scatter_leg(self, sub, route, shard, outcomes):
        """One shard's slice of a scatter read, as its own process.
        Failures become data for the joining parent to re-raise -- an
        exception must never escape a spawned generator into the
        kernel."""
        self.stats.scatter_legs += 1
        try:
            repl = self.shard_repls[shard]
            if repl.replicas:
                yield from self.cluster.read_replicated(
                    sub, route, repl,
                    self._shard_session(route.client_id, shard))
            else:
                yield from self.site._db_query(
                    sub, {}, route, db=self._shard_primaries[shard])
            outcomes.append(("ok", None))
        except BaseException as exc:     # noqa: BLE001 -- relayed, not hidden
            outcomes.append(("err", exc))

    # -- locks: per-shard scoping ----------------------------------------------

    def _shard_table_lock(self, shard: int, table: str) -> RWLock:
        if shard == 0:
            return self.site.table_lock(table)   # the site registry ("db.*")
        return self.shard_repls[shard].primary.table_lock(table)

    def table_lock_of(self, db, table: str) -> RWLock:
        instance = self._db_instances.get(db.name)
        if instance is not None and not instance.is_primary:
            return instance.table_lock(table)    # replica-local
        return self._shard_table_lock(
            self._shard_of_machine.get(db.name, 0), table)

    def db_lock(self, lock_set, held_explicit, route, rc=None, label=""):
        """LOCK TABLES, partitioned.  Locks are taken only on the span's
        *anchor* shard (where its writes go; globals ride along) and on
        any other shard the span writes -- in sorted table order within
        a fixed shard set, so two spans can never deadlock.

        Shards the span merely *reads* (the checkout pages reading the
        item catalog owned by another shard) get no span lock at all: a
        driver-level sharding layer cannot hold ``LOCK TABLES`` open
        across backends for reads, so those reference reads execute on
        the remote shard's ordinary read path with statement-level
        locking (read-committed on the catalog instead of
        span-serializable).  Without this relaxation every such span
        holds its home shard's write locks while queueing behind the
        remote shard's write-priority convoy, and the per-shard convoys
        couple back into one -- partitioning would buy nothing.  Remote
        *writes* (the stock decrement in checkout) keep their span lock
        on the owning primary and commit through 2PC."""
        site = self.site
        if held_explicit:           # MySQL implicitly releases first
            site._db_explicit_unlock(held_explicit)
        scheme = self.scheme
        placed = []
        unplaced = []
        for table, mode in lock_set:
            group = scheme.group_of(table)
            if group is None:
                unplaced.append((table, mode))
            else:
                placed.append((table, mode,
                               self._shard_of_group(route, group)))
        write_shards = {shard for __t, mode, shard in placed
                        if mode == "WRITE"}
        anchor = min(write_shards) if write_shards else \
            min((shard for __t, __m, shard in placed), default=None)
        if anchor is None:
            anchor = self._home_shard(route)
        placed.extend((table, mode, anchor) for table, mode in unplaced)
        locked_shards = write_shards | {anchor}
        participants = tuple(sorted(locked_shards))
        all_shards = {shard for __t, __m, shard in placed}
        if site.down:
            for shard in participants:
                site._check_up(self._shard_primaries[shard])
        route.span_shards = participants
        route.shard_writes.clear()
        if len(all_shards) > 1:
            self.stats.cross_shard_spans += 1
        sim = site.sim
        for table, mode, shard in sorted(placed):
            if shard not in locked_shards:
                continue             # remote reference read: no span lock
            lock = self._shard_table_lock(shard, table)
            waited_from = sim.now
            if rc is not None:
                yield from traced_acquire_lock(lock, mode, rc, lock.name,
                                               "db", label)
            elif mode == "WRITE":
                yield from safe_acquire_write(lock)
            else:
                yield from safe_acquire_read(lock)
            site.db_lock_wait_time += sim.now - waited_from
            held_explicit[table] = (mode, lock)
        for shard in participants:
            yield from self._shard_primaries[shard].cpu.execute(
                site.costs.db_lock_statement_cpu)

    def db_unlock(self, held_explicit, route, rc=None):
        """UNLOCK TABLES: when the span wrote two or more shards, run
        two-phase commit across them first -- the decision lands before
        any lock is released.  Any failure (participant down, crash
        interrupt) aborts the transaction and still releases every
        lock on the way out."""
        participants = route.span_shards
        writers = sorted(route.shard_writes.intersection(participants))
        try:
            if len(writers) >= 2:
                machines = [self._shard_primaries[s] for s in writers]
                try:
                    yield from self.twopc.transaction(route, machines, rc)
                except BaseException:
                    self.stats.twopc_aborts += 1
                    raise
                self.stats.twopc_commits += 1
        finally:
            self.site._db_explicit_unlock(held_explicit)
            route.span_shards = ()
            route.shard_writes.clear()
        for shard in participants:
            yield from self._shard_primaries[shard].cpu.execute(
                self.site.costs.db_lock_statement_cpu)

    # -- commits ---------------------------------------------------------------

    def note_commit(self, route, writes, db_cpu: float, db=None) -> None:
        shard = self._shard_of_machine.get(
            db.name if db is not None else self.site.db.name, 0)
        repl = self.shard_repls[shard]
        repl.commit_write(self._shard_session(route.client_id, shard),
                          writes, db_cpu)
        route.writes_committed += 1
        route.shard_writes.add(shard)

    # -- fault surface ---------------------------------------------------------

    def mark_up(self, machine_name: str) -> None:
        self.inner.mark_up(machine_name)
        for repl in self.shard_repls[1:]:
            repl.notify_up(machine_name)

    def crash_victims(self, machine_name: str) -> list:
        shard = self._shard_of_machine.get(machine_name)
        if shard is not None and shard > 0:
            routes = self.cluster.routes
            primary_name = self.shard_repls[shard].primary.machine.name
            if machine_name != primary_name:
                # A shard's replica: with its primary alive, only the
                # reads it is serving right now die (they reroute).
                if primary_name not in self.site.down:
                    return [proc for proc, route in routes.items()
                            if not proc.finished
                            and route.db_busy_on == machine_name]
                return self.site.inflight_processes()
            # A shard primary: only requests touching that shard die --
            # the fault-isolation upside of partitioning.
            return [proc for proc, route in routes.items()
                    if not proc.finished
                    and (shard in route.shard_groups.values()
                         or shard in route.span_shards
                         or shard in route.scatter_shards
                         or route.db_busy_on == machine_name)]
        return self.inner.crash_victims(machine_name)
