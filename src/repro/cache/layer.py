"""The cache layer: a cache tier interposed in a site's request path.

:class:`CacheLayer` adds the two caches of the cache-tier design:

* a **query-result cache** in the DB driver path: a cacheable read
  (no explicit locks held, no writes, reads at least one table) first
  asks the tier; a hit skips the entire database round trip;
* a **page-fragment cache** around page generation: a read-only
  interaction's page is looked up before the generation work; a hit
  skips page generation *and* every query it would replay.

Keys are entity-scoped: each request draws an entity per table from the
profile's key space with a hot-set skew (see
:data:`repro.cache.tier.HOT_PROBABILITY`), memoized per request so the
page and its queries agree.  Every entry carries dependency tags and the
commit hook invalidates them synchronously, so cached runs stay
consistent under arbitrary read/write interleavings.

The layer wraps stages only; the un-cached paths gain no branch, and a
site without cache nodes never imports this package.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.tier import (
    HOT_FRACTION,
    HOT_KEYS_MAX,
    HOT_PROBABILITY,
    CacheCosts,
    SimCacheTier,
)
from repro.topology.simulation import SimulatedSite, SiteLayer

#: Per-application fragment-cache placement defaults.  The bookstore
#: keeps the page lookup in the servlet container (its pages interleave
#: with cart/session state that lives there); the auction and bulletin-
#: board read pages are session-free, so their fragments are served
#: straight from Apache (mod_cache-style, in front of the AJP
#: connector) -- a hit skips the AJP crossing and the container
#: entirely, which is what lets those sites run into the paper's
#: ~94 Mb/s NIC ceiling instead of the web CPU (see ext_cache).
WEB_FRAGMENT_APPS = frozenset({"auction", "bboard"})


class CacheLayer(SiteLayer):
    """Query-result and page-fragment caches around one site."""

    axis = "cache"

    def __init__(self, site: SimulatedSite,
                 cache_costs: Optional[CacheCosts] = None):
        super().__init__(site)
        config = site.config
        spec = config.cluster
        if spec.cache_nodes <= 0:
            raise ValueError(f"{config.name!r} has no cache nodes")
        node_names = config.cache_node_names()
        self._node_names = frozenset(node_names)
        self.tier = SimCacheTier(
            site.sim, site, [site.machines[n] for n in node_names], spec,
            costs=cache_costs)
        self.stats = self.tier.stats
        profile = site.profile
        # Page fragments are cached for read-only interactions only:
        # anything that writes must see its own update on the next page.
        self._page_cacheable = frozenset(
            name for name, prof in profile.interactions.items()
            if prof.read_only) if self.tier.page_ttl > 0 else frozenset()
        # client -> {table: entity}: a session keeps revisiting the same
        # entities (its own customer row, its cart, the items it
        # browses), which is exactly the locality a cache tier serves.
        self._session_entities = {}
        # Where the page lookup happens.  PHP looks up inside the script
        # (it runs in the web server anyway); the servlet flavors look
        # up at the web tier, in front of the AJP connector, for the
        # session-free apps, and inside the container otherwise.  The
        # page is planned when the request enters the container either
        # way.
        self._php = config.flavor == "php"
        self._web_fragments = not self._php \
            and profile.app_name in WEB_FRAGMENT_APPS
        page_stages = ("run_php", "generate") if self._php else \
            ("run_container",) if self._web_fragments else \
            ("run_container", "generate")
        self.wraps = page_stages + (
            "db_query", "note_commit", "new_session", "end_session",
            "mark_down", "crash_victims")

    # -- sessions --------------------------------------------------------------

    def new_session(self, client_id, rng) -> None:
        self.inner.new_session(client_id, rng)
        self._session_entities.pop(client_id, None)

    def end_session(self, client_id) -> None:
        self.inner.end_session(client_id)
        self._session_entities.pop(client_id, None)

    # -- cache keys ------------------------------------------------------------

    def entity(self, route, table: str):
        """The entity this request's cache keys pin for ``table``.

        Drawn once per *session* (hot-set skewed over the table's key
        space) and memoized, so a client's repeated pages and queries
        agree -- the per-session revisit locality a cache tier lives on.
        The shard layer routes by this draw too, so cache keys and shard
        routing name the same row.
        """
        entity = route.cache_keys.get(table)
        if entity is not None:
            return entity
        session = self._session_entities.setdefault(route.client_id, {})
        entity = session.get(table)
        if entity is None:
            rng = route.rng
            space = max(1, self.site.profile.key_spaces.get(table, 1_000_000))
            hot = max(1, min(int(space * HOT_FRACTION), HOT_KEYS_MAX))
            if rng.random() < HOT_PROBABILITY:
                entity = rng.randrange(hot)
            else:
                entity = rng.randrange(space)
            session[table] = entity
        route.cache_keys[table] = entity
        return entity

    def _dep_tags(self, route, tables):
        """Dependency tags for an entry: each read table pinned to the
        entity this request drew for it (key granularity spares entries
        pinned to other entities on a write; table granularity tags the
        whole table, so any write to it kills the entry)."""
        if self.tier.granularity == "key":
            # Draw an entity for *every* read table: an un-pinned table
            # would tag (table, None) and die on any write to it, which
            # lets one hot-table writer nuke the whole cache.
            return tuple((t, self.entity(route, t))
                         for t in sorted(set(tables)))
        return tuple((t, None) for t in sorted(set(tables)))

    def _absorb(self, db_cpu: float, queries: int) -> None:
        stats = self.tier.stats
        stats.absorbed_db_cpu += db_cpu
        stats.absorbed_queries += queries

    # -- the query-result cache ------------------------------------------------

    def db_query(self, step, held_explicit, route, rc=None, label=""):
        if self.tier.query_ttl <= 0 or held_explicit or step[5] \
                or not step[4]:
            return self.inner.db_query(step, held_explicit, route, rc,
                                       label)
        return self._cached_query(step, held_explicit, route, rc, label)

    def _cached_query(self, step, held_explicit, route, rc, label):
        reads = step[4]
        entity = self.entity(route, reads[0])
        # Logical statement identity: the i-th cacheable read of this
        # interaction over these tables, for this entity.  (The step
        # tuple itself carries per-variant priced costs and would never
        # repeat across requests.)
        route.cache_seq += 1
        key = ("q", route.interaction, route.cache_seq, reads, entity)
        entry = yield from self.tier.get(route.db_client, "query", key, rc)
        if entry is not None:
            self._absorb(step[1], step[6])
            return
        yield from self.inner.db_query(step, held_explicit, route, rc,
                                       label)
        yield from self.tier.put(route.db_client, "query", key, step[3],
                                 self._dep_tags(route, reads), rc)

    # -- the page-fragment cache -----------------------------------------------

    def _page_plan(self, variant, route):
        """(key, dep tables) when this request's page is cacheable,
        else None."""
        if route.interaction not in self._page_cacheable:
            return None
        tables = set()
        primary = None
        for step in variant.steps:
            if step[0] == "query":
                reads = step[4]
                if primary is None and reads:
                    primary = reads[0]
                tables.update(reads)
        if primary is None:
            return None             # no reads: nothing worth caching
        key = ("p", route.interaction, self.entity(route, primary))
        return key, tables

    def run_php(self, variant, rng, route, rc=None):
        route.page_plan = self._page_plan(variant, route)
        return self.inner.run_php(variant, rng, route, rc)

    def run_container(self, variant, rng, route, rc=None):
        plan = self._page_plan(variant, route)
        if self._web_fragments and plan is not None:
            return self._web_fragment_page(plan, variant, rng, route, rc)
        route.page_plan = plan
        return self.inner.run_container(variant, rng, route, rc)

    def generate(self, variant, rng, route, rc=None):
        plan = route.page_plan
        if plan is None:
            return self.inner.generate(variant, rng, route, rc)
        return self._cached_page(plan, variant, rng, route, rc)

    def _cached_page(self, plan, variant, rng, route, rc):
        """Look the page up where it is generated: a hit keeps the
        per-request script/servlet work and absorbs generation and its
        queries."""
        key, tables = plan
        site = self.site
        if self._php:
            machine, hit_cpu = route.web, site.php_costs.per_request
        else:
            machine, hit_cpu = route.gen, site.servlet_costs.per_request
        entry = yield from self.tier.get(machine, "page", key, rc)
        if entry is not None:
            yield from machine.cpu.execute(hit_cpu)
            self._absorb(variant.db_cpu_seconds, variant.query_count)
            return
        yield from self.inner.generate(variant, rng, route, rc)
        yield from self.tier.put(machine, "page", key,
                                 variant.response_bytes,
                                 self._dep_tags(route, tables), rc)

    def _web_fragment_page(self, plan, variant, rng, route, rc=None):
        """Apache-level fragment cache for the session-free apps: the
        lookup happens at the *web* tier, before the AJP connector.  A
        hit serves the page from the front end -- no AJP crossing, no
        container work, no queries -- leaving the web box's HTTP send
        as the only per-byte cost, which is how the auction browsing
        mix reaches the NIC ceiling instead of the web CPU."""
        key, tables = plan
        web = route.web
        span = rc.push("web.fragment", "phase", "web") \
            if rc is not None else None
        try:
            entry = yield from self.tier.get(web, "page", key, rc)
            if entry is not None:
                self._absorb(variant.db_cpu_seconds, variant.query_count)
                return
        finally:
            if span is not None:
                rc.pop(span)
        yield from self.inner.run_container(variant, rng, route, rc)
        yield from self.tier.put(web, "page", key, variant.response_bytes,
                                 self._dep_tags(route, tables), rc)

    # -- invalidation and faults -----------------------------------------------

    def note_commit(self, route, writes, db_cpu: float, db=None) -> None:
        self.inner.note_commit(route, writes, db_cpu, db)
        if self.tier.granularity == "key":
            # Pin the write to an entity per table (this session's own
            # rows) so key-granular invalidation can spare bystanders.
            for table in writes:
                self.entity(route, table)
        self.tier.invalidate(writes, route.cache_keys)

    def mark_down(self, machine_name: str) -> None:
        self.inner.mark_down(machine_name)
        if machine_name in self._node_names:
            self.tier.node_crashed(machine_name)

    def crash_victims(self, machine_name: str) -> list:
        # A dying cache node takes no request with it: in-flight cache
        # calls complete, later ones miss cold.
        if machine_name in self._node_names:
            return []
        return self.inner.crash_victims(machine_name)
