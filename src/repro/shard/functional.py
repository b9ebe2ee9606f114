"""The sharded database's functional twin: real SQL over N engines.

The simulation layer (:mod:`repro.shard.layer`) prices time; this module
proves the *semantics* on the real query engine: N independent
:class:`repro.db.engine.Database` instances, one :class:`Session` per
shard per connection (explicit-lock state is scoped per instance --
the ``db/engine`` refactor this subsystem motivated), row placement by
the same CRC32/range math the simulator routes with, and a presumed-
abort two-phase commit whose prepare phase validates every
participant's lock state *before* any write statement runs.

Tests drive it to assert what the simulator can only price: a write on
an unlocked shard raises :class:`~repro.db.errors.LockError` naming
that shard's scope, an aborted cross-shard transaction mutates no rows
anywhere, and global tables stay replicated on every shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.engine import Database, ResultSet, Session
from repro.db.errors import SqlError
from repro.shard.routing import ShardScheme, scheme_for, shard_index


def _shard_names(base: str, count: int) -> List[str]:
    return [base] + [f"{base}.s{i}" for i in range(2, count + 1)]


class ShardedDatabase:
    """N real database engines behind one partitioning scheme."""

    def __init__(self, app_name: str, shards: int, strategy: str = "hash",
                 name: str = "db", scheme: Optional[ShardScheme] = None,
                 cost_model=None):
        if shards < 1:
            raise ValueError("a database needs at least one shard")
        self.scheme = scheme if scheme is not None else scheme_for(app_name)
        self.strategy = strategy
        self.shards: Tuple[Database, ...] = tuple(
            Database(name=n, cost_model=cost_model)
            for n in _shard_names(name, shards))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- schema and placement --------------------------------------------------

    def create_table(self, schema) -> None:
        """Every shard carries every table: partitioned tables hold
        their slice, global tables a full copy, local tables their own
        private rows."""
        for db in self.shards:
            db.create_table(schema)

    def shard_of(self, table: str, entity: int) -> int:
        """The shard owning ``entity`` of ``table``'s group (0 for
        global/local tables: by convention their canonical copy is
        shard 0, but reads resolve on any shard)."""
        group = self.scheme.group_of(table)
        if group is None:
            return 0
        space = max(1, self.shards[0].table(group).schema.stats.nominal_rows
                    or 1)
        return shard_index(group, entity, space, self.n_shards,
                           self.strategy)

    def load_rows(self, table: str, rows: Sequence[dict],
                  key: Optional[str] = None) -> Dict[int, int]:
        """Place ``rows``: partitioned tables route each row by its
        partition key (``key`` defaults to ``<group>_id``, falling back
        to ``id``); global tables replicate to every shard.  Returns
        rows loaded per shard."""
        group = self.scheme.group_of(table)
        loaded: Dict[int, int] = {}
        if group is None:
            for idx, db in enumerate(self.shards):
                loaded[idx] = db.load_rows(table, rows)
            return loaded
        if key is None:
            key = "id" if table == group else f"{group}_id"
        for row in rows:
            if key not in row:
                raise SqlError(
                    f"row for partitioned table {table!r} has no "
                    f"partition key {key!r}")
            idx = self.shard_of(table, int(row[key]))
            self.shards[idx].load_rows(table, (row,))
            loaded[idx] = loaded.get(idx, 0) + 1
        return loaded

    def connection(self) -> "ShardedConnection":
        return ShardedConnection(self)


class ShardedConnection:
    """One client connection: a scoped session per shard."""

    def __init__(self, db: ShardedDatabase):
        self.db = db
        self._sessions: Dict[int, Session] = {}
        self.commits = 0
        self.aborts = 0

    def session(self, shard: int) -> Session:
        session = self._sessions.get(shard)
        if session is None:
            session = self.db.shards[shard].open_session()
            self._sessions[shard] = session
        return session

    def execute(self, shard: int, sql: str,
                params: Sequence = ()) -> ResultSet:
        return self.db.shards[shard].execute(sql, params,
                                             self.session(shard))

    def lock_tables(self, locks_by_shard: Dict[int, Sequence[Tuple[str, str]]]
                    ) -> None:
        """Open one explicit-lock span per participating shard."""
        for shard, locks in sorted(locks_by_shard.items()):
            self.db.shards[shard].lock_tables(self.session(shard), locks)

    def unlock_all(self) -> None:
        for shard, session in self._sessions.items():
            self.db.shards[shard].unlock_tables(session)

    def transaction(self, statements: Sequence[Tuple[int, str, Sequence]],
                    fail_shard: Optional[int] = None) -> bool:
        """Run a cross-shard write transaction under two-phase commit.

        Prepare validates every participant up front: each write
        statement's target shard must hold a span (``lock_tables``)
        covering its table for WRITE.  A failed vote -- or ``fail_shard``
        simulating a participant crash at prepare time -- aborts before
        *any* statement runs (presumed abort; MyISAM cannot roll back,
        so the all-or-nothing point is the prepare barrier).  Returns
        True on commit, False on abort; locks are released either way.
        """
        participants = sorted({shard for shard, __s, __p in statements})
        try:
            for shard in participants:
                if fail_shard is not None and shard == fail_shard:
                    self.aborts += 1
                    return False
                session = self._sessions.get(shard)
                writes = [sql for s, sql, __p in statements if s == shard]
                if session is None or not session.locks:
                    raise SqlError(
                        f"shard {self.db.shards[shard].name!r} has no "
                        f"lock span for {len(writes)} write statement(s)")
            for shard, sql, params in statements:
                self.execute(shard, sql, params)
            self.commits += 1
            return True
        finally:
            self.unlock_all()
