"""The Database facade: catalog, plan cache, sessions, explicit locks.

The functional engine executes statements immediately (it is
single-threaded); explicit ``LOCK TABLES`` state is tracked per session
and *enforced* the way MySQL enforces it -- while a session holds any
explicit locks, touching an unlocked table (or writing a table locked
only for READ) is an error.  This catches application code whose lock
statements do not cover its queries, which is precisely the bug class
the paper's sync-servlet rewrite had to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel, QueryCost, TableScale, ZERO_COST
from repro.db.errors import LockError, SqlError
from repro.db.executor import ExecStats, compile_dml, compile_select
from repro.db.exprs import Resolver, compile_expr
from repro.db.planner import Planner
from repro.db.schema import IndexDef, TableSchema
from repro.db.sql import nodes as n
from repro.db.sql.parser import parse
from repro.db.storage import Table


@dataclass
class ResultSet:
    """Outcome of one executed statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)
    cost: QueryCost = ZERO_COST
    last_insert_id: Optional[int] = None
    kind: str = "select"

    @property
    def rowcount(self) -> int:
        if self.kind == "select":
            return len(self.rows)
        return self.stats.rows_changed

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class Session:
    """Per-connection state: explicit lock set and last insert id.

    ``scope`` names the database instance the session belongs to; a
    sharded deployment (:mod:`repro.shard`) opens one session per shard,
    and lock errors name the scope so a statement routed to the wrong
    shard is immediately attributable.
    """

    __slots__ = ("locks", "last_insert_id", "scope")

    def __init__(self, scope: str = ""):
        self.locks: Dict[str, str] = {}
        self.last_insert_id: Optional[int] = None
        self.scope = scope


# Statement kinds that need no plan, by AST node type.
_PLANLESS_KINDS = {
    n.LockTables: "lock", n.UnlockTables: "unlock",
    n.CreateTable: "create_table", n.CreateIndex: "create_index",
    n.DropTable: "drop_table", n.DropIndex: "drop_index",
    n.Transaction: "txn",
}
# DDL invalidates the plan cache, so it is never cached itself.
_DDL_KINDS = ("create_table", "create_index", "drop_table", "drop_index")


@dataclass
class _Prepared:
    """A parsed, planned and compiled statement, cached by SQL text.

    SELECT/UPDATE/DELETE carry ``run(params) -> (rows, ExecStats)``
    plus the tables they read and write: the lock check needs both, and
    the cost model prices against the scale of the tables read.
    """

    ast: object
    kind: str
    plan: object = None
    run: Optional[Callable] = None
    insert_fns: Optional[list] = None
    param_count: int = 0
    columns: tuple = ()
    reads: tuple = ()
    writes: tuple = ()


class Database:
    """An in-memory database instance."""

    def __init__(self, name: str = "db", cost_model: Optional[CostModel] = None):
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.cost_model = cost_model or CostModel()
        self._plan_cache: Dict[str, _Prepared] = {}
        self._planner = Planner(self.tables)
        self.queries_executed = 0
        # Cumulative priced server-side CPU over all statements -- a
        # cheap cross-check for trace-derived DB busy time.
        self.priced_cpu_seconds = 0.0
        # Session-less execute() calls use a per-instance scratch
        # session: lock state must never leak between Database
        # instances (a sharded deployment runs many side by side).
        self._ephemeral = Session(scope=name)

    # -- catalog -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SqlError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        self._plan_cache.clear()
        return table

    def create_index(self, table_name: str, index: IndexDef) -> None:
        """Add an index; cached plans are invalidated so queries that
        could now use it are re-planned on next execution."""
        self.table(table_name).create_index(index)
        self._plan_cache.clear()

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop an index; cached plans that chose it are invalidated."""
        self.table(table_name).drop_index(index_name)
        self._plan_cache.clear()

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SqlError(f"no such table {name!r}")
        del self.tables[name]
        self._plan_cache.clear()

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SqlError(f"no such table {name!r}")
        return table

    def load_rows(self, table_name: str, rows: Sequence[dict]) -> int:
        """Bulk-load dictionaries (data generators use this)."""
        table = self.table(table_name)
        for row in rows:
            table.insert(row)
        return len(rows)

    def open_session(self) -> Session:
        return Session(scope=self.name)

    # -- statement preparation ------------------------------------------------------

    def _plan(self, ast):
        if isinstance(ast, n.Select):
            return self._planner.plan_select(ast)
        if isinstance(ast, n.Update):
            return self._planner.plan_update(ast)
        if isinstance(ast, n.Delete):
            return self._planner.plan_delete(ast)
        raise SqlError("EXPLAIN supports SELECT/UPDATE/DELETE only")

    def _prepare(self, sql: str) -> _Prepared:
        """Parse, plan and compile ``sql`` once; later calls hit the cache."""
        prepared = self._plan_cache.get(sql)
        if prepared is not None:
            return prepared
        ast, param_count = parse(sql)
        prepared = _Prepared(ast=ast, kind="", param_count=param_count)
        if isinstance(ast, n.Select):
            plan = prepared.plan = self._plan(ast)
            prepared.kind = "select"
            prepared.run = compile_select(plan)
            prepared.columns = tuple(plan.output_names)
            prepared.reads = plan.tables_read
        elif isinstance(ast, (n.Update, n.Delete)):
            plan = prepared.plan = self._plan(ast)
            prepared.kind = "update" if isinstance(ast, n.Update) \
                else "delete"
            prepared.run = compile_dml(prepared.kind, plan)
            prepared.reads = prepared.writes = (ast.table,)
        elif isinstance(ast, n.Insert):
            table = self.table(ast.table)
            resolver = Resolver({ast.table: table})
            prepared.kind = "insert"
            prepared.insert_fns = [compile_expr(v, resolver)
                                   for v in ast.values]
        elif isinstance(ast, n.Explain):
            prepared.kind = "explain"
            prepared.plan = self._plan(ast.inner)
        elif type(ast) in _PLANLESS_KINDS:
            prepared.kind = _PLANLESS_KINDS[type(ast)]
        else:  # pragma: no cover - parser covers the statement space
            raise SqlError(f"unsupported statement: {sql!r}")
        if prepared.kind not in _DDL_KINDS:
            self._plan_cache[sql] = prepared
        return prepared

    # -- lock enforcement ------------------------------------------------------------

    def _scope(self, session: Session) -> str:
        return session.scope or self.name

    def _check_locks(self, session: Session, read: Sequence[str],
                     written: Sequence[str]) -> None:
        if not session.locks:
            return
        for table in read:
            if table not in session.locks:
                raise LockError(
                    f"table {table!r} was not locked with LOCK TABLES "
                    f"on {self._scope(session)!r} "
                    f"(held: {sorted(session.locks)})")
        for table in written:
            if session.locks.get(table) != "WRITE":
                raise LockError(
                    f"table {table!r} was not locked for WRITE "
                    f"on {self._scope(session)!r} "
                    f"(held: {session.locks.get(table) or 'nothing'})")

    def lock_tables(self, session: Session,
                    locks: Sequence[Tuple[str, str]]) -> None:
        """Apply a ``LOCK TABLES`` lock set to ``session``.

        MySQL semantics: previously-held explicit locks are released
        implicitly, every named table must exist, and until
        :meth:`unlock_tables` runs the session may only touch tables in
        this set (writes need ``WRITE`` mode) -- :meth:`_check_locks`
        enforces it.  The driver's sharded twin calls this directly,
        once per participating shard, which is what makes explicit-lock
        state *per shard*: each instance scopes its own session.
        """
        if session.locks:
            # MySQL releases previously-held locks implicitly.
            session.locks.clear()
        for table, mode in locks:
            self.table(table)  # must exist
            session.locks[table] = mode

    def unlock_tables(self, session: Session) -> None:
        """Release every explicit lock ``session`` holds here."""
        session.locks.clear()

    # -- execution --------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence = (),
                session: Optional[Session] = None) -> ResultSet:
        """Parse (cached), plan (cached), and run one statement."""
        result = self._execute_statement(sql, params, session)
        self.priced_cpu_seconds += result.cost.cpu_seconds
        return result

    def _execute_statement(self, sql: str, params: Sequence = (),
                           session: Optional[Session] = None) -> ResultSet:
        prepared = self._prepare(sql)
        params = tuple(params)
        if len(params) != prepared.param_count:
            raise SqlError(
                f"statement takes {prepared.param_count} parameters, "
                f"got {len(params)}: {sql!r}")
        self.queries_executed += 1
        session = session or self._ephemeral
        kind = prepared.kind
        if prepared.run is not None:
            self._check_locks(session, prepared.reads, prepared.writes)
            rows, stats = prepared.run(params)
            scales = {name: _table_scale(self.tables[name])
                      for name in prepared.reads}
            cost = self.cost_model.price(
                stats, scales, result_bytes=_estimate_result_bytes(rows))
            return ResultSet(columns=list(prepared.columns), rows=rows,
                             stats=stats, cost=cost, kind=kind,
                             last_insert_id=session.last_insert_id)
        if kind == "insert":
            return self._run_insert(prepared, params, session)
        if kind in ("lock", "unlock"):
            if kind == "lock":
                self.lock_tables(session, prepared.ast.locks)
            else:
                self.unlock_tables(session)
            cost = self.cost_model.price(ExecStats(), {}, lock_statements=1)
            return ResultSet(kind=kind, cost=cost)
        if kind == "create_table":
            self.create_table(prepared.ast.schema)
        elif kind == "create_index":
            self.create_index(prepared.ast.table, prepared.ast.index)
        elif kind == "drop_table":
            self.drop_table(prepared.ast.name)
        elif kind == "drop_index":
            self.drop_index(prepared.ast.table, prepared.ast.name)
        elif kind == "explain":
            return self._run_explain(prepared)
        # BEGIN/COMMIT/ROLLBACK (MyISAM: accepted no-ops) fall through.
        return ResultSet(kind=kind)

    def _run_insert(self, prepared: _Prepared, params: tuple,
                    session: Session) -> ResultSet:
        ast = prepared.ast
        self._check_locks(session, (), (ast.table,))
        table = self.table(ast.table)
        values = [fn({}, params) for fn in prepared.insert_fns]
        if ast.columns:
            mapping = dict(zip(ast.columns, values))
        else:
            names = table.schema.column_names()
            if len(values) != len(names):
                raise SqlError(
                    f"INSERT into {ast.table!r} expects {len(names)} values, "
                    f"got {len(values)}")
            mapping = dict(zip(names, values))
        rowid = table.insert(mapping)
        stats = ExecStats(rows_changed=1, tables_written=(ast.table,))
        if table.schema.auto_increment:
            pk_pos = table.column_pos(table.schema.primary_key)
            session.last_insert_id = table.get_row(rowid)[pk_pos]
        cost = self.cost_model.price(stats, {})
        return ResultSet(stats=stats, cost=cost, kind="insert",
                         last_insert_id=session.last_insert_id)

    def _run_explain(self, prepared: _Prepared) -> ResultSet:
        """Describe the chosen access plan, one row per table access."""
        plan = prepared.plan
        paths = plan.paths if hasattr(plan, "paths") else [plan.path]
        rows = []
        for path in paths:
            index_name = path.index.name if path.index is not None else None
            extra = []
            if getattr(path, "ordered", False) or path.kind == "index_order":
                extra.append("ordered")
            if path.filter_fn is not None:
                extra.append("filter")
            rows.append((path.alias, path.table.name, path.kind,
                         index_name, ", ".join(extra)))
        if hasattr(plan, "has_aggregates") and plan.has_aggregates:
            rows.append(("", "", "aggregate", None, ""))
        if hasattr(plan, "order_items") and plan.order_items and \
                not getattr(plan, "ordered_by_index", False):
            rows.append(("", "", "sort", None, ""))
        return ResultSet(
            columns=["alias", "table", "access", "index", "notes"],
            rows=rows, kind="explain")


def _table_scale(table: Table) -> TableScale:
    stats = table.schema.stats
    return TableScale(nominal=stats.nominal_rows, loaded=len(table),
                      distinct=stats.distinct_values)


def _estimate_result_bytes(rows: List[tuple]) -> int:
    """Approximate wire size of a result set."""
    total = 0
    for row in rows:
        for value in row:
            if value is None:
                total += 4
            elif isinstance(value, str):
                total += len(value)
            else:
                total += 8
    return total
