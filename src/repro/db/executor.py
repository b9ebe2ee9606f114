"""Plan compilation: a planned statement becomes one closure over params.

The engine compiles each statement once, when it prepares it, into
``run(params) -> (rows, ExecStats)``.  Access paths compile to
row-id sources, nested-loop joins to nested closures that push joined
environments (dicts alias -> row) into a sink, and projection,
aggregation, HAVING and ORDER BY to closures built once per plan.

The statistics report, per query, how many rows were *examined* split by
access kind (scanned vs index-probed).  The cost model uses that split:
scanned rows scale linearly with table size while index-probe result
sizes stay constant when the data generator keeps per-entity relation
sizes fixed, which lets a scaled-down dataset produce full-scale costs.
Each join level counts its examined rows in a local and flushes them
into the statement's ExecStats in join order, so the counts (and their
dict order, which fixes the float summation order of pricing) are those
of a row-at-a-time interpreter, LIMIT early stop included.

Sorting with mixed ASC/DESC directions uses repeated stable sorts from
the least- to the most-significant key, so no comparator inversion
tricks are needed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.db.errors import SqlError
from repro.db.exprs import AGGREGATES, compile_expr
from repro.db.index import SortedIndex
from repro.db.planner import AccessPath, DmlPlan, SelectPlan
from repro.db.sql import nodes as n


@dataclass
class ExecStats:
    """Row accounting for one executed statement.

    ``rows_examined_index`` is keyed by ``(table, lead_column)`` so the
    cost model can apply per-column cardinality scaling; ``lead_column``
    is the first column of the index the path used.
    """

    rows_examined_scan: Dict[str, int] = field(default_factory=dict)
    rows_examined_index: Dict[tuple, int] = field(default_factory=dict)
    rows_returned: int = 0
    rows_changed: int = 0
    sort_rows: int = 0
    tables_read: tuple = ()
    tables_written: tuple = ()

    def total_examined(self) -> int:
        return (sum(self.rows_examined_scan.values()) +
                sum(self.rows_examined_index.values()))

    def indexed_for_table(self, table_name: str) -> int:
        """Total indexed-examined rows for one table (test helper)."""
        return sum(count for (table, __), count
                   in self.rows_examined_index.items() if table == table_name)

    def access_summary(self) -> str:
        """Compact access-path description, e.g. ``"items:index(5) authors:scan(100)"``.

        Stamped onto QueryRecords so trace tooling can show *how* a
        query touched its tables without re-planning the statement.
        """
        parts = []
        for (table, __), count in sorted(self.rows_examined_index.items()):
            parts.append(f"{table}:index({count})")
        for table, count in sorted(self.rows_examined_scan.items()):
            parts.append(f"{table}:scan({count})")
        return " ".join(parts)


def _sort_key(value):
    """Total-orderable key: None first, then numbers, then strings."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


# -- access paths ---------------------------------------------------------------

def _stat_key(path: AccessPath) -> tuple:
    """``(is_scan, key)`` under which the path's examined rows are counted.

    Ordered accesses are LIMIT-bounded by early termination, so their
    examined count is limit-driven, not selectivity-driven: they are
    recorded unscaled (lead None) for the cost model.
    """
    if path.kind == "scan":
        return True, path.table.name
    if path.kind == "index_order" or path.ordered:
        return False, (path.table.name, None)
    return False, (path.table.name, path.index.columns[0])


def _flush(stats: ExecStats, keys: List[tuple], counts: List[int]) -> None:
    """Add per-level examined counts to ``stats`` in join order."""
    for (is_scan, key), count in zip(keys, counts):
        if count:
            target = stats.rows_examined_scan if is_scan \
                else stats.rows_examined_index
            target[key] = target.get(key, 0) + count


def _compile_tuple_of_fns(fns) -> Callable:
    """``fn(env, params) -> tuple`` of the compiled ``fns``' values."""
    if not fns:
        return lambda env, params: ()
    if len(fns) == 1:
        only = fns[0]
        return lambda env, params: (only(env, params),)
    return lambda env, params: tuple([fn(env, params) for fn in fns])


def _compile_source(path: AccessPath) -> Callable:
    """``fn(env, params) -> iterable of row ids`` for one access path."""
    index = path.index
    if path.kind == "index_eq":
        if len(path.key_fns) == len(index.columns) or \
                not isinstance(index, SortedIndex):
            probe = index.lookup
        elif path.ordered and path.descending:
            def probe(key, prefix=index.prefix):
                return prefix(key)[::-1]
        else:
            probe = index.prefix
        if len(path.key_fns) == 1:
            key_fn = path.key_fns[0]
            return lambda env, params: probe((key_fn(env, params),))
        key_of = _compile_tuple_of_fns(path.key_fns)
        return lambda env, params: probe(key_of(env, params))
    if path.kind == "index_range":
        low_fn, high_fn = path.low_fn, path.high_fn
        low_inc, high_inc = path.low_inclusive, path.high_inclusive

        def bounded(env, params):
            low = (low_fn(env, params),) if low_fn else None
            high = (high_fn(env, params),) if high_fn else None
            return index.range(low, high, low_inc, high_inc)
        return bounded
    if path.kind == "index_order":
        descending = path.descending
        return lambda env, params: index.scan(descending=descending)
    rows = path.table._rows
    return lambda env, params: range(len(rows))


def _compile_level(path: AccessPath, depth: int, outer: bool,
                   inner: Callable) -> Callable:
    """One nested-loop join level: ``fn(env, params, acc, counts) -> stop``.

    Binds each matching row of ``path`` into ``env`` and calls ``inner``;
    a true return from ``inner`` stops the whole pipeline (LIMIT).  With
    ``inner`` None the level appends each match's row id to ``acc``
    instead (UPDATE/DELETE).
    """
    source = _compile_source(path)
    rows = path.table._rows
    alias = path.alias
    filter_fn = path.filter_fn
    null_row = [None] * len(path.table.schema.columns) if outer else None

    def level(env, params, acc, counts):
        examined = 0
        matched = False
        for rowid in source(env, params):
            row = rows[rowid]
            if row is None:
                continue
            examined += 1
            env[alias] = row
            if filter_fn is None or filter_fn(env, params):
                matched = True
                if inner is None:
                    acc.append(rowid)
                elif inner(env, params, acc, counts):
                    counts[depth] += examined
                    return True
        counts[depth] += examined
        if not matched and null_row is not None:
            env[alias] = null_row
            return inner(env, params, acc, counts)
        return False
    return level


def _compile_join(plan: SelectPlan, sink: Callable) -> Callable:
    """Nest one level per access path around ``sink``, which has the
    level signature and sees every fully joined environment."""
    post_filter = plan.post_filter
    inner = sink
    if post_filter is not None:
        def inner(env, params, acc, counts):
            return post_filter(env, params) and sink(env, params, acc, counts)
    for depth in range(len(plan.paths) - 1, -1, -1):
        inner = _compile_level(plan.paths[depth], depth,
                               plan.outer_flags[depth], inner)
    return inner


def _compile_tuple(exprs, resolver, aggregates=None) -> Callable:
    """``fn(env, params) -> tuple`` evaluating ``exprs`` left to right."""
    refs = [resolver.resolve(e) if isinstance(e, n.ColumnRef) else None
            for e in exprs]
    if exprs and all(refs) and len({alias for alias, __ in refs}) == 1:
        alias = refs[0][0]
        if len(refs) == 1:
            pos = refs[0][1]
            return lambda env, params: (env[alias][pos],)
        getter = operator.itemgetter(*[pos for __, pos in refs])
        return lambda env, params: getter(env[alias])
    return _compile_tuple_of_fns(
        [compile_expr(e, resolver, aggregates) for e in exprs])


# -- SELECT ---------------------------------------------------------------------

def compile_select(plan: SelectPlan) -> Callable:
    """Compile a SelectPlan to ``run(params) -> (rows, ExecStats)``."""
    keys = [_stat_key(path) for path in plan.paths]
    width = len(plan.paths)
    tables_read = plan.tables_read
    limit_fn, offset_fn = plan.limit_fn, plan.offset_fn

    def limits(params):
        limit = None if limit_fn is None else int(limit_fn({}, params))
        offset = 0 if offset_fn is None else int(offset_fn({}, params))
        return limit, offset

    body = _compile_aggregate(plan) if plan.has_aggregates \
        else _compile_plain(plan, limits)

    def run(params):
        limit, offset = limits(params)
        stats = ExecStats(tables_read=tables_read)
        counts = [0] * width
        rows = body(params, counts, stats)
        _flush(stats, keys, counts)
        if limit is not None or offset:
            rows = rows[offset:] if limit is None \
                else rows[offset:offset + limit]
        stats.rows_returned = len(rows)
        return rows, stats
    return run


def _compile_plain(plan: SelectPlan, limits: Callable) -> Callable:
    """The non-aggregate body: join, project, sort or stop early."""
    project = _compile_tuple(plan.item_exprs, plan.resolver)
    needs_sort = bool(plan.order_items) and not plan.ordered_by_index
    if needs_sort:
        if any(fn is None for fn, __, __ in plan.order_items):
            raise SqlError("unresolvable ORDER BY expression")
        order_key = _compile_tuple_of_fns(
            [fn for fn, __, __ in plan.order_items])
        directions = [desc for __, desc, __ in plan.order_items]

        def sink(env, params, acc, counts):
            acc.append((order_key(env, params), project(env, params)))
    elif plan.ordered_by_index and not plan.distinct and \
            plan.limit_fn is not None:
        def sink(env, params, acc, counts):
            acc.append(project(env, params))
            limit, offset = limits(params)
            return len(acc) >= limit + offset
    else:
        def sink(env, params, acc, counts):
            acc.append(project(env, params))
    join = _compile_join(plan, sink)
    distinct = plan.distinct

    def body(params, counts, stats):
        rows = []
        join({}, params, rows, counts)
        if needs_sort:
            stats.sort_rows += len(rows)
            for pos in range(len(directions) - 1, -1, -1):
                rows.sort(key=lambda kr, pos=pos: _sort_key(kr[0][pos]),
                          reverse=directions[pos])
            rows = [projected for __, projected in rows]
        if distinct:
            rows = list(dict.fromkeys(rows))
        return rows
    return body


# -- aggregation ----------------------------------------------------------------

def _compile_aggregate(plan: SelectPlan) -> Callable:
    """GROUP BY / aggregate body: accumulate per group, then HAVING,
    projection and ORDER BY over the projected aliases."""
    resolver = plan.resolver
    aggregates: List[n.Aggregate] = []
    project = _compile_tuple(plan.item_exprs, resolver, aggregates)
    having = None if plan.having_expr is None else \
        compile_expr(plan.having_expr, resolver, aggregates)
    steps = [_compile_step(agg, resolver) for agg in aggregates]
    finals = [_FINALIZE[agg.func] for agg in aggregates]
    distincts = [agg.distinct for agg in aggregates]
    group_key = _compile_tuple_of_fns(plan.group_fns)
    grouped = bool(plan.group_fns)
    names = plan.output_names
    sort_positions = []
    for __, descending, alias_name in reversed(plan.order_items):
        if alias_name is None or alias_name not in names:
            raise SqlError(
                "ORDER BY in an aggregate query must reference a "
                "projected column alias")
        sort_positions.append((names.index(alias_name), descending))

    def new_state():
        return [[0, 0.0, None, set() if distinct else None]
                for distinct in distincts]

    def sink(env, params, groups, counts):
        key = group_key(env, params)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = (dict(env), new_state())
        for step, acc in zip(steps, entry[1]):
            step(acc, env, params)
    join = _compile_join(plan, sink)

    def body(params, counts, stats):
        groups: Dict[tuple, tuple] = {}
        join({}, params, groups, counts)
        if not groups and not grouped:
            groups[()] = ({}, new_state())
        rows = []
        for env, state in groups.values():
            env[AGGREGATES] = [final(acc)
                               for final, acc in zip(finals, state)]
            if having is None or having(env, params):
                rows.append(project(env, params))
        if plan.order_items:
            stats.sort_rows += len(rows)
            for pos, descending in sort_positions:
                rows.sort(key=lambda row, pos=pos: _sort_key(row[pos]),
                          reverse=descending)
        return rows
    return body


# Types whose native order between two values of the same type is the
# order of their _sort_key, so MIN/MAX may skip building the keys.
_NATIVELY_ORDERED = frozenset((int, float, str))


def _compile_step(agg: n.Aggregate, resolver) -> Callable:
    """``step(acc, env, params)`` folding one row into an accumulator.

    ``acc`` is ``[count, total, extreme, distinct_seen]``; only the slots
    the aggregate's function reads are maintained.
    """
    if agg.func not in _FINALIZE:
        raise SqlError(f"unknown aggregate {agg.func!r}")
    if agg.arg is None:                   # COUNT(*)
        def count_star(acc, env, params):
            acc[0] += 1
        return count_star
    arg = compile_expr(agg.arg, resolver)
    distinct = agg.distinct
    summing = agg.func in ("SUM", "AVG")
    better = {"MIN": operator.lt, "MAX": operator.gt}.get(agg.func)

    def step(acc, env, params):
        value = arg(env, params)
        if value is None:
            return
        if distinct:
            if value in acc[3]:
                return
            acc[3].add(value)
        acc[0] += 1
        if summing and isinstance(value, (int, float)) and \
                not isinstance(value, bool):
            acc[1] += value
        if better is not None:
            best = acc[2]
            if best is None:
                acc[2] = value
            elif value.__class__ is best.__class__ and \
                    value.__class__ in _NATIVELY_ORDERED:
                if better(value, best):
                    acc[2] = value
            elif better(_sort_key(value), _sort_key(best)):
                acc[2] = value
    return step


_FINALIZE = {
    "COUNT": lambda acc: acc[0],
    "SUM": lambda acc: acc[1] if acc[0] else None,
    "MIN": lambda acc: acc[2],
    "MAX": lambda acc: acc[2],
    "AVG": lambda acc: acc[1] / acc[0] if acc[0] else None,
}


# -- UPDATE / DELETE ------------------------------------------------------------

def compile_dml(kind: str, plan: DmlPlan) -> Callable:
    """Compile an UPDATE or DELETE plan to ``run(params) -> ([], ExecStats)``.

    Every match is collected before the first write, so an UPDATE does
    not see its own writes (halloween protection).
    """
    path = plan.path
    table = path.table
    names = (table.name,)
    keys = [_stat_key(path)]
    collect = _compile_level(path, 0, False, None)
    alias = path.alias
    assignments = plan.assignments

    def run(params):
        stats = ExecStats(tables_written=names, tables_read=names)
        env: dict = {}
        matches: list = []
        counts = [0]
        collect(env, params, matches, counts)
        _flush(stats, keys, counts)
        for rowid in matches:
            if kind == "delete":
                table.delete_row(rowid)
            else:
                row = table.get_row(rowid)
                if row is None:
                    continue
                env[alias] = row
                table.update_row(rowid, {col: fn(env, params)
                                         for col, fn in assignments})
            stats.rows_changed += 1
        return [], stats
    return run
