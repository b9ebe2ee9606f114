"""Expression compilation: AST -> Python closures.

Expressions are compiled once per (statement, schema) and cached with the
statement plan, so per-row evaluation is a plain closure call.  The
environment is a dict mapping table alias -> current row (a list); SQL
NULL is Python ``None`` and any comparison against it is false, which is
the practically-relevant slice of three-valued logic for the benchmark
queries.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Dict, Optional

from repro.db.errors import SqlError
from repro.db.sql import nodes as n


def _divide(left, right):
    """MySQL semantics: division by zero is NULL, not an error."""
    return left / right if right else None


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}

# env key under which a grouped row carries its finalized aggregate values.
AGGREGATES = "#aggregates"

_CMP = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_LIKE_CACHE: Dict[str, re.Pattern] = {}


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to a compiled regex (cached)."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


class Resolver:
    """Resolves column references to (alias, position) pairs."""

    def __init__(self, tables: Dict[str, object]):
        # alias -> Table (storage object with column_pos / schema)
        self.tables = tables

    def resolve(self, ref: n.ColumnRef):
        if ref.table is not None:
            table = self.tables.get(ref.table)
            if table is None:
                raise SqlError(f"unknown table alias {ref.table!r}")
            return ref.table, table.column_pos(ref.column)
        hits = [
            (alias, table.column_pos(ref.column))
            for alias, table in self.tables.items()
            if table.schema.has_column(ref.column)]
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}")
        return hits[0]


def compile_expr(expr, resolver: Resolver,
                 aggregates: Optional[list] = None) -> Callable:
    """Compile to ``fn(env, params) -> value``.

    With an ``aggregates`` list, each distinct Aggregate node is appended
    to it (once) and compiles to a read of its slot in
    ``env[AGGREGATES]``; without one, aggregates are an error.
    """
    if isinstance(expr, n.Literal):
        value = expr.value
        return lambda env, params: value
    if isinstance(expr, n.Param):
        index = expr.index
        return lambda env, params: params[index]
    if isinstance(expr, n.ColumnRef):
        alias, pos = resolver.resolve(expr)
        return lambda env, params: env[alias][pos]
    if isinstance(expr, n.BinaryOp):
        left = compile_expr(expr.left, resolver, aggregates)
        right = compile_expr(expr.right, resolver, aggregates)
        if expr.op in _ARITH:
            fn = _ARITH[expr.op]

            def arith(env, params):
                lv = left(env, params)
                rv = right(env, params)
                if lv is None or rv is None:
                    return None
                return fn(lv, rv)
            return arith
        fn = _CMP[expr.op]

        def compare(env, params):
            lv = left(env, params)
            rv = right(env, params)
            if lv is None or rv is None:
                return False
            return fn(lv, rv)
        return compare
    if isinstance(expr, n.BoolOp):
        compiled = [compile_expr(op, resolver, aggregates)
                    for op in expr.operands]
        if expr.op == "AND":
            def conj(env, params):
                for fn in compiled:
                    if not fn(env, params):
                        return False
                return True
            return conj

        def disj(env, params):
            for fn in compiled:
                if fn(env, params):
                    return True
            return False
        return disj
    if isinstance(expr, n.NotOp):
        inner = compile_expr(expr.operand, resolver, aggregates)
        return lambda env, params: not inner(env, params)
    if isinstance(expr, n.LikeOp):
        operand = compile_expr(expr.operand, resolver, aggregates)
        pattern = compile_expr(expr.pattern, resolver, aggregates)
        negated = expr.negated

        def like(env, params):
            value = operand(env, params)
            pat = pattern(env, params)
            if value is None or pat is None:
                return False
            hit = like_to_regex(pat).match(str(value)) is not None
            return hit != negated
        return like
    if isinstance(expr, n.InOp):
        operand = compile_expr(expr.operand, resolver, aggregates)
        choices = [compile_expr(c, resolver, aggregates)
                   for c in expr.choices]
        negated = expr.negated

        def contains(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = any(value == c(env, params) for c in choices)
            return hit != negated
        return contains
    if isinstance(expr, n.BetweenOp):
        operand = compile_expr(expr.operand, resolver, aggregates)
        low = compile_expr(expr.low, resolver, aggregates)
        high = compile_expr(expr.high, resolver, aggregates)
        negated = expr.negated

        def between(env, params):
            value = operand(env, params)
            lo = low(env, params)
            hi = high(env, params)
            if value is None or lo is None or hi is None:
                return False
            hit = lo <= value <= hi
            return hit != negated
        return between
    if isinstance(expr, n.IsNullOp):
        operand = compile_expr(expr.operand, resolver, aggregates)
        negated = expr.negated

        def is_null(env, params):
            return (operand(env, params) is None) != negated
        return is_null
    if isinstance(expr, n.Aggregate):
        if aggregates is None:
            raise SqlError("aggregate used outside of a select list / HAVING")
        if expr not in aggregates:
            aggregates.append(expr)
        slot = aggregates.index(expr)
        return lambda env, params: env[AGGREGATES][slot]
    raise SqlError(f"cannot compile expression node {expr!r}")


def expr_has_aggregate(expr) -> bool:
    """True if the expression tree contains an Aggregate node."""
    if isinstance(expr, n.Aggregate):
        return True
    if isinstance(expr, n.BinaryOp):
        return expr_has_aggregate(expr.left) or expr_has_aggregate(expr.right)
    if isinstance(expr, n.BoolOp):
        return any(expr_has_aggregate(op) for op in expr.operands)
    if isinstance(expr, (n.NotOp, n.IsNullOp)):
        return expr_has_aggregate(expr.operand)
    if isinstance(expr, n.LikeOp):
        return expr_has_aggregate(expr.operand)
    if isinstance(expr, n.BetweenOp):
        return any(expr_has_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, n.InOp):
        return expr_has_aggregate(expr.operand) or \
            any(expr_has_aggregate(c) for c in expr.choices)
    return False


def expr_column_refs(expr, out: Optional[list] = None) -> list:
    """Collect every ColumnRef in the tree (pre-order)."""
    if out is None:
        out = []
    if isinstance(expr, n.ColumnRef):
        out.append(expr)
    elif isinstance(expr, n.BinaryOp):
        expr_column_refs(expr.left, out)
        expr_column_refs(expr.right, out)
    elif isinstance(expr, n.BoolOp):
        for op in expr.operands:
            expr_column_refs(op, out)
    elif isinstance(expr, (n.NotOp, n.IsNullOp)):
        expr_column_refs(expr.operand, out)
    elif isinstance(expr, n.LikeOp):
        expr_column_refs(expr.operand, out)
        expr_column_refs(expr.pattern, out)
    elif isinstance(expr, n.BetweenOp):
        expr_column_refs(expr.operand, out)
        expr_column_refs(expr.low, out)
        expr_column_refs(expr.high, out)
    elif isinstance(expr, n.InOp):
        expr_column_refs(expr.operand, out)
        for c in expr.choices:
            expr_column_refs(c, out)
    elif isinstance(expr, n.Aggregate) and expr.arg is not None:
        expr_column_refs(expr.arg, out)
    return out
