"""Recursive-descent parser for the PairwiseHist query class.

Grammar (informally)::

    query      := SELECT agg (',' agg)* FROM identifier
                  [WHERE or_expr] [GROUP BY identifier] [';']
    agg        := FUNC '(' (identifier | '*') ')'
    or_expr    := and_expr (OR and_expr)*
    and_expr   := term (AND term)*
    term       := condition | '(' or_expr ')'
    condition  := identifier OP literal

AND binds tighter than OR (operator precedence noted in §5.2 of the paper),
and parentheses override precedence.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs import metrics as obs_metrics
from .ast import (
    AggregateFunction,
    Aggregation,
    ComparisonOp,
    Condition,
    LogicalOp,
    Predicate,
    PredicateNode,
    Query,
)
from .tokenizer import Token, TokenType, tokenize


class ParseError(ValueError):
    """Raised when the SQL text does not match the supported grammar."""


_OPERATORS = {
    "<": ComparisonOp.LT,
    ">": ComparisonOp.GT,
    "<=": ComparisonOp.LE,
    ">=": ComparisonOp.GE,
    "=": ComparisonOp.EQ,
    "==": ComparisonOp.EQ,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -------------------------------------------------------------- #
    # Token helpers

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._current
        if not token.matches(TokenType.KEYWORD, keyword):
            raise ParseError(f"expected {keyword} at position {token.position}, got {token.value!r}")
        return self._advance()

    def _expect_punctuation(self, char: str) -> Token:
        token = self._current
        if not (token.type is TokenType.PUNCTUATION and token.value == char):
            raise ParseError(f"expected {char!r} at position {token.position}, got {token.value!r}")
        return self._advance()

    def _accept_punctuation(self, char: str) -> bool:
        if self._current.type is TokenType.PUNCTUATION and self._current.value == char:
            self._advance()
            return True
        return False

    def _accept_keyword(self, keyword: str) -> bool:
        if self._current.matches(TokenType.KEYWORD, keyword):
            self._advance()
            return True
        return False

    # -------------------------------------------------------------- #
    # Grammar rules

    def parse_query(self) -> Query:
        self._expect_keyword("SELECT")
        aggregations = [self._parse_aggregation()]
        while self._accept_punctuation(","):
            aggregations.append(self._parse_aggregation())
        self._expect_keyword("FROM")
        table_token = self._advance()
        if table_token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected table name at position {table_token.position}")
        predicate: Predicate | None = None
        group_by: str | None = None
        if self._accept_keyword("WHERE"):
            predicate = self._parse_or_expr()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_token = self._advance()
            if group_token.type is not TokenType.IDENTIFIER:
                raise ParseError(f"expected GROUP BY column at position {group_token.position}")
            group_by = group_token.value
        self._accept_punctuation(";")
        if self._current.type is not TokenType.END:
            raise ParseError(
                f"unexpected trailing input at position {self._current.position}: {self._current.value!r}"
            )
        return Query(aggregations=aggregations, table=table_token.value, predicate=predicate, group_by=group_by)

    def _parse_aggregation(self) -> Aggregation:
        func_token = self._advance()
        if func_token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected aggregation function at position {func_token.position}")
        name = func_token.value.upper()
        if name == "VARIANCE":
            name = "VAR"
        try:
            func = AggregateFunction(name)
        except ValueError as exc:
            raise ParseError(f"unsupported aggregation function {func_token.value!r}") from exc
        self._expect_punctuation("(")
        column: str | None
        if self._accept_punctuation("*"):
            column = None
        else:
            col_token = self._advance()
            if col_token.type is not TokenType.IDENTIFIER:
                raise ParseError(f"expected column name at position {col_token.position}")
            column = col_token.value
        self._expect_punctuation(")")
        if func is not AggregateFunction.COUNT and column is None:
            raise ParseError(f"{func.value}(*) is not supported; name a column")
        return Aggregation(func=func, column=column)

    def _parse_or_expr(self) -> Predicate:
        children = [self._parse_and_expr()]
        while self._accept_keyword("OR"):
            children.append(self._parse_and_expr())
        if len(children) == 1:
            return children[0]
        return PredicateNode(LogicalOp.OR, children)

    def _parse_and_expr(self) -> Predicate:
        children = [self._parse_term()]
        while self._accept_keyword("AND"):
            children.append(self._parse_term())
        if len(children) == 1:
            return children[0]
        return PredicateNode(LogicalOp.AND, children)

    def _parse_term(self) -> Predicate:
        if self._accept_punctuation("("):
            inner = self._parse_or_expr()
            self._expect_punctuation(")")
            return inner
        return self._parse_condition()

    def _parse_condition(self) -> Condition:
        column_token = self._advance()
        if column_token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected column name at position {column_token.position}")
        op_token = self._advance()
        if op_token.type is not TokenType.OPERATOR or op_token.value not in _OPERATORS:
            raise ParseError(f"expected comparison operator at position {op_token.position}")
        literal_token = self._advance()
        if literal_token.type is TokenType.NUMBER:
            text = literal_token.value
            literal: float | int | str
            if any(c in text for c in ".eE"):
                literal = float(text)
            else:
                literal = int(text)
        elif literal_token.type is TokenType.STRING:
            literal = literal_token.value
        elif literal_token.type is TokenType.IDENTIFIER:
            # Bare words are treated as string literals (common in the
            # generated workloads, e.g. airline = AA).
            literal = literal_token.value
        else:
            raise ParseError(f"expected literal at position {literal_token.position}")
        return Condition(column=column_token.value, op=_OPERATORS[op_token.value], literal=literal)


def parse_query(sql: str) -> Query:
    """Parse a SQL string into a :class:`~repro.sql.ast.Query`."""
    return _Parser(tokenize(sql)).parse_query()


#: Bound on the SQL-text → AST cache below (dashboards cycle through a
#: small set of query strings; 512 is generous for that workload).
PARSE_CACHE_SIZE = 512

_parse_cache: OrderedDict[str, Query] = OrderedDict()
_parse_cache_lock = threading.Lock()

_PARSE_CACHE_LOOKUPS = obs_metrics.counter(
    "aqp_parse_cache_lookups_total",
    "SQL-text to AST parse cache lookups, by outcome.",
    labelnames=("outcome",),
)
# Pre-bound cells: parse-cache hits sit on the per-query hot path.
_PARSE_CACHE_HIT = _PARSE_CACHE_LOOKUPS.labels(outcome="hit")
_PARSE_CACHE_MISS = _PARSE_CACHE_LOOKUPS.labels(outcome="miss")


def parse_query_cached(sql: str) -> Query:
    """Like :func:`parse_query`, memoized on the exact SQL text (LRU).

    Sharing one :class:`~repro.sql.ast.Query` between callers is safe
    because the AST is immutable in practice: every consumer that needs a
    variant (e.g. the gather planner) builds one with
    ``dataclasses.replace`` instead of mutating in place.  Parse errors
    are never cached.
    """
    with _parse_cache_lock:
        query = _parse_cache.get(sql)
        if query is not None:
            _parse_cache.move_to_end(sql)
    if query is not None:
        _PARSE_CACHE_HIT.inc()
        return query
    query = parse_query(sql)
    with _parse_cache_lock:
        _parse_cache[sql] = query
        _parse_cache.move_to_end(sql)
        while len(_parse_cache) > PARSE_CACHE_SIZE:
            _parse_cache.popitem(last=False)
    _PARSE_CACHE_MISS.inc()
    return query


def parse_cache_peek(sql: str) -> Query | None:
    """Non-perturbing lookup: the cached AST of this exact SQL text, or
    ``None``.  Touches neither LRU order nor the hit/miss counters — the
    result-cache hit path decides with it, then counts through
    :func:`parse_query_cached` only once it knows it has a hit."""
    with _parse_cache_lock:
        return _parse_cache.get(sql)


def parse_cache_contains(sql: str) -> bool:
    """Non-perturbing peek: is this exact SQL text cached?

    EXPLAIN reports parse-cache state without touching LRU order or the
    hit/miss counters, so explaining a query never changes the plan it
    reports.
    """
    return parse_cache_peek(sql) is not None


def clear_parse_cache() -> None:
    """Drop every cached AST (tests)."""
    with _parse_cache_lock:
        _parse_cache.clear()


def parse_predicate(sql: str) -> Predicate:
    """Parse just a WHERE-clause expression (used by tests and examples)."""
    parser = _Parser(tokenize(sql))
    predicate = parser._parse_or_expr()
    if parser._current.type is not TokenType.END:
        raise ParseError("unexpected trailing input in predicate")
    return predicate
