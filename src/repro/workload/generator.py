"""Random workload generation mirroring the paper's evaluation setup (§6).

Two workload families are used by the paper:

* *initial experiments* — 100 single-predicate queries per dataset with
  aggregation functions COUNT, SUM and AVG and minimum selectivity 1e-5,
* *scaled-up experiments* — several hundred queries with all seven
  aggregation functions, 1–5 predicate conditions (mixing AND and OR) and
  minimum selectivity 1e-6.

:class:`QueryGenerator` reproduces both: predicates draw literals from the
empirical quantiles of the data so selectivities are non-trivial, and every
generated query is validated against the exact engine to enforce the
minimum-selectivity constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.table import Table
from ..sql.ast import (
    AggregateFunction,
    Aggregation,
    ComparisonOp,
    Condition,
    LogicalOp,
    Predicate,
    PredicateNode,
    Query,
)
from ..sql.predicate import predicate_mask

_RANGE_OPS = [ComparisonOp.LT, ComparisonOp.GT, ComparisonOp.LE, ComparisonOp.GE]


@dataclass
class WorkloadSpec:
    """Knobs describing a workload family."""

    num_queries: int = 100
    aggregations: tuple[AggregateFunction, ...] = (
        AggregateFunction.COUNT,
        AggregateFunction.SUM,
        AggregateFunction.AVG,
    )
    min_predicates: int = 1
    max_predicates: int = 1
    min_selectivity: float = 1e-5
    allow_or: bool = False
    seed: int = 0

    @classmethod
    def initial_experiments(cls, num_queries: int = 100, seed: int = 0) -> "WorkloadSpec":
        """The Fig. 8 workload: single-predicate COUNT/SUM/AVG queries."""
        return cls(num_queries=num_queries, seed=seed)

    @classmethod
    def scaled_experiments(cls, num_queries: int = 400, seed: int = 0) -> "WorkloadSpec":
        """The Table 5 / Fig. 10 workload: all aggregations, 1–5 predicates."""
        return cls(
            num_queries=num_queries,
            aggregations=tuple(AggregateFunction),
            min_predicates=1,
            max_predicates=5,
            min_selectivity=1e-6,
            allow_or=True,
            seed=seed,
        )


@dataclass
class QueryGenerator:
    """Random query generator bound to one table."""

    table: Table
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.spec.seed)
        self._numeric_columns = [
            c.name
            for c in self.table.schema
            if c.is_numeric and np.isfinite(self.table.column(c.name)).any()
        ]
        self._categorical_columns = list(self.table.schema.categorical_names)
        if not self._numeric_columns:
            raise ValueError("workload generation needs at least one numeric column")

    # ------------------------------------------------------------------ #

    def generate(self) -> list[Query]:
        """Generate exactly ``num_queries`` statements meeting the minimum
        selectivity, or raise: a short workload is an error, not a shorter table."""
        queries: list[Query] = []
        max_attempts = self.spec.num_queries * 30
        for _ in range(max_attempts):
            if len(queries) == self.spec.num_queries:
                return queries
            query = self._generate_one()
            if query is not None and self._selectivity(query.predicate) >= self.spec.min_selectivity:
                queries.append(query)
        if len(queries) == self.spec.num_queries:
            return queries
        raise RuntimeError(
            f"statement generator came up short: {len(queries)} of "
            f"{self.spec.num_queries} statements on {self.table.name!r} reach selectivity "
            f"{self.spec.min_selectivity} within {max_attempts} attempts"
        )

    # ------------------------------------------------------------------ #

    def _generate_one(self) -> Query | None:
        func = AggregateFunction(self._rng.choice([f.value for f in self.spec.aggregations]))
        agg_column = str(self._rng.choice(self._numeric_columns))
        num_predicates = int(
            self._rng.integers(self.spec.min_predicates, self.spec.max_predicates + 1)
        )
        conditions = [self._random_condition() for _ in range(num_predicates)]
        conditions = [c for c in conditions if c is not None]
        if len(conditions) < self.spec.min_predicates:
            return None
        predicate = self._combine(conditions)
        return Query(
            aggregations=[Aggregation(func=func, column=agg_column)],
            table=self.table.name,
            predicate=predicate,
        )

    def _combine(self, conditions: list[Condition]) -> Predicate:
        if len(conditions) == 1:
            return conditions[0]
        if not self.spec.allow_or:
            return PredicateNode(LogicalOp.AND, list(conditions))
        # Mix AND / OR: group a random prefix under AND, rest under OR,
        # producing trees like (P1 AND P2) OR P3 that exercise precedence.
        if self._rng.random() < 0.6:
            return PredicateNode(LogicalOp.AND, list(conditions))
        split = int(self._rng.integers(1, len(conditions)))
        left = conditions[:split]
        right = conditions[split:]
        left_node: Predicate = left[0] if len(left) == 1 else PredicateNode(LogicalOp.AND, left)
        right_node: Predicate = right[0] if len(right) == 1 else PredicateNode(LogicalOp.AND, right)
        return PredicateNode(LogicalOp.OR, [left_node, right_node])

    def _random_condition(self) -> Condition | None:
        if self._categorical_columns and self._rng.random() < 0.25:
            column = str(self._rng.choice(self._categorical_columns))
            values = [v for v in self.table.column(column) if v is not None]
            if not values:
                return None
            literal = str(values[int(self._rng.integers(0, len(values)))])
            op = ComparisonOp.EQ if self._rng.random() < 0.85 else ComparisonOp.NE
            return Condition(column=column, op=op, literal=literal)
        column = str(self._rng.choice(self._numeric_columns))
        values = self.table.column(column)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return None
        quantile = float(self._rng.uniform(0.05, 0.95))
        literal = float(np.quantile(finite, quantile))
        if self._rng.random() < 0.1 and len(np.unique(finite)) < 1000:
            op = ComparisonOp.EQ
            literal = float(finite[int(self._rng.integers(0, finite.size))])
        else:
            op = _RANGE_OPS[int(self._rng.integers(0, len(_RANGE_OPS)))]
        return Condition(column=column, op=op, literal=round(literal, 4))

    def _selectivity(self, predicate: Predicate | None) -> float:
        mask = predicate_mask(predicate, self.table.columns)
        return float(mask.mean()) if mask.size else 0.0
