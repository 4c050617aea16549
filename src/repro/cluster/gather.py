"""Scatter-gather result recombination for the sharded cluster.

Each shard answers a query from its *own* merged synopsis over the rows it
owns.  Because the router hash-partitions rows, the shards are disjoint
and their union is the whole table, so per-shard answers recombine just
like the per-partition synopses recombine inside one node:

* ``COUNT`` / ``SUM`` add — values and both bounds;
* ``AVG`` recombines via weighted sums: the gather plan appends a
  ``COUNT`` over the same column and predicate to the scattered query (one
  extra aggregation in the same round trip, not a second query), and the
  cluster value is ``sum(count_i * avg_i) / sum(count_i)``;
* ``VAR`` uses the exact decomposition
  ``var = sum(w_i * (var_i + (m_i - m)^2)) / W`` with a companion ``AVG``;
* ``MEDIAN`` combines count-weighted (hash routing makes every shard an
  unbiased sample of the same distribution, so shard medians estimate the
  global median);
* ``MIN`` / ``MAX`` take the min / max of values and of both bounds;
* bounds combine conservatively: additive aggregates add them, convex
  combinations (``AVG``) take the envelope ``[min lower, max upper]``;
* a weighted value (``AVG`` / ``MEDIAN`` / ``VAR``) is clamped into its
  gathered interval, which rounding in the weighted sum can step out of;
  the bounds themselves are never moved;
* ``GROUP BY`` unions the per-shard group dictionaries, recombining each
  group's aggregates over the shards where the group appears.

A single contributing shard short-circuits to its answer unchanged, so a
one-shard cluster is *bit-identical* to a single node (pinned by the
cluster tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..core.aggregation import AqpEstimate
from ..core.engine import AqpResult
from ..sql.ast import (
    AggregateFunction,
    Aggregation,
    Condition,
    ComparisonOp,
    LogicalOp,
    PredicateNode,
    Query,
)

#: Aggregations recombined as count-weighted convex combinations.
_WEIGHTED = (
    AggregateFunction.AVG,
    AggregateFunction.MEDIAN,
    AggregateFunction.VAR,
)


#: A shard's answer is an :class:`AqpEstimate`.  The name stays because
#: ``benchmarks/e2e/layers.py`` imports it and builds one with keywords.
ShardAnswer = AqpEstimate

#: Aggregations whose answers recombine field by field: the reducer is
#: applied to the values, to the lower bounds and to the upper bounds.
_REDUCERS = {
    AggregateFunction.COUNT: sum,
    AggregateFunction.SUM: sum,
    AggregateFunction.MIN: min,
    AggregateFunction.MAX: max,
}


@dataclass(frozen=True)
class GatherPlan:
    """How to scatter one query and recombine its per-shard answers.

    ``scattered`` is the query actually sent to every shard: the caller's
    aggregations plus any companion ``COUNT`` / ``AVG`` aggregations the
    weighted recombinations need.  ``count_index`` / ``mean_index`` map
    each original aggregation position to its companions' positions in the
    scattered SELECT list (or ``None``).
    """

    original: Query
    scattered: Query
    count_index: tuple
    mean_index: tuple

    @property
    def aggregations(self) -> list[Aggregation]:
        return self.original.aggregations


def plan_query(query: Query) -> GatherPlan:
    """Build the scattered query + companion maps for one parsed query."""
    scattered = list(query.aggregations)

    def _ensure(aggregation: Aggregation) -> int:
        for index, existing in enumerate(scattered):
            if existing == aggregation:
                return index
        scattered.append(aggregation)
        return len(scattered) - 1

    count_index: list[int | None] = []
    mean_index: list[int | None] = []
    for aggregation in query.aggregations:
        if aggregation.func in _WEIGHTED:
            count_index.append(
                _ensure(Aggregation(AggregateFunction.COUNT, aggregation.column))
            )
        else:
            count_index.append(None)
        if aggregation.func is AggregateFunction.VAR:
            mean_index.append(
                _ensure(Aggregation(AggregateFunction.AVG, aggregation.column))
            )
        else:
            mean_index.append(None)
    return GatherPlan(
        original=query,
        scattered=replace(query, aggregations=scattered),
        count_index=tuple(count_index),
        mean_index=tuple(mean_index),
    )


# --------------------------------------------------------------------------- #
# Predicate-range clamps

#: Aggregations whose gathered value must lie inside the predicate's own
#: range on the aggregated column (location statistics, not sums).
_CLAMPABLE = (
    AggregateFunction.MIN,
    AggregateFunction.MAX,
    AggregateFunction.AVG,
    AggregateFunction.MEDIAN,
)


def _conjunctive_conditions(predicate) -> list[Condition] | None:
    """All conditions of a pure AND tree, or ``None`` if any OR appears.

    Under a disjunction a single branch's range says nothing about the
    matching rows as a whole, so clamping would be unsound there.
    """
    if predicate is None:
        return []
    if isinstance(predicate, Condition):
        return [predicate]
    if isinstance(predicate, PredicateNode):
        if predicate.op is not LogicalOp.AND:
            return None
        out: list[Condition] = []
        for child in predicate.children:
            got = _conjunctive_conditions(child)
            if got is None:
                return None
            out.extend(got)
        return out
    return None  # pragma: no cover - unknown predicate node


def predicate_range(query: Query, column: str | None) -> tuple[float, float]:
    """The (lo, hi) interval the predicate pins ``column`` into.

    ``MIN(x) WHERE x > 30`` can only answer in ``[30, inf)``: every
    matching row satisfies the range, so any location aggregate of the
    matching rows does too.  Gathering across shards takes mins/maxes of
    *estimates*, which can stray just outside the range when a shard's
    boundary bin straddles the literal — the clamp pulls them back to
    what the query itself guarantees.
    """
    lo, hi = -math.inf, math.inf
    if column is None:
        return lo, hi
    conditions = _conjunctive_conditions(query.predicate)
    if not conditions:
        return lo, hi
    for condition in conditions:
        if condition.column != column:
            continue
        literal = condition.literal
        if not isinstance(literal, (int, float)):
            continue
        if condition.op in (ComparisonOp.GT, ComparisonOp.GE):
            lo = max(lo, float(literal))
        elif condition.op in (ComparisonOp.LT, ComparisonOp.LE):
            hi = min(hi, float(literal))
        elif condition.op is ComparisonOp.EQ:
            lo = max(lo, float(literal))
            hi = min(hi, float(literal))
    return lo, hi


def _clamp(answer: AqpEstimate, lo: float, hi: float) -> AqpEstimate:
    if lo == -math.inf and hi == math.inf:
        return answer
    return answer.map(lambda v: min(max(v, lo), hi) if math.isfinite(v) else v)


def _within(value: float, lower: float, upper: float) -> AqpEstimate:
    """``value`` clamped into ``[lower, upper]``; the bounds stay as they are."""
    return AqpEstimate(value=min(max(value, lower), upper), lower=lower, upper=upper)


# --------------------------------------------------------------------------- #
# Recombination


def _weights(counts: list[AqpEstimate | None]) -> list[float]:
    out = []
    for count in counts:
        weight = 0.0 if count is None else count.value
        out.append(weight if math.isfinite(weight) and weight > 0 else 0.0)
    return out


def _combine(
    func: AggregateFunction,
    answers: list[AqpEstimate],
    counts: list[AqpEstimate | None],
    means: list[AqpEstimate | None],
) -> AqpEstimate:
    """Recombine one aggregation's per-shard answers (see module docstring)."""
    if len(answers) == 1:
        return answers[0]  # single contributor: bit-identical passthrough
    reduce = _REDUCERS.get(func)
    if reduce is not None:
        return AqpEstimate(*map(reduce, zip(*answers)))
    weights = _weights(counts)
    total = sum(weights)
    if total <= 0:
        # No usable counts: fall back to an unweighted mean with the
        # conservative envelope (still correct for equal-size shards).
        return _within(
            sum(a.value for a in answers) / len(answers),
            min(a.lower for a in answers),
            max(a.upper for a in answers),
        )
    if func in (AggregateFunction.AVG, AggregateFunction.MEDIAN):
        value = sum(w * a.value for w, a in zip(weights, answers)) / total
        contributing = [a for w, a in zip(weights, answers) if w > 0]
        return _within(
            value,
            min(a.lower for a in contributing),
            max(a.upper for a in contributing),
        )
    if func is AggregateFunction.VAR:
        shard_means = [
            0.0 if m is None or not math.isfinite(m.value) else m.value for m in means
        ]
        grand_mean = (
            sum(w * m for w, m in zip(weights, shard_means)) / total
        )
        between = (
            sum(w * (m - grand_mean) ** 2 for w, m in zip(weights, shard_means))
            / total
        )
        value = (
            sum(w * a.value for w, a in zip(weights, answers)) / total + between
        )
        contributing = [a for w, a in zip(weights, answers) if w > 0]
        return _within(
            value,
            min(a.lower for a in contributing),
            # The between-shard term raises the point estimate above the
            # per-shard variances, so it widens the upper bound too.
            max(a.upper for a in contributing) + between,
        )
    raise ValueError(f"unsupported aggregation function {func}")  # pragma: no cover


def _gather_row(
    plan: GatherPlan, shard_rows: list[list[AqpEstimate] | None]
) -> list[AqpEstimate] | None:
    """Recombine one result row (scalar query, or one GROUP BY group).

    ``shard_rows`` holds, per shard, the scattered-aggregation answers —
    or ``None`` for shards without the row (empty shard / absent group).
    Returns the recombined answers in the *original* aggregation order, or
    ``None`` when no shard contributed.
    """
    present = [row for row in shard_rows if row is not None]
    if not present:
        return None
    gathered: list[AqpEstimate] = []
    for position, aggregation in enumerate(plan.aggregations):
        answers = [row[position] for row in present]
        count_at = plan.count_index[position]
        mean_at = plan.mean_index[position]
        counts = [None if count_at is None else row[count_at] for row in present]
        means = [None if mean_at is None else row[mean_at] for row in present]
        combined = _combine(aggregation.func, answers, counts, means)
        if len(present) > 1 and aggregation.func in _CLAMPABLE:
            # Multi-shard gathers clamp location aggregates into the
            # predicate's own range; a single contributor stays exactly
            # the single-node answer.
            lo, hi = predicate_range(plan.original, aggregation.column)
            combined = _clamp(combined, lo, hi)
        gathered.append(combined)
    return gathered


def gather_scalar(
    plan: GatherPlan, shard_rows: list[list[AqpEstimate] | None]
) -> list[AqpResult]:
    """Gather a non-GROUP BY query's per-shard answers into final results."""
    gathered = _gather_row(plan, shard_rows)
    if gathered is None:
        raise ValueError(
            f"no shard could answer the query over {plan.original.table!r}"
        )
    return [
        AqpResult(aggregation=aggregation, estimate=estimate)
        for aggregation, estimate in zip(plan.aggregations, gathered)
    ]


def gather_groups(
    plan: GatherPlan, shard_groups: list[dict | None]
) -> dict[str, list[AqpResult]]:
    """Gather a GROUP BY query: union the per-shard group dictionaries."""
    labels: list[str] = []
    for groups in shard_groups:
        for label in groups or ():
            if label not in labels:
                labels.append(label)
    results: dict[str, list[AqpResult]] = {}
    for label in labels:
        rows = [
            None if groups is None else groups.get(label) for groups in shard_groups
        ]
        gathered = _gather_row(plan, rows)
        if gathered is None:  # pragma: no cover - labels come from present rows
            continue
        results[label] = [
            AqpResult(aggregation=aggregation, estimate=estimate, group=label)
            for aggregation, estimate in zip(plan.aggregations, gathered)
        ]
    return results
