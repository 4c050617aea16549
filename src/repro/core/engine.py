"""The PairwiseHist approximate query engine (the full pipeline of Fig. 2).

:class:`PairwiseHistEngine` ties everything together:

1. *ingestion* — GreedyGD pre-processing of a table and, with compression
   (the default), a one-partition :class:`~repro.gd.partitioned.PartitionedStore`;
   the engine keeps the pre-processor and the synopsis, not the store,
2. *synopsis construction* — the partitioned build
   (:func:`~repro.core.builder.build_partitioned_hist`) over that one
   partition, seeded with its GD bases, or
   :func:`~repro.core.builder.build_pairwise_hist` over the pre-processed
   codes alone,
3. *query execution* — SQL parsing, predicate-literal transformation into
   the compressed domain, coverage / weightings / aggregation, and the
   inverse "aggregation transform" back to the original data domain,
4. *bounds* — every estimate carries a lower / upper bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..data.table import Table
from ..gd.preprocessor import Preprocessor
from ..gd.partitioned import PartitionedStore
from ..sql.ast import (
    AggregateFunction,
    Aggregation,
    ComparisonOp,
    Condition,
    Predicate,
    PredicateNode,
    Query,
    UnsupportedQueryError,
    predicate_columns,
    predicate_conditions,
)
from ..sql.parser import parse_query
from .aggregation import AqpEstimate, aggregate, weighted_count
from .builder import build_pairwise_hist, build_partitioned_hist, snapshot_partition_input
from .groupby import group_predicates
from .params import PairwiseHistParams
from .serialization import serialize, synopsis_size_bytes
from .synopsis import PairwiseHist
from .weightings import PredicateEvaluator


#: Aggregate function -> the inverse "aggregation transform" (Fig. 2) that
#: maps its code-domain estimate back to the data domain; a non-COUNT
#: aggregate over a categorical column is ``categorical_passthrough``.
#: ``_INVERSE_INPUTS`` names what each transform reads.  The two tables
#: drive both what :meth:`PairwiseHistEngine._inverse_transform` runs and
#: what EXPLAIN prints under ``bounds``, so the printed plan is the
#: executed plan.
_INVERSE_METHOD = {
    AggregateFunction.COUNT: "count_passthrough",
    AggregateFunction.SUM: "sum_with_count_bounds",
    AggregateFunction.VAR: "scale_squared",
    AggregateFunction.AVG: "affine_inverse",
    AggregateFunction.MIN: "affine_inverse",
    AggregateFunction.MAX: "affine_inverse",
    AggregateFunction.MEDIAN: "affine_inverse",
}
_INVERSE_INPUTS = {
    "count_passthrough": (),
    "categorical_passthrough": (),
    "affine_inverse": ("scale", "offset"),
    "scale_squared": ("scale",),
    "sum_with_count_bounds": ("scale", "offset", "rho"),
}

_DEFAULT_PARAMS = PairwiseHistParams.with_defaults(sample_size=100_000)


@dataclass
class AqpResult:
    """Result of one aggregation: estimate, bounds and basic provenance."""

    aggregation: Aggregation
    estimate: AqpEstimate
    group: str | None = None

    @property
    def value(self) -> float:
        return self.estimate.value

    @property
    def lower(self) -> float:
        return self.estimate.lower

    @property
    def upper(self) -> float:
        return self.estimate.upper


@dataclass
class PairwiseHistEngine:
    """Approximate query engine backed by a PairwiseHist synopsis.

    Not mutated once built: a new synopsis is a new engine
    (``dataclasses.replace(engine, synopsis=...)``), so a query running on
    one sees one synopsis throughout.
    """

    synopsis: PairwiseHist
    preprocessor: Preprocessor
    table_name: str
    construction_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def from_table(
        cls,
        table: Table,
        params: PairwiseHistParams | None = None,
        use_compression: bool = True,
        build_pairs: bool = True,
    ) -> "PairwiseHistEngine":
        """Build an engine from a raw table.

        ``use_compression=True`` (the paper's proposed framework) compresses
        the table with GreedyGD first and seeds the initial histogram bins
        from the GD bases; ``False`` runs PairwiseHist stand-alone, building
        histograms from min/max initial bins.
        """
        start = time.perf_counter()
        params = params or _DEFAULT_PARAMS
        if use_compression:
            store = PartitionedStore.compress(table, max(table.num_rows, 1))
            synopsis = build_partitioned_hist(
                [snapshot_partition_input(store, p) for p in store.partitions],
                params,
                columns=store.column_order,
                build_pairs=build_pairs,
            )
            preprocessor = store.preprocessor
        else:
            preprocessor = Preprocessor.fit(table)
            codes, nulls = preprocessor.transform_table(table)
            synopsis = build_pairwise_hist(
                codes,
                params,
                population_rows=table.num_rows,
                null_masks=nulls,
                initial_edges=None,
                columns=table.column_names,
                build_pairs=build_pairs,
            )
        return cls(
            synopsis=synopsis,
            preprocessor=preprocessor,
            table_name=table.name,
            construction_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    # Introspection

    def synopsis_bytes(self) -> int:
        """Serialized synopsis size (the Fig. 8 / Fig. 11 storage metric)."""
        return synopsis_size_bytes(self.synopsis)

    def serialize_synopsis(self) -> bytes:
        return serialize(self.synopsis)

    @property
    def sampling_ratio(self) -> float:
        return self.synopsis.sampling_ratio

    def explain_aggregation(self, aggregation: Aggregation, query: Query) -> dict:
        """Plan introspection for EXPLAIN: which synopsis parts one
        aggregation of ``query`` would consult and how its code-domain
        estimate maps back to the data domain (:meth:`_inverse_transform`).

        Pure — the plan :meth:`_execute_single` runs, without executing.
        """
        column, single_column, method = self._plan(aggregation, query)
        hist = self.synopsis.hist1d.get(column)
        transform = self.preprocessor[column]
        inputs = {
            "scale": float(transform.scale),
            "offset": float(transform.offset),
            "rho": float(self.synopsis.sampling_ratio),
        }
        return {
            "aggregation": str(aggregation),
            "weightings_column": column,
            "single_column": single_column,
            "histogram_bins": None if hist is None else int(hist.num_bins),
            "sampling_ratio": inputs["rho"],
            "min_points": self.synopsis.params.min_points,
            "bounds": {"method": method, **{k: inputs[k] for k in _INVERSE_INPUTS[method]}},
        }

    # ------------------------------------------------------------------ #
    # Query execution

    def execute(self, query: Query | str) -> list[AqpResult] | dict[str, list[AqpResult]]:
        """Execute a query approximately.

        Returns a list of :class:`AqpResult` (one per SELECT aggregation) or,
        for GROUP BY queries, a dict mapping group label to such a list.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self._check_query(query)
        transformed = self._transform_predicate(query.predicate)
        if query.group_by is None:
            return [self._execute_single(agg, transformed, query) for agg in query.aggregations]
        transform = self.preprocessor[query.group_by]
        results: dict[str, list[AqpResult]] = {}
        for label, predicate in group_predicates(transform, transformed):
            group_results = [
                self._execute_single(agg, predicate, query, group=label)
                for agg in query.aggregations
            ]
            if self._group_count(group_results, predicate, query) > 0:
                results[label] = group_results
        return results

    def _group_count(
        self,
        group_results: list[AqpResult],
        predicate: Predicate,
        query: Query,
    ) -> float:
        """Estimated row count of one group (drives the empty-group filter).

        Reuses a COUNT aggregation from the SELECT list when there is one;
        otherwise estimates COUNT(*) over the group's predicate.
        """
        for result in group_results:
            if result.aggregation.func is AggregateFunction.COUNT:
                return result.value
        count = self._execute_single(
            Aggregation(func=AggregateFunction.COUNT, column=None), predicate, query
        )
        return count.value

    def execute_scalar(self, query: Query | str) -> AqpResult:
        """Execute a non-GROUP BY query and return the first aggregation's result."""
        if isinstance(query, str):
            query = parse_query(query)
        if query.group_by is not None:
            raise ValueError("execute_scalar does not support GROUP BY queries")
        return self.execute(query)[0]

    # ------------------------------------------------------------------ #
    # Internals

    _RANGE_OPS = (ComparisonOp.LT, ComparisonOp.GT, ComparisonOp.LE, ComparisonOp.GE)

    def _check_query(self, query: Query) -> None:
        for column in query.columns:
            if column not in self.preprocessor:
                raise KeyError(f"unknown column {column!r} in query")
        for condition in predicate_conditions(query.predicate):
            transform = self.preprocessor[condition.column]
            if transform.is_categorical and condition.op in self._RANGE_OPS:
                # Categorical codes carry no order, so a range predicate would
                # silently match an arbitrary subset; reject it instead.  The
                # workload runner records this as an unsupported query.
                raise UnsupportedQueryError(
                    f"range predicate {condition.op.value!r} on categorical "
                    f"column {condition.column!r} is not supported"
                )
        for agg in query.aggregations:
            if agg.column is None:
                continue
            transform = self.preprocessor[agg.column]
            if transform.is_categorical and agg.func is not AggregateFunction.COUNT:
                raise ValueError(
                    f"{agg.func.value} over categorical column {agg.column!r} is not defined"
                )

    def _transform_predicate(self, predicate: Predicate | None) -> Predicate | None:
        """Apply GreedyGD pre-processing to predicate literals (Fig. 7, §5.1)."""
        if predicate is None:
            return None
        if isinstance(predicate, Condition):
            transform = self.preprocessor[predicate.column]
            literal = transform.transform_value(predicate.literal)
            return Condition(column=predicate.column, op=predicate.op, literal=literal)
        return PredicateNode(
            op=predicate.op,
            children=[self._transform_predicate(child) for child in predicate.children],
        )

    def _plan(self, aggregation: Aggregation, query: Query) -> tuple[str, bool, str]:
        """What execution and EXPLAIN both need to know about one aggregation:
        the column whose 1-d histogram carries its weightings, whether the
        predicate touches only that column, and its inverse-transform method."""
        predicate_cols = predicate_columns(query.predicate)
        column = aggregation.column
        if column is None:
            column = predicate_cols[0] if predicate_cols else self.synopsis.columns[0]
        single_column = all(c == column for c in predicate_cols)
        method = _INVERSE_METHOD[aggregation.func]
        if aggregation.func is not AggregateFunction.COUNT and self.preprocessor[column].is_categorical:
            method = "categorical_passthrough"
        return column, single_column, method

    def _execute_single(
        self,
        aggregation: Aggregation,
        predicate: Predicate | None,
        query: Query,
        group: str | None = None,
    ) -> AqpResult:
        column, single_column, method = self._plan(aggregation, query)
        weights = PredicateEvaluator(self.synopsis, column).weightings(predicate)
        code_estimate = aggregate(
            aggregation.func,
            self.synopsis.histogram(column),
            weights,
            self.synopsis.sampling_ratio,
            self.synopsis.params.min_points,
            single_column=single_column,
        )
        estimate = self._inverse_transform(method, column, code_estimate, weights)
        return AqpResult(aggregation=aggregation, estimate=estimate, group=group)

    def _inverse_transform(
        self, method: str, column: str, estimate: AqpEstimate, weights: np.ndarray
    ) -> AqpEstimate:
        """Fig. 2 "Aggregation Transform": map results back to the original domain."""
        if not _INVERSE_INPUTS[method]:
            return estimate
        scale = self.preprocessor[column].scale
        offset = self.preprocessor[column].offset
        if method == "affine_inverse":
            return estimate.map(lambda code: code / scale + offset)
        if method == "scale_squared":
            return estimate.map(lambda code: code / (scale * scale))
        # sum_with_count_bounds: SUM(x) = SUM(code) / scale + offset * COUNT.
        count_value, count_lower, count_upper = weighted_count(weights, self.synopsis.sampling_ratio)
        if offset < 0:
            count_lower, count_upper = count_upper, count_lower
        return AqpEstimate(
            value=estimate.value / scale + offset * count_value,
            lower=estimate.lower / scale + offset * count_lower,
            upper=estimate.upper / scale + offset * count_upper,
        )
