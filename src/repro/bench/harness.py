"""Shared infrastructure for the per-table / per-figure experiments.

The paper's evaluation runs on datasets of up to 10^9 rows with synopsis
samples of 10^4–10^6 rows.  Every experiment here is parameterised by an
:class:`ExperimentScale` so the same code can regenerate the paper's tables
and figures at laptop scale (the default) or at a larger scale when more
time is available.  Relative comparisons — who wins, by roughly what factor
— are preserved; absolute numbers shrink with the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import UnsupportedQueryError
from ..core.engine import AqpResult, PairwiseHistEngine
from ..core.params import PairwiseHistParams
from ..data.table import Table
from ..service.database import QueryService
from ..sql.ast import Query, predicate_conditions


@dataclass(frozen=True)
class ExperimentScale:
    """Row counts and sample sizes for one experiment run."""

    #: Rows generated per original dataset.
    dataset_rows: int = 20_000
    #: Rows of the IDEBench-scaled datasets ("1 billion" in the paper).
    scaled_rows: int = 60_000
    #: The paper's "1 million" synopsis sample.
    sample_large: int = 10_000
    #: The paper's "100k" synopsis sample.
    sample_small: int = 3_000
    #: The paper's "10k" synopsis sample (used by DBEst++ and Fig. 8).
    sample_tiny: int = 1_000
    #: RNG seed shared by dataset generation and workloads.
    seed: int = 7


#: What ``REPRO_BENCH_SCALE`` selects.  ``smoke`` is the scale
#: ``benchmarks/results/*.txt`` are recorded at (minutes, preserves relative
#: rankings); ``default`` is tens of minutes, closer to the paper's
#: sample-size ratios; ``paper`` is an overnight run, still far below 10^9 rows.
SCALES = {
    "smoke": ExperimentScale(
        dataset_rows=6_000, scaled_rows=10_000, sample_large=3_000, sample_small=1_500, sample_tiny=600
    ),
    "default": ExperimentScale(),
    "paper": ExperimentScale(
        dataset_rows=200_000,
        scaled_rows=1_000_000,
        sample_large=100_000,
        sample_small=30_000,
        sample_tiny=10_000,
    ),
}


# --------------------------------------------------------------------------- #
# PairwiseHist as an evaluated system: a QueryService at a named configuration

#: Rows per partition of the ``deployed`` configuration (``benchmarks/e2e``'s).
DEPLOYED_PARTITION_ROWS = 10_000


@dataclass
class ServedSystem:
    """Anything with ``execute_scalar`` as a row of a comparison table.

    ``backend`` is a :class:`QueryService` for every cited table; a bare
    :class:`PairwiseHistEngine` only where an ablation needs a stand-alone
    or hand-built synopsis.  ``engine`` is the engine whose synopsis size
    and build time the row reports.
    """

    backend: QueryService | PairwiseHistEngine
    engine: PairwiseHistEngine
    name: str = "PairwiseHist"

    @classmethod
    def serve(
        cls,
        table: Table,
        configuration: str = "paper",
        sample_size: int | None = None,
        params: PairwiseHistParams | None = None,
        partitions: int | None = None,
    ) -> "ServedSystem":
        """Register ``table`` with a fresh service at a named configuration.

        ``paper``: one partition, a synopsis built from ``sample_size``
        sampled rows (or explicit ``params``) — the one-partition build
        ``PairwiseHistEngine.from_table`` runs, bit for bit.  ``deployed``:
        10k-row partitions, unsampled — what ``benchmarks/e2e`` serves;
        ``partitions`` overrides the partition count for the sweep.
        """
        if configuration == "paper":
            partition_size = max(table.num_rows, 1)
            params = params or PairwiseHistParams.with_defaults(sample_size=sample_size)
        elif configuration == "deployed":
            partition_size = (
                -(-table.num_rows // partitions) if partitions else DEPLOYED_PARTITION_ROWS
            )
            params = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
        else:
            raise ValueError(f"unknown configuration {configuration!r}")
        service = QueryService(partition_size=partition_size)
        managed = service.register_table(table, params=params)
        return cls(backend=service, engine=managed.engine)

    @property
    def construction_seconds(self) -> float:
        return self.engine.construction_seconds

    def synopsis_bytes(self) -> int:
        return self.engine.synopsis_bytes()

    def compressed_bytes(self) -> int:
        """GreedyGD-compressed size of the rows behind a service-backed row."""
        return self.backend.table(self.engine.table_name).compressed_bytes()

    def estimate(self, query: Query) -> AqpResult:
        if query.group_by is not None:
            raise UnsupportedQueryError("the harness compares non-GROUP BY queries")
        return self.backend.execute_scalar(query)


def workload_templates(queries: list[Query]) -> list[tuple[str, str]]:
    """The (aggregation column, predicate column) templates a workload touches.

    DBEst++ needs one model per template; this mirrors the paper's procedure
    of training every model required to support the evaluated queries.
    """
    templates: dict[tuple[str, str], None] = {}
    for query in queries:
        agg_column = query.aggregation.column
        if agg_column is None:
            continue
        for condition in predicate_conditions(query.predicate):
            if condition.column != agg_column:
                templates.setdefault((agg_column, condition.column))
    return list(templates)


def format_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Fixed-width table formatting for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    """Format a float for table cells, handling NaN / inf gracefully."""
    if value is None or not np.isfinite(value):
        return "-"
    return f"{value:.{digits}f}"
