"""Experiment classes regenerating every table and figure of §6.

Each class owns one artefact of the paper's evaluation, exposes ``run()``
returning structured results and ``render()`` producing the same rows /
series the paper reports, with the n each number was scored on.  It is
one instrument: every PairwiseHist row is a
:class:`~repro.service.database.QueryService` at a named configuration
(:meth:`ServedSystem.serve`: ``paper`` or ``deployed``), every system is
evaluated by :func:`repro.workload.runner.run` over one generated
workload, and :class:`AccuracySweep` is the same experiment at more
settings.  Scales are configurable (:class:`ExperimentScale`); all claims
are relative (PairwiseHist vs the baselines on the same host and data),
matching how the paper's findings are stated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from ..baselines.base import AqpSystem
from ..baselines.dbest import DBEstPlusPlusLike
from ..baselines.deepdb import DeepDBLike
from ..core.params import PairwiseHistParams
from ..data.datasets import available_datasets, load_dataset
from ..data.idebench import scale_dataset
from ..data.table import Table
from ..sql.ast import AggregateFunction, Query
from ..workload.generator import QueryGenerator, WorkloadSpec
from ..workload.metrics import WorkloadSummary
from ..workload.runner import run
from .harness import SCALES, ExperimentScale, ServedSystem, fmt, format_table, workload_templates

_MB = 1e6

#: Statements generated per workload.  PAPERS.md's "Query Log Compression
#: for Workload Analytics": a workload is hundreds of templates, not 15.
STATEMENTS = 1_000
#: Fig. 8 trains one DBEst++ model per template on eleven datasets, so it
#: keeps the paper's own 100 statements per dataset.
FIG8_STATEMENTS = 100

DEPLOYED = "PairwiseHist (deployed)"


def initial_workload(
    table: Table, scale: ExperimentScale, statements: int | None = None
) -> list[Query]:
    """The Fig. 8 family: single-predicate COUNT / SUM / AVG statements."""
    spec = WorkloadSpec.initial_experiments(
        num_queries=statements or STATEMENTS, seed=scale.seed
    )
    return QueryGenerator(table, spec).generate()


def scaled_workload(table: Table, scale: ExperimentScale) -> list[Query]:
    """The Table 5 family: all seven functions, 1-5 predicates, AND / OR."""
    spec = WorkloadSpec.scaled_experiments(num_queries=STATEMENTS, seed=scale.seed)
    # The paper's minimum selectivity of 1e-6 targets 10^9-row tables (>=1000
    # matching rows).  At laptop scale keep queries meaningful by requiring a
    # comparable number of matching rows rather than the raw fraction.
    floor = max(spec.min_selectivity, 30.0 / max(table.num_rows, 1))
    return QueryGenerator(table, replace(spec, min_selectivity=floor)).generate()


def load_original(dataset: str, scale: ExperimentScale) -> Table:
    return load_dataset(dataset, rows=scale.dataset_rows, seed=scale.seed)


def scale_up(original: Table, scale: ExperimentScale) -> Table:
    """The paper's IDEBench scale-up: fit the original and sample more rows."""
    return scale_dataset(original, rows=scale.scaled_rows, seed=scale.seed)


def _supported_by(summary: WorkloadSummary) -> set[str]:
    return {r.sql for r in summary.records if r.supported}


def _restrict(summary: WorkloadSummary, keep_sql: set[str]) -> WorkloadSummary:
    return WorkloadSummary([r for r in summary.records if r.sql in keep_sql])


@dataclass
class Experiment:
    """One artefact: ``run()`` fills and returns ``results``; ``render()``
    (running first if nothing has) prints them as the paper's rows."""

    scale: ExperimentScale = SCALES["default"]
    results: dict = field(default_factory=dict)

    def render(self) -> str:
        if not self.results:
            self.run()
        return self._render()


def _grid(results: dict[str, dict[str, float]], corner: str, title: str, digits: int = 2) -> str:
    """Render ``{row label: {column label: number}}`` as one table."""
    labels = list(next(iter(results.values())))
    rows = [
        [name] + [str(v) if isinstance(v, int) else fmt(v, digits) for v in map(values.get, labels)]
        for name, values in results.items()
    ]
    return format_table([corner] + labels, rows, title)


def _panels(results: dict[str, dict[str, dict[str, float]]], panels: list[tuple[str, str, int]]) -> str:
    """One dataset x system table per ``(metric key, title, digits)`` of
    ``{dataset: {system: {metric key: number}}}``."""
    return "\n\n".join(
        _grid(
            {
                dataset: {system: values[key] for system, values in per_system.items()}
                for dataset, per_system in results.items()
            },
            "dataset", title, digits,
        )
        for key, title, digits in panels
    )


# --------------------------------------------------------------------------- #
# Fig. 8 — initial experiments across the 11 real-world datasets


@dataclass
class Fig8InitialExperiments(Experiment):
    """Fig. 8: median error (a) and synopsis size (b) across the 11 datasets."""

    datasets: list[str] = field(default_factory=available_datasets)

    def run(self) -> dict[str, dict[str, dict[str, float]]]:
        small, tiny = self.scale.sample_small, self.scale.sample_tiny
        for name in self.datasets:
            table = load_original(name, self.scale)
            queries = initial_workload(table, self.scale, FIG8_STATEMENTS)
            templates = workload_templates(queries)
            systems = {
                "PairwiseHist 100k": ServedSystem.serve(table, sample_size=small),
                "PairwiseHist 10k": ServedSystem.serve(table, sample_size=tiny),
                "DeepDB 100k": DeepDBLike.fit(table, sample_size=small),
                "DeepDB 10k": DeepDBLike.fit(table, sample_size=tiny),
                "DBEst++ 100k": DBEstPlusPlusLike.fit(table, sample_size=small, templates=templates),
                "DBEst++ 10k": DBEstPlusPlusLike.fit(table, sample_size=tiny, templates=templates),
            }
            per_dataset: dict[str, dict[str, float]] = {}
            for label, system in systems.items():
                summary = run(system, table, queries)
                per_dataset[label] = {
                    "median_error_percent": summary.median_error_percent(),
                    "synopsis_mb": system.synopsis_bytes() / _MB,
                    "supported_queries": float(summary.n),
                }
            self.results[name] = per_dataset
        return self.results

    def _render(self) -> str:
        return _panels(
            self.results,
            [
                ("median_error_percent", "Fig. 8(a) — median error (%)", 2),
                ("synopsis_mb", "Fig. 8(b) — synopsis size (MB)", 3),
                ("supported_queries", "Fig. 8 — n, statements each median is over", 0),
            ],
        )


# --------------------------------------------------------------------------- #
# Fig. 9 — parameter sensitivity


@dataclass
class Fig9ParameterSensitivity(Experiment):
    """Fig. 9: accuracy and synopsis size vs M, alpha and Ns on scaled Flights."""

    dataset: str = "flights"
    min_points_fractions: tuple[float, ...] = (0.01, 0.04, 0.07, 0.10)
    series: tuple[tuple[str, str, float], ...] = (
        ("1m, alpha=0.01", "large", 0.01),
        ("100k, alpha=0.001", "small", 0.001),
        ("100k, alpha=0.01", "small", 0.01),
        ("100k, alpha=0.1", "small", 0.1),
    )

    def run(self) -> dict[str, list[dict[str, float]]]:
        table = scale_up(load_original(self.dataset, self.scale), self.scale)
        queries = initial_workload(table, self.scale)
        for label, size_key, alpha in self.series:
            sample = self.scale.sample_large if size_key == "large" else self.scale.sample_small
            points: list[dict[str, float]] = []
            for fraction in self.min_points_fractions:
                min_points = max(10, int(round(sample * fraction)))
                params = PairwiseHistParams(
                    sample_size=sample, min_points=min_points, alpha=alpha, seed=self.scale.seed
                )
                system = ServedSystem.serve(table, params=params)
                summary = run(system, table, queries)
                points.append(
                    {
                        "min_points": float(min_points),
                        "median_error_percent": summary.median_error_percent(),
                        "synopsis_mb": system.synopsis_bytes() / _MB,
                        "n": float(summary.n),
                    }
                )
            self.results[label] = points
        return self.results

    def _render(self) -> str:
        headers = ["series", "M", "median error (%)", "synopsis (MB)", "n"]
        rows = [
            [
                label,
                fmt(point["min_points"], 0),
                fmt(point["median_error_percent"]),
                fmt(point["synopsis_mb"], 3),
                fmt(point["n"], 0),
            ]
            for label, points in self.results.items()
            for point in points
        ]
        return format_table(headers, rows, "Fig. 9 — parameter sensitivity (scaled Flights)")


# --------------------------------------------------------------------------- #
# Table 5 / Fig. 10 / Fig. 11 / Fig. 1 — projections of one scaled run


@dataclass
class ScaledRun:
    """Every system fitted on one scaled dataset and scored on its workload."""

    table: Table
    systems: dict[str, AqpSystem]
    summaries: dict[str, WorkloadSummary]


@lru_cache(maxsize=None)
def scaled_run(scale: ExperimentScale, dataset: str) -> ScaledRun:
    """The scaled-up experiment for one dataset, fitted and scored once per
    process; Table 5, Fig. 10, Fig. 11 and Fig. 1 each project it."""
    table = scale_up(load_original(dataset, scale), scale)
    queries = scaled_workload(table, scale)
    systems: dict[str, AqpSystem] = {
        "PairwiseHist": ServedSystem.serve(table, sample_size=scale.sample_large),
        DEPLOYED: ServedSystem.serve(table, "deployed"),
        "DeepDB": DeepDBLike.fit(table, sample_size=scale.sample_large),
        "DBEst++": DBEstPlusPlusLike.fit(
            table, sample_size=scale.sample_tiny, templates=workload_templates(queries)
        ),
    }
    summaries = {name: run(system, table, queries) for name, system in systems.items()}
    return ScaledRun(table, systems, summaries)


@dataclass
class Table5AccuracyByAggregation(Experiment):
    """Table 5: median relative error (%) per aggregation function and system."""

    datasets: tuple[str, ...] = ("power", "flights")

    def run(self) -> dict[str, dict[str, dict[str, float]]]:
        for dataset in self.datasets:
            per_system: dict[str, dict[str, float]] = {}
            for system_name, summary in scaled_run(self.scale, dataset).summaries.items():
                by_agg = {agg: sub.median_error_percent() for agg, sub in summary.by_aggregation().items()}
                by_agg["Overall"] = summary.median_error_percent()
                by_agg["supported"] = float(summary.n)
                per_system[system_name] = by_agg
            self.results[dataset] = per_system
        return self.results

    def _render(self) -> str:
        functions = [f.value for f in AggregateFunction] + ["Overall"]
        blocks = []
        for dataset, per_system in self.results.items():
            rows = [
                [func] + [fmt(values.get(func, float("nan"))) for values in per_system.values()]
                for func in functions
            ]
            rows.append(["n (supported statements)"] + [fmt(v["supported"], 0) for v in per_system.values()])
            blocks.append(
                format_table(
                    ["aggregation"] + list(per_system),
                    rows,
                    f"Table 5 — median relative error (%), {dataset} (scaled)",
                )
            )
        return "\n\n".join(blocks)


@dataclass
class Fig10ErrorCDF(Experiment):
    """Fig. 10(a)-(c): error CDFs over system-supported query subsets."""

    datasets: tuple[str, ...] = ("power", "flights")
    percentiles: tuple[float, ...] = (25.0, 50.0, 75.0, 90.0, 95.0, 99.0)

    def run(self) -> dict[str, dict[str, object]]:
        merged: dict[str, WorkloadSummary] = {}
        for dataset in self.datasets:
            for system_name, summary in scaled_run(self.scale, dataset).summaries.items():
                merged.setdefault(system_name, WorkloadSummary()).records.extend(summary.records)
        panels = {
            f"vs {name} (supported subset)": {
                system: _restrict(merged[system], _supported_by(merged[name]))
                for system in ("PairwiseHist", name)
            }
            for name in ("DBEst++", "DeepDB")
        }
        panels["all queries"] = {name: merged[name] for name in ("PairwiseHist", DEPLOYED)}
        self.results = {
            panel: {
                name: {
                    "num_queries": float(summary.n),
                    "error_percentiles": summary.error_percentiles(list(self.percentiles)) * 100.0,
                    "fraction_below_10pct": summary.fraction_below(0.10),
                    "fraction_below_1pct": summary.fraction_below(0.01),
                }
                for name, summary in systems.items()
            }
            for panel, systems in panels.items()
        }
        return self.results

    def _render(self) -> str:
        headers = ["system", "n"] + [f"p{int(p)} err (%)" for p in self.percentiles] + [
            "<1% err", "<10% err"
        ]
        blocks = []
        for panel, systems in self.results.items():
            rows = [
                [name, fmt(stats["num_queries"], 0)]
                + [fmt(v) for v in stats["error_percentiles"]]
                + [fmt(stats["fraction_below_1pct"] * 100, 1) + "%",
                   fmt(stats["fraction_below_10pct"] * 100, 1) + "%"]
                for name, stats in systems.items()
            ]
            blocks.append(format_table(headers, rows, f"Fig. 10 — error distribution, {panel}"))
        return "\n\n".join(blocks)


@dataclass
class Fig11ScaledPerformance(Experiment):
    """Fig. 11(a)-(d): synopsis size, total storage, query latency, construction time."""

    datasets: tuple[str, ...] = ("power", "flights")

    def run(self) -> dict[str, dict[str, dict[str, float]]]:
        for dataset in self.datasets:
            scaled = scaled_run(self.scale, dataset)
            raw_bytes = scaled.table.memory_bytes()
            per_system: dict[str, dict[str, float]] = {}
            for name, system in scaled.systems.items():
                summary = scaled.summaries[name]
                # PairwiseHist answers from GreedyGD-compressed rows; the
                # baselines keep the raw table next to their models.
                stored = system.compressed_bytes() if isinstance(system, ServedSystem) else raw_bytes
                per_system[name] = {
                    "synopsis_mb": system.synopsis_bytes() / _MB,
                    "total_storage_mb": (stored + system.synopsis_bytes()) / _MB,
                    "median_latency_ms": summary.median_latency_ms(),
                    "construction_seconds": system.construction_seconds,
                    "n": float(summary.n),
                }
            per_system["Raw data"] = dict.fromkeys(per_system["PairwiseHist"], float("nan"))
            per_system["Raw data"]["total_storage_mb"] = raw_bytes / _MB
            self.results[dataset] = per_system
        return self.results

    def _render(self) -> str:
        return _panels(
            self.results,
            [
                ("synopsis_mb", "Fig. 11(a) — synopsis size (MB)", 3),
                ("total_storage_mb", "Fig. 11(b) — total storage (MB)", 2),
                ("median_latency_ms", "Fig. 11(c) — median query latency (ms)", 2),
                ("construction_seconds", "Fig. 11(d) — construction time (s)", 2),
                ("n", "Fig. 11 — n, statements each median of (c) is over", 0),
            ],
        )


@dataclass
class Fig1Summary(Experiment):
    """Fig. 1: relative performance of PairwiseHist vs DeepDB and DBEst++.

    Each axis is reported as "factor by which PairwiseHist is better"
    (>1 means PairwiseHist wins), derived from the scaled-experiment run.
    """

    dataset: str = "power"

    def run(self) -> dict[str, dict[str, float]]:
        scaled = scaled_run(self.scale, self.dataset)
        ph_summary, ph = scaled.summaries["PairwiseHist"], scaled.systems["PairwiseHist"]
        for name in ("DeepDB", "DBEst++"):
            summary, system = scaled.summaries[name], scaled.systems[name]
            bounds = summary.bounds_correct_rate_percent()
            self.results[name] = {
                "accuracy": summary.median_error_percent() / max(ph_summary.median_error_percent(), 1e-9),
                "latency": summary.median_latency_ms() / max(ph_summary.median_latency_ms(), 1e-9),
                "synopsis_size": system.synopsis_bytes() / max(ph.synopsis_bytes(), 1),
                "construction_time": system.construction_seconds / max(ph.construction_seconds, 1e-9),
                "query_bounds": (
                    ph_summary.bounds_correct_rate_percent() / bounds if bounds > 0 else float("nan")
                ),
            }
        return self.results

    def _render(self) -> str:
        headers = ["axis", *[f"vs {name} (x better)" for name in self.results]]
        axes = ["accuracy", "latency", "synopsis_size", "construction_time", "query_bounds"]
        rows = [
            [axis] + [fmt(self.results[name][axis], 2) for name in self.results] for axis in axes
        ]
        n = scaled_run(self.scale, self.dataset).summaries["PairwiseHist"].n
        return format_table(headers, rows, f"Fig. 1 — relative performance of PairwiseHist (n = {n})")


# --------------------------------------------------------------------------- #
# Fig. 10(d) and Table 6 — PairwiseHist vs DeepDB on the initial workload


@dataclass
class Fig10RealVsIdebench(Experiment):
    """Fig. 10(d): PairwiseHist / DeepDB error on real vs IDEBench-generated data."""

    datasets: tuple[str, ...] = ("power", "flights")

    def run(self) -> dict[str, dict[str, float]]:
        for dataset in self.datasets:
            real = load_original(dataset, self.scale)
            # Same name as the real table: the statements' FROM routes to it.
            synthetic = scale_dataset(
                real, rows=self.scale.dataset_rows, seed=self.scale.seed, name=real.name
            )
            queries = initial_workload(real, self.scale)
            row: dict[str, float] = {}
            for label, table in (("Real", real), ("IDEBench", synthetic)):
                ph = ServedSystem.serve(table, sample_size=self.scale.sample_large)
                dd = DeepDBLike.fit(table, sample_size=self.scale.sample_large)
                summary = run(ph, table, queries)
                row[f"PairwiseHist {label}"] = summary.median_error_percent()
                row[f"DeepDB {label}"] = run(dd, table, queries).median_error_percent()
                row[f"n {label}"] = summary.n
            self.results[dataset] = row
        return self.results

    def _render(self) -> str:
        return _grid(self.results, "dataset", "Fig. 10(d) — median error (%), real vs IDEBench data")


@dataclass
class Table6Bounds(Experiment):
    """Table 6: bounds correct-rate (%) and median width (%), PairwiseHist (as in
    the paper, and as deployed) vs DeepDB, on the statements DeepDB supports."""

    datasets: tuple[str, ...] = ("power", "flights")

    def run(self) -> dict[str, dict[str, float]]:
        for dataset in self.datasets:
            original = load_original(dataset, self.scale)
            for variant, table in (("original", original), ("scaled", scale_up(original, self.scale))):
                queries = initial_workload(table, self.scale)
                systems = {
                    "PairwiseHist": ServedSystem.serve(table, sample_size=self.scale.sample_large),
                    DEPLOYED: ServedSystem.serve(table, "deployed"),
                    "DeepDB": DeepDBLike.fit(table, sample_size=self.scale.sample_large),
                }
                summaries = {name: run(system, table, queries) for name, system in systems.items()}
                supported = _supported_by(summaries["DeepDB"])
                row: dict[str, float] = {}
                for name, summary in summaries.items():
                    subset = _restrict(summary, supported)
                    row[f"{name} correct (%)"] = subset.bounds_correct_rate_percent()
                    row[f"{name} width (%)"] = subset.median_bound_width_percent()
                row["n"] = subset.n
                self.results[f"{dataset} ({variant})"] = row
        return self.results

    def _render(self) -> str:
        return _grid(self.results, "dataset", "Table 6 — bounds accuracy rate and width", 1)


# --------------------------------------------------------------------------- #
# The accuracy sweep — the same experiment at more settings


@dataclass
class AccuracySweep:
    """Where the bounds break: the ``deployed`` configuration at several
    partition counts, then by predicate count and by function at the first.

    The inputs are the caller's: ``benchmarks/test_reproduction.py`` passes
    ``benchmarks/e2e``'s own table and statements, so the 10-partition row
    is the in-process counterpart of its ``bound_hit_rate``.
    """

    table: Table
    queries: list[Query]
    partition_counts: tuple[int, ...] = (1, 2, 10, 50)
    results: dict[int, WorkloadSummary] = field(default_factory=dict)

    def run(self) -> dict[int, WorkloadSummary]:
        for count in self.partition_counts:
            system = ServedSystem.serve(self.table, "deployed", partitions=count)
            self.results[count] = run(system, self.table, self.queries)
        return self.results

    def render(self) -> str:
        if not self.results:
            self.run()
        headers = ["n", "hit rate", "median rel. error (%)", "median width (%)", "zero-width and wrong"]

        def block(corner: str, summaries: dict[object, WorkloadSummary], title: str) -> str:
            rows = [
                [
                    str(label),
                    str(s.n),
                    fmt(s.bounds_correct_rate_percent() / 100.0, 3),
                    fmt(s.median_error_percent()),
                    fmt(s.median_bound_width_percent()),
                    str(s.zero_width_and_wrong()),
                ]
                for label, s in summaries.items()
            ]
            return format_table([corner] + headers, rows, title)

        first = self.results[self.partition_counts[0]]
        where = f"{self.partition_counts[0]} partition(s)"
        return "\n\n".join(
            [
                block(
                    "partitions",
                    self.results,
                    f"Accuracy sweep — {self.table.num_rows} rows of {self.table.name}, "
                    f"{len(self.queries)} statements, unsampled",
                ),
                block("predicates", dict(sorted(first.by("predicates").items())), f"By predicate count, {where}"),
                block("function", first.by_aggregation(), f"By function, {where}"),
            ]
        )


# --------------------------------------------------------------------------- #
# Table 1 — qualitative overview


_TABLE1_LITERATURE = [
    # name, accuracy, latency, bounds, size, build, versatility (from Table 1)
    ("VerdictDB", "1%", "seconds", "yes", "GBs", "?", "very high"),
    ("Gapprox", "<5%", "seconds", "yes", "n/a", "n/a", "low"),
    ("BlinkDB", "<10%", "seconds", "yes", "GBs", "n/a", "high"),
    ("DigitHist", "1%", "sub-ms", "yes", "MBs", "mins", "very low"),
    ("DMMH", "1-2%", "ms", "no", "sub-MB", "secs", "very low"),
    ("STHoles", "10%", "?", "no", "sub-MB", "?", "very low"),
    ("DeepDB", "1%", "ms", "yes", "MBs", "mins", "high"),
    ("DBEst++", "1%*", "ms", "no", "MBs", "hours", "low"),
    ("NeuroSketch", "5%", "sub-ms", "yes", "sub-MB", "mins", "very high"),
    ("LAQP", "10%", "ms", "no", "sub-MB", "?", "very high"),
    ("Electra", "10%", "?", "no", "?", "?", "low"),
    ("PASS", "<1%", "ms", "yes", "MBs", "mins", "high"),
    ("AQP++", "<1%", "seconds", "yes", "MBs", "mins", "high"),
]


@dataclass
class Table1Qualitative(Experiment):
    """Table 1: qualitative comparison, with PairwiseHist's row measured live."""

    dataset: str = "power"

    def run(self) -> dict[str, float]:
        table = load_original(self.dataset, self.scale)
        system = ServedSystem.serve(table, sample_size=self.scale.sample_small)
        summary = run(system, table, initial_workload(table, self.scale))
        self.results = {
            "median_error_percent": summary.median_error_percent(),
            "median_latency_ms": summary.median_latency_ms(),
            "synopsis_mb": system.synopsis_bytes() / _MB,
            "construction_seconds": system.construction_seconds,
            "bounds_correct_rate": summary.bounds_correct_rate_percent(),
            "n": float(summary.n),
        }
        return self.results

    def _render(self) -> str:
        headers = ["system", "accuracy", "latency", "bounds", "size", "build", "versatility"]
        measured_row = [
            "PairwiseHist (measured)",
            f"{fmt(self.results['median_error_percent'])}%",
            f"{fmt(self.results['median_latency_ms'])} ms",
            "yes",
            f"{fmt(self.results['synopsis_mb'], 3)} MB",
            f"{fmt(self.results['construction_seconds'])} s",
            "very high",
        ]
        rows = [measured_row] + [list(row) for row in _TABLE1_LITERATURE]
        return format_table(
            headers,
            rows,
            "Table 1 — PairwiseHist compared to previous AQP works "
            f"(measured row: n = {fmt(self.results['n'], 0)})",
        )
