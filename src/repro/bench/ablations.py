"""Ablation experiments for the design choices the paper motivates.

Three decisions are called out in DESIGN.md as worth isolating:

1. recursive hypothesis-testing refinement (§4.1) vs plain equi-width bins,
2. seeding initial bin edges from GreedyGD bases (§3) vs min/max seeding,
3. the sparse Golomb-coded bin-count encoding (§4.3) vs dense encoding.

Each ablation builds PairwiseHist with and without the feature and reports
accuracy, synopsis size and construction time on the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.builder import build_pairwise_hist
from ..core.engine import PairwiseHistEngine
from ..core.params import PairwiseHistParams
from ..core.serialization import synopsis_size_bytes
from ..gd.preprocessor import Preprocessor
from ..workload.runner import run
from .experiments import Experiment, initial_workload, load_original
from .harness import ServedSystem, fmt, format_table

_MB = 1e6


@dataclass
class AblationHypothesisTesting(Experiment):
    """Hypothesis-test-driven refinement vs equi-width histograms with the same bin budget."""

    dataset: str = "power"

    def run(self) -> dict[str, dict[str, float]]:
        table = load_original(self.dataset, self.scale)
        queries = initial_workload(table, self.scale)

        refined = ServedSystem.serve(table, sample_size=self.scale.sample_small)
        refined_summary = run(refined, table, queries)
        mean_bins = float(
            np.mean([h.num_bins for h in refined.engine.synopsis.hist1d.values()])
        )

        # Equi-width variant: same mean bin budget per column, no hypothesis
        # testing (min_points larger than the sample prevents every split).
        preprocessor = Preprocessor.fit(table)
        codes, nulls = preprocessor.transform_table(table)
        sample = self.scale.sample_small
        bins = max(2, int(round(mean_bins)))
        params = PairwiseHistParams(
            sample_size=sample,
            min_points=sample + 1,   # no bin ever reaches M, so nothing is refined
            alpha=0.5,
            seed=self.scale.seed,
            max_initial_bins=bins,   # keep the provided equi-width grid intact
        )
        equi_edges = {}
        for name in table.column_names:
            col = np.asarray(codes[name], dtype=float)
            col = col[~np.asarray(nulls[name], dtype=bool)] if name in nulls else col
            if col.size == 0:
                continue
            equi_edges[name] = np.linspace(col.min(), col.max(), bins + 1)
        synopsis = build_pairwise_hist(
            codes,
            params,
            population_rows=table.num_rows,
            null_masks=nulls,
            initial_edges=equi_edges,
            columns=table.column_names,
        )
        # A hand-built synopsis has no service to register with: a bare engine.
        equi_engine = PairwiseHistEngine(
            synopsis=synopsis, preprocessor=preprocessor, table_name=table.name
        )
        equi_summary = run(ServedSystem(backend=equi_engine, engine=equi_engine), table, queries)

        self.results = {
            "PairwiseHist (refined)": {
                "median_error_percent": refined_summary.median_error_percent(),
                "synopsis_mb": refined.synopsis_bytes() / _MB,
                "mean_bins_per_column": mean_bins,
                "n": float(refined_summary.n),
            },
            "Equi-width (no refinement)": {
                "median_error_percent": equi_summary.median_error_percent(),
                "synopsis_mb": synopsis_size_bytes(synopsis) / _MB,
                "mean_bins_per_column": float(bins),
                "n": float(equi_summary.n),
            },
        }
        return self.results

    def _render(self) -> str:
        headers = ["variant", "median error (%)", "synopsis (MB)", "bins/column", "n"]
        rows = [
            [name, fmt(v["median_error_percent"]), fmt(v["synopsis_mb"], 3),
             fmt(v["mean_bins_per_column"], 1), fmt(v["n"], 0)]
            for name, v in self.results.items()
        ]
        return format_table(headers, rows, "Ablation — recursive hypothesis testing")


@dataclass
class AblationGDSeeding(Experiment):
    """GD-base-seeded initial bin edges vs min/max initial edges."""

    dataset: str = "power"

    def run(self) -> dict[str, dict[str, float]]:
        table = load_original(self.dataset, self.scale)
        queries = initial_workload(table, self.scale)
        sample = self.scale.sample_small
        # Stand-alone PairwiseHist never compresses, so no service can hold it.
        standalone = PairwiseHistEngine.from_table(
            table, params=PairwiseHistParams.with_defaults(sample_size=sample), use_compression=False
        )
        systems = {
            "GD-seeded (with compression)": ServedSystem.serve(table, sample_size=sample),
            "Min/max seeded (stand-alone)": ServedSystem(backend=standalone, engine=standalone),
        }
        for label, system in systems.items():
            summary = run(system, table, queries)
            self.results[label] = {
                "median_error_percent": summary.median_error_percent(),
                "construction_seconds": system.construction_seconds,
                "synopsis_mb": system.synopsis_bytes() / _MB,
                "n": float(summary.n),
            }
        return self.results

    def _render(self) -> str:
        headers = ["variant", "median error (%)", "construction (s)", "synopsis (MB)", "n"]
        rows = [
            [name, fmt(v["median_error_percent"]), fmt(v["construction_seconds"]),
             fmt(v["synopsis_mb"], 3), fmt(v["n"], 0)]
            for name, v in self.results.items()
        ]
        return format_table(headers, rows, "Ablation — GD base seeding of initial bins")


@dataclass
class AblationStorageEncoding(Experiment):
    """Adaptive dense/sparse (Golomb) bin-count encoding vs dense-only encoding."""

    dataset: str = "flights"

    def run(self) -> dict[str, float]:
        table = load_original(self.dataset, self.scale)
        synopsis = ServedSystem.serve(table, sample_size=self.scale.sample_small).engine.synopsis
        adaptive = synopsis_size_bytes(synopsis)
        dense = synopsis_size_bytes(synopsis, force_dense=True)
        self.results = {
            "adaptive_mb": adaptive / _MB,
            "dense_only_mb": dense / _MB,
            "savings_percent": 100.0 * (1.0 - adaptive / dense) if dense else 0.0,
        }
        return self.results

    def _render(self) -> str:
        headers = ["encoding", "synopsis (MB)"]
        rows = [
            ["adaptive dense/sparse (paper)", fmt(self.results["adaptive_mb"], 3)],
            ["dense only", fmt(self.results["dense_only_mb"], 3)],
            ["savings", fmt(self.results["savings_percent"], 1) + "%"],
        ]
        return format_table(headers, rows, "Ablation — bin-count storage encoding")
