"""The paper's tables, figures and ablations, and the accuracy sweep: one command.

    PYTHONPATH=src python -m pytest -q benchmarks/test_reproduction.py

regenerates every experiment of :mod:`repro.bench` at the scale
``REPRO_BENCH_SCALE`` names (``smoke`` by default), checks the shape each
one must have (who wins, what shrinks), and at ``smoke`` compares every
non-timing cell with the committed ``benchmarks/results/<name>.txt`` to one
unit of its last printed digit.  Cells whose block title, row label or
column header says latency / construction / build are times: they are
printed and never compared (``benchmarks/e2e`` is where a time is trusted).

    PYTHONPATH=src python benchmarks/test_reproduction.py --record

rewrites the committed files.  The accuracy sweep runs over
``benchmarks/e2e``'s own inputs (``lifecycle.make_inputs(1, 8, FULL)``, taken
by import), whatever the scale.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from bench_utils import RESULTS_DIR, bench_scale

from repro.bench import (
    AblationGDSeeding,
    AblationHypothesisTesting,
    AblationStorageEncoding,
    AccuracySweep,
    Fig1Summary,
    Fig8InitialExperiments,
    Fig9ParameterSensitivity,
    Fig10ErrorCDF,
    Fig10RealVsIdebench,
    Fig11ScaledPerformance,
    Table1Qualitative,
    Table5AccuracyByAggregation,
    Table6Bounds,
)


def _accuracy_sweep(scale) -> AccuracySweep:
    """Over ``benchmarks/e2e``'s seed-1 table and statements, whatever the scale."""
    sys.path.insert(0, str(Path(__file__).parent / "e2e"))
    from lifecycle import make_inputs
    from spec import FULL

    inputs = make_inputs(1, 8, FULL)
    return AccuracySweep(inputs.base, inputs.queries)


# --------------------------------------------------------------------------- #
# The shape each experiment must have


def _table5(results):
    for per_system in results.values():
        ph = per_system["PairwiseHist"]
        # PairwiseHist answers every query; the baselines answer a subset.
        assert ph["supported"] >= per_system["DeepDB"]["supported"]
        assert ph["supported"] >= per_system["DBEst++"]["supported"]
        # Overall error should be small (paper: 0.20-0.43 %; we allow laptop-scale slack).
        assert np.isfinite(ph["Overall"])
        assert ph["Overall"] < 15.0


def _table6(results):
    correct_ph = [v["PairwiseHist correct (%)"] for v in results.values()]
    correct_dd = [v["DeepDB correct (%)"] for v in results.values()]
    finite_ph = [v for v in correct_ph if np.isfinite(v)]
    finite_dd = [v for v in correct_dd if np.isfinite(v)]
    # Paper: PairwiseHist's bounds are correct more often than DeepDB's on average.
    if finite_ph and finite_dd:
        assert np.mean(finite_ph) >= np.mean(finite_dd) - 10.0


def _fig10_cdf(results):
    # On the DeepDB-supported subset, PairwiseHist's median error is
    # competitive (within 2x) with DeepDB's.
    panel = results["vs DeepDB (supported subset)"]
    ph_median = panel["PairwiseHist"]["error_percentiles"][1]
    dd_median = panel["DeepDB"]["error_percentiles"][1]
    assert ph_median <= dd_median * 2.0 + 1.0


def _fig10_real(results):
    for row in results.values():
        # PairwiseHist stays accurate on the real (less well-behaved) data.
        assert row["PairwiseHist Real"] < 20.0


def _fig11(results):
    for per_system in results.values():
        ph = per_system["PairwiseHist"]
        dd = per_system["DeepDB"]
        raw = per_system["Raw data"]["total_storage_mb"]
        # (a) the synopsis is smaller than the data it summarises.
        assert ph["synopsis_mb"] < raw
        # (b) compression makes PairwiseHist's total storage smaller than raw.
        assert ph["total_storage_mb"] < raw
        # (c) PairwiseHist answers queries faster than DeepDB (median).
        assert ph["median_latency_ms"] <= dd["median_latency_ms"]
        # (d) construction stays in the "seconds" regime claimed by Table 1.
        #     (At laptop scale the DBEst++ stand-in trains only the workload's
        #     templates, so the paper's hours-vs-minutes gap cannot be
        #     asserted here; it is recorded in the table instead.)
        assert ph["construction_seconds"] < 600.0


def _fig1(results):
    # The headline claims: PairwiseHist is faster than DeepDB and builds
    # faster than DBEst++.
    assert results["DeepDB"]["latency"] >= 1.0
    assert results["DBEst++"]["construction_time"] >= 1.0


def _fig8(results):
    # The paper's headline claim against DeepDB: PairwiseHist is at least as
    # accurate on a majority of the 11 datasets.  (The DBEst++ stand-in is
    # only trained on the workload's templates, so its size / accuracy at
    # laptop scale is not directly comparable.)
    ph_beats_deepdb = sum(
        per_dataset["PairwiseHist 100k"]["median_error_percent"]
        <= per_dataset["DeepDB 100k"]["median_error_percent"] + 1e-9
        for per_dataset in results.values()
    )
    assert ph_beats_deepdb >= len(results) // 2


def _fig9(results):
    # Synopsis size decreases (weakly) as M grows, for every series.
    for points in results.values():
        sizes = [p["synopsis_mb"] for p in points]
        assert all(sizes[i + 1] <= sizes[i] + 1e-6 for i in range(len(sizes) - 1))


def _table1(measured):
    # The qualitative claims of Table 1's PairwiseHist row.
    assert measured["median_error_percent"] < 5.0          # "<1%" at paper scale
    assert measured["median_latency_ms"] < 50.0             # "sub-ms" at paper scale
    assert measured["synopsis_mb"] < 5.0                    # "sub-MB" at paper scale
    assert measured["construction_seconds"] < 600.0         # "secs"


def _gd_seeding(results):
    # Both variants stay accurate; accuracy should not collapse either way.
    assert results["GD-seeded (with compression)"]["median_error_percent"] < 20.0
    assert results["Min/max seeded (stand-alone)"]["median_error_percent"] < 20.0


def _hypothesis(results):
    refined = results["PairwiseHist (refined)"]["median_error_percent"]
    equi = results["Equi-width (no refinement)"]["median_error_percent"]
    # Refinement should not hurt accuracy.
    assert refined <= equi * 1.5 + 0.5


def _storage(results):
    assert results["adaptive_mb"] <= results["dense_only_mb"]


def _sweep(results):
    # One workload at every setting: the rows differ only in the partitioning.
    assert len({summary.n for summary in results.values()}) == 1


#: results file -> (experiment, built with ``scale=``; its shape check)
EXPERIMENTS = {
    "table5_accuracy_by_aggregation": (Table5AccuracyByAggregation, _table5),
    "fig10_error_cdf": (Fig10ErrorCDF, _fig10_cdf),
    "fig11_scaled_performance": (Fig11ScaledPerformance, _fig11),
    "fig1_summary": (Fig1Summary, _fig1),
    "table6_bounds": (Table6Bounds, _table6),
    "fig10_real_vs_idebench": (Fig10RealVsIdebench, _fig10_real),
    "fig8_initial_experiments": (Fig8InitialExperiments, _fig8),
    "fig9_parameter_sensitivity": (Fig9ParameterSensitivity, _fig9),
    "table1_overview": (Table1Qualitative, _table1),
    "ablation_gd_seeding": (AblationGDSeeding, _gd_seeding),
    "ablation_hypothesis_testing": (AblationHypothesisTesting, _hypothesis),
    "ablation_storage_encoding": (AblationStorageEncoding, _storage),
    "accuracy_sweep": (_accuracy_sweep, _sweep),
}


def regenerate(name: str) -> str:
    """Run one experiment, check its shape, return the rendered tables."""
    build, check = EXPERIMENTS[name]
    experiment = build(scale=bench_scale())
    check(experiment.run())
    text = experiment.render()
    print(f"\n{text}\n")
    return text


# --------------------------------------------------------------------------- #
# Comparison with the committed files

_TIMING = re.compile(r"latency|construction|build")
_NUMBER = re.compile(r"-?\d+(?:\.(\d+))?")


def cells(text: str) -> list[tuple[tuple[str, str, str], str]]:
    """((block title, row label, column header), cell) for every cell of a
    rendered file, columns cut where the rule line under the header cuts them."""
    found = []
    for block in text.strip().split("\n\n"):
        title, header, rule, *rows = block.splitlines()
        starts = [m.start() for m in re.finditer(r"-+", rule)]
        cut = lambda line: [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        headers = cut(header)
        for row in rows:
            label, *values = cut(row)
            found += [((title, label, column), value) for column, value in zip(headers[1:], values)]
    return found


def _same(committed: str, regenerated: str) -> bool:
    """Equal, or numbers (with equal suffixes) one unit of the last digit apart."""
    old, new = _NUMBER.match(committed), _NUMBER.match(regenerated)
    if not (old and new) or committed[old.end():] != regenerated[new.end():]:
        return committed == regenerated
    unit = 10.0 ** -len(old.group(1) or "")
    return abs(float(old.group()) - float(new.group())) <= unit * 1.001


def differences(committed: str, regenerated: str) -> list[str]:
    old, new = cells(committed), cells(regenerated)
    if [key for key, _ in old] != [key for key, _ in new]:
        return ["the regenerated file has different blocks, rows or columns"]
    return [
        f"{' / '.join(key)}: committed {before}, regenerated {after}"
        for (key, before), (_, after) in zip(old, new)
        if not _TIMING.search(" ".join(key)) and not _same(before, after)
    ]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_reproduction(name):
    text = regenerate(name)
    if name != "accuracy_sweep" and os.environ.get("REPRO_BENCH_SCALE", "smoke").lower() != "smoke":
        return  # the committed files are the smoke scale's
    problems = differences((RESULTS_DIR / f"{name}.txt").read_text(), text)
    assert not problems, "\n".join(
        problems + ["(re-record: python benchmarks/test_reproduction.py --record)"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python benchmarks/test_reproduction.py --record")
    for name in EXPERIMENTS:
        (RESULTS_DIR / f"{name}.txt").write_text(regenerate(name) + "\n")
    print(f"recorded {len(EXPERIMENTS)} files into {RESULTS_DIR}")
