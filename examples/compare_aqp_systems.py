"""Head-to-head comparison of AQP systems on one workload (a mini Fig. 8/11).

Builds PairwiseHist (a ``QueryService`` at the ``paper`` configuration: one
partition, sampled synopsis), the DeepDB-like SPN baseline and the
DBEst++-like density+regression baseline on the same dataset, runs an
identical random workload against each and prints the accuracy / latency /
storage / construction summary the paper reports.

Run with:  python examples/compare_aqp_systems.py
"""

from repro import load_dataset
from repro.baselines import DBEstPlusPlusLike, DeepDBLike
from repro.bench.harness import ServedSystem, fmt, format_table, workload_templates
from repro.workload import QueryGenerator, WorkloadSpec, run


def main() -> None:
    table = load_dataset("power", rows=60_000, seed=5)
    print(f"dataset: {table.name}, {table.num_rows} rows x {table.num_columns} columns\n")

    spec = WorkloadSpec.initial_experiments(num_queries=60, seed=5)
    queries = QueryGenerator(table, spec).generate()
    templates = workload_templates(queries)

    sample = 20_000
    systems = [
        ServedSystem.serve(table, sample_size=sample),
        DeepDBLike.fit(table, sample_size=sample),
        DBEstPlusPlusLike.fit(table, sample_size=sample // 4, templates=templates),
    ]

    rows = []
    for system in systems:
        summary = run(system, table, queries)
        rows.append([
            system.name,
            str(summary.n),
            fmt(summary.median_error_percent()),
            fmt(summary.median_latency_ms()),
            fmt(summary.bounds_correct_rate_percent(), 1),
            fmt(system.synopsis_bytes() / 1e6, 3),
            fmt(system.construction_seconds, 2),
        ])

    headers = ["system", "n", "median err (%)", "latency (ms)",
               "bounds ok (%)", "synopsis (MB)", "build (s)"]
    print(format_table(headers, rows, title=f"AQP systems on {len(queries)} random queries"))


if __name__ == "__main__":
    main()
