"""Quickstart: build a PairwiseHist synopsis and run bounded approximate queries.

Run with:  python examples/quickstart.py
"""

from repro import (
    ExactQueryEngine,
    PairwiseHistEngine,
    PairwiseHistParams,
    load_dataset,
    parse_query,
)
from repro.workload import score


def main() -> None:
    # 1. Load a dataset (a synthetic stand-in for the paper's Power dataset).
    table = load_dataset("power", rows=50_000, seed=0)
    print(f"dataset: {table.name} with {table.num_rows} rows and {table.num_columns} columns")

    # 2. Build the engine: GreedyGD compression + PairwiseHist synopsis.
    #    The paper's defaults: M = 1 % of the sample, alpha = 0.001.
    params = PairwiseHistParams.with_defaults(sample_size=20_000)
    engine = PairwiseHistEngine.from_table(table, params=params)
    print(f"synopsis built in {engine.construction_seconds:.2f} s, "
          f"size {engine.synopsis_bytes() / 1e6:.3f} MB, "
          f"sampling ratio {engine.sampling_ratio:.2f}")

    # 3. Ask SQL questions and get bounded estimates in milliseconds.
    queries = [
        "SELECT COUNT(voltage) FROM power WHERE voltage > 240",
        "SELECT AVG(global_active_power) FROM power WHERE hour >= 18 AND hour < 22",
        "SELECT SUM(sub_metering_3) FROM power WHERE global_intensity > 10",
        "SELECT MEDIAN(global_active_power) FROM power WHERE voltage < 242",
        "SELECT MAX(global_intensity) FROM power WHERE hour < 6",
    ]
    exact = ExactQueryEngine(table)  # ground truth, for demonstration only
    print(f"\n{'query':70s} {'estimate':>12s} {'bounds':>24s} {'exact':>12s} {'err %':>7s}")
    for sql in queries:
        result = engine.execute_scalar(sql)
        truth = exact.execute_scalar(parse_query(sql))
        error = 100 * score(result.value, result.lower, result.upper, truth)[0]
        bounds = f"[{result.lower:,.2f}, {result.upper:,.2f}]"
        print(f"{sql:70s} {result.value:12,.2f} {bounds:>24s} {truth:12,.2f} {error:7.2f}")

    # 4. GROUP BY works on categorical columns (here: the Light dataset's devices).
    light = load_dataset("light", rows=20_000, seed=0)
    light_engine = PairwiseHistEngine.from_table(
        light, params=PairwiseHistParams.with_defaults(sample_size=10_000)
    )
    groups = light_engine.execute(
        "SELECT AVG(lux) FROM light WHERE battery > 40 GROUP BY device"
    )
    print("\nAVG(lux) per device (battery > 40):")
    for device, results in sorted(groups.items()):
        print(f"  {device:12s} {results[0].value:8.1f}  [{results[0].lower:.1f}, {results[0].upper:.1f}]")


if __name__ == "__main__":
    main()
