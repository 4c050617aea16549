"""Flight-delay analytics: the workload that motivates the paper's introduction.

Interactive analysts ask aggregate questions over hundreds of millions of
flight records; PairwiseHist answers them from a sub-MB synopsis with
bounds, instead of scanning the table.  This example uses the synthetic
Flights dataset (32 columns, categorical carriers / airports, missing delay
components) and compares every answer against exact execution.

Run with:  python examples/flight_delay_analysis.py
"""

from repro import (
    ExactQueryEngine,
    PairwiseHistEngine,
    PairwiseHistParams,
    PartitionedStore,
    load_dataset,
    parse_query,
    scale_dataset,
)
from repro.workload import score


def show(engine: PairwiseHistEngine, exact: ExactQueryEngine, sql: str) -> None:
    result = engine.execute_scalar(sql)
    truth = exact.execute_scalar(parse_query(sql))
    error = 100 * score(result.value, result.lower, result.upper, truth)[0]
    print(f"  {sql}")
    print(f"    estimate {result.value:14,.2f}   bounds [{result.lower:,.2f}, {result.upper:,.2f}]"
          f"   exact {truth:14,.2f}   error {error:.2f}%")


def main() -> None:
    original = load_dataset("flights", rows=40_000, seed=1)
    # The paper scales Flights to 10^9 rows with IDEBench; we scale it to a
    # laptop-friendly size with the same mechanism.
    flights = scale_dataset(original, rows=120_000, seed=1, name="flights")
    print(f"flights table: {flights.num_rows} rows x {flights.num_columns} columns "
          f"({flights.memory_bytes() / 1e6:.1f} MB raw)")

    params = PairwiseHistParams.with_defaults(sample_size=30_000)
    engine = PairwiseHistEngine.from_table(flights, params=params)
    print(f"PairwiseHist synopsis: {engine.synopsis_bytes() / 1e6:.3f} MB, "
          f"built in {engine.construction_seconds:.1f} s")
    store = PartitionedStore.compress(flights, flights.num_rows)
    print(f"GreedyGD compressed data: {store.compressed_bytes() / 1e6:.1f} MB "
          f"({store.compression_ratio(flights.memory_bytes()):.2f}x smaller than raw)\n")

    exact = ExactQueryEngine(flights)

    print("single-predicate questions:")
    show(engine, exact, "SELECT COUNT(arrival_delay) FROM flights WHERE arrival_delay > 60")
    show(engine, exact, "SELECT AVG(departure_delay) FROM flights WHERE distance > 1000")

    print("\nmulti-predicate questions (AND / OR, the Fig. 7 query shape):")
    show(engine, exact,
         "SELECT AVG(arrival_delay) FROM flights WHERE "
         "distance > 150 AND distance < 300 OR distance < 450 AND air_time > 90.5")
    show(engine, exact,
         "SELECT SUM(arrival_delay) FROM flights WHERE "
         "distance > 500 AND scheduled_departure > 800 AND scheduled_departure < 2000")

    print("\ncategorical predicates:")
    show(engine, exact, "SELECT AVG(arrival_delay) FROM flights WHERE airline = 'AA'")
    show(engine, exact, "SELECT COUNT(distance) FROM flights WHERE origin_airport = 'ATL' AND distance > 400")

    print("\ndelay rate per carrier (GROUP BY):")
    groups = engine.execute(
        "SELECT COUNT(arrival_delay) FROM flights WHERE arrival_delay > 15 GROUP BY airline"
    )
    truth = exact.execute(parse_query(
        "SELECT COUNT(arrival_delay) FROM flights WHERE arrival_delay > 15 GROUP BY airline"
    ))
    for airline in sorted(groups, key=lambda a: -groups[a][0].value)[:8]:
        estimate = groups[airline][0].value
        exact_value = truth.get(airline, [None])[0].value if airline in truth else 0.0
        print(f"  {airline:4s} delayed flights ~ {estimate:10,.0f}   (exact {exact_value:10,.0f})")


if __name__ == "__main__":
    main()
