"""Edge analytics over compressed IoT data (the paper's deployment scenario).

An edge gateway receives a stream of sensor rows and keeps only the
partitioned GreedyGD-compressed form plus per-partition PairwiseHist
synopses, merged into one queryable synopsis — the Fig. 2 pipeline
including incremental data updates (red arrows), served through the
multi-table :class:`~repro.service.QueryService`.  Streaming batches only
recompress and re-summarise the tail partition, so ingest cost stays
bounded no matter how much history the gateway has accumulated.

Run with:  python examples/iot_edge_monitoring.py
"""

import numpy as np

from repro import PairwiseHistParams, QueryService, load_dataset, serialize_partitioned


def main() -> None:
    # The gateway has seen the first day of data ...
    history = load_dataset("gas", rows=40_000, seed=2)
    # ... and new readings keep arriving in batches.
    incoming = load_dataset("gas", rows=15_000, seed=99)

    raw_bytes = history.memory_bytes()
    service = QueryService(
        default_params=PairwiseHistParams.with_defaults(sample_size=20_000),
        partition_size=8_192,
    )
    gas = service.register_table(history)
    store = gas.store
    print("ingestion")
    print(f"  raw data           : {raw_bytes / 1e6:8.2f} MB")
    print(f"  GreedyGD compressed: {store.compressed_bytes() / 1e6:8.2f} MB "
          f"({store.compression_ratio(raw_bytes):.2f}x) in {store.num_partitions} partitions")
    # The synopses as persisted: one framed blob per partition.
    synopsis_bytes = len(serialize_partitioned(gas.partition_synopses))
    total = store.compressed_bytes() + synopsis_bytes
    print(f"  PairwiseHist       : {synopsis_bytes / 1e6:8.2f} MB across "
          f"{len(gas.partition_synopses)} partition synopses "
          f"(total storage {total / 1e6:.2f} MB vs {raw_bytes / 1e6:.2f} MB raw)\n")

    # Local monitoring queries with bounds — no cloud round trip.  The
    # service routes each query to the table named in its FROM clause.
    print("edge monitoring queries")
    for sql in [
        "SELECT AVG(temperature) FROM gas WHERE humidity > 60",
        "SELECT COUNT(gas_flow) FROM gas WHERE gas_flow > 2.0",
        "SELECT MAX(sensor_r1) FROM gas WHERE temperature > 24",
        "SELECT VAR(humidity) FROM gas WHERE temperature < 23",
    ]:
        result = service.execute_scalar(sql)
        print(f"  {sql}")
        print(f"    -> {result.value:10.3f}   bounds [{result.lower:.3f}, {result.upper:.3f}]")

    # New rows arrive in batches: each ingest appends to the partitioned
    # store and refreshes only the affected tail partition's synopsis.
    before = service.execute_scalar("SELECT AVG(temperature) FROM gas WHERE humidity > 60")
    print("\nincremental updates")
    for start in range(0, incoming.num_rows, 5_000):
        batch = incoming.select_rows(np.arange(start, min(start + 5_000, incoming.num_rows)))
        outcome = service.ingest("gas", batch)
        print(f"  +{outcome.appended_rows} rows -> rebuilt partitions "
              f"{outcome.rebuilt_partitions} of {outcome.total_partitions} "
              f"({outcome.untouched_partitions} untouched) in {outcome.seconds * 1e3:.0f} ms")
    after = service.execute_scalar("SELECT AVG(temperature) FROM gas WHERE humidity > 60")
    drift = after.value - before.value
    gas = service.table("gas")  # each ingest committed a new table value
    print(f"  rows: {history.num_rows} -> {gas.num_rows}; lifetime synopsis builds: "
          f"{gas.synopsis_builds}")
    print(f"  AVG(temperature | humidity > 60): {before.value:.3f} -> {after.value:.3f} "
          f"(drift {drift:+.3f})")

    # A tiny anomaly check an edge device could run every few seconds.
    p99_proxy = service.execute_scalar(
        "SELECT MAX(gas_flow) FROM gas WHERE temperature > 20"
    )
    if np.isfinite(p99_proxy.value) and p99_proxy.value > 5.0:
        print(f"  ALERT: gas flow peak estimate {p99_proxy.value:.2f} exceeds threshold 5.0")
    else:
        print(f"  gas flow peak estimate {p99_proxy.value:.2f} within normal range")


if __name__ == "__main__":
    main()
