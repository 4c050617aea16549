"""Many dashboard clients over TCP while rows stream in (heavy traffic).

The paper pitches PairwiseHist for interactive AQP under dashboard-style
load.  This example stands up the full concurrent stack:

* a :class:`~repro.service.QueryService` (lock-free reads over
  immutable published engines, copy-on-write synopsis refresh),
* the :class:`~repro.service.AsyncQueryService` coroutine front end with
  its coalescing ingest queue,
* a :class:`~repro.service.QueryServer` speaking binary pipelined
  frames,

then drives it with several concurrent dashboard sessions issuing SQL
over the wire while a writer task streams new rows in.  Each session is
one :class:`~repro.service.PipelinedClient` connection that submits a
whole dashboard refresh as in-flight frames.  Queries keep answering at
full speed through the ingest stream — they take no lock, and each
ingest publishes a new engine instead of changing the one a query is
running on.

Run with:  python examples/concurrent_dashboard.py
"""

import asyncio
import time

from repro import (
    AsyncQueryService,
    PairwiseHistParams,
    PipelinedClient,
    QueryServer,
    load_dataset,
)

DASHBOARDS = 6
QUERIES_PER_DASHBOARD = 40
INGEST_BATCHES = 8
INGEST_BATCH_ROWS = 2_000

DASHBOARD_SQL = [
    "SELECT COUNT(*) FROM power",
    "SELECT AVG(global_active_power) FROM power WHERE voltage > 240",
    "SELECT SUM(sub_metering_3) FROM power WHERE global_active_power > 1.0",
    "SELECT MAX(voltage) FROM power WHERE global_intensity < 10",
    "SELECT COUNT(voltage) FROM power WHERE voltage > 235 AND voltage < 245",
]


async def dashboard(host: str, port: int, latencies: list) -> int:
    """One closed-loop dashboard session over its own connection.

    The blocking client runs in a worker thread so the server's event
    loop keeps serving; one refresh submits the whole SQL rotation as
    in-flight frames and waits for them together.
    """

    def drive() -> int:
        refreshes = QUERIES_PER_DASHBOARD // len(DASHBOARD_SQL)
        with PipelinedClient(host, port) as client:
            for _ in range(refreshes):
                began = time.perf_counter()
                futures = [client.submit_query(sql) for sql in DASHBOARD_SQL]
                for future in futures:
                    future.result(timeout=30.0)
                elapsed = time.perf_counter() - began
                latencies.extend([elapsed / len(futures)] * len(futures))
                time.sleep(0.002)  # render time between refreshes
        return refreshes * len(DASHBOARD_SQL)

    return await asyncio.to_thread(drive)


async def writer(service: AsyncQueryService, source) -> None:
    """Stream batches in; concurrent small appends coalesce automatically."""
    for index in range(INGEST_BATCHES):
        batch = source.sample(INGEST_BATCH_ROWS)
        outcome = await service.ingest("power", batch)
        print(
            f"  writer: +{outcome.appended_rows} rows, rebuilt partitions "
            f"{outcome.rebuilt_partitions} of {outcome.total_partitions} "
            f"in {outcome.seconds * 1e3:.0f} ms"
        )
        await asyncio.sleep(0.05)


async def main() -> None:
    table = load_dataset("power", rows=30_000, seed=7)
    async with AsyncQueryService(
        partition_size=4_096, max_workers=4
    ) as service:
        managed = await service.register_table(
            table, params=PairwiseHistParams.with_defaults(sample_size=15_000)
        )
        print(
            f"registered {managed.name!r}: {managed.num_rows} rows in "
            f"{managed.num_partitions} partitions\n"
        )
        async with QueryServer(service) as server:
            host, port = server.address
            print(
                f"serving binary pipelined frames on {host}:{port}"
            )
            print(
                f"driving {DASHBOARDS} dashboards x {QUERIES_PER_DASHBOARD} "
                f"queries (pipelined refreshes) with background ingest\n"
            )
            latencies: list[float] = []
            started = time.perf_counter()
            results = await asyncio.gather(
                writer(service, table),
                *[
                    dashboard(host, port, latencies) for _ in range(DASHBOARDS)
                ],
            )
            wall = time.perf_counter() - started
            completed = sum(r for r in results if isinstance(r, int))
            latencies.sort()
            print("\ndashboard traffic summary")
            print(f"  completed queries : {completed} in {wall:.2f} s "
                  f"({completed / wall:.0f} queries/s aggregate)")
            print(f"  median latency    : {latencies[len(latencies) // 2] * 1e3:.1f} ms")
            print(f"  p95 latency       : {latencies[int(len(latencies) * 0.95)] * 1e3:.1f} ms")
            final = await service.query_scalar("SELECT COUNT(*) FROM power")
            print(f"  COUNT(*) after ingest stream: {final.value:.0f} "
                  f"(started at {table.num_rows})")


if __name__ == "__main__":
    asyncio.run(main())
