"""Sharded analytics cluster: N durable worker processes, one SQL front end.

A single Python process bounds both ingest and query throughput with one
GIL.  The cluster layer breaks that ceiling: every table's rows are
hash-partitioned across worker shards — each a full durable engine
(``QueryServer`` subprocess with its own data directory, WAL and
checkpointer) — and every query scatters to all shards concurrently, the
per-shard synopsis answers recombining exactly because the summaries are
mergeable (COUNT/SUM add, AVG via weighted sums, bounds conservatively).

This example walks the whole lifecycle on a 2-shard subprocess cluster:

1. boot the fleet (each shard spawns its worker through the supervisor,
   which scrapes the port it listens on);
2. register a table — rows fan out by row hash, each shard compresses
   and summarises only its share;
3. stream batches in and query through the scatter-gather front end;
4. ``kill -9`` one worker mid-flight: the next call has the shard restart
   it on its own data directory, and the replacement recovers from its
   snapshot + WAL before serving — the answer is identical;
5. shut down and reopen the whole cluster from the ``CLUSTER`` manifest.

Run with:  python examples/sharded_cluster.py
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro import ClusterQueryService, PairwiseHistParams, load_dataset

QUERY = "SELECT AVG(global_active_power) FROM power WHERE voltage > 240"
COUNTED = "SELECT COUNT(*) FROM power WHERE global_intensity > 10"


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="aqp-cluster-")) / "cluster"
    params = PairwiseHistParams.with_defaults(sample_size=20_000)
    history = load_dataset("power", rows=30_000, seed=2)
    live = [load_dataset("power", rows=2_000, seed=100 + i) for i in range(2)]

    print(f"cluster root: {root}\n")

    # ---- boot + register ------------------------------------------------ #
    boot_start = time.perf_counter()
    cluster = ClusterQueryService(
        num_shards=2, path=root, mode="process", partition_size=8_192
    )
    ports = [shard.handle.port for shard in cluster.shards]
    print(f"booted {cluster.num_shards} worker(s) on ports {ports} "
          f"in {time.perf_counter() - boot_start:.2f}s")

    cluster.register_table(history, params=params)
    entry = cluster.table("power")
    print(f"registered 'power': {entry.rows} rows hash-routed across "
          f"shards {sorted(entry.registered)}")
    for batch in live:
        result = cluster.ingest("power", batch)
        print(f"  ingest {result.appended_rows} rows -> "
              f"{ {s: r for s, r in sorted(result.shard_rows.items())} } "
              f"({result.seconds * 1000:.0f} ms)")
    cluster.checkpoint()

    before = cluster.execute_scalar(QUERY)
    print(f"\n{QUERY}")
    print(f"  -> {before.value:.4f}  [{before.lower:.4f}, {before.upper:.4f}]")
    counted = cluster.execute_scalar(COUNTED)
    print(f"{COUNTED}")
    print(f"  -> {counted.value:.1f}  (per-shard COUNTs summed, "
          f"bounds [{counted.lower:.1f}, {counted.upper:.1f}])")

    # ---- kill a worker, query through the failure ----------------------- #
    print("\nkill -9 shard 0 ...")
    cluster.shards[0].kill()
    revive_start = time.perf_counter()
    after = cluster.execute_scalar(QUERY)
    print(f"  next query revived + recovered the worker in "
          f"{time.perf_counter() - revive_start:.2f}s")
    identical = (after.value, after.lower, after.upper) == (
        before.value, before.lower, before.upper,
    )
    print(f"  identical to the pre-kill answer: {identical}")

    # ---- full cluster restart from the manifest ------------------------- #
    cluster.close()  # SIGTERM -> each worker takes a final checkpoint
    reopen_start = time.perf_counter()
    cluster = ClusterQueryService.open(root, mode="process")
    print(f"\nreopened the whole cluster in "
          f"{time.perf_counter() - reopen_start:.2f}s "
          f"(tables: {cluster.table_names})")
    reopened = cluster.execute_scalar(QUERY)
    print(f"  -> {reopened.value:.4f}  "
          f"[{reopened.lower:.4f}, {reopened.upper:.4f}]")
    cluster.close()

    print("\nThe TCP front end does all of this behind one port:")
    print("  python -m repro.service --shards 2 --data-dir /var/lib/aqp-cluster")
    shutil.rmtree(root.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
