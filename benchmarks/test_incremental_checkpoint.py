"""Incremental checkpoint benchmark: O(tail) wall time, not O(table).

The v2 snapshot format hard-links every sealed partition blob from the
previous snapshot and rewrites only the tail blob, the parts index, the
synopsis payload (memoized per sealed partition) and the catalog /
manifest.  Steady-state checkpoint cost should therefore track the
*ingest batch*, not the table: this benchmark checkpoints two databases
whose tables differ 10x in size after identical ingests and pins the
median wall-time ratio at <= 2x (the paper-adjacent acceptance bar from
the issue; a full v1 rewrite is measured alongside for contrast and
scales linearly).

Results land in ``benchmarks/results/incremental_checkpoint.txt`` with a
machine-readable twin in ``incremental_checkpoint.json``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest
from bench_utils import bench_scale, record, record_json

from repro import load_dataset
from repro.bench.harness import fmt, format_table
from repro.core.params import PairwiseHistParams
from repro.storage import DurableDatabase, write_snapshot

SMALL_ROWS = 6_000
BIG_ROWS = 60_000
PARTITION_SIZE = 2_000
INGEST_ROWS = 500
CYCLES = 3
#: The tentpole acceptance bar: 10x the table, at most 2x the checkpoint.
REQUIRED_RATIO = 2.0
#: Guards the ratio against timer noise when a cycle is only a few ms.
FLOOR_SECONDS = 0.02

QUERY = "SELECT AVG(global_active_power) FROM power WHERE voltage > 240"


def _checkpoint_cycles(tmp_path, name: str, rows: int, table):
    """Register ``rows`` of ``table``, checkpoint, then time CYCLES
    ingest-and-checkpoint rounds.  Returns (db, per-cycle seconds)."""
    base = table.select_rows(np.arange(rows))
    db = DurableDatabase.open(
        tmp_path / name,
        default_params=PairwiseHistParams.with_defaults(sample_size=5_000),
        partition_size=PARTITION_SIZE,
    )
    db.register(base)
    db.checkpoint()  # the link source for the incremental chain
    seconds = []
    offset = rows
    for cycle in range(CYCLES):
        batch = table.select_rows(np.arange(offset, offset + INGEST_ROWS))
        offset += INGEST_ROWS
        db.ingest("power", batch)
        result = db.checkpoint()
        assert not result.skipped
        seconds.append(result.seconds)
    return db, seconds


@pytest.mark.slow
def test_checkpoint_cost_tracks_tail_not_table(tmp_path):
    scale = bench_scale()
    table = load_dataset(
        "power", rows=BIG_ROWS + CYCLES * INGEST_ROWS, seed=scale.seed
    )

    small_db, small_seconds = _checkpoint_cycles(
        tmp_path, "small", SMALL_ROWS, table
    )
    big_db, big_seconds = _checkpoint_cycles(tmp_path, "big", BIG_ROWS, table)
    small_median = statistics.median(small_seconds)
    big_median = statistics.median(big_seconds)

    # Contrast point: what a non-incremental checkpoint costs — the big
    # table's snapshot written into an empty directory, where there is
    # nothing to link and every sealed partition is re-serialized, which
    # scales with the table instead of the tail.
    state = big_db._capture()
    start = time.perf_counter()
    write_snapshot(tmp_path / "full-rewrite", state)
    full_rewrite = time.perf_counter() - start

    # Both databases must recover bit-identically to their live state.
    for db, name in ((small_db, "small"), (big_db, "big")):
        from repro.service.database import QueryService

        expected = QueryService(database=db).execute_scalar(QUERY).value
        db.close()
        recovered = DurableDatabase.open(
            tmp_path / name,
            default_params=PairwiseHistParams.with_defaults(sample_size=5_000),
            partition_size=PARTITION_SIZE,
        )
        assert recovered.recovery_info.replayed_records == 0
        got = QueryService(database=recovered).execute_scalar(QUERY).value
        assert got == expected
        recovered.close()

    ratio = big_median / max(small_median, FLOOR_SECONDS)
    text = format_table(
        ["table", "rows", "median ckpt", "notes"],
        [
            [
                "small",
                str(SMALL_ROWS),
                fmt(small_median, 4),
                f"{CYCLES} ingest+checkpoint cycles of {INGEST_ROWS} rows",
            ],
            [
                "big (10x)",
                str(BIG_ROWS),
                fmt(big_median, 4),
                f"ratio {ratio:.2f}x (required <= {REQUIRED_RATIO:.1f}x)",
            ],
            [
                "big, full rewrite",
                str(BIG_ROWS),
                fmt(full_rewrite, 4),
                "nothing to link: every sealed partition re-serialized",
            ],
        ],
        title=(
            f"Incremental checkpoint cost vs table size "
            f"(partition size {PARTITION_SIZE})"
        ),
    )
    record("incremental_checkpoint", text)
    record_json(
        "incremental_checkpoint",
        {
            "small_rows": SMALL_ROWS,
            "big_rows": BIG_ROWS,
            "partition_size": PARTITION_SIZE,
            "ingest_rows": INGEST_ROWS,
            "cycles": CYCLES,
            "small_seconds": small_seconds,
            "big_seconds": big_seconds,
            "small_median_seconds": small_median,
            "big_median_seconds": big_median,
            "big_full_rewrite_seconds": full_rewrite,
            "ratio": ratio,
            "required_ratio": REQUIRED_RATIO,
        },
    )

    assert big_median <= REQUIRED_RATIO * max(small_median, FLOOR_SECONDS), (
        f"checkpointing a 10x table cost {big_median:.4f}s vs "
        f"{small_median:.4f}s on the small table "
        f"({ratio:.2f}x > {REQUIRED_RATIO:.1f}x): the incremental path is "
        f"doing O(table) work"
    )
