"""Bit-level engine answers against values recorded at the parent commit.

``tests/fixtures/engine-golden.json`` holds ``float.hex()`` of
value / lower / upper for seeded generator statements over a seeded
20k-row ``power`` table (plus one derived categorical column), answered
by three builds of the engine, recorded by running this file as a script
against the commit *before* ``core/``'s per-bin equations became array
expressions::

    REPRO_GOLDEN_SRC=<parent>/src python tests/test_engine_golden.py --record

* ``partitioned`` — ``Database(partition_size=2000)``: ten partition
  synopses merged (``Histogram1D.merge`` re-derives the weighted-centre
  bounds), every statement;
* ``sampled`` — ``from_table`` with ``Ns`` below the row count, so the
  Eq. 29 sampling widening runs, first ``_SUBSET`` statements;
* ``no_pairs`` — stand-alone ``from_table(use_compression=False,
  build_pairs=False)``: the independence fallback, first ``_SUBSET``.

The fixture also carries the raw bytes (hex) of ``centre_lower`` /
``centre_upper`` of the merged synopsis, digests of the serialized
synopses (the partitions' ``PWHP`` payload, the merged ``PWHX`` one and the
two stand-alone ones) and ``explain_aggregation`` for one statement per
aggregate.
The test rebuilds everything and compares exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "fixtures" / "engine-golden.json"

_ROWS, _SEED, _PARTITION_SIZE, _STATEMENTS, _SUBSET = 20_000, 11, 2_000, 240, 60

#: Statements the generator does not draw (GROUP BY) or draws rarely:
#: same-column groups on low-cardinality columns, whose integer literals
#: land on stored bin extrema, and single-column MIN / MAX.
_HAND_WRITTEN = [
    "SELECT COUNT(*), AVG(voltage), MAX(global_intensity) FROM power WHERE hour >= 6 GROUP BY band",
    "SELECT COUNT(*) FROM power WHERE hour > 5 AND hour < 18",
    "SELECT SUM(global_active_power) FROM power WHERE hour >= 7 AND hour <= 7",
    "SELECT MEDIAN(voltage) FROM power WHERE voltage > 238 AND voltage <= 242 AND voltage != 240",
    "SELECT VAR(global_intensity) FROM power WHERE day_of_week = 2 OR day_of_week = 5",
    "SELECT MIN(voltage) FROM power WHERE voltage > 239.5",
    "SELECT MAX(sub_metering_3) FROM power WHERE sub_metering_3 < 17",
    "SELECT AVG(global_active_power) FROM power WHERE band = 'peak' AND hour < 20",
    "SELECT COUNT(*) FROM power",
]


def _table():
    import numpy as np

    from repro import Table, load_dataset
    from repro.data.schema import ColumnSchema, ColumnType, TableSchema

    power = load_dataset("power", rows=_ROWS, seed=_SEED)
    hour = power.column("hour")
    band = np.where(hour < 7, "night", np.where(hour < 17, "day", "peak")).astype(object)
    return Table(
        name="power",
        schema=TableSchema(list(power.schema) + [ColumnSchema("band", ColumnType.CATEGORICAL)]),
        columns={**power.columns, "band": band},
    )


def _statements(table) -> list[str]:
    from repro.workload import QueryGenerator, WorkloadSpec

    queries = QueryGenerator(
        table, WorkloadSpec.scaled_experiments(num_queries=_STATEMENTS, seed=_SEED)
    ).generate()
    return [str(q) for q in queries] + _HAND_WRITTEN


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _answers(engine, sqls: list[str]) -> list:
    def triple(result) -> list[str]:
        return [float(result.value).hex(), float(result.lower).hex(), float(result.upper).hex()]

    answers = []
    for sql in sqls:
        results = engine.execute(sql)
        if isinstance(results, dict):
            answers.append({label: [triple(r) for r in group] for label, group in results.items()})
        else:
            answers.append([triple(r) for r in results])
    return answers


def _compute(sqls: list[str] | None = None) -> dict:
    from repro import PairwiseHistEngine, PairwiseHistParams
    from repro.core.serialization import serialize, serialize_partitioned
    from repro.core.synopsis import PairwiseHist
    from repro.service.database import Database
    from repro.sql.parser import parse_query

    table = _table()
    sqls = _statements(table) if sqls is None else sqls
    database = Database(partition_size=_PARTITION_SIZE)
    managed = database.register(table)
    merged = managed.engine.synopsis
    sampled = PairwiseHistEngine.from_table(
        table, params=PairwiseHistParams.with_defaults(sample_size=4_000, seed=1)
    )
    no_pairs = PairwiseHistEngine.from_table(table, use_compression=False, build_pairs=False)

    explain = {}
    for sql in sqls:
        query = parse_query(sql)
        func = query.aggregations[0].func.value
        if query.group_by is None and func not in explain:
            explain[func] = managed.engine.explain_aggregation(query.aggregations[0], query)
    group_by = parse_query(_HAND_WRITTEN[0])
    explain["categorical"] = managed.engine.explain_aggregation(
        parse_query("SELECT COUNT(band) FROM power").aggregations[0], group_by
    )

    return {
        "statements": sqls,
        "partitioned": _answers(managed.engine, sqls),
        "sampled": _answers(sampled, sqls[:_SUBSET]),
        "no_pairs": _answers(no_pairs, sqls[:_SUBSET]),
        "centre_bounds": {
            name: [hist.centre_lower.tobytes().hex(), hist.centre_upper.tobytes().hex()]
            for name, hist in merged.hist1d.items()
        },
        "serialized_sha256": {
            "partitioned": _digest(serialize_partitioned(managed.partition_synopses)),
            "merged_exact": _digest(
                serialize(PairwiseHist.merge(managed.partition_synopses), exact=True)
            ),
            "sampled": _digest(serialize(sampled.synopsis)),
            "no_pairs": _digest(serialize(no_pairs.synopsis)),
        },
        "explain": explain,
    }


def test_answers_bounds_and_synopses_are_bit_identical_to_the_parent():
    golden = json.loads(GOLDEN.read_text())
    sqls = golden["statements"]
    funcs = {sql.split("(")[0].removeprefix("SELECT ") for sql in sqls}
    assert len(sqls) >= 200 and funcs >= {"COUNT", "SUM", "AVG", "VAR", "MIN", "MAX", "MEDIAN"}
    assert any(" OR " in s for s in sqls) and any("band = " in s for s in sqls)

    # Through JSON, so a dict-key or list/tuple difference is not a mismatch.
    now = json.loads(json.dumps(_compute(sqls)))
    for deployment in ("partitioned", "sampled", "no_pairs"):
        for sql, got, want in zip(sqls, now[deployment], golden[deployment]):
            assert got == want, f"{deployment}: {sql}"
        assert len(now[deployment]) == len(golden[deployment])
    assert now["centre_bounds"] == golden["centre_bounds"]
    assert now["serialized_sha256"] == golden["serialized_sha256"]
    assert now["explain"] == golden["explain"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"] or "REPRO_GOLDEN_SRC" not in os.environ:
        raise SystemExit(
            "usage: REPRO_GOLDEN_SRC=<parent>/src python tests/test_engine_golden.py --record"
        )
    sys.path.insert(0, os.environ["REPRO_GOLDEN_SRC"])
    GOLDEN.write_text(json.dumps(_compute(), indent=0) + "\n")
    print(f"recorded into {GOLDEN}")
