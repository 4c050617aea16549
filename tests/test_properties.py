"""Property-based invariants of the synopsis algebra (seeded random fan-out).

Complements ``test_property_based.py`` (which covers the low-level codecs
and refinement): these properties pin down the *algebra* the partitioned
service relies on — merge conserves mass, serialization is a round-trip
identity, and a many-partition store decodes to exactly the same rows as
the one-partition (monolithic) store.  Each property runs over a fan-out
of seeded random tables (plain ``random``/numpy seeding, no extra
dependencies).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PairwiseHistParams,
    PartitionedStore,
    Table,
    deserialize,
    deserialize_partitioned,
    serialize,
    serialize_partitioned,
)
from repro.core.builder import build_partition_synopses, snapshot_partition_input
from repro.core.synopsis import PairwiseHist
from repro.data.schema import ColumnSchema, ColumnType, TableSchema

SEEDS = [0, 1, 2, 3, 4]


def random_table(seed: int) -> Table:
    """A random mixed-type table whose numeric values are exactly storable."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1_200, 3_000))
    uniform = np.round(rng.uniform(0, 100, size=rows), 2)
    skewed = np.round(rng.exponential(15, size=rows), 2)
    integers = rng.integers(0, 25, size=rows).astype(float)
    labels = np.array(["red", "green", "blue", "cyan"], dtype=object)
    categories = labels[rng.integers(0, len(labels), size=rows)]
    schema = TableSchema(
        [
            ColumnSchema("uniform", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("skewed", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("integers", ColumnType.NUMERIC, decimals=0),
            ColumnSchema("label", ColumnType.CATEGORICAL),
        ]
    )
    return Table(
        name=f"random_{seed}",
        schema=schema,
        columns={
            "uniform": uniform,
            "skewed": skewed,
            "integers": integers,
            "label": categories,
        },
    )


def partition_synopses(
    table: Table, seed: int, partition_size: int = 700
) -> tuple[list[PairwiseHist], PairwiseHistParams]:
    params = PairwiseHistParams.with_defaults(sample_size=None, seed=seed)
    store = PartitionedStore.compress(table, partition_size=partition_size)
    inputs = [snapshot_partition_input(store, p) for p in store.partitions]
    return (
        build_partition_synopses(inputs, params, columns=store.column_order),
        params,
    )


class TestMergeConservation:
    """``merge(a, b)`` conserves histogram mass and row bookkeeping."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_conserves_1d_counts(self, seed):
        table = random_table(seed)
        parts, params = partition_synopses(table, seed)
        merged = PairwiseHist.merge(list(parts), params=params)
        for column in merged.columns:
            part_total = sum(float(p.hist1d[column].counts.sum()) for p in parts)
            merged_total = float(merged.hist1d[column].counts.sum())
            assert merged_total == pytest.approx(part_total, rel=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_conserves_2d_counts(self, seed):
        table = random_table(seed)
        parts, params = partition_synopses(table, seed)
        merged = PairwiseHist.merge(list(parts), params=params)
        assert merged.hist2d, "expected pairwise histograms"
        for key, hist in merged.hist2d.items():
            part_total = sum(float(p.hist2d[key].counts.sum()) for p in parts)
            assert float(hist.counts.sum()) == pytest.approx(part_total, rel=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_adds_row_bookkeeping(self, seed):
        table = random_table(seed)
        parts, params = partition_synopses(table, seed)
        merged = PairwiseHist.merge(list(parts), params=params)
        assert merged.population_rows == sum(p.population_rows for p in parts)
        assert merged.population_rows == table.num_rows
        assert merged.sample_rows == sum(p.sample_rows for p in parts)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_merge_is_order_insensitive_on_counts(self, seed):
        table = random_table(seed)
        parts, params = partition_synopses(table, seed)
        forward = PairwiseHist.merge(list(parts), params=params)
        backward = PairwiseHist.merge(list(reversed(parts)), params=params)
        for column in forward.columns:
            assert float(forward.hist1d[column].counts.sum()) == pytest.approx(
                float(backward.hist1d[column].counts.sum()), rel=1e-9
            )


class TestSerializationRoundTrip:
    """PWHP (de)serialization is an identity on what it persists."""

    @staticmethod
    def assert_synopses_equal(left: PairwiseHist, right: PairwiseHist) -> None:
        assert left.columns == right.columns
        assert left.population_rows == right.population_rows
        assert left.sample_rows == right.sample_rows
        for column in left.columns:
            a, b = left.hist1d[column], right.hist1d[column]
            np.testing.assert_allclose(a.edges, b.edges)
            # Counts are persisted as integers; built synopses already are.
            np.testing.assert_allclose(np.rint(a.counts), b.counts)
            np.testing.assert_allclose(a.v_minus, b.v_minus)
            np.testing.assert_allclose(a.v_plus, b.v_plus)
        assert set(left.hist2d) == set(right.hist2d)
        for key in left.hist2d:
            np.testing.assert_allclose(
                np.rint(left.hist2d[key].counts), right.hist2d[key].counts
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_synopsis_round_trip(self, seed):
        table = random_table(seed)
        parts, _ = partition_synopses(table, seed)
        for part in parts:
            self.assert_synopses_equal(part, deserialize(serialize(part)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partitioned_framing_round_trip(self, seed):
        table = random_table(seed)
        parts, _ = partition_synopses(table, seed)
        decoded = deserialize_partitioned(serialize_partitioned(list(parts)))
        assert len(decoded) == len(parts)
        for part, round_tripped in zip(parts, decoded):
            self.assert_synopses_equal(part, round_tripped)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_round_trip_is_stable(self, seed):
        # serialize(deserialize(x)) == serialize-ish: a second round trip
        # reproduces the first byte-for-byte (the codec is deterministic).
        table = random_table(seed)
        parts, _ = partition_synopses(table, seed)
        payload = serialize_partitioned(list(parts))
        again = serialize_partitioned(deserialize_partitioned(payload))
        assert payload == again


class TestPartitionedDecodeEquivalence:
    """Many-partition and one-partition stores decode to identical rows."""

    @staticmethod
    def assert_tables_equal(left: Table, right: Table) -> None:
        assert left.column_names == right.column_names
        for name in left.column_names:
            a, b = left.column(name), right.column(name)
            if left.schema[name].is_categorical:
                assert all(
                    x == y or (x is None and y is None) for x, y in zip(a, b)
                )
            else:
                np.testing.assert_allclose(
                    np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0)
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partitioned_decode_matches_monolithic(self, seed):
        table = random_table(seed)
        partitioned = PartitionedStore.compress(table, partition_size=700)
        monolithic = PartitionedStore.compress(table, table.num_rows)
        self.assert_tables_equal(
            partitioned.reconstruct_rows(), monolithic.reconstruct_rows()
        )
        self.assert_tables_equal(partitioned.reconstruct_rows(), table)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_subset_decode_matches_monolithic(self, seed):
        table = random_table(seed)
        rng = np.random.default_rng(seed + 100)
        indices = np.sort(
            rng.choice(table.num_rows, size=min(500, table.num_rows), replace=False)
        )
        partitioned = PartitionedStore.compress(table, partition_size=700)
        monolithic = PartitionedStore.compress(table, table.num_rows)
        self.assert_tables_equal(
            partitioned.reconstruct_rows(indices),
            monolithic.reconstruct_rows(indices),
        )
