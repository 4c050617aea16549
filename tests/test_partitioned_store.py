"""Tests for the partitioned GreedyGD storage layer."""

import numpy as np
import pytest

from conftest import make_simple_table

from repro.gd.partitioned import PartitionedStore


@pytest.fixture(scope="module")
def store_and_table():
    table = make_simple_table(rows=5000, seed=11)
    return PartitionedStore.compress(table, partition_size=2000), table


class TestConstruction:
    def test_partition_layout(self, store_and_table):
        store, table = store_and_table
        assert store.num_partitions == 3
        assert [p.num_rows for p in store.partitions] == [2000, 2000, 1000]
        assert store.num_rows == table.num_rows
        assert store.column_order == table.column_names
        np.testing.assert_array_equal(store.partition_row_offsets(), [0, 2000, 4000, 5000])

    def test_rejects_empty_table_and_bad_partition_size(self):
        table = make_simple_table(rows=10, seed=0)
        with pytest.raises(ValueError):
            PartitionedStore.compress(table, partition_size=0)

    def test_compressed_bytes_sum_over_partitions(self, store_and_table):
        store, _ = store_and_table
        assert store.compressed_bytes() == sum(p.compressed_bytes() for p in store.partitions)
        assert store.compression_ratio(10 * store.compressed_bytes()) == pytest.approx(10.0)

    def test_base_values_cover_all_partitions(self, store_and_table):
        store, _ = store_and_table
        merged = store.base_values("x")
        index = store.column_order.index("x")
        for partition in store.partitions:
            assert np.isin(partition.base_values(index), merged).all()


def assert_tables_equal(actual, expected, schema):
    for name in expected.column_names:
        a, b = actual.column(name), expected.column(name)
        if schema[name].is_categorical:
            assert all(x == y or (x is None and y is None) for x, y in zip(a, b)), name
        else:
            np.testing.assert_allclose(
                np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0), err_msg=name
            )


class TestReconstruction:
    def test_full_reconstruction_is_lossless(self, store_and_table):
        store, table = store_and_table
        assert_tables_equal(store.reconstruct_rows(), table, table.schema)

    def test_subset_reconstruction_across_partitions(self, store_and_table):
        store, table = store_and_table
        indices = np.array([4999, 0, 2500, 1999, 2000])
        subset = store.reconstruct_rows(indices)
        assert_tables_equal(subset, table.select_rows(indices), table.schema)


class TestAppend:
    def test_append_tops_up_tail_then_spills(self):
        table = make_simple_table(rows=5000, seed=11)
        store = PartitionedStore.compress(table, partition_size=2000)
        sealed = store.partitions[:2]
        extra = make_simple_table(rows=2500, seed=12)
        affected = store.append(extra)
        # Tail (index 2) topped up from 1000 to 2000 rows, the remaining
        # 1500 rows spill into a fresh partition 3.
        assert affected == [2, 3]
        assert [p.num_rows for p in store.partitions] == [2000, 2000, 2000, 1500]
        # Sealed partitions are untouched objects.
        assert store.partitions[0] is sealed[0]
        assert store.partitions[1] is sealed[1]

    def test_append_to_full_tail_only_creates_new_partitions(self):
        table = make_simple_table(rows=4000, seed=11)
        store = PartitionedStore.compress(table, partition_size=2000)
        before = list(store.partitions)
        affected = store.append(make_simple_table(rows=1000, seed=3))
        assert affected == [2]
        assert store.partitions[:2] == before

    def test_append_preserves_lossless_reconstruction(self):
        table = make_simple_table(rows=3000, seed=11)
        store = PartitionedStore.compress(table, partition_size=2000)
        extra = make_simple_table(rows=2500, seed=12)
        store.append(extra)
        full = table.concat(extra)
        assert store.num_rows == full.num_rows
        assert_tables_equal(store.reconstruct_rows(), full, table.schema)

    def test_warm_started_append_stays_lossless(self, monkeypatch):
        """Fresh overflow partitions seed their bit search from the previous
        tail; whatever the search picks, reconstruction must stay exact."""
        from repro.gd import greedygd

        table = make_simple_table(rows=2000, seed=11)
        extra = make_simple_table(rows=4500, seed=12)
        full = table.concat(extra)
        store = PartitionedStore.compress(table, partition_size=2000)
        starts = []
        search = greedygd.select_deviation_bits
        monkeypatch.setattr(
            greedygd,
            "select_deviation_bits",
            lambda codes, bits, warm_start: starts.append(warm_start) or search(codes, bits, warm_start),
        )
        store.append(extra)
        assert_tables_equal(store.reconstruct_rows(), full, table.schema)
        # The three overflow partitions each started from their predecessor.
        assert len(starts) == 3 == store.num_partitions - 1
        for previous, start in zip(store.partitions, starts):
            np.testing.assert_array_equal(start, previous.split.deviation_bits)

    def test_append_empty_batch_is_a_no_op(self, store_and_table):
        store, _ = store_and_table
        empty = make_simple_table(rows=5, seed=0).select_rows(np.array([], dtype=int))
        assert store.append(empty) == []

    def test_append_rejects_schema_mismatch(self, store_and_table):
        store, _ = store_and_table
        from repro.data.table import Table

        other = Table.from_dict({"only": [1.0, 2.0]}, name="other")
        with pytest.raises(ValueError):
            store.append(other)
