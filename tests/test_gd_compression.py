"""Tests for GreedyGD base/deviation splitting and a one-block compressed store."""

import numpy as np
import pytest

from repro.core.builder import snapshot_partition_input
from repro.data.table import Table
from repro.gd import greedygd
from repro.gd.greedygd import GDSplit, select_deviation_bits
from repro.gd.partitioned import PartitionedStore


def _codes_with_shared_high_bits(rows: int = 2000, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose columns share high bits (ideal for GD deduplication)."""
    rng = np.random.default_rng(seed)
    # High bits come from a handful of cluster values; only a few low-order
    # bits vary per row, which is the regime where GD deduplication wins.
    base_a = rng.integers(0, 4, size=rows) << 8
    base_b = rng.integers(0, 2, size=rows) << 10
    col_a = base_a | rng.integers(0, 16, size=rows)
    col_b = base_b | rng.integers(0, 32, size=rows)
    codes = np.column_stack([col_a, col_b]).astype(np.int64)
    total_bits = np.array([10, 11], dtype=np.int64)
    return codes, total_bits


class TestDeviationBitSelection:
    def test_selects_some_deviation_bits(self):
        codes, total_bits = _codes_with_shared_high_bits()
        deviation_bits = select_deviation_bits(codes, total_bits)
        assert (deviation_bits >= 0).all()
        assert (deviation_bits <= total_bits).all()
        assert deviation_bits.sum() > 0

    def test_constant_column_needs_no_deviation_bits(self):
        codes = np.column_stack([np.full(500, 7), np.arange(500)]).astype(np.int64)
        total_bits = np.array([3, 9], dtype=np.int64)
        deviation_bits = select_deviation_bits(codes, total_bits)
        assert deviation_bits[0] == 0

    def test_warm_start_matches_cold_result(self):
        codes, total_bits = _codes_with_shared_high_bits()
        cold = select_deviation_bits(codes, total_bits)
        warm = select_deviation_bits(codes, total_bits, warm_start=cold)
        np.testing.assert_array_equal(warm, cold)

    def test_warm_start_recovers_from_overshoot(self):
        """The bidirectional warm search removes bits a stale warm start
        over-assigned, so a distribution shift cannot lock in a bad split."""
        codes, total_bits = _codes_with_shared_high_bits()
        cold = select_deviation_bits(codes, total_bits)
        overshoot = np.minimum(cold + 3, total_bits)
        warm = select_deviation_bits(codes, total_bits, warm_start=overshoot)
        from repro.gd.greedygd import _estimate_bits

        warm_size, _ = _estimate_bits(codes, warm, total_bits)
        overshoot_size, _ = _estimate_bits(codes, overshoot, total_bits)
        assert warm_size <= overshoot_size
        assert (warm <= total_bits).all() and (warm >= 0).all()

    def test_warm_start_clipped_to_column_limits(self):
        codes, total_bits = _codes_with_shared_high_bits()
        silly = total_bits + 40
        warm = select_deviation_bits(codes, total_bits, warm_start=silly)
        assert (warm <= total_bits).all()


class TestGreedyGDCompress:
    def test_reconstruction_is_lossless(self):
        codes, total_bits = _codes_with_shared_high_bits()
        split = greedygd.compress(codes, total_bits)
        np.testing.assert_array_equal(split.reconstruct(), codes)

    def test_partial_reconstruction(self):
        codes, total_bits = _codes_with_shared_high_bits()
        split = greedygd.compress(codes, total_bits)
        rows = np.array([0, 10, 500])
        np.testing.assert_array_equal(split.reconstruct(rows), codes[rows])

    def test_deduplication_reduces_bases(self):
        codes, total_bits = _codes_with_shared_high_bits()
        split = greedygd.compress(codes, total_bits)
        assert split.num_bases < len(codes)

    def test_compression_beats_raw_for_redundant_data(self):
        codes, total_bits = _codes_with_shared_high_bits(rows=5000)
        split = greedygd.compress(codes, total_bits)
        raw_bits = int(total_bits.sum()) * len(codes)
        assert split.compressed_bits() < raw_bits

    def test_compressed_bytes_positive(self):
        codes, total_bits = _codes_with_shared_high_bits(rows=200)
        split = greedygd.compress(codes, total_bits)
        assert split.compressed_bytes() > 0

    def test_rejects_non_2d_codes(self):
        with pytest.raises(ValueError):
            greedygd.compress(np.arange(10), np.array([4]))

    def test_append_preserves_existing_rows(self):
        codes, total_bits = _codes_with_shared_high_bits(rows=800)
        split = greedygd.compress(codes[:600], total_bits)
        extended = greedygd.append(split, codes[600:])
        assert isinstance(extended, GDSplit)
        np.testing.assert_array_equal(extended.reconstruct(np.arange(600)), codes[:600])
        np.testing.assert_array_equal(extended.reconstruct(np.arange(600, 800)), codes[600:])

    def test_search_rows_subsampling(self, monkeypatch):
        codes, total_bits = _codes_with_shared_high_bits(rows=3000)
        monkeypatch.setattr(greedygd, "SEARCH_ROWS", 200)
        searched = []
        estimate = greedygd._estimate_bits
        monkeypatch.setattr(
            greedygd,
            "_estimate_bits",
            lambda sample, *rest: searched.append(len(sample)) or estimate(sample, *rest),
        )
        split = greedygd.compress(codes, total_bits)
        assert set(searched) == {200}
        np.testing.assert_array_equal(split.reconstruct(), codes)


def _one_block(table: Table) -> PartitionedStore:
    """The whole table as one GD-compressed block."""
    return PartitionedStore.compress(table, table.num_rows)


class TestCompressedStore:
    @pytest.fixture(scope="class")
    def store(self, power_table):
        return _one_block(power_table)

    def test_row_count_preserved(self, store, power_table):
        assert store.num_rows == power_table.num_rows

    def test_lossless_reconstruction_of_numeric_columns(self, store, power_table):
        reconstructed = store.reconstruct_rows(np.arange(200))
        for name in ("voltage", "global_active_power"):
            np.testing.assert_allclose(
                reconstructed.column(name)[:200], power_table.column(name)[:200], atol=1e-6
            )

    def test_compression_reduces_size(self, store, power_table):
        assert store.compressed_bytes() < power_table.memory_bytes()
        assert store.compression_ratio(power_table.memory_bytes()) > 1.0

    def test_base_values_span_column_range(self, store, power_table):
        bases = store.base_values("voltage")
        assert len(bases) >= 1
        assert bases.min() >= 0

    def test_decoded_codes_have_all_columns(self, store, power_table):
        codes = snapshot_partition_input(store, store.partitions[0]).codes
        assert set(codes) == set(power_table.column_names)
        for name in power_table.column_names:
            assert len(codes[name]) == power_table.num_rows

    def test_append_rows(self, power_table):
        store = PartitionedStore.compress(power_table.head(1000), 1500)
        store.append(power_table.select_rows(np.arange(1000, 1500)))
        assert store.num_partitions == 1
        assert store.num_rows == 1500
        reconstructed = store.reconstruct_rows(np.arange(1000, 1500))
        np.testing.assert_allclose(
            reconstructed.column("voltage"),
            power_table.column("voltage")[1000:1500],
            atol=1e-6,
        )

    def test_append_schema_mismatch_rejected(self, store):
        other = Table.from_dict({"different": [1.0, 2.0]})
        with pytest.raises(ValueError):
            store.append(other)

    def test_categorical_round_trip(self, flights_table):
        store = _one_block(flights_table.head(500))
        reconstructed = store.reconstruct_rows(np.arange(500))
        assert list(reconstructed.column("airline")) == list(flights_table.column("airline")[:500])
