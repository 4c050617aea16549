"""Golomb–Rice coding of the sparse count block's index gaps (§4.3, Fig. 6).

A sparse block is a 6-bit Rice parameter ``k`` followed by one record per
non-zero cell: the gap before it as ``gap >> k`` ones, a zero and the low
``k`` bits, then the count.  These tests drive the gap coding through
``core/serialization.py``'s block helpers.
"""

import numpy as np
import pytest

from repro.core.serialization import (
    _decode_counts,
    _encode_counts,
    _pack_counts_sparse,
    _rice_parameter,
    _unpack_counts_sparse,
)


def _cells(gaps):
    """Cell index of each non-zero cell a gap sequence describes."""
    return np.cumsum(np.asarray(gaps, dtype=np.int64) + 1) - 1


def _round_trip(gaps, k, counts=None):
    """Pack the gaps as a sparse block with parameter ``k`` and decode it."""
    gaps = np.asarray(gaps, dtype=np.int64)
    counts = np.ones(len(gaps), dtype=np.int64) if counts is None else np.asarray(counts)
    width = max(1, int(counts.max()).bit_length()) if len(counts) else 1
    payload = _pack_counts_sparse(counts, gaps, k, width)
    size = int(_cells(gaps)[-1]) + 1 if len(gaps) else 1
    decoded = _unpack_counts_sparse(payload, (size,), width, len(gaps))
    return payload, decoded


class TestRiceParameter:
    def test_empty_sequence_gets_zero(self):
        assert _rice_parameter([]) == 0

    def test_small_values_get_small_parameter(self):
        assert _rice_parameter([0, 1, 0, 1]) <= 1

    def test_large_values_get_larger_parameter(self):
        assert _rice_parameter([1000] * 10) >= 8

    def test_parameter_is_bounded(self):
        assert 0 <= _rice_parameter([10 ** 9]) <= 30


class TestValueCodec:
    @pytest.mark.parametrize("value", [0, 1, 2, 7, 8, 100, 12345])
    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_round_trip_single_value(self, value, k):
        payload, decoded = _round_trip([value], k)
        assert np.flatnonzero(decoded).tolist() == [value]
        # 6-bit k, then (value >> k) ones, a zero, k remainder bits, 1 count bit.
        assert len(payload) == (6 + (value >> k) + 1 + k + 1 + 7) // 8

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            _encode_counts(np.array([0.0, 4.0, -2.0]))


class TestSequenceCodec:
    def test_round_trip_sequence(self):
        gaps = [0, 3, 1, 7, 42, 0, 0, 5]
        counts = [4, 1, 9, 2, 3, 1, 6, 5]
        _, decoded = _round_trip(gaps, _rice_parameter(gaps), counts)
        assert np.flatnonzero(decoded).tolist() == _cells(gaps).tolist()
        assert decoded[decoded > 0].tolist() == counts

    def test_round_trip_with_explicit_parameter(self):
        payload, decoded = _round_trip([10, 20, 30], 2)
        assert payload[0] >> 2 == 2
        assert np.flatnonzero(decoded).tolist() == [10, 31, 62]

    def test_geometric_gaps_compress_well(self):
        rng = np.random.default_rng(0)
        gaps = rng.geometric(0.3, size=500) - 1
        payload, _ = _round_trip(gaps, _rice_parameter(gaps))
        # Fixed-width gaps would need at least ceil(log2(max+1)) bits each,
        # beside the 1-bit counts both layouts carry.
        fixed_bits = 500 * max(1, int(np.ceil(np.log2(gaps.max() + 1))))
        assert len(payload) * 8 - 6 - 500 <= fixed_bits * 1.5

    def test_encoded_bit_length_matches_actual(self):
        # The block encoder picks sparse from the gaps alone; that choice
        # must equal packing both forms and keeping the strictly smaller.
        rng = np.random.default_rng(1)
        for density in (0.0, 0.02, 0.1, 0.3, 0.7, 1.0):
            for scale in (1, 9, 5000):
                counts = np.where(rng.random(300) < density, rng.integers(1, scale + 1, 300), 0)
                block = _encode_counts(counts.astype(float))
                width = block[0]
                cells = np.flatnonzero(counts)
                gaps = np.diff(cells, prepend=-1) - 1
                sparse = _pack_counts_sparse(counts[cells], gaps, _rice_parameter(gaps), width)
                dense = _encode_counts(counts.astype(float), force_dense=True)[10:]
                assert block[1] == (len(sparse) < len(dense))
                assert block[10:] == (sparse if block[1] else dense)

    def test_empty_sequence(self):
        block = _encode_counts(np.zeros(20))
        assert block[1] == 1 and block[10:] == b"\x00"  # k = 0, no records
        decoded, _ = _decode_counts(memoryview(block), 0, (20,))
        assert not decoded.any()
