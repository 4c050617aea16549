"""Tests for the compact synopsis storage encoding (§4.3)."""

import struct

import numpy as np
import pytest

from repro.core.serialization import (
    _decode_counts,
    _encode_counts,
    deserialize,
    serialize,
    synopsis_size_bytes,
)
from repro.core.synopsis import PairwiseHist
from repro.sql.ast import ComparisonOp, Condition
from repro.core.weightings import PredicateEvaluator


@pytest.fixture(scope="module")
def synopsis(simple_engine):
    return simple_engine.synopsis


class TestRoundTrip:
    def test_magic_rejected_for_garbage(self):
        with pytest.raises(ValueError):
            deserialize(b"NOTApayload")

    def test_round_trip_preserves_structure(self, synopsis):
        restored = deserialize(serialize(synopsis))
        assert restored.columns == synopsis.columns
        assert set(restored.hist1d) == set(synopsis.hist1d)
        assert set(restored.hist2d) == set(synopsis.hist2d)
        assert restored.population_rows == synopsis.population_rows
        assert restored.sample_rows == synopsis.sample_rows

    def test_round_trip_preserves_1d_histograms(self, synopsis):
        restored = deserialize(serialize(synopsis))
        for column, hist in synopsis.hist1d.items():
            other = restored.hist1d[column]
            np.testing.assert_allclose(other.edges, hist.edges)
            np.testing.assert_allclose(other.counts, hist.counts)
            np.testing.assert_allclose(other.v_minus, hist.v_minus)
            np.testing.assert_allclose(other.v_plus, hist.v_plus)
            np.testing.assert_allclose(other.unique, hist.unique)

    def test_round_trip_preserves_2d_counts_and_metadata(self, synopsis):
        restored = deserialize(serialize(synopsis))
        for key, hist in synopsis.hist2d.items():
            other = restored.hist2d[key]
            np.testing.assert_allclose(other.counts, hist.counts)
            np.testing.assert_allclose(other.row.edges, hist.row.edges)
            np.testing.assert_allclose(other.col.v_plus, hist.col.v_plus)
            np.testing.assert_allclose(other.row.parent, hist.row.parent)
            np.testing.assert_allclose(other.row.marginal_counts, hist.row.marginal_counts)

    def test_round_trip_preserves_params(self, synopsis):
        restored = deserialize(serialize(synopsis))
        assert restored.params.min_points == synopsis.params.min_points
        assert restored.params.alpha == pytest.approx(synopsis.params.alpha)

    def test_centre_bounds_recomputed_after_load(self, synopsis):
        restored = deserialize(serialize(synopsis))
        for column, hist in synopsis.hist1d.items():
            np.testing.assert_allclose(
                restored.hist1d[column].centre_lower, hist.centre_lower, rtol=1e-9
            )

    def test_queries_identical_after_round_trip(self, synopsis):
        restored = deserialize(serialize(synopsis))
        condition = Condition("y", ComparisonOp.GT, synopsis.hist1d["y"].midpoints.mean())
        original = PredicateEvaluator(synopsis, "x").weightings(condition)
        reloaded = PredicateEvaluator(restored, "x").weightings(condition)
        np.testing.assert_allclose(reloaded[0], original[0])
        np.testing.assert_allclose(reloaded[1], original[1])


class TestSizeAccounting:
    def test_size_matches_payload_length(self, synopsis):
        assert synopsis_size_bytes(synopsis) == len(serialize(synopsis))

    def test_synopsis_size_grows_sublinearly_with_data(self, synopsis, simple_table):
        # The synopsis summarises a fixed-size sample, so tripling the data
        # must not triple the synopsis (its size is driven by M, not N).
        from repro import PairwiseHistEngine, PairwiseHistParams

        bigger = simple_table.concat(simple_table).concat(simple_table)
        params = PairwiseHistParams(
            sample_size=synopsis.sample_rows,
            min_points=synopsis.params.min_points,
            alpha=synopsis.params.alpha,
            seed=0,
        )
        bigger_engine = PairwiseHistEngine.from_table(bigger, params=params)
        ratio = bigger_engine.synopsis_bytes() / synopsis_size_bytes(synopsis)
        assert ratio < 2.0

    def test_adaptive_encoding_not_larger_than_dense(self, synopsis):
        adaptive = synopsis_size_bytes(synopsis)
        dense = synopsis_size_bytes(synopsis, force_dense=True)
        assert adaptive <= dense

    def test_dense_payload_still_round_trips(self, synopsis):
        restored = deserialize(serialize(synopsis, force_dense=True))
        for key, hist in synopsis.hist2d.items():
            np.testing.assert_allclose(restored.hist2d[key].counts, hist.counts)


class TestCountBlockLayout:
    """Block bytes spelled out in hex, recorded before count blocks were
    packed as arrays: the on-disk layout must not move by a bit."""

    @pytest.mark.parametrize(
        "counts, flag, k, expected",
        [
            pytest.param(
                [[700, 0, 3, 12, 0, 999, 5], [1, 0, 64, 80, 0, 2, 513]],
                1,
                0,
                "0a010a0000000f000000015e40180cbe700a00610028401201",
                id="sparse-k0",
            ),
            pytest.param(
                np.bincount([3] * 7 + [9] + [60] * 4, minlength=64),
                1,
                4,
                "03010300000005000000107ca78a00",
                id="sparse-long-zero-run",
            ),
            pytest.param(
                [[3, 0, 1], [2, 5, 7], [0, 6, 4]],
                0,
                None,
                "0300070000000400000060abc680",
                id="dense",
            ),
        ],
    )
    def test_block_bytes_are_pinned(self, counts, flag, k, expected):
        counts = np.asarray(counts, dtype=float)
        block = _encode_counts(counts)
        assert block.hex() == expected
        assert block[1] == flag
        if k is not None:
            assert block[10] >> 2 == k  # the payload opens with the 6-bit k
        decoded, end = _decode_counts(memoryview(block), 0, counts.shape)
        assert end == len(block)
        np.testing.assert_array_equal(decoded, counts)

    @pytest.mark.parametrize(
        "edit, shape, message",
        [
            (lambda b: b[:10] + b"\x10" + b"\xff" * 4, (64,), "mid-record"),
            (lambda b: b, (40,), "past its cells"),
            (lambda b: b[:2] + struct.pack("<I", 9) + b[6:], (64,), "shorter than its records"),
        ],
        ids=["no-terminator", "cells-past-shape", "too-many-records"],
    )
    def test_corrupt_sparse_block_is_rejected(self, edit, shape, message):
        counts = np.bincount([3] * 7 + [9] + [60] * 4, minlength=64).astype(float)
        block = edit(_encode_counts(counts))
        with pytest.raises(ValueError, match=message):
            _decode_counts(memoryview(block), 0, shape)

    def test_unknown_flag_is_rejected(self):
        block = bytearray(_encode_counts(np.array([1.0, 2.0, 3.0])))
        block[1] = 3
        with pytest.raises(ValueError, match="flag"):
            _decode_counts(memoryview(bytes(block)), 0, (3,))

    def test_negative_counts_are_rejected(self):
        with pytest.raises(ValueError):
            _encode_counts(np.array([3.0, -1.0]))


class TestMalformedPayloads:
    @pytest.fixture(scope="class")
    def payloads(self, power_table):
        """A compact partition synopsis (dense and sparse blocks) and an
        exact merged one (raw blocks), each under 1 KiB."""
        from repro.data.table import Table
        from repro.service.database import Database

        def partitions(*columns):
            small = Table.from_dict({c: power_table.column(c)[:120] for c in columns}, name="small")
            return Database(partition_size=60).register(small).partition_synopses

        compact = serialize(partitions("global_reactive_power", "sub_metering_1")[0])
        exact = serialize(PairwiseHist.merge(partitions("voltage")), exact=True)
        return compact, exact

    def test_small_payloads_cover_every_block_form(self, payloads):
        compact, exact = payloads
        forms = set()
        for payload in payloads:
            synopsis = deserialize(payload)
            blocks = list(synopsis.hist1d.values()) + list(synopsis.hist2d.values())
            forms |= {_encode_counts(b.counts, exact=payload is exact)[1] for b in blocks}
        assert forms == {0, 1, 2}

    def test_every_truncation_point_raises_value_error(self, payloads):
        for payload in payloads:
            for end in range(len(payload)):
                with pytest.raises((ValueError, struct.error)):
                    deserialize(payload[:end])
