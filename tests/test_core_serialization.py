"""Tests for the compact synopsis storage encoding (§4.3)."""

import numpy as np
import pytest

from repro.core.serialization import deserialize, serialize, synopsis_size_bytes
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
