"""Tests for Algorithm 1 (synopsis construction) and the PairwiseHist container."""

import numpy as np
import pytest

from repro.core.builder import build_pairwise_hist
from repro.core.histogram1d import bin_indices
from repro.core.params import PairwiseHistParams


@pytest.fixture(scope="module")
def codes():
    rng = np.random.default_rng(0)
    rows = 6000
    x = np.round(rng.uniform(0, 1000, rows))
    y = np.round(0.7 * x + rng.normal(0, 30, rows))
    z = np.round(np.clip(rng.exponential(50, rows), 0, 2000))
    return {"x": x, "y": np.clip(y, 0, None), "z": z}


@pytest.fixture(scope="module")
def params():
    return PairwiseHistParams(sample_size=4000, min_points=80, alpha=0.001, seed=0)


@pytest.fixture(scope="module")
def synopsis(codes, params):
    return build_pairwise_hist(codes, params)


class TestConstruction:
    def test_one_histogram_per_column(self, synopsis, codes):
        assert set(synopsis.hist1d) == set(codes)

    def test_one_histogram_per_pair(self, synopsis, codes):
        d = len(codes)
        assert len(synopsis.hist2d) == d * (d - 1) // 2

    def test_sample_rows_respected(self, synopsis, params):
        assert synopsis.sample_rows == params.sample_size
        assert synopsis.population_rows == 6000
        assert synopsis.sampling_ratio == pytest.approx(4000 / 6000)

    def test_1d_counts_sum_to_sample(self, synopsis, params):
        for hist in synopsis.hist1d.values():
            assert hist.total_count == params.sample_size

    def test_2d_counts_sum_to_sample(self, synopsis, params):
        for hist in synopsis.hist2d.values():
            assert hist.total_count == params.sample_size

    def test_bins_have_at_least_m_or_pass_uniformity(self, synopsis, codes, params):
        # Refinement stops below M, so no bin should have been produced by a
        # split that left fewer than M points on a side AND kept splitting.
        for hist in synopsis.hist1d.values():
            assert hist.num_bins >= 1
            assert (hist.counts >= 0).all()

    def test_v_bounds_ordered_and_within_edges(self, synopsis):
        for hist in synopsis.hist1d.values():
            occupied = hist.counts > 0
            assert (hist.v_minus[occupied] <= hist.v_plus[occupied]).all()
            assert (hist.v_minus[occupied] >= hist.edges[0] - 1e-9).all()
            assert (hist.v_plus[occupied] <= hist.edges[-1] + 1e-9).all()

    def test_correlated_pair_is_refined_more_than_independent(self, synopsis):
        correlated = synopsis.pair("x", "y")
        independent = synopsis.pair("x", "z")
        assert correlated.counts.size >= independent.counts.size

    def test_parent_maps_are_valid_indices(self, synopsis):
        for (col_a, col_b), hist in synopsis.hist2d.items():
            assert hist.row.parent.max() < synopsis.hist1d[col_a].num_bins
            assert hist.col.parent.max() < synopsis.hist1d[col_b].num_bins

    def test_build_without_pairs(self, codes, params):
        synopsis = build_pairwise_hist(codes, params, build_pairs=False)
        assert synopsis.hist2d == {}
        assert len(synopsis.hist1d) == len(codes)

    def test_null_masks_exclude_rows(self, params):
        rng = np.random.default_rng(1)
        values = np.round(rng.uniform(0, 100, 3000))
        nulls = rng.random(3000) < 0.2
        synopsis = build_pairwise_hist(
            {"a": values, "b": values[::-1]},
            params.scaled_to(3000),
            null_masks={"a": nulls, "b": np.zeros(3000, dtype=bool)},
        )
        assert synopsis.hist1d["a"].total_count == pytest.approx(float((~nulls).sum()))
        assert synopsis.hist1d["b"].total_count == 3000

    def test_initial_edges_seeding(self, codes, params):
        seeds = {"x": np.array([100.0, 400.0, 700.0])}
        seeded = build_pairwise_hist(codes, params, initial_edges=seeds)
        unseeded = build_pairwise_hist(codes, params)
        # The seeded histogram contains the seed edges (possibly among others).
        assert {100.0, 400.0, 700.0} <= set(np.round(seeded.hist1d["x"].edges, 6))
        assert seeded.hist1d["x"].num_bins >= unseeded.hist1d["x"].num_bins - 1

    def test_empty_columns_rejected(self, params):
        with pytest.raises(ValueError):
            build_pairwise_hist({}, params)

    def test_constant_column_single_bin(self, params):
        synopsis = build_pairwise_hist(
            {"c": np.full(2000, 42.0), "x": np.round(np.arange(2000.0))},
            params.scaled_to(2000),
        )
        hist = synopsis.hist1d["c"]
        assert hist.num_bins == 1
        assert hist.unique[0] == 1

    def test_skewed_column_gets_more_bins_than_uniform(self, params):
        rng = np.random.default_rng(2)
        uniform = np.round(rng.uniform(0, 1000, 5000))
        skewed = np.round(np.clip(rng.lognormal(3, 1.5, 5000), 0, 1000))
        synopsis = build_pairwise_hist(
            {"uniform": uniform, "skewed": skewed}, params.scaled_to(5000)
        )
        assert synopsis.hist1d["skewed"].num_bins >= synopsis.hist1d["uniform"].num_bins


class TestSynopsisContainer:
    def test_pair_lookup_is_order_insensitive(self, synopsis):
        assert synopsis.pair("x", "y") is synopsis.pair("y", "x")

    def test_pair_requires_distinct_columns(self, synopsis):
        with pytest.raises(ValueError):
            synopsis.pair_key("x", "x")

    def test_missing_pair_raises(self, codes, params):
        synopsis = build_pairwise_hist(codes, params, build_pairs=False)
        assert not synopsis.has_pair("x", "y")
        with pytest.raises(KeyError):
            synopsis.pair("x", "y")

    def test_missing_histogram_raises(self, synopsis):
        with pytest.raises(KeyError):
            synopsis.histogram("missing")

    def test_summary_fields(self, synopsis):
        summary = synopsis.summary()
        assert summary["columns"] == 3.0
        assert summary["total_1d_bins"] == synopsis.total_bins_1d()
        assert summary["total_2d_cells"] == synopsis.total_cells_2d()
        assert summary["sample_rows"] == 4000.0

    def test_column_index(self, synopsis):
        assert synopsis.column_index("x") == 0
        assert synopsis.columns[synopsis.column_index("z")] == "z"


class TestHistogramApproximatesDistribution:
    def test_counts_match_empirical_distribution(self, codes, params):
        synopsis = build_pairwise_hist(codes, params.scaled_to(None))
        hist = synopsis.hist1d["x"]
        values = codes["x"]
        idx = bin_indices(hist.edges, values)
        empirical = np.bincount(idx, minlength=hist.num_bins)
        np.testing.assert_allclose(hist.counts, empirical)
