"""Tests for mergeable histograms, partitioned synopsis construction and
partitioned serialization."""

import numpy as np
import pytest

from repro.core.builder import (
    PartitionInput,
    build_pairwise_hist,
    build_partition_synopses,
    build_partitioned_hist,
    partition_params,
)
from repro.core.histogram1d import Histogram1D, projection_matrix
from repro.core.histogram2d import Histogram2D
from repro.core.params import PairwiseHistParams
from repro.core.serialization import (
    deserialize_partitioned,
    serialize,
    serialize_partitioned,
)
from repro.core.synopsis import PairwiseHist


def make_codes(rows: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "a": rng.integers(0, 2_000, rows).astype(np.int64),
        "b": np.clip(rng.normal(500, 120, rows), 0, None).astype(np.int64),
        "c": rng.integers(0, 5, rows).astype(np.int64),
    }


def split_codes(codes: dict[str, np.ndarray], parts: int) -> list[PartitionInput]:
    rows = len(next(iter(codes.values())))
    chunk = rows // parts
    return [
        PartitionInput(codes={k: v[p * chunk : (p + 1) * chunk] for k, v in codes.items()})
        for p in range(parts)
    ]


@pytest.fixture(scope="module")
def params():
    return PairwiseHistParams.with_defaults(sample_size=None, seed=0)


@pytest.fixture(scope="module")
def partition_synopses(params):
    codes = make_codes(12_000, seed=1)
    return build_partition_synopses(split_codes(codes, 4), params)


class TestProjectionMatrix:
    def test_rows_are_stochastic(self):
        edges = np.array([0.0, 10.0, 20.0])
        union = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        matrix = projection_matrix(edges, edges[:-1], edges[1:], union)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_mass_spreads_by_occupied_interval(self):
        # Data occupies [8, 10] of bin [0, 10]: all mass must land in the
        # union bin [5, 10], none in [0, 5].
        edges = np.array([0.0, 10.0])
        union = np.array([0.0, 5.0, 10.0])
        matrix = projection_matrix(edges, np.array([8.0]), np.array([10.0]), union)
        np.testing.assert_allclose(matrix, [[0.0, 1.0]])

    def test_point_mass_bin_lands_in_one_cell(self):
        edges = np.array([0.0, 10.0])
        union = np.array([0.0, 5.0, 10.0])
        matrix = projection_matrix(edges, np.array([7.0]), np.array([7.0]), union)
        np.testing.assert_allclose(matrix, [[0.0, 1.0]])


class TestHistogram1DMerge:
    def test_merge_preserves_total_count(self, partition_synopses, params):
        hists = [s.hist1d["a"] for s in partition_synopses]
        merged = Histogram1D.merge(hists, params.min_points, params.alpha)
        assert merged.total_count == pytest.approx(sum(h.total_count for h in hists))

    def test_merged_edges_are_the_union(self, partition_synopses, params):
        hists = [s.hist1d["b"] for s in partition_synopses]
        merged = Histogram1D.merge(hists, params.min_points, params.alpha)
        union = np.unique(np.concatenate([h.edges for h in hists]))
        np.testing.assert_array_equal(merged.edges, union)

    def test_merged_metadata_is_consistent(self, partition_synopses, params):
        merged = Histogram1D.merge(
            [s.hist1d["b"] for s in partition_synopses], params.min_points, params.alpha
        )
        assert np.all(merged.v_minus <= merged.v_plus + 1e-9)
        assert np.all(merged.centre_lower <= merged.centre_upper + 1e-9)
        occupied = merged.counts > 0
        assert np.all(merged.unique[occupied] >= 1.0)
        assert np.all(merged.unique[~occupied] == 0.0)

    def test_unique_counts_are_max_not_sum(self, params):
        # Four partitions of one low-cardinality column: the merged distinct
        # count must stay at the per-partition level, not quadruple (it
        # drives equality-predicate coverage, count / u).
        codes = make_codes(8_000, seed=3)
        parts = build_partition_synopses(split_codes(codes, 4), params)
        merged = Histogram1D.merge(
            [s.hist1d["c"] for s in parts], params.min_points, params.alpha
        )
        assert merged.unique.sum() <= 1.5 * max(s.hist1d["c"].unique.sum() for s in parts)

    def test_merge_validates_inputs(self, partition_synopses, params):
        with pytest.raises(ValueError):
            Histogram1D.merge([], params.min_points, params.alpha)
        with pytest.raises(ValueError):
            Histogram1D.merge(
                [partition_synopses[0].hist1d["a"], partition_synopses[0].hist1d["b"]],
                params.min_points,
                params.alpha,
            )


class TestHistogram2DMerge:
    def test_merge_preserves_total_count(self, partition_synopses, params):
        key = ("a", "b")
        hists = [s.hist2d[key] for s in partition_synopses]
        merged_1d = {
            name: Histogram1D.merge(
                [s.hist1d[name] for s in partition_synopses], params.min_points, params.alpha
            )
            for name in key
        }
        merged = Histogram2D.merge(hists, merged_1d["a"], merged_1d["b"])
        assert merged.total_count == pytest.approx(sum(h.total_count for h in hists))
        # Marginals stay consistent with the cell counts.
        np.testing.assert_allclose(merged.row.marginal_counts, merged.counts.sum(axis=1))
        np.testing.assert_allclose(merged.col.marginal_counts, merged.counts.sum(axis=0))

    def test_parent_maps_point_into_merged_1d(self, partition_synopses, params):
        key = ("a", "b")
        parent_a = Histogram1D.merge(
            [s.hist1d["a"] for s in partition_synopses], params.min_points, params.alpha
        )
        parent_b = Histogram1D.merge(
            [s.hist1d["b"] for s in partition_synopses], params.min_points, params.alpha
        )
        merged = Histogram2D.merge(
            [s.hist2d[key] for s in partition_synopses], parent_a, parent_b
        )
        assert merged.row.parent.max() < parent_a.num_bins
        assert merged.col.parent.max() < parent_b.num_bins


class TestPairwiseHistMerge:
    def test_merge_sums_bookkeeping(self, partition_synopses, params):
        merged = PairwiseHist.merge(list(partition_synopses), params=params)
        assert merged.population_rows == sum(s.population_rows for s in partition_synopses)
        assert merged.sample_rows == sum(s.sample_rows for s in partition_synopses)
        assert merged.params == params
        assert set(merged.hist1d) == set(partition_synopses[0].hist1d)
        assert set(merged.hist2d) == set(partition_synopses[0].hist2d)

    def test_merge_single_is_identity(self, partition_synopses):
        assert PairwiseHist.merge([partition_synopses[0]]) is partition_synopses[0]

    def test_merge_rejects_mismatched_columns(self, partition_synopses, params):
        other = build_pairwise_hist({"z": np.arange(100)}, params)
        with pytest.raises(ValueError):
            PairwiseHist.merge([partition_synopses[0], other])


class TestBuildPartitioned:
    def test_partition_params_scale_sample_and_bin_budget(self):
        params = PairwiseHistParams(sample_size=10_000, min_points=100)
        scaled = partition_params(params, 2_500, 10_000)
        assert scaled.sample_size == 2_500
        # M stays global; the initial-bin budget (Ns / M = 100) is split
        # proportionally instead.
        assert scaled.min_points == 100
        assert scaled.effective_initial_bins == 25
        unscaled = partition_params(PairwiseHistParams(sample_size=None, min_points=100), 5, 10)
        assert unscaled.sample_size is None
        assert unscaled.effective_initial_bins == 64

    def test_merged_build_matches_monolithic_distribution(self, params):
        codes = make_codes(12_000, seed=2)
        mono = build_pairwise_hist(codes, params)
        merged = build_partitioned_hist(split_codes(codes, 4), params)
        assert merged.population_rows == mono.population_rows
        for name in codes:
            assert merged.hist1d[name].total_count == pytest.approx(
                mono.hist1d[name].total_count
            )
        # Histogram means agree closely between the two construction paths.
        for name in ("a", "b"):
            hm, hp = mono.hist1d[name], merged.hist1d[name]
            mean_mono = (hm.counts @ hm.midpoints) / hm.total_count
            mean_merged = (hp.counts @ hp.midpoints) / hp.total_count
            assert mean_merged == pytest.approx(mean_mono, rel=0.02)

    @pytest.mark.parametrize("has_affinity", [True, False])
    @pytest.mark.parametrize("cpus", [1, 8])
    def test_pool_matches_each_partition_built_alone(
        self, params, monkeypatch, cpus, has_affinity
    ):
        """However many threads the build gets, every partition's synopsis
        is bit for bit the one it gets built on its own."""
        import repro.core.builder as builder

        if has_affinity:
            monkeypatch.setattr(
                builder.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            monkeypatch.setattr(builder.os, "cpu_count", lambda: 2)
        else:
            monkeypatch.delattr(builder.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(builder.os, "cpu_count", lambda: cpus)
        assert builder._build_workers(3) == min(3, cpus)
        codes = make_codes(6_000, seed=4)
        parts = split_codes(codes, 3)
        built = build_partition_synopses(parts, params)
        alone = [
            build_pairwise_hist(
                part.codes, partition_params(params, 2_000, 6_000), population_rows=2_000
            )
            for part in parts
        ]
        assert [serialize(s, exact=True) for s in built] == [
            serialize(s, exact=True) for s in alone
        ]

    def test_zero_partitions_rejected(self, params):
        with pytest.raises(ValueError):
            build_partition_synopses([], params)


class TestPartitionedSerialization:
    def test_round_trip(self, partition_synopses):
        payload = serialize_partitioned(list(partition_synopses))
        restored = deserialize_partitioned(payload)
        assert len(restored) == len(partition_synopses)
        for original, loaded in zip(partition_synopses, restored):
            assert loaded.population_rows == original.population_rows
            for name, hist in original.hist1d.items():
                np.testing.assert_allclose(loaded.hist1d[name].counts, hist.counts)
                np.testing.assert_allclose(loaded.hist1d[name].edges, hist.edges)
            for key, hist in original.hist2d.items():
                np.testing.assert_allclose(loaded.hist2d[key].counts, hist.counts)

    def test_round_trip_then_merge_matches_direct_merge(self, partition_synopses, params):
        direct = PairwiseHist.merge(list(partition_synopses), params=params)
        loaded = deserialize_partitioned(serialize_partitioned(list(partition_synopses)))
        merged = PairwiseHist.merge(loaded, params=params)
        for name in direct.hist1d:
            np.testing.assert_allclose(
                merged.hist1d[name].counts, direct.hist1d[name].counts
            )

    def test_bad_magic_rejected(self, partition_synopses):
        with pytest.raises(ValueError):
            deserialize_partitioned(serialize(partition_synopses[0]))
