"""Property-based tests (hypothesis) for the core codecs and estimators.

These check invariants over randomly generated inputs: bit-stream and
Golomb round trips, coverage ranges, weighted-centre bound ordering,
histogram count conservation, the bracketing of exact partial counts by
the Theorem 2 bounds and the ordering of per-bin weightings under generated
predicate trees.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import build_pairwise_hist
from repro.core.centre_bounds import (
    non_passing_centre_bounds,
    passing_centre_bounds,
    weighted_centre_bounds,
)
from repro.core.coverage import coverage_bounds, coverage_estimate, interval_coverage, partial_count_bounds
from repro.core.golomb import decode_sequence, encode_sequence
from repro.core.histogram1d import bin_indices
from repro.core.hypothesis import terrell_scott_bins
from repro.core.params import PairwiseHistParams
from repro.core.refine import refine_bin_1d
from repro.core.weightings import PredicateEvaluator
from repro.sql.ast import ComparisonOp, Condition, LogicalOp, PredicateNode, predicate_conditions
from repro.util.bitstream import BitReader, BitWriter

_SMALL_INTS = st.integers(min_value=0, max_value=10_000)


class TestBitstreamProperties:
    @given(st.lists(st.tuples(_SMALL_INTS, st.integers(min_value=14, max_value=20)), max_size=50))
    def test_fixed_width_round_trip(self, pairs):
        writer = BitWriter()
        for value, width in pairs:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in pairs:
            assert reader.read_bits(width) == value

    @given(st.lists(st.integers(min_value=0, max_value=200), max_size=40))
    def test_unary_round_trip(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_unary(value)
        reader = BitReader(writer.getvalue())
        for value in values:
            assert reader.read_unary() == value


class TestGolombProperties:
    @given(
        st.lists(_SMALL_INTS, max_size=100),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    )
    def test_sequence_round_trip(self, values, k):
        payload, used_k = encode_sequence(values, k=k)
        assert decode_sequence(payload, len(values), used_k) == values


class TestCoverageProperties:
    @given(
        st.floats(min_value=-50, max_value=150, allow_nan=False),
        st.sampled_from(list(ComparisonOp)),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60)
    def test_coverage_always_in_unit_interval(self, literal, op, unique):
        v_minus = np.array([0.0, 25.0, 50.0, 75.0])
        v_plus = np.array([25.0, 50.0, 75.0, 100.0])
        uniques = np.full(4, float(unique))
        beta = coverage_estimate(op, literal, v_minus, v_plus, uniques)
        assert (beta >= 0.0).all() and (beta <= 1.0).all()

    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_interval_coverage_in_unit_interval_and_monotone(self, a, b):
        lower, upper = min(a, b), max(a, b)
        v_minus = np.array([0.0, 25.0, 50.0, 75.0])
        v_plus = np.array([25.0, 50.0, 75.0, 100.0])
        uniques = np.full(4, 20.0)
        beta = interval_coverage(lower, upper, v_minus, v_plus, uniques)
        wider = interval_coverage(lower - 5, upper + 5, v_minus, v_plus, uniques)
        assert (beta >= 0).all() and (beta <= 1).all()
        assert (wider >= beta - 1e-12).all()

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=2, max_value=5_000),
        st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=60)
    def test_coverage_bounds_bracket_estimate(self, beta_value, count, unique):
        beta = np.array([beta_value])
        counts = np.array([float(count)])
        uniques = np.array([float(unique)])
        lower, upper = coverage_bounds(beta, counts, uniques, min_points=50, alpha=0.001)
        assert lower[0] <= beta_value + 1e-9
        assert upper[0] >= beta_value - 1e-9
        assert 0.0 <= lower[0] <= upper[0] <= 1.0

    @given(
        st.integers(min_value=100, max_value=100_000),
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_partial_count_bounds_are_ordered_and_feasible(self, count, sub_bins, chi2_alpha):
        for covered in range(sub_bins + 1):
            lower, upper = partial_count_bounds(float(count), sub_bins, covered, chi2_alpha)
            assert 0.0 <= lower <= upper <= count + 1e-9


class TestCentreBoundProperties:
    @given(
        st.integers(min_value=1, max_value=100_000),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=80)
    def test_bounds_ordered_and_within_extrema(self, count, v_minus, width, unique):
        v_plus = v_minus + width
        lower, upper = weighted_centre_bounds(
            np.array([float(count)]), np.array([v_minus]), np.array([v_plus]),
            np.array([float(min(unique, count))]), min_points=100, alpha=0.001,
        )
        assert v_minus - 1e-6 <= lower[0] <= upper[0] <= v_plus + 1e-6


# One histogram bin, drawn so the edge cases the array forms must get right
# are common: an empty bin, one / two unique values, a degenerate value range,
# a count below ``M`` and fractional (merged-synopsis) counts and uniques.
_BIN = st.tuples(
    st.sampled_from([0.0, 1.0, 3.0, 49.0, 50.0, 51.0, 400.0, 1234.5, 20_000.0]),  # count
    st.sampled_from([-7.5, 0.0, 10.0, 99.25]),  # v-
    st.sampled_from([0.0, 0.0, 1.0, 2.5, 40.0, 1e6]),  # v+ - v-
    st.sampled_from([0.0, 1.0, 1.7, 2.0, 3.0, 4.0, 4.5, 13.0, 500.0, 5000.0]),  # unique
)
_BINS = st.lists(_BIN, min_size=1, max_size=12)
_MIN_POINTS, _ALPHA = 50, 0.001


def _columns(bins):
    counts, v_minus, widths, unique = (np.array(column) for column in zip(*bins))
    return counts, v_minus, v_minus + widths, unique


def _literals(v_minus, v_plus):
    """Literals exactly on every stored extremum, between and beyond them."""
    on_extrema = np.concatenate([v_minus, v_plus])
    return st.one_of(
        st.sampled_from(sorted(set(on_extrema.tolist()))),
        st.floats(min_value=-10.0, max_value=150.0, allow_nan=False),
    )


def _same_bits(whole, bin_by_bin):
    whole, bin_by_bin = np.asarray(whole, dtype=float), np.asarray(bin_by_bin, dtype=float)
    return whole.shape == bin_by_bin.shape and whole.tobytes() == bin_by_bin.tobytes()


class TestArrayFormsEqualTheirSingleBinCase:
    """``f(arrays)[t]`` is ``f`` of bin ``t`` alone, bit for bit: the array
    expression is the definition, a scalar (or one-element array) its
    one-element case."""

    @given(_BINS, st.sampled_from(list(ComparisonOp)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_coverage_estimate(self, bins, op, data):
        _, v_minus, v_plus, unique = _columns(bins)
        literal = data.draw(_literals(v_minus, v_plus))
        whole = coverage_estimate(op, literal, v_minus, v_plus, unique)
        alone = [
            coverage_estimate(op, literal, v_minus[t : t + 1], v_plus[t : t + 1], unique[t : t + 1])[0]
            for t in range(len(bins))
        ]
        scalar = [coverage_estimate(op, literal, *bin_) for bin_ in zip(v_minus, v_plus, unique)]
        assert _same_bits(whole, alone) and _same_bits(whole, scalar)

    @given(_BINS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_interval_coverage(self, bins, data):
        _, v_minus, v_plus, unique = _columns(bins)
        a, b = data.draw(_literals(v_minus, v_plus)), data.draw(_literals(v_minus, v_plus))
        lower, upper = data.draw(
            st.sampled_from([(min(a, b), max(a, b)), (a, a), (-np.inf, b), (a, np.inf)])
        )
        whole = interval_coverage(lower, upper, v_minus, v_plus, unique)
        alone = [
            interval_coverage(lower, upper, v_minus[t : t + 1], v_plus[t : t + 1], unique[t : t + 1])[0]
            for t in range(len(bins))
        ]
        assert _same_bits(whole, alone)

    @given(_BINS, st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.25, 1 / 3, 0.999, 1e-9]), min_size=12, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_coverage_bounds(self, bins, betas):
        counts, _, _, unique = _columns(bins)
        beta = np.array(betas[: len(bins)])
        whole = coverage_bounds(beta, counts, unique, _MIN_POINTS, _ALPHA)
        alone = [
            coverage_bounds(beta[t : t + 1], counts[t : t + 1], unique[t : t + 1], _MIN_POINTS, _ALPHA)
            for t in range(len(bins))
        ]
        for side in (0, 1):
            assert _same_bits(whole[side], [bounds[side][0] for bounds in alone])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 60.0, 1234.5]),  # count
                st.integers(min_value=0, max_value=9),  # sub-bins
                st.integers(min_value=-1, max_value=10),  # covered
                st.sampled_from([0.5, 10.83, 27.9]),  # chi2_alpha
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_partial_count_bounds(self, cases):
        columns = [np.array(column) for column in zip(*cases)]
        whole = partial_count_bounds(*columns)
        alone = [partial_count_bounds(*case) for case in cases]
        for side in (0, 1):
            assert _same_bits(whole[side], [bounds[side] for bounds in alone])

    @given(_BINS)
    @settings(max_examples=150, deadline=None)
    def test_centre_bounds(self, bins):
        columns = _columns(bins)
        for array_form, tail in (
            (passing_centre_bounds, (_ALPHA,)),
            (non_passing_centre_bounds, (1.0,)),
            (weighted_centre_bounds, (_MIN_POINTS, _ALPHA)),
        ):
            whole = array_form(*columns, *tail)
            if array_form is weighted_centre_bounds:  # always took arrays
                alone = [array_form(*(c[t : t + 1] for c in columns), *tail) for t in range(len(bins))]
                alone = [(lo[0], hi[0]) for lo, hi in alone]
            else:
                alone = [array_form(*bin_, *tail) for bin_ in zip(*columns)]
            for side in (0, 1):
                assert _same_bits(whole[side], [bounds[side] for bounds in alone]), array_form.__name__


class TestRefinementProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_refinement_conserves_counts_and_order(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(0, 3000))
        values = np.round(rng.gamma(2.0, 100.0, size))
        lower, upper = 0.0, max(float(values.max()) if size else 1.0, 1.0)
        result = refine_bin_1d(lower, upper, values, min_points=50, alpha=0.01)
        edges = np.array([lower] + result.upper_edges)
        # Edges are non-decreasing and end at the original upper edge.
        assert (np.diff(edges) >= 0).all()
        assert edges[-1] == pytest.approx(upper)
        # Histogramming the data over the refined edges conserves the count.
        if size:
            counts, _ = np.histogram(values, bins=np.unique(edges))
            assert counts.sum() == size
        # Metadata is ordered.
        for v_min, v_max in zip(result.v_minus, result.v_plus):
            assert v_min <= v_max

    @given(st.integers(min_value=1, max_value=10_000))
    def test_terrell_scott_at_least_one(self, unique):
        assert terrell_scott_bins(unique) >= 1


class TestBinIndexProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_values_land_in_containing_bins(self, values):
        edges = np.linspace(0, 100, 11)
        values = np.asarray(values)
        idx = bin_indices(edges, values)
        assert (idx >= 0).all() and (idx <= 9).all()
        for value, t in zip(values, idx):
            assert edges[t] <= value or t == 0
            assert value <= edges[t + 1] or t == 9


@lru_cache(maxsize=None)
def _small_synopsis(build_pairs: bool):
    """3,000 skewed rows sampled down to 1,500, so Eq. 29 widening applies."""
    rng = np.random.default_rng(7)
    x = np.round(np.clip(rng.gamma(2.0, 150.0, 3000), 0, 1000))
    data = {
        "x": x,
        "y": np.round(np.clip(0.5 * x + rng.normal(0, 40, 3000), 0, None)),
        "z": np.round(rng.uniform(0, 100, 3000)),
    }
    params = PairwiseHistParams(sample_size=1500, min_points=50, alpha=0.001, seed=0)
    return build_pairwise_hist(data, params, build_pairs=build_pairs)


_TREE_CONDITIONS = st.builds(
    Condition,
    st.sampled_from(["x", "y", "z"]),
    st.sampled_from(list(ComparisonOp)),
    st.floats(min_value=-10.0, max_value=1100.0, allow_nan=False).map(round),
)
_TREES = st.recursive(
    _TREE_CONDITIONS,
    lambda children: st.builds(
        PredicateNode, st.sampled_from(list(LogicalOp)), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=4,
).filter(lambda tree: 1 <= len(predicate_conditions(tree)) <= 4)


class TestWeightingProperties:
    @given(_TREES, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_generated_trees_keep_each_bin_ordered(self, tree, build_pairs):
        synopsis = _small_synopsis(build_pairs)
        evaluator = PredicateEvaluator(synopsis, "x")
        counts = synopsis.hist1d["x"].counts
        estimate, lower, upper = evaluator.weightings(tree)
        assert (0.0 <= lower).all() and (lower <= estimate).all()
        assert (estimate <= upper).all() and (upper <= counts).all()
        for row in evaluator.weightings(None):
            assert (row == counts).all()
