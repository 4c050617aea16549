"""PairwiseHist core: synopsis construction, query execution and storage."""

from .params import PairwiseHistParams
from .hypothesis import UniformityResult, chi2_critical_value, is_uniform, terrell_scott_bins, uniformity_test
from .centre_bounds import non_passing_centre_bounds, passing_centre_bounds, weighted_centre_bounds
from .histogram1d import (
    Histogram1D,
    bin_indices,
    distinct_capacity,
    project_extrema,
    projection_matrix,
)
from .histogram2d import AxisMetadata, Histogram2D
from .refine import RefinementResult1D, RefinementResult2D, refine_bin_1d, refine_bin_2d
from .synopsis import PairwiseHist
from .builder import (
    PartitionInput,
    build_pairwise_hist,
    build_partition_synopses,
    build_partitioned_hist,
    partition_params,
)
from .coverage import (
    condition_coverage,
    consolidate_and,
    consolidate_or,
    coverage_bounds,
    coverage_estimate,
    partial_count_bounds,
)
from .weightings import PredicateEvaluator
from .aggregation import AqpEstimate, aggregate
from .serialization import (
    deserialize,
    deserialize_partitioned,
    serialize,
    serialize_partitioned,
    synopsis_size_bytes,
)
from .groupby import group_predicates
from .engine import AqpResult, PairwiseHistEngine

__all__ = [
    "PairwiseHistParams",
    "UniformityResult",
    "chi2_critical_value",
    "is_uniform",
    "terrell_scott_bins",
    "uniformity_test",
    "non_passing_centre_bounds",
    "passing_centre_bounds",
    "weighted_centre_bounds",
    "Histogram1D",
    "bin_indices",
    "projection_matrix",
    "project_extrema",
    "distinct_capacity",
    "AxisMetadata",
    "Histogram2D",
    "RefinementResult1D",
    "RefinementResult2D",
    "refine_bin_1d",
    "refine_bin_2d",
    "PairwiseHist",
    "PartitionInput",
    "build_pairwise_hist",
    "build_partition_synopses",
    "build_partitioned_hist",
    "partition_params",
    "condition_coverage",
    "consolidate_and",
    "consolidate_or",
    "coverage_bounds",
    "coverage_estimate",
    "partial_count_bounds",
    "PredicateEvaluator",
    "AqpEstimate",
    "aggregate",
    "serialize",
    "deserialize",
    "serialize_partitioned",
    "deserialize_partitioned",
    "synopsis_size_bytes",
    "group_predicates",
    "AqpResult",
    "PairwiseHistEngine",
]
