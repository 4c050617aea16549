"""Baseline AQP systems used in the paper's evaluation, plus the common interface."""

from .base import AqpSystem, BaselineResult, UnsupportedQueryError
from .deepdb import DeepDBLike
from .dbest import DBEstPlusPlusLike
from .spn import HistogramLeaf, SpnLearnerConfig, SumProductNetwork
from .density import BinnedRegression, GaussianMixture1D

__all__ = [
    "AqpSystem",
    "BaselineResult",
    "UnsupportedQueryError",
    "DeepDBLike",
    "DBEstPlusPlusLike",
    "HistogramLeaf",
    "SpnLearnerConfig",
    "SumProductNetwork",
    "BinnedRegression",
    "GaussianMixture1D",
]
