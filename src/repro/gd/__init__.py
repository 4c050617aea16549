"""Generalized Deduplication (GreedyGD) compression substrate."""

from .preprocessor import ColumnTransform, Preprocessor
from .greedygd import GDSplit, select_deviation_bits
from .store import CompressedStore
from .partitioned import DEFAULT_PARTITION_SIZE, PartitionedStore

__all__ = [
    "ColumnTransform",
    "Preprocessor",
    "GDSplit",
    "select_deviation_bits",
    "CompressedStore",
    "PartitionedStore",
    "DEFAULT_PARTITION_SIZE",
]
