"""Benchmark harness: one experiment class per table / figure of the paper."""

from .harness import SCALES, ExperimentScale, ServedSystem, format_table, workload_templates
from .experiments import (
    AccuracySweep,
    Fig1Summary,
    Fig8InitialExperiments,
    Fig9ParameterSensitivity,
    Fig10ErrorCDF,
    Fig10RealVsIdebench,
    Fig11ScaledPerformance,
    Table1Qualitative,
    Table5AccuracyByAggregation,
    Table6Bounds,
)
from .ablations import AblationGDSeeding, AblationHypothesisTesting, AblationStorageEncoding

__all__ = [
    "SCALES",
    "ExperimentScale",
    "ServedSystem",
    "format_table",
    "workload_templates",
    "AccuracySweep",
    "Fig1Summary",
    "Fig8InitialExperiments",
    "Fig9ParameterSensitivity",
    "Fig10ErrorCDF",
    "Fig10RealVsIdebench",
    "Fig11ScaledPerformance",
    "Table1Qualitative",
    "Table5AccuracyByAggregation",
    "Table6Bounds",
    "AblationGDSeeding",
    "AblationHypothesisTesting",
    "AblationStorageEncoding",
]
