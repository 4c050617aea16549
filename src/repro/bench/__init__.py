"""Benchmark harness: one experiment class per table / figure of the paper."""

from .harness import (
    ExperimentScale,
    SystemSuite,
    build_suite,
    format_table,
    generate_workload,
    load_scaled_dataset,
    run_suite,
    workload_templates,
)
from .experiments import (
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
    "ExperimentScale",
    "SystemSuite",
    "build_suite",
    "format_table",
    "generate_workload",
    "load_scaled_dataset",
    "run_suite",
    "workload_templates",
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
