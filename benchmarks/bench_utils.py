"""Shared helpers for ``benchmarks/test_*.py``."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro.bench import SCALES, ExperimentScale

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> ExperimentScale:
    """The scale ``REPRO_BENCH_SCALE`` names (``smoke`` when unset or unknown)."""
    return SCALES.get(os.environ.get("REPRO_BENCH_SCALE", "smoke").lower(), SCALES["smoke"])


def record(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def _jsonable(value):
    """NaN/inf are not valid JSON; encode them as null, recursively."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def record_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result next to the rendered ``.txt`` table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    )
