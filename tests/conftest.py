"""Shared fixtures for the test suite.

Heavy objects (datasets, engines, baselines) are session-scoped so the suite
stays fast; tests must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ExactQueryEngine,
    PairwiseHistEngine,
    PairwiseHistParams,
    Table,
    load_dataset,
)
from repro.data.schema import ColumnSchema, ColumnType, TableSchema
from repro.service import framing


def tunnel(client, request, trace=None, timeout: float = 30.0):
    """Send ``request`` — an op's JSON request object, or raw bytes — in an
    ``OP_JSON`` frame on a connected ``PipelinedClient``; ``trace`` rides
    the frame trailer.  Returns the reply body (an error frame raises
    ``WireError``)."""
    payload = request if isinstance(request, bytes) else framing.encode_json(request)
    future = client._submit(framing.OP_JSON, payload, framing.decode_json, trace)
    return future.result(timeout)


def make_simple_table(rows: int = 2000, seed: int = 0, name: str = "simple") -> Table:
    """A small mixed-type table with known structure used across unit tests."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 100, size=rows)
    y = 2.0 * x + rng.normal(0, 5, size=rows)
    z = rng.exponential(10, size=rows)
    w = rng.integers(0, 10, size=rows).astype(float)
    with_nulls = rng.uniform(0, 50, size=rows)
    with_nulls[rng.random(rows) < 0.1] = np.nan
    categories = np.empty(rows, dtype=object)
    labels = ["alpha", "beta", "gamma", "delta"]
    probabilities = [0.5, 0.3, 0.15, 0.05]
    draws = rng.choice(len(labels), size=rows, p=probabilities)
    for i, d in enumerate(draws):
        categories[i] = labels[d]
    schema = TableSchema(
        [
            ColumnSchema("x", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("y", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("z", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("w", ColumnType.NUMERIC, decimals=0),
            ColumnSchema("with_nulls", ColumnType.NUMERIC, decimals=2),
            ColumnSchema("category", ColumnType.CATEGORICAL),
        ]
    )
    return Table(
        name=name,
        schema=schema,
        columns={
            "x": np.round(x, 2),
            "y": np.round(y, 2),
            "z": np.round(z, 2),
            "w": w,
            "with_nulls": np.round(with_nulls, 2),
            "category": categories,
        },
    )


def with_cell(table: Table, column: str, row: int, value) -> Table:
    """A copy of ``table`` with one cell replaced."""
    columns = {name: table.column(name).copy() for name in table.column_names}
    columns[column][row] = value
    return Table(name=table.name, schema=table.schema, columns=columns)


@pytest.fixture(scope="session")
def simple_table() -> Table:
    return make_simple_table()


@pytest.fixture(scope="session")
def power_table() -> Table:
    return load_dataset("power", rows=5000, seed=3)


@pytest.fixture(scope="session")
def flights_table() -> Table:
    return load_dataset("flights", rows=3000, seed=3)


@pytest.fixture(scope="session")
def simple_engine(simple_table) -> PairwiseHistEngine:
    params = PairwiseHistParams.with_defaults(sample_size=2000, seed=1)
    return PairwiseHistEngine.from_table(simple_table, params=params)


@pytest.fixture(scope="session")
def power_engine(power_table) -> PairwiseHistEngine:
    params = PairwiseHistParams.with_defaults(sample_size=3000, seed=1)
    return PairwiseHistEngine.from_table(power_table, params=params)


@pytest.fixture(scope="session")
def simple_exact(simple_table) -> ExactQueryEngine:
    return ExactQueryEngine(simple_table)


@pytest.fixture(scope="session")
def power_exact(power_table) -> ExactQueryEngine:
    return ExactQueryEngine(power_table)
