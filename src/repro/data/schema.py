"""Column schema definitions for the columnar :class:`~repro.data.table.Table`.

The paper's datasets (Table 4) mix numeric sensor readings, categorical
fields (e.g. airline codes, payment types), date/time columns and missing
values.  The schema layer records, per column, the logical type and the
numeric precision used by the GreedyGD pre-processor (how many decimal
digits are preserved when floats are converted to integers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ColumnType(enum.Enum):
    """Logical data type of a column."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type are ordered numbers (datetimes count)."""
        return self in (ColumnType.NUMERIC, ColumnType.DATETIME)


@dataclass
class ColumnSchema:
    """Schema for a single column.

    Parameters
    ----------
    name:
        Column name, as used in SQL queries.
    ctype:
        Logical type of the column.
    decimals:
        For NUMERIC columns, the number of decimal digits that must be
        preserved when converting to integers (GreedyGD pre-processing).
    categories:
        For CATEGORICAL columns, an optional list of category labels.
        Only the schema codecs (``repro.storage.codec`` and the wire's
        schema payload in ``repro.service.ops``) read or write it; the
        pre-processor ranks the labels it finds in the data and never
        consults it.
    nullable:
        Whether the column may contain missing values.
    """

    name: str
    ctype: ColumnType = ColumnType.NUMERIC
    decimals: int = 0
    categories: list[str] | None = None
    nullable: bool = True

    @property
    def is_numeric(self) -> bool:
        return self.ctype.is_numeric

    @property
    def is_categorical(self) -> bool:
        return self.ctype is ColumnType.CATEGORICAL


@dataclass
class TableSchema:
    """Ordered collection of :class:`ColumnSchema` objects."""

    columns: list[ColumnSchema] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError("duplicate column names in schema: %r" % (names,))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def __getitem__(self, name: str) -> ColumnSchema:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column named {name!r}")

    @property
    def names(self) -> list[str]:
        """Column names in schema order."""
        return [c.name for c in self.columns]

    @property
    def numeric_names(self) -> list[str]:
        """Names of numeric (including datetime) columns."""
        return [c.name for c in self.columns if c.is_numeric]

    @property
    def categorical_names(self) -> list[str]:
        """Names of categorical columns."""
        return [c.name for c in self.columns if c.is_categorical]

    def index_of(self, name: str) -> int:
        """Positional index of a column."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise KeyError(f"no column named {name!r}")

    def add(self, column: ColumnSchema) -> None:
        """Append a column to the schema."""
        if column.name in self:
            raise ValueError(f"column {column.name!r} already exists")
        self.columns.append(column)
