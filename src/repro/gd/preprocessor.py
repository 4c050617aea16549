"""GreedyGD pre-processing (§3 of the paper, "Data Compression").

Every column is transformed independently into a non-negative integer
domain before compression:

* numeric / datetime columns — floating-point values are scaled to
  integers (``10.22 -> 1022``) and the column minimum is subtracted,
* categorical columns — values are frequency-ranked (most common value
  encoded as 0, the second most common as 1, ...),
* missing values — encoded as a reserved code one past the largest valid
  code, with the null positions also exposed as a mask.

The same transform must be applied to query predicate literals at query
time (Fig. 7, "GreedyGD pre-process") and inverted when converting
PairwiseHist estimates back to the original data domain (Fig. 2,
"Aggregation Transform").  :class:`ColumnTransform` therefore exposes
``transform_value`` / ``inverse_value`` alongside the bulk array methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.schema import ColumnSchema
from ..data.table import Table


#: Every stored numeric cell has ``|value| * 10**decimals`` below this, so
#: any code ``(value - offset) * 10**decimals`` (whose offset is itself a
#: stored value) fits in int64.
_CODE_BOUND = 2.0**62


def check_encodable(table: Table) -> None:
    """Refuse a table holding a numeric cell the code domain cannot hold.

    NaN is the NULL marker; ±inf, or a value whose magnitude at the
    column's scale reaches :data:`_CODE_BOUND`, has no int64 code and
    would be stored as NULL or as a garbage code.  Raises
    :class:`ValueError` naming the column and the first bad row.  Only the
    front doors (register, ingest) call this, never
    :meth:`ColumnTransform.transform_array`, so WAL records acked before
    the check existed still replay.
    """
    first = None
    for cschema in table.schema:
        if cschema.is_categorical:
            continue
        values = np.asarray(table.column(cschema.name), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = np.abs(values) * 10.0**cschema.decimals >= _CODE_BOUND
        if bad.any():
            row = int(np.argmax(bad))
            if first is None or row < first[0]:
                first = (row, cschema.name, values[row])
    if first is not None:
        row, name, value = first
        raise ValueError(
            f"column {name!r} of table {table.name!r} cannot store row {row}'s "
            f"value {value!r}: a numeric cell must be finite with magnitude "
            f"below 2**62 at the column's scale"
        )


@dataclass
class ColumnTransform:
    """Invertible affine / dictionary transform of one column."""

    name: str
    is_categorical: bool
    scale: float = 1.0
    offset: float = 0.0
    categories: list[str] = field(default_factory=list)
    missing_code: int = 0
    max_code: int = 0

    # ------------------------------------------------------------------ #
    # Scalar transforms (used on predicate literals and query results)

    def transform_value(self, value) -> float:
        """Map an original-domain value into the integer compressed domain."""
        if self.is_categorical:
            try:
                return float(self.categories.index(str(value)))
            except ValueError:
                return -1.0
        return (float(value) - self.offset) * self.scale

    def inverse_value(self, value: float) -> float | str:
        """Map a compressed-domain value back to the original domain."""
        if self.is_categorical:
            code = int(round(value))
            if 0 <= code < len(self.categories):
                return self.categories[code]
            return "<unknown>"
        return value / self.scale + self.offset

    # ------------------------------------------------------------------ #
    # Bulk transforms

    def transform_array(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transform a column array; returns ``(codes, null_mask)``.

        ``codes`` is an int64 array in which nulls hold :attr:`missing_code`.
        """
        if self.is_categorical:
            null_mask = np.array([v is None for v in values], dtype=bool)
            index = {label: i for i, label in enumerate(self.categories)}
            codes = np.array(
                [index.get(v, self.missing_code) if v is not None else self.missing_code for v in values],
                dtype=np.int64,
            )
            return codes, null_mask
        null_mask = ~np.isfinite(values)
        scaled = (np.where(null_mask, self.offset, values) - self.offset) * self.scale
        codes = np.rint(scaled).astype(np.int64)
        codes[null_mask] = self.missing_code
        return codes, null_mask

    def inverse_array(self, codes: np.ndarray, null_mask: np.ndarray | None = None) -> np.ndarray:
        """Inverse of :meth:`transform_array` (categoricals become objects)."""
        if self.is_categorical:
            out = np.empty(len(codes), dtype=object)
            for i, code in enumerate(codes):
                if null_mask is not None and null_mask[i]:
                    out[i] = None
                elif 0 <= code < len(self.categories):
                    out[i] = self.categories[code]
                else:
                    out[i] = None
            return out
        values = codes.astype(float) / self.scale + self.offset
        if self.scale != 1.0:
            # ``scale`` is always ``10 ** decimals``; snapping back onto
            # the decimal grid makes reconstruction bit-identical to the
            # quantized ingest values (the division re-introduces a ULP
            # of float error that would otherwise leak into exact
            # recomputations, e.g. the accuracy auditor's ground truth).
            values = np.round(values, int(round(np.log10(self.scale))))
        if null_mask is not None:
            values = values.copy()
            values[null_mask] = np.nan
        return values


@dataclass
class Preprocessor:
    """Per-table collection of :class:`ColumnTransform` objects."""

    transforms: dict[str, ColumnTransform] = field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @classmethod
    def fit(cls, table: Table) -> "Preprocessor":
        """Learn per-column transforms from a table (one pass, no extra storage)."""
        transforms: dict[str, ColumnTransform] = {}
        for cschema in table.schema:
            transforms[cschema.name] = cls._fit_column(cschema, table.column(cschema.name))
        return cls(transforms)

    @staticmethod
    def _fit_column(cschema: ColumnSchema, values: np.ndarray) -> ColumnTransform:
        if cschema.is_categorical:
            non_null = [v for v in values if v is not None]
            if non_null:
                labels, counts = np.unique(np.asarray(non_null, dtype=object), return_counts=True)
                order = np.argsort(-counts, kind="stable")
                categories = [str(labels[i]) for i in order]
            else:
                categories = []
            max_code = len(categories) - 1 if categories else 0
            return ColumnTransform(
                name=cschema.name,
                is_categorical=True,
                categories=categories,
                missing_code=len(categories),
                max_code=max(max_code, 0),
            )
        finite = values[np.isfinite(values)]
        offset = float(finite.min()) if finite.size else 0.0
        scale = float(10 ** cschema.decimals)
        if finite.size:
            max_code = int(round((float(finite.max()) - offset) * scale))
        else:
            max_code = 0
        return ColumnTransform(
            name=cschema.name,
            is_categorical=False,
            scale=scale,
            offset=offset,
            missing_code=max_code + 1,
            max_code=max_code,
        )

    # ------------------------------------------------------------------ #

    def __contains__(self, name: str) -> bool:
        return name in self.transforms

    def __getitem__(self, name: str) -> ColumnTransform:
        return self.transforms[name]

    @property
    def column_names(self) -> list[str]:
        return list(self.transforms)

    def transform_table(self, table: Table) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Transform every column; returns ``(codes_by_column, null_masks)``."""
        codes: dict[str, np.ndarray] = {}
        nulls: dict[str, np.ndarray] = {}
        for name, transform in self.transforms.items():
            codes[name], nulls[name] = transform.transform_array(table.column(name))
        return codes, nulls

    def transform_literal(self, column: str, value) -> float:
        """Transform one predicate literal into the compressed domain."""
        return self.transforms[column].transform_value(value)

    def bits_per_column(self) -> dict[str, int]:
        """Number of bits needed to store each column's largest code."""
        out: dict[str, int] = {}
        for name, transform in self.transforms.items():
            largest = max(transform.max_code, transform.missing_code, 1)
            out[name] = max(1, int(largest).bit_length())
        return out
