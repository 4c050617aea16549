"""A Sum-Product Network over a table sample (the DeepDB model family).

DeepDB learns Relational Sum-Product Networks: sum nodes partition rows
into clusters, product nodes split (approximately) independent column
groups, and leaves hold per-column univariate distributions.  The learner
here follows the same recipe with classical components — k-means-style row
clustering, correlation-threshold column splits and histogram leaves — so
the baseline exhibits DeepDB's characteristic behaviour (good COUNT / AVG
accuracy, larger synopses, slower multi-predicate queries) without the
original code base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sql.ast import ComparisonOp, Condition

#: Expectation kinds a leaf can be asked for.
_PROB = "prob"
_MEAN = "mean"
_MEAN_SQ = "mean_sq"


# --------------------------------------------------------------------------- #
# Leaves


@dataclass
class HistogramLeaf:
    """Univariate leaf distribution: an equi-depth histogram of one column."""

    column: str
    edges: np.ndarray
    probabilities: np.ndarray
    null_fraction: float
    is_categorical: bool = False
    categories: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #

    @classmethod
    def fit_numeric(cls, column: str, values: np.ndarray, max_bins: int = 64) -> "HistogramLeaf":
        finite = values[np.isfinite(values)]
        null_fraction = 1.0 - (len(finite) / len(values)) if len(values) else 0.0
        if finite.size == 0:
            return cls(column, np.array([0.0, 1.0]), np.array([1.0]), null_fraction)
        quantiles = np.linspace(0, 1, min(max_bins, max(2, len(np.unique(finite)))) + 1)
        edges = np.unique(np.quantile(finite, quantiles))
        if len(edges) < 2:
            edges = np.array([edges[0], edges[0] + 1.0])
        counts, _ = np.histogram(finite, bins=edges)
        probabilities = counts / counts.sum() if counts.sum() else np.full(len(counts), 1.0 / len(counts))
        return cls(column, edges, probabilities, null_fraction)

    @classmethod
    def fit_categorical(cls, column: str, values: np.ndarray) -> "HistogramLeaf":
        non_null = [v for v in values if v is not None]
        null_fraction = 1.0 - (len(non_null) / len(values)) if len(values) else 0.0
        if not non_null:
            return cls(column, np.array([0.0, 1.0]), np.array([1.0]), null_fraction, True, {})
        labels, counts = np.unique(np.asarray(non_null, dtype=object), return_counts=True)
        categories = {str(l): float(c / counts.sum()) for l, c in zip(labels, counts)}
        return cls(column, np.array([0.0, 1.0]), np.array([1.0]), null_fraction, True, categories)

    # ------------------------------------------------------------------ #

    @property
    def midpoints(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def _condition_fraction(self, condition: Condition | None) -> np.ndarray:
        """Fraction of each histogram bin satisfying the condition."""
        if condition is None:
            return np.ones(len(self.probabilities))
        literal = float(condition.literal)
        lower, upper = self.edges[:-1], self.edges[1:]
        widths = np.maximum(upper - lower, 1e-12)
        if condition.op in (ComparisonOp.LT, ComparisonOp.LE):
            fraction = np.clip((literal - lower) / widths, 0.0, 1.0)
        elif condition.op in (ComparisonOp.GT, ComparisonOp.GE):
            fraction = np.clip((upper - literal) / widths, 0.0, 1.0)
        elif condition.op is ComparisonOp.EQ:
            fraction = np.where((literal >= lower) & (literal <= upper), 1.0 / np.maximum(widths, 1.0), 0.0)
            fraction = np.clip(fraction, 0.0, 1.0)
        else:  # NE
            eq = np.where((literal >= lower) & (literal <= upper), 1.0 / np.maximum(widths, 1.0), 0.0)
            fraction = 1.0 - np.clip(eq, 0.0, 1.0)
        return fraction

    def expectation(self, kind: str, condition: Condition | None) -> float:
        """E[f(X) * 1(condition)] where f is 1, x or x^2 depending on ``kind``."""
        # A column with no condition does not restrict the predicate at all:
        # rows with nulls in unrelated columns still satisfy the query.
        if condition is None and kind == _PROB:
            return 1.0
        if self.is_categorical:
            if condition is None:
                probability = 1.0 - self.null_fraction
            else:
                hit = self.categories.get(str(condition.literal), 0.0)
                if condition.op is ComparisonOp.EQ:
                    probability = hit * (1.0 - self.null_fraction)
                elif condition.op is ComparisonOp.NE:
                    probability = (1.0 - hit) * (1.0 - self.null_fraction)
                else:
                    probability = 0.0
            if kind == _PROB:
                return probability
            return 0.0
        fraction = self._condition_fraction(condition)
        mass = self.probabilities * fraction * (1.0 - self.null_fraction)
        if kind == _PROB:
            return float(mass.sum())
        midpoints = self.midpoints
        if kind == _MEAN:
            return float((mass * midpoints).sum())
        return float((mass * midpoints ** 2).sum())

    def storage_bytes(self) -> int:
        if self.is_categorical:
            return sum(len(k) + 8 for k in self.categories) + 16
        return (len(self.edges) + len(self.probabilities)) * 8 + 16


# --------------------------------------------------------------------------- #
# Interior nodes


@dataclass
class ProductNode:
    """Independence split: children cover disjoint column sets."""

    children: list = field(default_factory=list)

    def expectation(self, kinds: dict[str, str], conditions: dict[str, list[Condition]]) -> float:
        result = 1.0
        for child in self.children:
            result *= child.expectation(kinds, conditions)
        return result

    def storage_bytes(self) -> int:
        return 8 + sum(child.storage_bytes() for child in self.children)


@dataclass
class SumNode:
    """Row-cluster split: a mixture over children with the same columns."""

    weights: list[float] = field(default_factory=list)
    children: list = field(default_factory=list)

    def expectation(self, kinds: dict[str, str], conditions: dict[str, list[Condition]]) -> float:
        return float(
            sum(w * child.expectation(kinds, conditions) for w, child in zip(self.weights, self.children))
        )

    def storage_bytes(self) -> int:
        return 8 * len(self.weights) + sum(child.storage_bytes() for child in self.children)


@dataclass
class LeafWrapper:
    """Adapts a :class:`HistogramLeaf` to the interior-node expectation API."""

    leaf: HistogramLeaf

    def expectation(self, kinds: dict[str, str], conditions: dict[str, list[Condition]]) -> float:
        column = self.leaf.column
        kind = kinds.get(column, _PROB)
        column_conditions = conditions.get(column, [None])
        if len(column_conditions) == 1:
            return self.leaf.expectation(kind, column_conditions[0])
        # Multiple AND-ed conditions on the same column: intersect by taking
        # the minimum satisfied mass (exact for nested ranges).
        return min(self.leaf.expectation(kind, c) for c in column_conditions)

    def storage_bytes(self) -> int:
        return self.leaf.storage_bytes()


# --------------------------------------------------------------------------- #
# Structure learning


@dataclass
class SpnLearnerConfig:
    """Hyper-parameters of the SPN structure learner."""

    min_instances: int = 500
    correlation_threshold: float = 0.3
    max_depth: int = 12
    max_leaf_bins: int = 64
    seed: int = 0


def _column_groups(matrix: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the |correlation| > threshold graph."""
    num_cols = matrix.shape[1]
    if num_cols == 1:
        return [[0]]
    finite = np.isfinite(matrix)
    # Column means over the finite cells; an all-NULL column fills with 0
    # (``np.nanmean`` would warn on it).
    means = np.where(finite, matrix, 0.0).sum(axis=0) / np.maximum(finite.sum(axis=0), 1)
    filled = np.nan_to_num(np.where(finite, matrix, means), nan=0.0)
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(filled, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)
    adjacency = np.abs(corr) > threshold
    visited = np.zeros(num_cols, dtype=bool)
    groups: list[list[int]] = []
    for start in range(num_cols):
        if visited[start]:
            continue
        stack = [start]
        component = []
        while stack:
            node = stack.pop()
            if visited[node]:
                continue
            visited[node] = True
            component.append(node)
            stack.extend(np.flatnonzero(adjacency[node] & ~visited).tolist())
        groups.append(sorted(component))
    return groups


def _cluster_rows(matrix: np.ndarray, seed: int, clusters: int = 2, iterations: int = 8) -> np.ndarray:
    """Tiny k-means over standardised numeric columns (row split for sum nodes)."""
    filled = np.nan_to_num(matrix, nan=0.0)
    std = filled.std(axis=0)
    std[std == 0] = 1.0
    normalised = (filled - filled.mean(axis=0)) / std
    rng = np.random.default_rng(seed)
    centres = normalised[rng.choice(len(normalised), size=clusters, replace=False)]
    labels = np.zeros(len(normalised), dtype=int)
    for _ in range(iterations):
        distances = ((normalised[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        for c in range(clusters):
            members = normalised[labels == c]
            if len(members):
                centres[c] = members.mean(axis=0)
    return labels


@dataclass
class SumProductNetwork:
    """A learned SPN with the sample-size book-keeping needed for COUNT/SUM."""

    root: ProductNode | SumNode | LeafWrapper
    columns: list[str]
    sample_rows: int
    population_rows: int

    @property
    def scale_factor(self) -> float:
        return self.population_rows / max(self.sample_rows, 1)

    def expectation(self, kinds: dict[str, str], conditions: dict[str, list[Condition]]) -> float:
        return self.root.expectation(kinds, conditions)

    def storage_bytes(self) -> int:
        return self.root.storage_bytes() + 64

    # ------------------------------------------------------------------ #

    @classmethod
    def learn(
        cls,
        columns: dict[str, np.ndarray],
        categorical: set[str],
        population_rows: int,
        config: SpnLearnerConfig | None = None,
    ) -> "SumProductNetwork":
        """Learn an SPN over a (sampled) column dictionary."""
        config = config or SpnLearnerConfig()
        names = list(columns)
        sample_rows = len(columns[names[0]]) if names else 0
        numeric_matrix = {}
        for name in names:
            if name in categorical:
                codes = np.array(
                    [hash(v) % 997 if v is not None else np.nan for v in columns[name]], dtype=float
                )
                numeric_matrix[name] = codes
            else:
                numeric_matrix[name] = np.asarray(columns[name], dtype=float)

        def build(row_index: np.ndarray, column_names: list[str], depth: int):
            if len(column_names) == 1:
                name = column_names[0]
                values = columns[name][row_index]
                if name in categorical:
                    return LeafWrapper(HistogramLeaf.fit_categorical(name, values))
                return LeafWrapper(
                    HistogramLeaf.fit_numeric(name, np.asarray(values, dtype=float), config.max_leaf_bins)
                )
            if len(row_index) < config.min_instances or depth >= config.max_depth:
                return ProductNode([build(row_index, [n], depth + 1) for n in column_names])
            matrix = np.column_stack([numeric_matrix[n][row_index] for n in column_names])
            groups = _column_groups(matrix, config.correlation_threshold)
            if len(groups) > 1:
                return ProductNode(
                    [build(row_index, [column_names[i] for i in group], depth + 1) for group in groups]
                )
            labels = _cluster_rows(matrix, config.seed + depth)
            children = []
            weights = []
            for label in np.unique(labels):
                members = row_index[labels == label]
                if len(members) == 0:
                    continue
                weights.append(len(members) / len(row_index))
                children.append(build(members, column_names, depth + 1))
            if len(children) <= 1:
                return ProductNode([build(row_index, [n], depth + 1) for n in column_names])
            return SumNode(weights=weights, children=children)

        root = build(np.arange(sample_rows), names, 0)
        return cls(root=root, columns=names, sample_rows=sample_rows, population_rows=population_rows)
