"""PairwiseHist construction parameters (Table 2 of the paper).

PairwiseHist is parameterised by the number of rows sampled to build the
synopsis (``Ns``), the minimum number of points a bin must contain before it
may be split (``M``) and the significance level of the uniformity hypothesis
test (``alpha``).  The paper's evaluation fixes ``M`` to 1 % of ``Ns`` and
``alpha`` to 0.001; :meth:`PairwiseHistParams.with_defaults` reproduces that
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PairwiseHistParams:
    """Construction-time parameters for PairwiseHist.

    Attributes
    ----------
    sample_size:
        ``Ns`` — number of rows sampled from the dataset to build the
        synopsis.  ``None`` means use every row.
    min_points:
        ``M`` — bins with fewer points are never split and are treated as
        "non-passing" when computing bounds (§4.2).
    alpha:
        Significance level of the chi-squared uniformity test.
    min_spacing:
        ``mu`` — minimum spacing between distinct values of the (integer)
        compressed domain; used by the non-passing-bin centre bounds.
    max_initial_bins:
        Cap on the number of GD-base-seeded initial bin edges
        (``ceil(Ns / M)`` in Algorithm 1, line 4).
    max_refine_depth:
        Safety limit on the recursion depth of bin refinement.
    seed:
        Seed for the row-sampling RNG, so synopses are reproducible.
    """

    sample_size: int | None = 100_000
    min_points: int = 1_000
    alpha: float = 0.001
    min_spacing: float = 1.0
    max_initial_bins: int | None = None
    max_refine_depth: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_points < 2:
            raise ValueError("min_points (M) must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError("sample_size (Ns) must be positive")

    @classmethod
    def with_defaults(
        cls, sample_size: int | None, alpha: float = 0.001, seed: int = 0
    ) -> "PairwiseHistParams":
        """Paper defaults: ``M`` is 1 % of ``Ns`` (but at least 10)."""
        if sample_size is None:
            min_points = 1_000
        else:
            min_points = max(10, int(round(sample_size * 0.01)))
        return cls(sample_size=sample_size, min_points=min_points, alpha=alpha, seed=seed)

    def scaled_to(self, sample_size: int | None) -> "PairwiseHistParams":
        """Return a copy with a new ``Ns`` and ``M`` re-derived as 1 % of it."""
        if sample_size is None:
            return replace(self, sample_size=None)
        return replace(
            self,
            sample_size=sample_size,
            min_points=max(10, int(round(sample_size * 0.01))),
        )

    @property
    def effective_initial_bins(self) -> int:
        """Maximum number of initial bins: ``ceil(Ns / M)`` (Algorithm 1, line 4)."""
        if self.max_initial_bins is not None:
            return self.max_initial_bins
        if self.sample_size is None:
            return 128
        return max(1, -(-self.sample_size // self.min_points))
