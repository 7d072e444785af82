"""Common pruner interface.

A pruner turns an importance-score matrix into a boolean keep-mask that
satisfies its sparsity pattern, and applies that mask to a weight matrix,
scoring each weight by its magnitude (the paper's criterion).  Every pattern
discussed in the paper (unstructured, block-wise, vector-wise, balanced n:m,
Shfl-BW) gets a concrete pruner.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..core.pattern import PatternKind

__all__ = ["PruneResult", "Pruner"]


@dataclass
class PruneResult:
    """Outcome of pruning one weight matrix.

    Attributes
    ----------
    weights:
        Masked weight matrix (same shape as the input).
    mask:
        Boolean keep-mask.
    pattern:
        Pattern the mask satisfies.
    info:
        Pattern-specific extras (e.g. ``row_indices`` for Shfl-BW).
    """

    weights: np.ndarray
    mask: np.ndarray
    pattern: PatternKind
    info: dict = field(default_factory=dict)

    @property
    def sparsity(self) -> float:
        """Fraction of pruned weights."""
        return 1.0 - float(self.mask.mean())

    @property
    def density(self) -> float:
        """Fraction of kept weights."""
        return float(self.mask.mean())

    @property
    def retained_score(self) -> float:
        """Sum of |weights| covered by the mask (magnitude retained)."""
        return float(np.abs(self.weights).sum())


class Pruner(abc.ABC):
    """Single-shot pattern pruner."""

    #: Pattern produced by this pruner.
    pattern: PatternKind = PatternKind.UNSTRUCTURED
    #: Display name for reports.
    name: str = "pruner"

    @abc.abstractmethod
    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        """Boolean keep-mask for the given importance scores and sparsity."""

    def prune(self, weights: np.ndarray, sparsity: float) -> PruneResult:
        """Prune ``weights`` to the target sparsity, scoring each weight by
        its magnitude (the paper's criterion)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D matrix")
        if not 0.0 <= sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        keep = self.mask(np.abs(weights), sparsity)
        return PruneResult(
            weights=weights * keep,
            mask=keep,
            pattern=self.pattern,
            info=self.extra_info(),
        )

    def extra_info(self) -> dict:
        """Pattern-specific metadata attached to the result (overridable)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} pattern={self.pattern.value}>"
