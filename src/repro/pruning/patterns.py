"""Single-shot pruners for every sparsity pattern in the paper's evaluation.

* :class:`UnstructuredPruner` — global magnitude top-k (no structure),
* :class:`BlockwisePruner` — keep whole ``V x V`` blocks by summed score,
* :class:`VectorwisePruner` — keep ``V x 1`` column vectors within fixed
  consecutive row groups,
* :class:`BalancedPruner` — keep the top ``n`` of every ``m`` consecutive
  values in a row (2:4 by default, sparsity fixed at ``1 - n/m``),
* :class:`ShflBWPruner` — the paper's pattern, delegating to the two-stage
  search of :mod:`repro.core.pruning`.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..core.pruning import (
    balanced_mask,
    block_wise_mask,
    search_shflbw_pattern,
    unstructured_mask,
    vector_wise_mask,
)
from .base import Pruner

__all__ = [
    "UnstructuredPruner",
    "BlockwisePruner",
    "VectorwisePruner",
    "BalancedPruner",
    "ShflBWPruner",
    "make_pruner",
]


class UnstructuredPruner(Pruner):
    """Global magnitude pruning with no structural constraint."""

    pattern = PatternKind.UNSTRUCTURED
    name = "unstructured"

    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        return unstructured_mask(scores, 1.0 - sparsity)


class BlockwisePruner(Pruner):
    """Block-wise pruning: keep the ``V x V`` blocks with the largest summed score."""

    pattern = PatternKind.BLOCKWISE
    name = "blockwise"

    def __init__(self, block_size: int = 32):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        return block_wise_mask(scores, 1.0 - sparsity, self.block_size)

    def extra_info(self) -> dict:
        return {"block_size": self.block_size}


class VectorwisePruner(Pruner):
    """Vector-wise pruning on fixed consecutive row groups of size ``V``."""

    pattern = PatternKind.VECTORWISE
    name = "vectorwise"

    def __init__(self, vector_size: int = 32):
        if vector_size <= 0:
            raise ValueError("vector_size must be positive")
        self.vector_size = vector_size

    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        return vector_wise_mask(scores, 1.0 - sparsity, self.vector_size)

    def extra_info(self) -> dict:
        return {"vector_size": self.vector_size}


class BalancedPruner(Pruner):
    """Balanced ``n:m`` pruning (2-in-4 by default).

    The achievable sparsity is fixed at ``1 - n/m``; requesting a different
    target raises ``ValueError`` so experiments cannot silently mix patterns
    and sparsity levels the hardware does not support (the A100 restriction
    the paper points out).
    """

    pattern = PatternKind.BALANCED
    name = "balanced"

    def __init__(self, n: int = 2, m: int = 4):
        if m <= 0 or not 0 < n <= m:
            raise ValueError("need 0 < n <= m")
        self.n = n
        self.m = m

    @property
    def fixed_sparsity(self) -> float:
        return 1.0 - self.n / self.m

    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        if abs(sparsity - self.fixed_sparsity) > 1e-9:
            raise ValueError(
                f"balanced {self.n}:{self.m} sparsity is fixed at "
                f"{self.fixed_sparsity:.0%}, got {sparsity:.0%}"
            )
        return balanced_mask(scores, self.n, self.m)

    def extra_info(self) -> dict:
        return {"n": self.n, "m": self.m}


class ShflBWPruner(Pruner):
    """Shuffled block-wise pruning via the two-stage search of Section 5."""

    pattern = PatternKind.SHFLBW
    name = "shfl-bw"

    def __init__(
        self,
        vector_size: int = 32,
        *,
        beta_factor: float = 2.0,
        kmeans_iters: int = 10,
        seed: int = 0,
    ):
        if vector_size <= 0:
            raise ValueError("vector_size must be positive")
        self.vector_size = vector_size
        self.beta_factor = beta_factor
        self.kmeans_iters = kmeans_iters
        self.seed = seed
        self._last_result = None

    def mask(self, scores: np.ndarray, sparsity: float) -> np.ndarray:
        result = search_shflbw_pattern(
            scores,
            density=1.0 - sparsity,
            vector_size=self.vector_size,
            beta_factor=self.beta_factor,
            kmeans_iters=self.kmeans_iters,
            seed=self.seed,
        )
        self._last_result = result
        return result.mask

    def extra_info(self) -> dict:
        info = {"vector_size": self.vector_size, "beta_factor": self.beta_factor}
        if self._last_result is not None:
            info["row_indices"] = self._last_result.row_indices
            info["groups"] = self._last_result.groups
            info["retained_fraction"] = self._last_result.retained_fraction
        return info


def make_pruner(pattern: str, **kwargs) -> Pruner:
    """Construct a pruner by pattern name (``vector_size`` / ``block_size`` /
    ``n`` / ``m`` forwarded to the constructor)."""
    kind = PatternKind.parse(pattern)
    if kind is PatternKind.UNSTRUCTURED:
        return UnstructuredPruner()
    if kind is PatternKind.BLOCKWISE:
        return BlockwisePruner(**kwargs)
    if kind is PatternKind.VECTORWISE:
        return VectorwisePruner(**kwargs)
    if kind is PatternKind.BALANCED:
        return BalancedPruner(**kwargs)
    if kind is PatternKind.SHFLBW:
        return ShflBWPruner(**kwargs)
    raise ValueError(f"no pruner for pattern {pattern!r}")
