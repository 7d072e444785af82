"""Single-shot pattern pruners: one per sparsity pattern of the paper's
evaluation, each scoring weights by magnitude."""

from .base import PruneResult, Pruner
from .patterns import (
    BalancedPruner,
    BlockwisePruner,
    ShflBWPruner,
    UnstructuredPruner,
    VectorwisePruner,
    make_pruner,
)

__all__ = [
    "PruneResult",
    "Pruner",
    "BalancedPruner",
    "BlockwisePruner",
    "ShflBWPruner",
    "UnstructuredPruner",
    "VectorwisePruner",
    "make_pruner",
]
