"""The paper's primary contribution: the Shfl-BW pattern, its transforms,
the pattern-search (pruning) algorithm and the flexibility/efficiency
analysis."""

from .analysis import (
    PatternAnalysis,
    analyze_pattern,
    compare_patterns,
    log_binomial,
    log_candidates,
    log_candidates_balanced,
    log_candidates_blockwise,
    log_candidates_shflbw,
    log_candidates_unstructured,
    log_candidates_vectorwise,
    log_factorial,
    log_row_shuffle_multiplier,
)
from .kmeans import balanced_kmeans, kmeans_plusplus_init
from .pattern import PatternKind
from .pruning import (
    ShflBWSearchResult,
    balanced_mask,
    block_keep_flags,
    block_wise_mask,
    prune_shflbw,
    search_shflbw_pattern,
    unstructured_mask,
    vector_wise_mask,
)
from .transforms import group_rows_by_support, groups_to_permutation

__all__ = [
    "PatternAnalysis",
    "analyze_pattern",
    "compare_patterns",
    "log_binomial",
    "log_candidates",
    "log_candidates_balanced",
    "log_candidates_blockwise",
    "log_candidates_shflbw",
    "log_candidates_unstructured",
    "log_candidates_vectorwise",
    "log_factorial",
    "log_row_shuffle_multiplier",
    "balanced_kmeans",
    "kmeans_plusplus_init",
    "PatternKind",
    "ShflBWSearchResult",
    "balanced_mask",
    "block_keep_flags",
    "block_wise_mask",
    "prune_shflbw",
    "search_shflbw_pattern",
    "unstructured_mask",
    "vector_wise_mask",
    "group_rows_by_support",
    "groups_to_permutation",
]
