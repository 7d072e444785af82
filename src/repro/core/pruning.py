"""The Shfl-BW pattern-search algorithm (Section 5, Figure 5).

Given an importance-score matrix, the algorithm decides which weights to keep
subject to the Shfl-BW structural constraint, in two stages:

**Row-group search** — apply unstructured pruning to the scores at a *reduced*
sparsity (non-zero ratio ``beta = beta_factor * alpha``, the paper finds
``beta = 2 alpha`` works best), producing a binary mask; cluster the mask rows
into groups of exactly ``V`` with balanced k-means, so rows that keep weights
in similar columns share a group.

**Pruning** — permute the rows so each group is contiguous, apply vector-wise
pruning at the target ratio ``alpha`` (each group keeps the columns with the
highest summed score), then reverse the permutation so the mask is expressed
in the original row order.

The output mask is guaranteed to satisfy the Shfl-BW pattern with the returned
``row_indices`` as its witness permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmeans import balanced_kmeans
from .transforms import groups_to_permutation

__all__ = [
    "ShflBWSearchResult",
    "unstructured_mask",
    "vector_wise_mask",
    "search_shflbw_pattern",
    "prune_shflbw",
]


@dataclass(frozen=True)
class ShflBWSearchResult:
    """Outcome of the Shfl-BW pattern search.

    Attributes
    ----------
    mask:
        Boolean keep-mask in the *original* row order.
    row_indices:
        Witness row permutation: permuting the mask rows by it yields a
        vector-wise sparse mask.
    groups:
        The row groups discovered by the search (original row indices).
    retained_score:
        Sum of importance scores covered by the mask.
    total_score:
        Sum of all importance scores (for normalisation).
    """

    mask: np.ndarray
    row_indices: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    retained_score: float
    total_score: float

    @property
    def retained_fraction(self) -> float:
        """Fraction of total importance kept by the pattern."""
        if self.total_score <= 0:
            return 1.0
        return self.retained_score / self.total_score

    @property
    def density(self) -> float:
        """Achieved non-zero ratio of the mask."""
        return float(self.mask.mean())


def _check_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a 2-D matrix, got shape {scores.shape}")
    # NaN compares False against everything, so a plain `scores < 0` check
    # would let non-finite scores flow into argsort and produce silently
    # wrong masks; reject them explicitly.
    if not np.all(np.isfinite(scores)):
        raise ValueError("importance scores must be finite (no NaN / infinity)")
    if np.any(scores < 0):
        raise ValueError("importance scores must be non-negative")
    return scores


def _top_k_mask(values: np.ndarray, keep: int) -> np.ndarray:
    """Mask of each row's ``keep`` largest entries, ties kept in position order.

    Row for row the same set as the first ``keep`` entries of
    ``argsort(-values, kind="stable")``: every entry above the row's
    ``keep``-th largest value (found by ``np.partition``) is kept, and the
    remaining slots go to the entries equal to that threshold, earliest
    first.  Only the tied positions are ranked, so no full sort and no
    full-size cumulative sum is needed.
    """
    rows, width = values.shape
    if keep >= width:
        return np.ones(values.shape, dtype=bool)
    # A list index copies the column out, so the partitioned copy is freed.
    threshold = np.partition(values, width - keep, axis=1)[:, [width - keep]]
    mask = values > threshold
    # Tied slots still open per row (at least one: the threshold itself).
    short = keep - np.count_nonzero(mask, axis=1)
    tied = np.flatnonzero(values == threshold)
    tied_rows = tied // width
    tied_counts = np.bincount(tied_rows, minlength=rows)
    rank = np.arange(tied.size) - (np.cumsum(tied_counts) - tied_counts)[tied_rows]
    mask.reshape(-1)[tied[rank < short[tied_rows]]] = True
    return mask


def unstructured_mask(scores: np.ndarray, density: float) -> np.ndarray:
    """Keep the globally top-``density`` fraction of scores.

    Ties are broken by position (earlier entries win) so the result is
    deterministic; the mask always keeps at least one weight.
    """
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return _unstructured_mask(scores, density)


def _unstructured_mask(scores: np.ndarray, density: float) -> np.ndarray:
    """:func:`unstructured_mask` on scores and a density already checked."""
    keep = max(1, int(round(density * scores.size)))
    return _top_k_mask(scores.reshape(1, -1), keep).reshape(scores.shape)


def vector_wise_mask(scores: np.ndarray, density: float, vector_size: int) -> np.ndarray:
    """Vector-wise pruning mask on *consecutive* row groups of size ``V``.

    Each group keeps the ``round(density * K)`` columns with the largest
    summed score (at least one column per group; ties go to the earlier
    column).

    Vectorized over all groups at once: one reshape, one reduction and one
    row-wise top-k selection replace the per-group Python loop.  Bitwise
    identical to :func:`repro.core.reference.vector_wise_mask_loop` — the
    ``(G, V, K)`` middle-axis sum reduces each group's rows in the same
    order as the per-group ``sum(axis=0)``, and the top-k selection keeps
    exactly the columns the per-group stable argsort puts first.
    """
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    m, _ = scores.shape
    if vector_size <= 0 or m % vector_size:
        raise ValueError(f"M={m} must be a positive multiple of V={vector_size}")
    return _vector_wise_mask(scores, density, vector_size)


def _vector_wise_mask(scores: np.ndarray, density: float, v: int) -> np.ndarray:
    """:func:`vector_wise_mask` on scores, a density and a ``V`` already
    checked."""
    m, k = scores.shape
    keep_cols = max(1, int(round(density * k)))
    group_scores = scores.reshape(m // v, v, k).sum(axis=1)
    return np.repeat(_top_k_mask(group_scores, keep_cols), v, axis=0)


def search_shflbw_pattern(
    scores: np.ndarray,
    density: float,
    vector_size: int,
    *,
    beta_factor: float = 2.0,
    kmeans_iters: int = 10,
    seed: int = 0,
) -> ShflBWSearchResult:
    """Run the two-stage pattern search of Figure 5.

    Parameters
    ----------
    scores:
        Non-negative importance scores (the paper uses absolute weights).
    density:
        Target non-zero ratio ``alpha``.
    vector_size:
        Row-group height ``V``.
    beta_factor:
        Ratio ``beta / alpha`` of the reduced-sparsity unstructured mask used
        for the row-group search (2.0 in the paper).
    kmeans_iters, seed:
        Balanced k-means parameters.

    The scores are validated once here; both stages then run the unchecked
    cores of :func:`unstructured_mask` and :func:`vector_wise_mask`.
    """
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if beta_factor <= 0:
        raise ValueError("beta_factor must be positive")
    m, _ = scores.shape
    if vector_size <= 0 or m % vector_size:
        raise ValueError(f"M={m} must be a positive multiple of V={vector_size}")

    # Stage 1 — row-group search on a reduced-sparsity unstructured mask.
    beta = min(1.0, beta_factor * density)
    coarse_mask = _unstructured_mask(scores, beta)
    groups = balanced_kmeans(coarse_mask, vector_size, num_iters=kmeans_iters, seed=seed)
    row_indices = groups_to_permutation(groups, m)

    # Stage 2 — vector-wise pruning on the permuted scores, then reverse.
    permuted_scores = scores[row_indices, :]
    permuted_mask = _vector_wise_mask(permuted_scores, density, vector_size)
    mask = np.zeros_like(permuted_mask)
    mask[row_indices, :] = permuted_mask

    retained = float(scores[mask].sum())
    total = float(scores.sum())
    return ShflBWSearchResult(
        mask=mask,
        row_indices=row_indices,
        groups=tuple(tuple(int(i) for i in g) for g in groups),
        retained_score=retained,
        total_score=total,
    )


def prune_shflbw(
    weights: np.ndarray,
    sparsity: float,
    vector_size: int,
    *,
    scores: np.ndarray | None = None,
    beta_factor: float = 2.0,
    kmeans_iters: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, ShflBWSearchResult]:
    """Prune a weight matrix to Shfl-BW sparsity.

    Parameters
    ----------
    weights:
        Dense ``(M, K)`` weight matrix.
    sparsity:
        Target fraction of pruned weights (e.g. 0.75).
    vector_size:
        Row-group height ``V``.
    scores:
        Importance scores; defaults to ``abs(weights)`` (magnitude pruning,
        the criterion the paper uses).

    Returns
    -------
    (pruned_weights, result)
        The masked weight matrix (original row order) and the search result
        containing the witness permutation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    if scores is None:
        scores = np.abs(weights)
    result = search_shflbw_pattern(
        scores,
        density=1.0 - sparsity,
        vector_size=vector_size,
        beta_factor=beta_factor,
        kmeans_iters=kmeans_iters,
        seed=seed,
    )
    return weights * result.mask, result
