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

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .kmeans import balanced_kmeans
from .transforms import _group_sums, groups_to_permutation

__all__ = [
    "ShflBWSearchResult",
    "unstructured_mask",
    "vector_wise_mask",
    "block_wise_mask",
    "block_keep_flags",
    "balanced_mask",
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
    # NaN compares False against everything, so a plain sign check would let
    # non-finite scores flow into the selections and produce silently wrong
    # masks.  min() and max() propagate NaN, so these two reductions reject
    # NaN and infinities before the sign check, with no full-size temporary.
    if scores.size:
        low, high = scores.min(), scores.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("importance scores must be finite (no NaN / infinity)")
        if low < 0:
            raise ValueError("importance scores must be non-negative")
    return scores


#: Entries in the strided sample that brackets an unstructured threshold.
_SAMPLE = 1 << 12


def _band_threshold(values: np.ndarray, keep: int) -> float:
    """The ``keep``-th largest entry of the flat ``values`` (``keep < size``).

    A sorted strided sample brackets the order statistic in a band ``[lo,
    hi]``.  A count of the entries above ``hi`` and one of the entries at or
    above ``lo`` prove that the band holds it, and then only the band is
    partitioned.  A band that misses is widened and retried.  The widest
    band is the whole array, so the loop always ends, and the scores are
    copied whole only when a band that wide is needed.
    """
    size = values.size
    sample = np.sort(values[:: (size // _SAMPLE) | 1])
    at = (size - keep) * sample.size // size
    margin = 2 * math.isqrt(sample.size)
    while True:
        lo = sample[at - margin] if at >= margin else -np.inf
        hi = sample[at + margin] if at + margin < sample.size else np.inf
        above = np.count_nonzero(values > hi)
        if above < keep:
            within = values >= lo
            if np.count_nonzero(within) >= keep:
                within &= values <= hi
                band = values[within]
                # The threshold is the band's (keep - above)-th largest.
                position = band.size - (keep - above)
                return np.partition(band, position)[position]
        margin *= 4


def _top_k_mask(values: np.ndarray, keep: int) -> np.ndarray:
    """Mask of each row's ``keep`` largest entries, ties kept in position order.

    Row for row the same set as the first ``keep`` entries of
    ``argsort(-values, kind="stable")``: every entry above the row's
    ``keep``-th largest value is kept, and the remaining slots go to the
    entries equal to that threshold, earliest first.  A single row (the
    unstructured mask) finds its threshold by band selection
    (:func:`_band_threshold`) instead of partitioning a copy of all the
    scores; more rows (the vector-wise group sums) take ``np.partition``
    along each row.
    Only the tied positions are ranked, so no full sort and no full-size
    cumulative sum is needed.
    """
    rows, width = values.shape
    if keep >= width:
        return np.ones(values.shape, dtype=bool)
    if rows == 1:
        threshold = np.full((1, 1), _band_threshold(values.reshape(-1), keep))
    else:
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

    Vectorized over all groups at once: one group-sum pass
    (:func:`_group_sums`) and one row-wise top-k selection replace the
    per-group Python loop.  Bitwise identical to
    :func:`repro.core.reference.vector_wise_mask_loop`: each group's rows are
    summed in the same order as the per-group ``sum(axis=0)``, and the top-k
    selection keeps exactly the columns the per-group stable argsort puts
    first.
    """
    scores = _check_scores(scores)
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    m, _ = scores.shape
    if vector_size <= 0 or m % vector_size:
        raise ValueError(f"M={m} must be a positive multiple of V={vector_size}")
    return _vector_wise_mask(scores, density, np.arange(m).reshape(-1, vector_size))


def _vector_wise_mask(scores: np.ndarray, density: float, groups: np.ndarray) -> np.ndarray:
    """Vector-wise mask of the row groups ``groups`` (``(G, V)`` row
    indices), on scores and a density already checked: every row of a group
    keeps its group's top columns.  The mask is in the original row order."""
    g, v = groups.shape
    keep_cols = max(1, int(round(density * scores.shape[1])))
    group_of_row = np.empty(g * v, dtype=np.intp)
    group_of_row[groups.reshape(-1)] = np.arange(g).repeat(v)
    return _top_k_mask(_group_sums(scores, groups), keep_cols)[group_of_row]


def block_wise_mask(scores: np.ndarray, density: float, block_size: int) -> np.ndarray:
    """Block-wise pruning mask: keep the ``V x V`` blocks with the largest
    summed score.

    The block sums are ranked by :func:`unstructured_mask`, so
    ``round(density * blocks)`` blocks are kept (at least one; ties go to
    the earlier block in row-major order).
    """
    scores = _check_scores(scores)
    v = block_size
    return block_keep_flags([scores], density, v).repeat(v, axis=0).repeat(v, axis=1)


def block_keep_flags(
    slabs: Iterable[np.ndarray], density: float, block_size: int
) -> np.ndarray:
    """The keep flag of every ``V x V`` block of :func:`block_wise_mask`,
    one row per block row, from consecutive row slabs of the scores.

    Each slab holds whole block rows.  Its block sums are the same sums the
    whole matrix gives for those rows, and all of them are ranked together,
    so the flags do not depend on how the rows are split into slabs.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    v = block_size
    block_scores = []
    for slab in slabs:
        m, k = slab.shape
        if v <= 0 or m % v or k % v:
            raise ValueError(f"matrix shape {slab.shape} is not divisible by V={v}")
        block_scores.append(slab.reshape(m // v, v, k // v, v).sum(axis=(1, 3)))
    return _unstructured_mask(np.concatenate(block_scores), density)


def balanced_mask(scores: np.ndarray, n: int = 2, m: int = 4) -> np.ndarray:
    """Balanced ``n:m`` mask: each run of ``m`` consecutive entries in a row
    keeps its ``n`` largest scores (ties go to the earlier position).

    At the default 2:4 this is the pattern A100 sparse tensor cores run, and
    on magnitude scores it keeps exactly the values
    :meth:`repro.sparse.formats.Balanced24Matrix.from_dense` stores.
    """
    scores = _check_scores(scores)
    if m <= 0 or not 0 < n <= m:
        raise ValueError("need 0 < n <= m")
    rows, k = scores.shape
    if k % m:
        raise ValueError(f"K={k} must be a multiple of m={m}")
    groups = scores.reshape(rows, k // m, m)
    order = np.argsort(-groups, axis=2, kind="stable")
    mask = np.zeros_like(groups, dtype=bool)
    np.put_along_axis(mask, order[:, :, :n], True, axis=2)
    return mask.reshape(rows, k)


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
    del coarse_mask  # free the mask before stage 2 allocates its own
    row_indices = groups_to_permutation(groups, m)

    # Stage 2 — vector-wise pruning of the permuted row groups, written
    # straight back in the original row order.
    mask = _vector_wise_mask(scores, density, row_indices.reshape(-1, vector_size))

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
