"""Row-grouping transforms used by the Shfl-BW pattern search.

* :func:`group_rows_by_support` — grouping rows with identical non-zero
  patterns, the idealised version of what the pattern search approximates,
* :func:`groups_to_permutation` — the row groups concatenated into the
  permutation (``row_indices``) the Shfl-BW format stores for the kernel's
  offline reorder (Figure 4 step (a)) and reordered write-back (step (e)).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "group_rows_by_support",
    "groups_to_permutation",
]


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """Each row of a boolean ``(m, K)`` mask packed into ``ceil(K / 64)``
    uint64 words, zero-padded, so equal rows have equal words and the
    Hamming distance of two rows is the popcount of their XOR."""
    packed = np.packbits(mask, axis=1)
    pad = -packed.shape[1] % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((packed.shape[0], pad), dtype=np.uint8)], axis=1
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def _support_ids(mask: np.ndarray) -> np.ndarray:
    """An id per row of a boolean ``(m, K)`` mask, equal exactly for rows
    with equal supports (ids in no particular order).

    Each row's packed words (:func:`_pack_rows`) are viewed as one
    fixed-width byte string, so one ``np.unique`` over ``m`` strings numbers
    the supports, much more cheaply than ``np.unique(axis=0)``'s generic row
    comparisons.
    """
    words = _pack_rows(mask)
    if not words.shape[1]:
        return np.zeros(mask.shape[0], dtype=np.intp)  # every support is empty
    rows = words.view(np.dtype((np.void, words.itemsize * words.shape[1]))).ravel()
    return np.unique(rows, return_inverse=True)[1]


def _group_sums(rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """``(G, K)`` sums of the row groups ``groups`` (``(G, V)`` indices).

    Bitwise ``rows[groups.reshape(-1)].reshape(G, V, K).sum(axis=1)``
    without the permuted copy: for ``K > 1`` numpy reduces that middle axis
    one row at a time onto zeros, and so does the gather below, one ``(G,
    K)`` slab of rows per group position.  At ``K = 1`` the middle axis
    becomes the contiguous inner loop, which numpy sums pairwise, so that
    case (a copy of ``M`` scalars) keeps the reshape sum.  ``bool`` rows add
    up to exact counts, in the narrowest unsigned type that holds ``V``.
    """
    g, v = groups.shape
    k = rows.shape[1]
    if k == 1:
        return rows[groups.reshape(-1)].reshape(g, v, 1).sum(axis=1)
    sums = np.zeros((g, k), dtype=np.min_scalar_type(v) if rows.dtype == bool else np.float64)
    for position in range(v):
        sums += rows[groups[:, position]]
    return sums


def group_rows_by_support(mask: np.ndarray, vector_size: int) -> list[np.ndarray]:
    """Group rows that share an identical non-zero column support.

    Rows with the same support are emitted in groups of exactly
    ``vector_size``; if a support's multiplicity is not a multiple of
    ``vector_size`` the remainder rows are pooled and grouped together in
    index order (so the function always returns ``M / V`` groups of ``V``
    rows).  This exact grouping is what a perfectly Shfl-BW matrix admits; on
    arbitrary masks it is the starting point the k-means search improves on.
    """
    mask = np.asarray(mask) != 0
    m = mask.shape[0]
    v = vector_size
    if v <= 0 or m % v:
        raise ValueError(f"M={m} must be a positive multiple of V={v}")
    if m == 0:
        return []

    # Any order of the support ids works here: they are remapped below to
    # first-appearance order, the order the seed's insertion-ordered dict
    # iterated supports in (see
    # :func:`repro.core.reference.group_rows_by_support_loop`).
    inverse = _support_ids(mask)
    order = np.argsort(inverse, kind="stable")  # by support id, rows ascending
    counts = np.bincount(inverse)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # The first (smallest) row index of each support identifies its
    # first-appearance position.
    id_order = np.argsort(order[starts], kind="stable")

    # Each support contributes its first counts//v * v rows (ascending) as
    # full groups; its trailing remainder rows are pooled as leftovers.
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, counts)
    full_rows = (counts // v) * v
    kept = rank < np.repeat(full_rows, counts)

    # Gather the full-group rows support by support, in first-appearance
    # order (a strided segment gather: one global arange, no Python loop
    # over rows).
    sel_counts = full_rows[id_order]
    total = int(sel_counts.sum())
    if total:
        sel_starts = np.concatenate(([0], np.cumsum(sel_counts)[:-1]))
        offsets = np.arange(total, dtype=np.int64) - np.repeat(sel_starts, sel_counts)
        grouped = order[np.repeat(starts[id_order], sel_counts) + offsets]
    else:
        grouped = np.zeros(0, dtype=np.int64)
    leftovers = np.sort(order[~kept])

    groups = [g.astype(np.int64) for g in grouped.reshape(-1, v)]
    groups.extend(g.astype(np.int64) for g in leftovers.reshape(-1, v))
    return groups


def groups_to_permutation(groups: list[np.ndarray], m: int) -> np.ndarray:
    """Concatenate row groups into a permutation array and sanity-check it."""
    perm = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups]) if groups else np.zeros(0, dtype=np.int64)
    if perm.shape != (m,):
        raise ValueError(f"permutation must have shape ({m},), got {perm.shape}")
    if sorted(perm.tolist()) != list(range(m)):
        raise ValueError("permutation must contain every row index exactly once")
    return perm
