"""Structural validators for sparse patterns.

The pruning masks promise matrices that satisfy a given sparsity pattern; the
validators here check those promises directly on dense masks/matrices, so the
test-suite (and property-based tests in particular) can assert pattern
invariants without trusting the format containers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_blockwise",
    "is_vector_wise",
    "is_shflbw",
    "is_balanced",
    "sparsity",
    "density",
]


def _mask_of(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr != 0


def sparsity(matrix: np.ndarray) -> float:
    """Fraction of zero entries."""
    mask = _mask_of(matrix)
    return 1.0 - float(mask.mean()) if mask.size else 0.0


def density(matrix: np.ndarray) -> float:
    """Fraction of non-zero entries."""
    return 1.0 - sparsity(matrix)


def is_blockwise(matrix: np.ndarray, block_size: int) -> bool:
    """True if every ``V x V`` block is either fully zero or fully non-zero."""
    mask = _mask_of(matrix)
    m, k = mask.shape
    v = block_size
    if v <= 0 or m % v or k % v:
        return False
    blocks = mask.reshape(m // v, v, k // v, v).transpose(0, 2, 1, 3)
    any_nz = blocks.any(axis=(2, 3))
    all_nz = blocks.all(axis=(2, 3))
    return bool(np.all(any_nz == all_nz))


def is_vector_wise(matrix: np.ndarray, vector_size: int) -> bool:
    """True if within every group of ``V`` *consecutive* rows each column is
    either fully kept or fully pruned."""
    mask = _mask_of(matrix)
    m, _ = mask.shape
    v = vector_size
    if v <= 0 or m % v:
        return False
    groups = mask.reshape(m // v, v, -1)
    any_nz = groups.any(axis=1)
    all_nz = groups.all(axis=1)
    return bool(np.all(any_nz == all_nz))


def is_shflbw(
    matrix: np.ndarray, vector_size: int, row_indices: np.ndarray | None = None
) -> bool:
    """True if some row permutation turns the matrix vector-wise.

    If ``row_indices`` is provided it is checked directly (this is the cheap
    path used when the pattern search's witness is at hand).  Otherwise the rows
    are grouped by their non-zero column support; the matrix is Shfl-BW iff
    rows can be partitioned into groups of exactly ``V`` identical supports —
    which we verify greedily by counting rows per distinct support pattern.
    """
    mask = _mask_of(matrix)
    m, _ = mask.shape
    v = vector_size
    if v <= 0 or m % v:
        return False

    if row_indices is not None:
        row_indices = np.asarray(row_indices, dtype=np.int64)
        if sorted(row_indices.tolist()) != list(range(m)):
            return False
        return is_vector_wise(mask[row_indices, :], v)

    # Group rows by identical support; each support's multiplicity must be a
    # multiple of V so the rows can be packed into full groups.
    patterns: dict[bytes, int] = {}
    for i in range(m):
        key = mask[i].tobytes()
        patterns[key] = patterns.get(key, 0) + 1
    return all(count % v == 0 for count in patterns.values())


def is_balanced(matrix: np.ndarray, n: int = 2, m: int = 4) -> bool:
    """True if every group of ``m`` consecutive values per row has at most
    ``n`` non-zeros (the balanced n:m constraint)."""
    mask = _mask_of(matrix)
    rows, k = mask.shape
    if m <= 0 or k % m:
        return False
    groups = mask.reshape(rows, k // m, m)
    return bool(np.all(groups.sum(axis=2) <= n))
