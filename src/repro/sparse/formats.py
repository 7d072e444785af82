"""Sparse-matrix storage formats used throughout the reproduction.

The paper's kernels operate on four weight-sparsity patterns (Figure 3):

* **unstructured** — arbitrary non-zero positions, stored here as CSR,
* **block-wise** — non-zeros clustered in ``V x V`` blocks (BSR),
* **vector-wise** — non-zeros clustered in ``V x 1`` column vectors within
  groups of ``V`` consecutive rows,
* **Shfl-BW** — vector-wise sparsity *after* an arbitrary row permutation:
  rows sharing a column support may live anywhere in the matrix; the format
  stores the permutation (``row_indices``) so the kernel can perform the
  reordered write-back described in Section 4.2,
* **balanced 2:4** — two non-zeros in every group of four consecutive values
  in a row (the A100 sparse-tensor-core pattern).

Every container knows how to reconstruct the dense matrix (`to_dense`), which
is what the functional SpMM references and the test-suite invariants are built
on.  Values are stored as ``float64`` numpy arrays — the dtype every
functional kernel and reference in :mod:`repro.sparse` computes in — so
conversions never round (FP16 quantisation effects are out of scope; the
performance model accounts for FP16 byte counts).

The ``from_dense`` / ``to_dense`` conversions are vectorized
(``nonzero`` / ``bincount`` / fancy indexing); the original per-row and
per-block loop implementations live on as oracles in
:mod:`repro.sparse.spmm_reference` and the property suite asserts
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CSRMatrix",
    "BlockSparseMatrix",
    "VectorSparseMatrix",
    "ShflBWMatrix",
    "Balanced24Matrix",
]


def _as_2d_float(dense: np.ndarray) -> np.ndarray:
    arr = np.asarray(dense, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


# --------------------------------------------------------------------------- #
# Unstructured: CSR
# --------------------------------------------------------------------------- #
@dataclass
class CSRMatrix:
    """Compressed sparse row matrix (unstructured sparsity).

    Attributes
    ----------
    shape:
        ``(M, K)`` dense shape.
    data:
        Non-zero values, length ``nnz``.
    indices:
        Column index of each non-zero, length ``nnz``.
    indptr:
        Row pointer array, length ``M + 1``.
    """

    shape: tuple[int, int]
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        m, k = self.shape
        if len(self.indptr) != m + 1:
            raise ValueError("indptr length must be M + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have the same length")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= k):
            raise ValueError("column indices out of range")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero values."""
        return int(len(self.data))

    @property
    def density(self) -> float:
        """Fraction of entries that are stored."""
        m, k = self.shape
        return self.nnz / float(m * k) if m * k else 0.0

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Compress a dense matrix, dropping exact zeros.

        One ``nonzero`` scan replaces the per-row loop (row-major order, so
        indices come out exactly as the loop produced them); oracle:
        :func:`repro.sparse.spmm_reference.csr_from_dense_loop`.
        """
        dense = _as_2d_float(dense)
        m, k = dense.shape
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        return cls(
            shape=(m, k),
            data=dense[rows, cols],
            indices=cols.astype(np.int64),
            indptr=indptr,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix (one fancy-indexed scatter)."""
        m, k = self.shape
        out = np.zeros((m, k), dtype=np.float64)
        rows = np.repeat(np.arange(m), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row."""
        return np.diff(self.indptr)


# --------------------------------------------------------------------------- #
# Block-wise: BSR with square V x V blocks
# --------------------------------------------------------------------------- #
@dataclass
class BlockSparseMatrix:
    """Block-compressed sparse row matrix with square ``V x V`` blocks.

    Attributes
    ----------
    shape:
        Dense shape ``(M, K)``; both must be multiples of ``block_size``.
    block_size:
        Edge length ``V`` of each block.
    data:
        Stored blocks, shape ``(n_blocks, V, V)``.
    block_indices:
        Block-column index of each stored block.
    block_indptr:
        Block-row pointer array of length ``M / V + 1``.
    """

    shape: tuple[int, int]
    block_size: int
    data: np.ndarray
    block_indices: np.ndarray
    block_indptr: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.block_indices = np.asarray(self.block_indices, dtype=np.int64)
        self.block_indptr = np.asarray(self.block_indptr, dtype=np.int64)
        m, k = self.shape
        v = self.block_size
        if v <= 0:
            raise ValueError("block_size must be positive")
        if m % v or k % v:
            raise ValueError(
                f"shape {self.shape} is not divisible by block_size {v}"
            )
        if self.data.ndim != 3 or self.data.shape[1:] != (v, v):
            raise ValueError("data must have shape (n_blocks, V, V)")
        if len(self.block_indptr) != m // v + 1:
            raise ValueError("block_indptr length must be M / V + 1")
        if self.block_indptr[-1] != len(self.data):
            raise ValueError("block_indptr must end at the number of blocks")

    @property
    def num_block_rows(self) -> int:
        return self.shape[0] // self.block_size

    @property
    def nnz_blocks(self) -> int:
        """Number of stored blocks."""
        return int(len(self.data))

    @property
    def nnz(self) -> int:
        """Number of stored values (block storage keeps zeros inside blocks)."""
        return self.nnz_blocks * self.block_size * self.block_size

    @property
    def density(self) -> float:
        m, k = self.shape
        return self.nnz / float(m * k) if m * k else 0.0

    @classmethod
    def from_dense(cls, dense: np.ndarray, block_size: int) -> "BlockSparseMatrix":
        """Compress a dense matrix, keeping every block with any non-zero.

        A reshape/transpose view exposes the block grid and one ``nonzero``
        scan (block-row major, matching the original nested loops) selects
        the stored blocks; oracle:
        :func:`repro.sparse.spmm_reference.block_from_dense_loop`.
        """
        dense = _as_2d_float(dense)
        m, k = dense.shape
        v = block_size
        if v <= 0:
            raise ValueError("block_size must be positive")
        if m % v or k % v:
            raise ValueError(f"shape {dense.shape} is not divisible by V={v}")
        blocks = dense.reshape(m // v, v, k // v, v).transpose(0, 2, 1, 3)
        block_rows, block_cols = np.nonzero(np.any(blocks != 0.0, axis=(2, 3)))
        indptr = np.zeros(m // v + 1, dtype=np.int64)
        np.cumsum(np.bincount(block_rows, minlength=m // v), out=indptr[1:])
        data = blocks[block_rows, block_cols]
        return cls(
            shape=(m, k),
            block_size=v,
            data=data if len(data) else np.zeros((0, v, v)),
            block_indices=block_cols.astype(np.int64),
            block_indptr=indptr,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix (one fancy-indexed block scatter)."""
        m, k = self.shape
        v = self.block_size
        out = np.zeros((m // v, k // v, v, v), dtype=np.float64)
        rows = np.repeat(np.arange(self.num_block_rows), np.diff(self.block_indptr))
        out[rows, self.block_indices] = self.data
        return out.transpose(0, 2, 1, 3).reshape(m, k)


# --------------------------------------------------------------------------- #
# Vector-wise: groups of V consecutive rows sharing a column support
# --------------------------------------------------------------------------- #
@dataclass
class VectorSparseMatrix:
    """Vector-wise sparse matrix (``V x 1`` pruning granularity).

    Rows are partitioned into groups of ``V`` *consecutive* rows.  Within a
    group, a column is either fully kept (all ``V`` values stored) or fully
    pruned, so the group is stored densely as a ``(V, n_cols)`` panel plus the
    kept column indices.

    Attributes
    ----------
    shape:
        Dense shape ``(M, K)``; ``M`` must be a multiple of ``vector_size``.
    vector_size:
        Group height ``V``.
    group_columns:
        One int array of kept column indices per group.
    group_values:
        One ``(V, len(columns))`` value panel per group.
    """

    shape: tuple[int, int]
    vector_size: int
    group_columns: list[np.ndarray] = field(default_factory=list)
    group_values: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        m, k = self.shape
        v = self.vector_size
        if v <= 0:
            raise ValueError("vector_size must be positive")
        if m % v:
            raise ValueError(f"M={m} is not divisible by V={v}")
        if len(self.group_columns) != m // v or len(self.group_values) != m // v:
            raise ValueError("one column array and value panel required per group")
        self.group_columns = [np.asarray(c, dtype=np.int64) for c in self.group_columns]
        self.group_values = [np.asarray(x, dtype=np.float64) for x in self.group_values]
        for cols, vals in zip(self.group_columns, self.group_values, strict=True):
            if vals.shape != (v, len(cols)):
                raise ValueError("value panel shape must be (V, n_cols)")
            if len(cols) and (cols.min() < 0 or cols.max() >= k):
                raise ValueError("column indices out of range")
            if len(np.unique(cols)) != len(cols):
                raise ValueError("duplicate column indices within a group")

    @property
    def num_groups(self) -> int:
        return self.shape[0] // self.vector_size

    @property
    def nnz(self) -> int:
        return int(sum(vals.size for vals in self.group_values))

    @property
    def density(self) -> float:
        m, k = self.shape
        return self.nnz / float(m * k) if m * k else 0.0

    @classmethod
    def from_dense(cls, dense: np.ndarray, vector_size: int) -> "VectorSparseMatrix":
        """Compress a dense matrix whose sparsity already follows the pattern.

        A column of a row group is kept iff any of its ``V`` values is
        non-zero; the stored panel keeps whatever values the dense matrix had
        (including zeros inside a kept vector).
        """
        dense = _as_2d_float(dense)
        m, k = dense.shape
        v = vector_size
        if m % v:
            raise ValueError(f"M={m} is not divisible by V={v}")
        columns: list[np.ndarray] = []
        values: list[np.ndarray] = []
        for g in range(m // v):
            panel = dense[g * v : (g + 1) * v, :]
            cols = np.nonzero(np.any(panel != 0.0, axis=0))[0]
            columns.append(cols)
            values.append(panel[:, cols].copy())
        return cls(shape=(m, k), vector_size=v, group_columns=columns, group_values=values)

    def to_dense(self) -> np.ndarray:
        m, k = self.shape
        v = self.vector_size
        out = np.zeros((m, k), dtype=np.float64)
        for g in range(self.num_groups):
            out[g * v : (g + 1) * v, self.group_columns[g]] = self.group_values[g]
        return out


# --------------------------------------------------------------------------- #
# Shfl-BW: vector-wise sparsity under a row permutation
# --------------------------------------------------------------------------- #
@dataclass
class ShflBWMatrix:
    """Shuffled block-wise sparse matrix (the paper's pattern).

    The matrix is stored in its *permuted* (vector-wise) form together with
    the row permutation that maps permuted rows back to their original
    positions.  ``row_indices[p]`` is the original row index of permuted row
    ``p`` — exactly the array the reordered write-back phase of the GPU kernel
    consumes (Section 4.2).

    Attributes
    ----------
    shape:
        Original dense shape ``(M, K)``.
    vector_size:
        Row-group height ``V``.
    row_indices:
        Permutation array of length ``M``; ``row_indices[p]`` is the original
        row stored at permuted position ``p``.
    vector_matrix:
        The permuted matrix in vector-wise form.
    """

    shape: tuple[int, int]
    vector_size: int
    row_indices: np.ndarray
    vector_matrix: VectorSparseMatrix

    def __post_init__(self) -> None:
        self.row_indices = np.asarray(self.row_indices, dtype=np.int64)
        m, k = self.shape
        if self.vector_matrix.shape != (m, k):
            raise ValueError("vector_matrix shape must match the dense shape")
        if self.vector_matrix.vector_size != self.vector_size:
            raise ValueError("vector_matrix vector_size mismatch")
        if len(self.row_indices) != m:
            raise ValueError("row_indices must have length M")
        if sorted(self.row_indices.tolist()) != list(range(m)):
            raise ValueError("row_indices must be a permutation of 0..M-1")

    @property
    def num_groups(self) -> int:
        return self.vector_matrix.num_groups

    @property
    def nnz(self) -> int:
        return self.vector_matrix.nnz

    @property
    def density(self) -> float:
        return self.vector_matrix.density

    @property
    def row_groups(self) -> list[np.ndarray]:
        """Original row indices of each permuted row group."""
        v = self.vector_size
        return [
            self.row_indices[g * v : (g + 1) * v] for g in range(self.num_groups)
        ]

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        vector_size: int,
        row_indices: np.ndarray,
    ) -> "ShflBWMatrix":
        """Compress a dense matrix given the row permutation to apply.

        ``row_indices`` lists, in permuted order, which original rows form
        each consecutive group of ``V`` rows.
        """
        dense = _as_2d_float(dense)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        permuted = dense[row_indices, :]
        vec = VectorSparseMatrix.from_dense(permuted, vector_size)
        return cls(
            shape=dense.shape,
            vector_size=vector_size,
            row_indices=row_indices,
            vector_matrix=vec,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix in the *original* row ordering."""
        permuted = self.vector_matrix.to_dense()
        out = np.zeros_like(permuted)
        out[self.row_indices, :] = permuted
        return out


# --------------------------------------------------------------------------- #
# Balanced 2:4 sparsity (A100 sparse tensor cores)
# --------------------------------------------------------------------------- #
@dataclass
class Balanced24Matrix:
    """Balanced ``n:m`` sparse matrix (default 2-in-4, as on A100).

    Every group of ``m`` consecutive values along a row keeps exactly ``n``
    values.  Stored as the compacted values plus the in-group positions.

    Attributes
    ----------
    shape:
        Dense shape ``(M, K)``; ``K`` must be a multiple of ``m``.
    n, m:
        Kept / group sizes (2 and 4 for the A100 pattern).
    values:
        Compacted values, shape ``(M, K * n / m)``.
    positions:
        In-group position (0..m-1) of each kept value, same shape as
        ``values``.
    """

    shape: tuple[int, int]
    values: np.ndarray
    positions: np.ndarray
    n: int = 2
    m: int = 4

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        rows, k = self.shape
        if self.m <= 0 or not 0 < self.n <= self.m:
            raise ValueError("need 0 < n <= m")
        if k % self.m:
            raise ValueError(f"K={k} must be a multiple of m={self.m}")
        expected = (rows, k // self.m * self.n)
        if self.values.shape != expected or self.positions.shape != expected:
            raise ValueError(f"values/positions must have shape {expected}")
        if self.positions.size and (
            self.positions.min() < 0 or self.positions.max() >= self.m
        ):
            raise ValueError("positions out of range")

    @property
    def density(self) -> float:
        return self.n / self.m

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_dense(cls, dense: np.ndarray, n: int = 2, m: int = 4) -> "Balanced24Matrix":
        """Compress a dense matrix that already satisfies the n:m pattern.

        In each group of ``m`` the ``n`` largest-magnitude values are kept
        (ties broken by position), so a matrix that does not satisfy the
        pattern is *projected* onto it.
        """
        dense = _as_2d_float(dense)
        rows, k = dense.shape
        if k % m:
            raise ValueError(f"K={k} must be a multiple of m={m}")
        groups = dense.reshape(rows, k // m, m)
        order = np.argsort(-np.abs(groups), axis=2, kind="stable")[:, :, :n]
        order = np.sort(order, axis=2)
        values = np.take_along_axis(groups, order, axis=2)
        return cls(
            shape=(rows, k),
            values=values.reshape(rows, -1),
            positions=order.reshape(rows, -1),
            n=n,
            m=m,
        )

    def to_dense(self) -> np.ndarray:
        rows, k = self.shape
        out = np.zeros((rows, k), dtype=np.float64)
        values = self.values.reshape(rows, k // self.m, self.n)
        positions = self.positions.reshape(rows, k // self.m, self.n)
        for g in range(k // self.m):
            base = g * self.m
            np.put_along_axis(
                out[:, base : base + self.m], positions[:, g, :], values[:, g, :], axis=1
            )
        return out
