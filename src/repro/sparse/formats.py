"""Sparse-matrix storage formats used throughout the reproduction.

The paper's kernels operate on four weight-sparsity patterns (Figure 3):

* **unstructured** — arbitrary non-zero positions, stored here as CSR,
* **block-wise** — non-zeros clustered in ``V x V`` blocks (BSR),
* **vector-wise** — non-zeros clustered in ``V x 1`` column vectors within
  groups of ``V`` consecutive rows, stored as the column-stitched ``V x T``
  panels the kernel multiplies,
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

from dataclasses import dataclass

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
def _panel_width(widths: np.ndarray) -> int:
    """Panel width for groups of ``widths`` kept columns when the caller
    names none: the widest group (one panel per group) or the ceil-mean
    width (padding bounded by one tile per group), whichever pads fewer
    lanes.  Ties go to the widest, so near-uniform groups never spill their
    last columns into a padded panel.
    """
    widest = int(widths.max(initial=1))
    total = int(widths.sum())
    if total == 0:
        return widest
    mean = -(-total // len(widths))
    mean_lanes = int((-(-widths // mean)).sum()) * mean
    return widest if widest * np.count_nonzero(widths) <= mean_lanes else mean


@dataclass
class VectorSparseMatrix:
    """Vector-wise sparse matrix (``V x 1`` pruning granularity).

    Rows are partitioned into groups of ``V`` *consecutive* rows.  Within a
    group, a column is either fully kept (all ``V`` values stored) or fully
    pruned.  Each group's kept columns, in ascending order, are stitched
    into dense ``V x T`` panels, the tiles the kernel's tensor-core loop
    multiplies (Figure 4 step (b)); a group's last panel is padded with
    zero lanes.  The panels are the storage: every kept value is held once.

    Attributes
    ----------
    shape:
        Dense shape ``(M, K)``; ``M`` must be a multiple of ``vector_size``.
    vector_size:
        Group height ``V``.
    values:
        ``(num_panels, V, T)`` panel values, zero on padded lanes.
    columns:
        ``(num_panels, T)`` source column of each lane, ``-1`` for padding;
        no column repeats within a group.
    group_indptr:
        ``(M / V + 1,)`` pointer array: the panels of group ``g`` are
        ``values[group_indptr[g]:group_indptr[g + 1]]`` (a group with no
        kept column owns none).
    """

    shape: tuple[int, int]
    vector_size: int
    values: np.ndarray
    columns: np.ndarray
    group_indptr: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.columns = np.asarray(self.columns, dtype=np.int64)
        self.group_indptr = np.asarray(self.group_indptr, dtype=np.int64)
        m, k = self.shape
        v = self.vector_size
        if v <= 0:
            raise ValueError("vector_size must be positive")
        if m % v:
            raise ValueError(f"M={m} is not divisible by V={v}")
        if self.values.ndim != 3 or self.values.shape[1] != v or self.values.shape[2] <= 0:
            raise ValueError("values must have shape (num_panels, V, T) with T > 0")
        if self.columns.shape != (self.num_panels, self.tile_cols):
            raise ValueError("columns must have shape (num_panels, T)")
        indptr = self.group_indptr
        if (
            len(indptr) != m // v + 1
            or indptr[0] != 0
            or indptr[-1] != self.num_panels
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError("group_indptr must rise from 0 to num_panels over M / V groups")
        if self.columns.size and (self.columns.min() < -1 or self.columns.max() >= k):
            raise ValueError("column indices out of range")
        padded = self.columns < 0
        if np.any(self.values.transpose(0, 2, 1)[padded]):
            raise ValueError("padded lanes must hold zero values")
        keys = (self._panel_groups()[:, None] * k + self.columns)[~padded]
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate column indices within a group")

    @property
    def num_groups(self) -> int:
        return self.shape[0] // self.vector_size

    @property
    def num_panels(self) -> int:
        return int(self.values.shape[0])

    @property
    def tile_cols(self) -> int:
        """Stitched columns per panel (the kernel's ``T_K``)."""
        return int(self.values.shape[2])

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.columns >= 0)) * self.vector_size

    @property
    def density(self) -> float:
        m, k = self.shape
        return self.nnz / float(m * k) if m * k else 0.0

    def _panel_groups(self) -> np.ndarray:
        """Row group of each panel."""
        return np.repeat(np.arange(self.num_groups), np.diff(self.group_indptr))

    def group(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Kept columns of group ``g`` and their ``(V, n_cols)`` values, in
        stitched order, padding dropped."""
        start, end = self.group_indptr[g], self.group_indptr[g + 1]
        columns = self.columns[start:end].reshape(-1)
        values = self.values[start:end].transpose(1, 0, 2).reshape(self.vector_size, -1)
        kept = columns >= 0
        return columns[kept], values[:, kept]

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, vector_size: int, tile_cols: int | None = None
    ) -> "VectorSparseMatrix":
        """Compress a dense matrix whose sparsity already follows the pattern.

        A column of a row group is kept iff any of its ``V`` values is
        non-zero; the stored panel keeps whatever values the dense matrix had
        (including zeros inside a kept vector).  ``tile_cols`` is the panel
        width ``T``; by default :func:`_panel_width` picks it from the
        groups' widths.
        """
        dense = _as_2d_float(dense)
        m, k = dense.shape
        v = vector_size
        if v <= 0:
            raise ValueError("vector_size must be positive")
        if m % v:
            raise ValueError(f"M={m} is not divisible by V={v}")
        groups = dense.reshape(m // v, v, k)
        group_of, cols = np.nonzero(groups.any(axis=1))
        widths = np.bincount(group_of, minlength=m // v)
        tile = _panel_width(widths) if tile_cols is None else tile_cols
        if tile <= 0:
            raise ValueError("tile_cols must be positive")
        group_indptr = np.zeros(m // v + 1, dtype=np.int64)
        np.cumsum(-(-widths // tile), out=group_indptr[1:])
        # Each kept column's rank within its group names its panel and lane.
        rank = np.arange(len(cols)) - np.repeat(np.cumsum(widths) - widths, widths)
        panel = group_indptr[group_of] + rank // tile
        lane = rank % tile
        values = np.zeros((group_indptr[-1], v, tile), dtype=np.float64)
        columns = np.full((group_indptr[-1], tile), -1, dtype=np.int64)
        columns[panel, lane] = cols
        values[panel, :, lane] = groups[group_of, :, cols]
        return cls(
            shape=(m, k),
            vector_size=v,
            values=values,
            columns=columns,
            group_indptr=group_indptr,
        )

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix (one fancy-indexed lane scatter)."""
        m, k = self.shape
        v = self.vector_size
        out = np.zeros((m // v, v, k), dtype=np.float64)
        panel, lane = np.nonzero(self.columns >= 0)
        group_of = self._panel_groups()[panel]
        out[group_of, :, self.columns[panel, lane]] = self.values[panel, :, lane]
        return out.reshape(m, k)


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
        if not np.array_equal(np.sort(self.row_indices), np.arange(m)):
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
        row_indices: np.ndarray | None = None,
        tile_cols: int | None = None,
    ) -> "ShflBWMatrix":
        """Compress a pruned dense matrix given the row permutation to apply.

        This is the offline processing of the paper's kernel pipeline
        (Figure 4 step (a)): the permuted matrix is stored once, in
        vector-wise form, together with the original row indices.  That form
        is already column-stitched: each ``V``-row group's kept columns are
        packed into dense ``V x T`` panels, the tiles the kernel stitches in
        shared memory at run time (step (b)) and hands to the tensor-core MMA
        loop, so the SpMM reads the stored panels directly and no second copy
        is built.

        ``row_indices`` lists, in permuted order, which original rows form
        each consecutive group of ``V`` rows: the permutation the pattern
        search discovered, or the identity if omitted (Shfl-BW then
        degenerates to vector-wise sparsity).  ``tile_cols`` is the panel
        width of :meth:`VectorSparseMatrix.from_dense`.
        """
        dense = _as_2d_float(dense)
        if row_indices is None:
            row_indices = np.arange(dense.shape[0], dtype=np.int64)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        permuted = dense[row_indices, :]
        vec = VectorSparseMatrix.from_dense(permuted, vector_size, tile_cols)
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
