"""The Shfl-BW SpMM and convolution kernels (the paper's contribution).

The kernel executes exactly the vector-wise pipeline — stitched tensor-core
tiles over the kept columns of each ``V``-row group — with two additions that
make the *shuffled* pattern free at runtime (Section 4):

* **reordered write-back** (Section 4.2): the weight matrix is stored in its
  permuted, vector-wise form; the original row indices ride along as metadata
  and the output tile is scattered straight to the original rows at the end of
  the kernel.  Cost: ``M`` extra index loads for the whole kernel (buffered in
  shared memory) and an indexed store — negligible, which is why the paper
  measures Shfl-BW at 0.97-1.02x of plain vector-wise.
* **metadata prefetching** (Section 4.4): column indices for
  ``MetaPrefetchStage`` future tiles are loaded in bulk so the in-buffer
  stitching never stalls on the index stream.  The ``prefetch_metadata`` knob
  exposes the ablation.

The convolution variant lowers a pruned convolution onto the same kernel with
the implicit-GEMM transformation (Section 4.1).
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import BYTES_INDEX
from ..sparse.formats import ShflBWMatrix
from ..sparse.spconv import Conv2dSpec, conv2d_sparse
from ..sparse.spmm import spmm_shflbw
from .base import LaunchCells, shape_arrays
from .vector_wise import VectorWiseKernel

__all__ = ["ShflBWKernel", "ShflBWConvKernel"]


class ShflBWKernel(VectorWiseKernel):
    """Tensor-core SpMM for the Shfl-BW pattern."""

    name = "shfl-bw"
    pattern = PatternKind.SHFLBW
    supports_conv = True

    compute_efficiency = 0.80
    bandwidth_efficiency = 0.85

    def __init__(
        self,
        vector_size: int = 32,
        *,
        prefetch_metadata: bool = True,
        meta_prefetch_steps: int = 4,
        reordered_write_back: bool = True,
    ):
        super().__init__(vector_size=vector_size)
        self.prefetch_metadata = prefetch_metadata
        self.meta_prefetch_steps = meta_prefetch_steps
        self.reordered_write_back = reordered_write_back

    @property
    def label(self) -> str:
        return f"Shfl-BW,V={self.vector_size}"

    # -------------------------- functional side -------------------------- #
    def prepare(self, weight: np.ndarray, **kwargs) -> ShflBWMatrix:
        """Compress a pruned weight matrix into the Shfl-BW format.

        ``row_indices`` (the witness permutation from the pattern search)
        should be passed whenever available; without it the kernel still works
        but only sees the degenerate vector-wise grouping.
        """
        vector_size = kwargs.get("vector_size", self.vector_size)
        row_indices = kwargs.get("row_indices")
        return ShflBWMatrix.from_dense(weight, vector_size, row_indices)

    def run(self, prepared: ShflBWMatrix, activations: np.ndarray) -> np.ndarray:
        return spmm_shflbw(prepared, activations)

    # -------------------------- performance side ------------------------- #
    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Column indices (as vector-wise) plus the row-shuffle indices the
        reordered write-back consumes."""
        column_meta = super().metadata_bytes_grid(ms, ks, densities, **kwargs)
        row_meta = ms * BYTES_INDEX if self.reordered_write_back else 0.0
        return column_meta + row_meta

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """The vector-wise launches with the Shfl-BW metadata stream (see
        :meth:`metadata_bytes_grid`), metadata prefetch and write-back."""
        cells = super().build_launch_batch(arch, shapes, densities, **kwargs)
        batch = cells.batch
        batch.prefetch_metadata = np.broadcast_to(
            np.bool_(self.prefetch_metadata), (len(batch),)
        )
        batch.meta_prefetch_steps = np.broadcast_to(
            np.int64(self.meta_prefetch_steps), (len(batch),)
        )
        if not self.reordered_write_back:
            # Ablation: without the fused write-back the kernel writes the
            # permuted output and a second pass scatters it to the original
            # row order — one extra launch plus an extra read+write of C.
            ms, ns, _ = shape_arrays(shapes)
            batch.launches = batch.launches + 1
            batch.traffic.add("output-reorder-read", ms * ns * 2)
            batch.traffic.add("output-reorder-write", ms * ns * 2, is_write=True)
        return cells


class ShflBWConvKernel(ShflBWKernel):
    """Implicit-GEMM 2-D convolution with Shfl-BW pruned weights."""

    name = "shfl-bw-conv"

    def run_conv(
        self,
        prepared: ShflBWMatrix,
        inputs: np.ndarray,
        spec: Conv2dSpec,
    ) -> np.ndarray:
        """Functional sparse convolution (NCHW input)."""
        return conv2d_sparse(inputs, prepared, spec)

    def conv_matmul(
        self,
        weight: np.ndarray,
        inputs: np.ndarray,
        spec: Conv2dSpec,
        *,
        row_indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Prune-format-compress + run a convolution in one call.

        ``weight`` is the pruned OIHW tensor; it is reshaped to the implicit
        GEMM layout before compression.
        """
        weight = np.asarray(weight, dtype=np.float64)
        gemm_weight = weight.reshape(weight.shape[0], -1)
        prepared = self.prepare(gemm_weight, row_indices=row_indices)
        return self.run_conv(prepared, inputs, spec)
