"""Dense GEMM baselines (the cuBLAS / cuDNN stand-ins).

Two kernels:

* :class:`DenseTensorCoreGEMM` — the tensor-core dense baseline every speedup
  in the paper is measured against (cuBLAS for linear layers, cuDNN
  implicit-GEMM for convolutions),
* :class:`DenseCudaCoreGEMM` — the CUDA-core dense GEMM used as the reference
  curve of Figure 1 ("Cuda-Core" dense).
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.simulator import ComputeUnit, LaunchBatch
from ..gpu.tensorcore import ceil_div_array
from ..gpu.tiling import default_gemm_tile_grid
from ..sparse.spmm import dense_gemm
from .base import (
    LaunchCells,
    SpMMKernel,
    activation_traffic_grid,
    merge_traffic_grid,
    output_traffic_grid,
    shape_arrays,
    weight_traffic_grid,
)

__all__ = ["DenseTensorCoreGEMM", "DenseCudaCoreGEMM"]


class DenseTensorCoreGEMM(SpMMKernel):
    """Tensor-core dense GEMM (cuBLAS-like); the paper's dense baseline."""

    name = "dense-tensorcore"
    pattern = PatternKind.DENSE
    supports_conv = True

    #: Sustained fraction of peak tensor throughput for a well-tuned library
    #: GEMM on large tiles.
    compute_efficiency = 0.85
    bandwidth_efficiency = 0.85

    def prepare(self, weight: np.ndarray, **kwargs) -> np.ndarray:
        return np.asarray(weight, dtype=np.float64)

    def run(self, prepared: np.ndarray, activations: np.ndarray) -> np.ndarray:
        return dense_gemm(prepared, activations)

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """The library GEMM at every cell, whatever its density: dense
        kernels do not exploit the zeros, so they accept every cell."""
        ms, ns, ks = shape_arrays(shapes)
        tile_m, tile_n, tile_k = default_gemm_tile_grid(ms, ns, ks)
        n_tiles_n = ceil_div_array(ns, tile_n)
        num_tiles = ceil_div_array(ms, tile_m) * n_tiles_n
        traffic = merge_traffic_grid(
            weight_traffic_grid(ms, ks, 1.0, column_tiles=n_tiles_n),
            activation_traffic_grid(ms, ns, ks, row_tile=tile_m),
            output_traffic_grid(ms, ns),
        )
        # Library GEMMs fall back to split-K when the output grid is too
        # small to fill the machine (the typical case for narrow DNN layers):
        # the reduction is partitioned across extra threadblocks and partial
        # sums are reduced in a second pass through a workspace.
        split_k = np.ones_like(num_tiles)
        for _ in range(3):  # 1 -> 2 -> 4 -> 8
            grow = (num_tiles * split_k < arch.sm_count) & (split_k < 8)
            split_k = np.where(grow, split_k * 2, split_k)
        split = split_k > 1
        workspace = np.where(split, ms * ns * 4.0 * split_k, 0.0)
        traffic.add("splitk-workspace-write", workspace, is_write=True)
        traffic.add("splitk-workspace-read", workspace)
        batch = LaunchBatch(
            validate=False,
            names=[self.name],
            useful_flops=2.0 * ms * ns * ks,
            traffic=traffic,
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            num_tiles=num_tiles * split_k,
            k_steps=np.maximum(1, ceil_div_array(ceil_div_array(ks, tile_k), split_k)),
            compute_unit=ComputeUnit.TENSOR_CORE,
            compute_efficiency=self.compute_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=False,
            launches=np.where(split, 2, 1),
        )
        return LaunchCells(batch, (None,) * len(batch))


class DenseCudaCoreGEMM(SpMMKernel):
    """CUDA-core dense GEMM (no tensor cores), the Figure 1 reference curve."""

    name = "dense-cudacore"
    pattern = PatternKind.DENSE
    supports_conv = True

    # CUDA-core FP16 GEMMs sustain a markedly lower fraction of their peak
    # than tensor-core GEMMs (no MMA fragments, higher register pressure),
    # which is what puts the tensor-core dense curve of Figure 1 well above
    # the CUDA-core one.
    compute_efficiency = 0.6
    bandwidth_efficiency = 0.85
    #: The launch description never consults the architecture.
    launch_arch_agnostic = True

    def prepare(self, weight: np.ndarray, **kwargs) -> np.ndarray:
        return np.asarray(weight, dtype=np.float64)

    def run(self, prepared: np.ndarray, activations: np.ndarray) -> np.ndarray:
        return dense_gemm(prepared, activations)

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """The CUDA-core GEMM at every cell, whatever its density."""
        ms, ns, ks = shape_arrays(shapes)
        # CUDA-core GEMMs use smaller tiles (register pressure without MMA
        # fragments), which also lowers their data reuse.
        tile_m = np.minimum(64, np.maximum(16, ms))
        tile_n = np.minimum(64, np.maximum(16, ns))
        tile_k = np.minimum(32, np.maximum(8, ks))
        traffic = merge_traffic_grid(
            weight_traffic_grid(ms, ks, 1.0, column_tiles=ceil_div_array(ns, tile_n)),
            activation_traffic_grid(ms, ns, ks, row_tile=tile_m),
            output_traffic_grid(ms, ns),
        )
        batch = LaunchBatch(
            validate=False,
            names=[self.name],
            useful_flops=2.0 * ms * ns * ks,
            traffic=traffic,
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            threads=256,
            pipeline_stages=2,
            num_tiles=ceil_div_array(ms, tile_m) * ceil_div_array(ns, tile_n),
            k_steps=ceil_div_array(ks, tile_k),
            compute_unit=ComputeUnit.CUDA_CORE,
            compute_efficiency=self.compute_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=False,
        )
        return LaunchCells(batch, (None,) * len(batch))
