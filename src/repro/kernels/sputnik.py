"""Unstructured-sparsity SpMM baselines (CUDA cores, no tensor cores).

Two baselines from the paper's evaluation:

* :class:`SputnikKernel` — Gale et al.'s Sputnik, the best published
  unstructured SpMM for DNN sparsity levels; used for the "Cuda-Core Sparse"
  curve of Figure 1 and the "Unstructured" bars of Figure 6,
* :class:`CusparseCSRKernel` — the vendor cuSPARSE CSR SpMM, which needs
  > 98 % sparsity before it beats dense (Section 1).

Both are CUDA-core kernels: unstructured non-zero positions provide no dense
sub-tiles to feed tensor-core MMA instructions, and their activation reuse is
limited by the small row tile a CUDA-core kernel can afford (the
``sqrt(alpha)`` ceiling of Section 3.2.2).
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import BYTES_INDEX, TrafficBatch
from ..gpu.simulator import ComputeUnit, LaunchBatch
from ..gpu.tensorcore import ceil_div_array
from ..gpu.vectorize import anytrue
from ..sparse.formats import CSRMatrix
from ..sparse.spmm import spmm_csr
from .base import (
    LaunchCells,
    SpMMKernel,
    activation_traffic_grid,
    merge_traffic_grid,
    output_traffic_grid,
    screen_cells,
    shape_arrays,
    weight_traffic_grid,
)

__all__ = ["SputnikKernel", "CusparseCSRKernel", "unstructured_union_fraction"]


def _outside_unit_interval(density: np.ndarray) -> np.ndarray:
    """Densities that are not in ``(0, 1]`` (NaN included)."""
    return ~((density > 0.0) & (density <= 1.0))


def unstructured_union_fraction(density: np.ndarray | float, rows: int) -> np.ndarray:
    """Expected fraction of activation rows touched by ``rows`` weight rows
    with independent non-zero positions at the given density (element-wise).

    A tile of ``rows`` unstructured rows needs activation row ``j`` whenever
    *any* of them keeps column ``j``: ``1 - (1 - density) ** rows``.  This is
    what prevents unstructured tiles from reaching block-wise reuse.
    """
    density = np.asarray(density, dtype=np.float64)
    if anytrue(_outside_unit_interval(density)):
        raise ValueError("density must be in (0, 1]")
    if rows <= 0:
        raise ValueError("rows must be positive")
    return 1.0 - (1.0 - density) ** rows


class _UnstructuredKernel(SpMMKernel):
    """Shared functional/perf structure of the CSR-based baselines."""

    pattern = PatternKind.UNSTRUCTURED
    supports_conv = False

    #: Rows of the sparse matrix processed by one threadblock.
    row_tile = 8
    #: Columns of B per threadblock.
    col_tile = 64
    compute_efficiency = 0.35
    bandwidth_efficiency = 0.75
    activation_access_efficiency = 0.8
    #: The launch description never consults the architecture.
    launch_arch_agnostic = True

    def prepare(self, weight: np.ndarray, **kwargs) -> CSRMatrix:
        return CSRMatrix.from_dense(weight)

    def run(self, prepared: CSRMatrix, activations: np.ndarray) -> np.ndarray:
        return spmm_csr(prepared, activations)

    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """CSR column indices plus row pointers."""
        return ms * ks * densities * BYTES_INDEX + (ms + 1) * BYTES_INDEX

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """CUDA-core FMAs over ``row_tile``-row CSR tiles, gathering the
        activation rows any row of the tile keeps.  Rejects densities
        outside ``(0, 1]``."""
        ms, ns, ks = shape_arrays(shapes)
        requested = np.asarray(densities, dtype=np.float64)
        densities, errors = screen_cells(
            requested,
            [
                (
                    _outside_unit_interval(requested),
                    lambda _: ValueError("density must be in (0, 1]"),
                )
            ],
        )
        tile_n = np.minimum(self.col_tile, np.maximum(8, ns))
        row_tiles = ceil_div_array(ms, self.row_tile)
        traffic = merge_traffic_grid(
            weight_traffic_grid(ms, ks, densities),
            activation_traffic_grid(
                ms,
                ns,
                ks,
                row_tile=self.row_tile,
                kept_fraction=unstructured_union_fraction(densities, self.row_tile),
                access_efficiency=self.activation_access_efficiency,
                row_tiles=row_tiles,
            ),
            output_traffic_grid(ms, ns),
        )
        meta = TrafficBatch(len(ms))
        meta.add(
            "metadata", self.metadata_bytes_grid(ms, ks, densities), validate=False
        )
        batch = LaunchBatch(
            validate=False,
            names=[self.name],
            useful_flops=2.0 * ms * ns * ks * densities,
            traffic=traffic,
            meta_traffic=meta,
            tile_m=self.row_tile,
            tile_n=tile_n,
            tile_k=32,
            threads=128,
            pipeline_stages=2,
            num_tiles=row_tiles * ceil_div_array(ns, tile_n),
            k_steps=ceil_div_array(ks, 32),
            compute_unit=ComputeUnit.CUDA_CORE,
            compute_efficiency=self.compute_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=True,
            meta_prefetch_steps=2,
        )
        return LaunchCells(batch, errors)


class SputnikKernel(_UnstructuredKernel):
    """Sputnik-style unstructured SpMM, tuned for DNN-level moderate sparsity.

    The efficiency constants are calibrated so the dense-vs-sparse crossover
    points of Figure 1 land near the paper's: Sputnik overtakes the CUDA-core
    dense GEMM at roughly 65-70 % sparsity and the tensor-core dense GEMM
    only above ~90 % sparsity.
    """

    name = "sputnik"
    compute_efficiency = 0.42
    bandwidth_efficiency = 0.55
    row_tile = 16


class CusparseCSRKernel(_UnstructuredKernel):
    """cuSPARSE CSR SpMM: general-purpose, poorly suited to moderate sparsity."""

    name = "cusparse-csr"
    compute_efficiency = 0.12
    bandwidth_efficiency = 0.6
    activation_access_efficiency = 0.5
    row_tile = 4
