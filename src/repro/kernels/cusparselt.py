"""Balanced 2:4 SpMM baseline (cuSPARSELt on A100 sparse tensor cores).

The A100 sparse tensor core doubles the MMA rate for matrices pruned to the
2-in-4 balanced pattern.  The paper highlights two limitations (Sections 1 and
6.2): the sparsity level is fixed at 50 %, and the kernel remains memory bound
because the dense activation operand is loaded in full before the effective
operands are selected — so the measured speedup is only 1.07-1.16x on A100.
Architectures without sparse tensor cores gain no compute benefit at all.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import TrafficBatch
from ..gpu.simulator import ComputeUnit, LaunchBatch
from ..gpu.tensorcore import ceil_div_array
from ..gpu.tiling import default_gemm_tile_grid
from ..sparse.formats import Balanced24Matrix
from ..sparse.spmm import spmm_balanced
from .base import (
    KernelNotApplicableError,
    LaunchCells,
    SpMMKernel,
    activation_traffic_grid,
    merge_traffic_grid,
    output_traffic_grid,
    screen_cells,
    shape_arrays,
    weight_traffic_grid,
)

__all__ = ["CusparseLtKernel"]


class CusparseLtKernel(SpMMKernel):
    """cuSPARSELt balanced 2:4 SpMM."""

    name = "cusparselt-2in4"
    pattern = PatternKind.BALANCED
    supports_conv = False
    requires_sparse_tensor_core = True

    compute_efficiency = 0.80
    bandwidth_efficiency = 0.85

    #: The pattern keeps exactly 2 of every 4 values.
    fixed_density = 0.5
    #: Metadata is a 2-bit position index per kept value.
    metadata_bits_per_kept = 2

    def prepare(self, weight: np.ndarray, **kwargs) -> Balanced24Matrix:
        return Balanced24Matrix.from_dense(weight)

    def run(self, prepared: Balanced24Matrix, activations: np.ndarray) -> np.ndarray:
        return spmm_balanced(prepared, activations)

    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """A 2-bit position index per kept value (the pattern fixes the
        density, so the requested one does not matter)."""
        return ms * ks * self.fixed_density * self.metadata_bits_per_kept / 8.0

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """The 2:4 compressed weight on sparse tensor cores.  Rejects NaN
        densities, any density but the balanced 0.5, and GPUs without sparse
        tensor cores, in that order."""
        requested = np.asarray(densities, dtype=np.float64)
        no_sparse_cores = KernelNotApplicableError(
            f"{arch.name} has no sparse tensor cores; cuSPARSELt 2:4 SpMM "
            "is only evaluated on A100 in the paper"
        )
        _, errors = screen_cells(
            requested,
            [
                (np.isnan(requested), lambda _: ValueError("density must be in (0, 1]")),
                (
                    np.abs(requested - self.fixed_density) > 1e-9,
                    lambda i: KernelNotApplicableError(
                        "balanced 2:4 sparsity only supports density "
                        f"{self.fixed_density}, got {float(requested[i])}"
                    ),
                ),
                (not arch.supports_sparse_tensor_core, lambda _: no_sparse_cores),
            ],
        )
        ms, ns, ks = shape_arrays(shapes)
        tile_m, tile_n, tile_k = default_gemm_tile_grid(ms, ns, ks)
        traffic = merge_traffic_grid(
            # Compressed weight values (half the dense size).
            weight_traffic_grid(
                ms,
                ks,
                self.fixed_density,
                column_tiles=ceil_div_array(ns, tile_n),
            ),
            # The dense activation operand is loaded in full; operand
            # selection happens after the load (the memory-bound issue the
            # paper points out).
            activation_traffic_grid(ms, ns, ks, row_tile=tile_m, kept_fraction=1.0),
            output_traffic_grid(ms, ns),
        )
        meta = TrafficBatch(len(ms))
        meta.add("metadata", self.metadata_bytes_grid(ms, ks, requested))
        batch = LaunchBatch(
            validate=False,
            names=[self.name],
            useful_flops=2.0 * ms * ns * ks * self.fixed_density,
            traffic=traffic,
            meta_traffic=meta,
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            num_tiles=ceil_div_array(ms, tile_m) * ceil_div_array(ns, tile_n),
            k_steps=ceil_div_array(ks, tile_k),
            compute_unit=ComputeUnit.SPARSE_TENSOR_CORE,
            compute_efficiency=self.compute_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=True,
            meta_prefetch_steps=4,
        )
        return LaunchCells(batch, errors)
