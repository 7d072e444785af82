"""Block-wise (BSR) SpMM baseline — the cuSPARSE block-sparse kernel.

Block-wise sparsity is the most computation-friendly pattern: every stored
``V x V`` block is dense, so the kernel runs tensor-core MMAs on dense tiles.
The paper observes, however, that the vendor implementation shows *unstable*
performance across GPUs and block sizes (Section 6.2: Shfl-BW is on average
2.88x faster than cuSPARSE BSR on T4 at V=64, but 0.83x — i.e. slower — on
V100 at V=32).  We model that with an efficiency table keyed by architecture
and block size, reflecting which configurations the vendor library has tuned
kernels for.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import BYTES_INDEX, TrafficBatch
from ..gpu.simulator import ComputeUnit, LaunchBatch
from ..gpu.tensorcore import ceil_div_array
from ..sparse.formats import BlockSparseMatrix
from ..sparse.spmm import spmm_block
from .base import (
    GEMMShape,
    LaunchCells,
    SpMMKernel,
    activation_traffic_grid,
    merge_traffic_grid,
    output_traffic_grid,
    screen_cells,
    shape_arrays,
    traffic_density_checks,
    weight_traffic_grid,
)

__all__ = ["CusparseBSRKernel"]


class CusparseBSRKernel(SpMMKernel):
    """cuSPARSE block-wise SpMM (``V x V`` blocks on tensor cores)."""

    name = "cusparse-bsr"
    pattern = PatternKind.BLOCKWISE
    supports_conv = False

    bandwidth_efficiency = 0.75

    #: Sustained tensor-core efficiency by (architecture, block size).  The
    #: vendor kernels are well tuned for small blocks on Volta but degrade on
    #: larger blocks and on Turing/Ampere, which is the "unstable performance"
    #: the paper reports.  Unlisted combinations fall back to ``0.35``.
    efficiency_table: ClassVar[dict[tuple[str, int], float]] = {
        ("V100", 16): 0.70,
        ("V100", 32): 0.80,
        ("V100", 64): 0.45,
        ("T4", 16): 0.30,
        ("T4", 32): 0.35,
        ("T4", 64): 0.22,
        ("A100", 16): 0.45,
        ("A100", 32): 0.55,
        ("A100", 64): 0.40,
    }
    default_efficiency = 0.35

    def __init__(self, block_size: int = 32):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size

    @property
    def label(self) -> str:
        """Label used in the paper's figures, e.g. ``BW, V=32``."""
        return f"BW,V={self.block_size}"

    def prepare(self, weight: np.ndarray, **kwargs) -> BlockSparseMatrix:
        return BlockSparseMatrix.from_dense(weight, kwargs.get("block_size", self.block_size))

    def run(self, prepared: BlockSparseMatrix, activations: np.ndarray) -> np.ndarray:
        return spmm_block(prepared, activations)

    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """BSR block-column indices of the kept blocks plus block-row
        pointers."""
        v = kwargs.get("block_size", self.block_size)
        block_rows = ceil_div_array(ms, v)
        return (
            block_rows * ceil_div_array(ks, v) * densities * BYTES_INDEX
            + (block_rows + 1) * BYTES_INDEX
        )

    def _efficiency(self, arch: GPUArch, block_size: int) -> float:
        return self.efficiency_table.get((arch.name, block_size), self.default_efficiency)

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """Dense ``V x V`` blocks on tensor cores at the vendor library's
        (architecture, block size) efficiency, plus its separate setup pass.
        Rejects cells whose ``M`` or ``K`` is not a multiple of ``V`` and
        densities outside ``(0, 1]``."""
        v = kwargs.get("block_size", self.block_size)
        ms, ns, ks = shape_arrays(shapes)
        requested = np.asarray(densities, dtype=np.float64)

        def ragged(i: int) -> ValueError:
            shape = GEMMShape(int(ms[i]), int(ns[i]), int(ks[i]))
            return ValueError(f"GEMM shape {shape} is not divisible by block size {v}")

        densities, errors = screen_cells(
            requested,
            [
                ((ms % v != 0) | (ks % v != 0), ragged),
                *traffic_density_checks(requested),
            ],
        )
        tile_n = np.minimum(64, np.maximum(16, ns))
        block_rows = ceil_div_array(ms, v)
        traffic = merge_traffic_grid(
            weight_traffic_grid(ms, ks, densities),
            activation_traffic_grid(
                ms, ns, ks, row_tile=v, kept_fraction=densities, row_tiles=block_rows
            ),
            output_traffic_grid(ms, ns),
        )
        meta = TrafficBatch(len(ms))
        meta.add(
            "metadata",
            self.metadata_bytes_grid(ms, ks, densities, block_size=v),
            validate=False,
        )
        batch = LaunchBatch(
            validate=False,
            names=[f"{self.name}-v{v}"],
            useful_flops=2.0 * ms * ns * ks * densities,
            traffic=traffic,
            meta_traffic=meta,
            tile_m=v,
            tile_n=tile_n,
            tile_k=v,
            threads=128,
            pipeline_stages=2,
            num_tiles=block_rows * ceil_div_array(ns, tile_n),
            k_steps=np.maximum(1, np.round(ks * densities / v).astype(np.int64)),
            compute_unit=ComputeUnit.TENSOR_CORE,
            compute_efficiency=self._efficiency(arch, v),
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=False,
            launches=2,  # the library performs a separate analysis/setup pass
        )
        return LaunchCells(batch, errors)
