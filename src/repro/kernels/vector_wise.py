"""Our vector-wise SpMM kernel (the ``VW`` bars of Figure 6).

cuSPARSE provides no vector-wise kernels, so the paper implements its own:
each group of ``V`` consecutive rows shares a column support, the kept columns
are stitched into dense ``V x T_K`` tiles, and tensor-core MMAs run on the
stitched tiles.  The Shfl-BW kernel (:mod:`repro.kernels.shflbw`) adds the
row-shuffle handling on top of exactly this structure, which is why the paper
reports Shfl-BW at 0.97-1.02x of vector-wise — the shuffle is free.
"""

from __future__ import annotations

import numpy as np

from ..core.pattern import PatternKind
from ..gpu.arch import GPUArch
from ..gpu.memory import BYTES_INDEX, TrafficBatch
from ..gpu.simulator import ComputeUnit, LaunchBatch
from ..gpu.tensorcore import ceil_div_array
from ..sparse.formats import VectorSparseMatrix
from ..sparse.spmm import spmm_vector_wise
from .base import (
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

__all__ = ["VectorWiseKernel"]


class VectorWiseKernel(SpMMKernel):
    """Tensor-core vector-wise SpMM with in-buffer stitching (ours)."""

    name = "vector-wise"
    pattern = PatternKind.VECTORWISE
    supports_conv = True

    compute_efficiency = 0.80
    bandwidth_efficiency = 0.85
    #: The launch description never consults the architecture.
    launch_arch_agnostic = True
    #: Stitched reduction-tile width ``T_K`` (columns gathered per main-loop
    #: step) of the timing model only; ``prepare`` picks the functional
    #: format's own panel width.
    stitch_tile_k = 32
    #: Output-tile width along N.
    tile_n = 64

    def __init__(self, vector_size: int = 32):
        if vector_size <= 0:
            raise ValueError("vector_size must be positive")
        self.vector_size = vector_size

    @property
    def label(self) -> str:
        """Label used in the paper's figures, e.g. ``VW, V=32``."""
        return f"VW,V={self.vector_size}"

    # -------------------------- functional side -------------------------- #
    def prepare(self, weight: np.ndarray, **kwargs) -> VectorSparseMatrix:
        return VectorSparseMatrix.from_dense(weight, kwargs.get("vector_size", self.vector_size))

    def run(self, prepared: VectorSparseMatrix, activations: np.ndarray) -> np.ndarray:
        return spmm_vector_wise(prepared, activations)

    # -------------------------- performance side ------------------------- #
    def metadata_bytes_grid(
        self, ms: np.ndarray, ks: np.ndarray, densities: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Column indices: one per kept column per row group."""
        v = kwargs.get("vector_size", self.vector_size)
        return ceil_div_array(ms, v) * (ks * densities) * BYTES_INDEX

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """Stitched ``V x T_K`` tensor-core tiles over each row group's kept
        columns.  Rejects cells whose ``M`` is not a multiple of ``V`` and
        densities outside ``(0, 1]``."""
        v = kwargs.get("vector_size", self.vector_size)
        ms, ns, ks = shape_arrays(shapes)
        requested = np.asarray(densities, dtype=np.float64)
        densities, errors = screen_cells(
            requested,
            [
                (
                    ms % v != 0,
                    lambda i: ValueError(f"M={int(ms[i])} is not divisible by V={v}"),
                ),
                *traffic_density_checks(requested),
            ],
        )
        tile_n = np.minimum(self.tile_n, np.maximum(16, ns))
        groups = ceil_div_array(ms, v)
        traffic = merge_traffic_grid(
            weight_traffic_grid(ms, ks, densities),
            activation_traffic_grid(
                ms, ns, ks, row_tile=v, kept_fraction=densities, row_tiles=groups
            ),
            output_traffic_grid(ms, ns),
        )
        meta = TrafficBatch(len(ms))
        meta.add(
            "metadata",
            self.metadata_bytes_grid(ms, ks, densities, vector_size=v),
            validate=False,
        )
        kept_per_group = np.maximum(1, np.round(ks * densities).astype(np.int64))
        batch = LaunchBatch(
            validate=False,
            names=[f"{self.name}-v{v}"],
            useful_flops=2.0 * ms * ns * ks * densities,
            traffic=traffic,
            meta_traffic=meta,
            tile_m=v,
            tile_n=tile_n,
            tile_k=self.stitch_tile_k,
            threads=128,
            pipeline_stages=3,
            num_tiles=groups * ceil_div_array(ns, tile_n),
            k_steps=np.maximum(1, ceil_div_array(kept_per_group, self.stitch_tile_k)),
            compute_unit=ComputeUnit.TENSOR_CORE,
            compute_efficiency=self.compute_efficiency,
            bandwidth_efficiency=self.bandwidth_efficiency,
            prefetch_metadata=True,
            meta_prefetch_steps=4,
        )
        return LaunchCells(batch, errors)
