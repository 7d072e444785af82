"""Roofline and operation-intensity utilities (Section 3.2.2 of the paper).

The paper argues about sparse-kernel efficiency purely in terms of operation
intensity (FLOPs per byte loaded from global memory) against the machine
balance of each GPU.  These helpers expose that argument directly so the
analysis benchmarks can regenerate the paper's ``Max_reuse`` results.
"""

from __future__ import annotations

import math
from .arch import GPUArch
from .memory import BYTES_FP16, BYTES_FP32
from .tiling import optimal_tile_extent


def dense_tile_reuse(
    tile_m: int, tile_n: int, *, bytes_per_value: int = BYTES_FP16
) -> float:
    """Reuse (FLOP per byte) of a dense ``TM x TN`` output tile.

    For a K-step of size ``TK`` the tile loads ``(TM + TN) * TK`` values and
    performs ``2 * TM * TN * TK`` FLOPs, so the reuse is independent of
    ``TK``:  ``2 * TM * TN / (TM + TN)`` FLOP per value.
    """
    if tile_m <= 0 or tile_n <= 0:
        raise ValueError("tile dimensions must be positive")
    values = tile_m + tile_n
    flops = 2.0 * tile_m * tile_n
    return flops / (values * bytes_per_value)


def max_reuse_dense(arch: GPUArch, *, accumulator_bytes: int = BYTES_FP32) -> float:
    """``Reuse_dense = T_opt / 2`` FLOP per byte (Section 3.2.2).

    Derived from a square ``T_opt x T_opt`` output tile where
    ``T_opt = sqrt(Size_regfile / accumulator_bytes)``.
    """
    t_opt = optimal_tile_extent(arch, accumulator_bytes=accumulator_bytes)
    return dense_tile_reuse(int(t_opt), int(t_opt))


def max_reuse_unstructured(
    arch: GPUArch, density: float, *, accumulator_bytes: int = BYTES_FP32
) -> float:
    """``Max_reuse = sqrt(alpha) * Reuse_dense`` for unstructured / balanced
    sparsity (Section 3.2.2), where ``alpha`` is the non-zero ratio."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return math.sqrt(density) * max_reuse_dense(arch, accumulator_bytes=accumulator_bytes)


def max_reuse_blockwise(
    arch: GPUArch,
    block_size: int,
    *,
    accumulator_bytes: int = BYTES_FP32,
) -> float:
    """Reuse attainable by block-wise / vector-wise / Shfl-BW sparsity.

    If the block (vector) size ``V`` is at least ``T_opt`` the dense-tile reuse
    is fully recovered; smaller ``V`` caps the output-tile extent along M at
    ``V`` (the sparse side), while the dense side can still use ``T_opt``.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    t_opt = optimal_tile_extent(arch, accumulator_bytes=accumulator_bytes)
    tile_m = min(block_size, int(t_opt))
    tile_n = int(t_opt)
    return dense_tile_reuse(tile_m, tile_n)
