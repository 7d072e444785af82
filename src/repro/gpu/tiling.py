"""Threadblock tiling, occupancy and wave-quantisation model.

The paper's efficiency analysis (Section 3.2.2) rests on how large an output
tile a threadblock can accumulate in the register file: the larger the
``TM x TN`` output tile, the more FLOPs are performed per byte loaded.  This
module provides, element-wise over per-launch tile-field arrays:

* occupancy estimation from shared-memory and register usage,
* wave quantisation: a grid of ``num_tiles`` threadblocks executes in
  ``ceil(num_tiles / concurrent_tiles)`` waves and the last, partially filled
  wave still takes a full wave's time,
* the dense-GEMM tile heuristic of vendor libraries,
* the register-file-limited optimal tile size ``T_opt = sqrt(regfile/accum)``
  used in the Max_reuse derivation.
"""

from __future__ import annotations

import math

import numpy as np

from .arch import GPUArch
from .memory import BYTES_FP16, BYTES_FP32
from .tensorcore import ceil_div_array
from .vectorize import anytrue


def smem_bytes_grid(
    tile_m: np.ndarray,
    tile_n: np.ndarray,
    tile_k: np.ndarray,
    pipeline_stages: np.ndarray,
) -> np.ndarray:
    """Shared memory of each threadblock: one FP16 A tile plus one FP16 B
    tile per pipeline stage."""
    a_tile = tile_m * tile_k * BYTES_FP16
    b_tile = tile_k * tile_n * BYTES_FP16
    return (a_tile + b_tile) * pipeline_stages


def register_bytes_grid(
    tile_m: np.ndarray, tile_n: np.ndarray, accumulator_bytes: np.ndarray
) -> np.ndarray:
    """Register usage of each threadblock: the output-tile accumulators plus
    a flat 25 % for staging fragments and address arithmetic (a reasonable
    CUTLASS-like figure), truncated to whole bytes."""
    accumulators = tile_m * tile_n * accumulator_bytes
    return (accumulators.astype(np.float64) * 1.25).astype(np.int64)


def occupancy_grid(
    arch: GPUArch,
    *,
    tile_m: np.ndarray,
    tile_n: np.ndarray,
    tile_k: np.ndarray,
    threads: np.ndarray,
    pipeline_stages: np.ndarray,
    accumulator_bytes: np.ndarray,
) -> np.ndarray:
    """Concurrent threadblocks per SM, limited by shared memory, registers
    and the thread-count ceiling.  Always at least 1 (a tile that exceeds an
    SM's resources is treated as running alone, serialised)."""
    smem = smem_bytes_grid(tile_m, tile_n, tile_k, pipeline_stages)
    regs = register_bytes_grid(tile_m, tile_n, accumulator_bytes)
    by_smem = arch.shared_mem_per_sm // np.maximum(smem, 1)
    by_regs = arch.register_file_per_sm // np.maximum(regs, 1)
    by_threads = arch.max_threads_per_sm // threads
    return np.maximum(1, np.minimum(np.minimum(by_smem, by_regs), by_threads))


def concurrent_tiles_grid(
    arch: GPUArch,
    *,
    tile_m: np.ndarray,
    tile_n: np.ndarray,
    tile_k: np.ndarray,
    threads: np.ndarray,
    pipeline_stages: np.ndarray,
    accumulator_bytes: np.ndarray,
) -> np.ndarray:
    """Threadblocks resident across the whole chip at once."""
    return (
        occupancy_grid(
            arch,
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            threads=threads,
            pipeline_stages=pipeline_stages,
            accumulator_bytes=accumulator_bytes,
        )
        * arch.sm_count
    )


def wave_count_grid(num_tiles: np.ndarray, concurrent: np.ndarray) -> np.ndarray:
    """Waves needed to run ``num_tiles`` threadblocks, ``concurrent`` at a
    time."""
    if anytrue(num_tiles <= 0):
        raise ValueError("num_tiles must be positive")
    return ceil_div_array(num_tiles, concurrent)


def _next_pow2_grid(dim: np.ndarray) -> np.ndarray:
    """Element-wise ``1 << (max(dim, 1) - 1).bit_length()``.

    ``bit_length`` is recovered from the ``frexp`` exponent, which is exact
    for every integer a float64 can represent (the grids here are far below
    2**53).
    """
    x = np.maximum(dim, 1) - 1
    bit_length = np.frexp(x.astype(np.float64))[1]
    return np.left_shift(np.int64(1), bit_length)


def default_gemm_tile_grid(
    m: np.ndarray, n: np.ndarray, k: np.ndarray, *, min_tiles: int = 96
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick a dense-GEMM threadblock tile for every problem shape.

    Mirrors the heuristics of vendor GEMM libraries: prefer 128x128 tiles for
    large problems, but shrink the tile (M first, then N, floor 32) until the
    grid has at least ``min_tiles`` threadblocks so narrow DNN-layer shapes do
    not leave most of the chip idle.  Dimensions smaller than the tile shrink
    to the next power of two.  Returns the ``(tile_m, tile_n, tile_k)``
    arrays; the tiles run 128 threads, 2 pipeline stages and FP32
    accumulators (the :class:`~repro.gpu.simulator.LaunchBatch` defaults).
    Shrinking goes 128 -> 64 -> 32 at most, so two masked halvings per
    dimension suffice.
    """
    if anytrue(m <= 0) or anytrue(n <= 0):
        raise ValueError("problem dimensions must be positive")

    def _fit(dim: np.ndarray, preferred: int) -> np.ndarray:
        return np.where(
            dim >= preferred, preferred, np.maximum(16, _next_pow2_grid(dim))
        )

    tile_m = _fit(m, 128)
    tile_n = _fit(n, 128)
    tile_k = _fit(k, 64)

    def grid(tm: np.ndarray, tn: np.ndarray) -> np.ndarray:
        return ceil_div_array(m, tm) * ceil_div_array(n, tn)

    for _ in range(2):
        shrink = (grid(tile_m, tile_n) < min_tiles) & (tile_m > 32)
        if not anytrue(shrink):
            break
        tile_m = np.where(shrink, tile_m // 2, tile_m)
    for _ in range(2):
        shrink = (grid(tile_m, tile_n) < min_tiles) & (tile_n > 32)
        if not anytrue(shrink):
            break
        tile_n = np.where(shrink, tile_n // 2, tile_n)
    return tile_m, tile_n, tile_k


def optimal_tile_extent(arch: GPUArch, *, accumulator_bytes: int = BYTES_FP32) -> float:
    """``T_opt = sqrt(Size_regfile / accum_bytes)`` from Section 3.2.2.

    This is the square output-tile edge that maximises data reuse subject to
    the register file holding the accumulators; block/vector sizes ``V`` at or
    above this value allow a sparse kernel to reach dense-level reuse.
    """
    return math.sqrt(arch.register_file_per_sm / accumulator_bytes)
