"""Tests for tiling, occupancy and wave quantisation."""

import numpy as np
import pytest

from repro.gpu.arch import T4, V100
from repro.gpu.memory import TrafficBatch
from repro.gpu.simulator import LaunchBatch
from repro.gpu.tiling import (
    concurrent_tiles_grid,
    default_gemm_tile_grid,
    occupancy_grid,
    optimal_tile_extent,
    smem_bytes_grid,
    wave_count_grid,
)


def tile(tile_m, tile_n, tile_k, *, threads=128, pipeline_stages=2) -> dict:
    """One threadblock tile as the per-launch fields the grid functions take."""
    return dict(
        tile_m=np.array([tile_m]),
        tile_n=np.array([tile_n]),
        tile_k=np.array([tile_k]),
        threads=np.array([threads]),
        pipeline_stages=np.array([pipeline_stages]),
        accumulator_bytes=np.array([4]),
    )


def occupancy(arch, fields: dict) -> int:
    return int(occupancy_grid(arch, **fields)[0])


def concurrent_tiles(arch, fields: dict) -> int:
    return int(concurrent_tiles_grid(arch, **fields)[0])


def wave_count(arch, fields: dict, num_tiles: int) -> int:
    return int(wave_count_grid(np.array([num_tiles]), concurrent_tiles(arch, fields))[0])


def default_gemm_tile(m, n, k, **kwargs) -> tuple[int, int, int]:
    tiles = default_gemm_tile_grid(np.array([m]), np.array([n]), np.array([k]), **kwargs)
    return tuple(int(extent[0]) for extent in tiles)


def launch(**tile_fields) -> LaunchBatch:
    """A one-launch batch with the given tile fields."""
    fields = dict(tile_m=64, tile_n=64, tile_k=32)
    fields.update(tile_fields)
    return LaunchBatch(
        names=["k"],
        useful_flops=np.array([1.0]),
        traffic=TrafficBatch(1),
        num_tiles=1,
        k_steps=1,
        **fields,
    )


class TestTileConfig:
    def test_invalid_dimensions(self):
        with pytest.raises(ValueError, match="tile dimensions"):
            launch(tile_m=0)

    def test_threads_must_be_warp_multiple(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            launch(threads=100)
        with pytest.raises(ValueError, match="pipeline_stages"):
            launch(pipeline_stages=0)

    def test_smem_scales_with_stages(self):
        one = smem_bytes_grid(*(np.array([v]) for v in (64, 64, 32, 1)))
        two = smem_bytes_grid(*(np.array([v]) for v in (64, 64, 32, 2)))
        assert two[0] == 2 * one[0]

    def test_invalid_grid(self):
        with pytest.raises(ValueError, match="problem dimensions"):
            default_gemm_tile(0, 10, 64)


class TestOccupancy:
    def test_small_tile_fits_many_blocks(self):
        assert occupancy(V100, tile(32, 32, 16, threads=64)) >= 2

    def test_huge_tile_still_runs(self):
        assert occupancy(V100, tile(256, 256, 64, pipeline_stages=3)) == 1

    def test_concurrent_tiles_scales_with_sms(self):
        fields = tile(64, 64, 32)
        assert concurrent_tiles(V100, fields) == occupancy(V100, fields) * 80
        assert concurrent_tiles(V100, fields) > concurrent_tiles(T4, fields)


class TestWaves:
    def test_one_wave_when_grid_fits(self):
        assert wave_count(V100, tile(64, 64, 32), 10) == 1

    def test_multiple_waves_for_large_grids(self):
        fields = tile(64, 64, 32)
        conc = concurrent_tiles(V100, fields)
        assert wave_count(V100, fields, conc + 1) == 2

    def test_invalid_num_tiles(self):
        with pytest.raises(ValueError):
            wave_count(V100, tile(64, 64, 32), 0)


class TestOptimalTile:
    def test_matches_regfile_formula(self):
        t_opt = optimal_tile_extent(V100)
        assert t_opt == pytest.approx((256 * 1024 / 4) ** 0.5)

    def test_default_tile_shrinks_for_small_problems(self):
        tile_m, tile_n, _ = default_gemm_tile(64, 64, 64)
        assert tile_m <= 64
        assert tile_n <= 64

    def test_default_tile_prefers_large_tiles_for_big_problems(self):
        tile_m, tile_n, _ = default_gemm_tile(8192, 8192, 8192)
        assert tile_m == 128
        assert tile_n == 128

    def test_default_tile_creates_enough_parallelism(self):
        tile_m, tile_n, _ = default_gemm_tile(2048, 128, 2048, min_tiles=96)
        grid = -(-2048 // tile_m) * -(-128 // tile_n)
        assert grid >= 96 or (tile_m == 32 and tile_n == 32)
