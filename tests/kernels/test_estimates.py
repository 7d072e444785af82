"""Behavioural tests of the kernel performance estimates.

These encode the paper's qualitative claims: how speedups scale with
sparsity, vector size and GPU, and which baselines fall where.
"""

import pytest

from repro.eval.runner import KernelSpec, SweepRunner, SweepSpec
from repro.eval.speedup import PAPER_SPARSITIES
from repro.gpu.arch import get_gpu
from repro.kernels.base import GEMMShape, KernelNotApplicableError, conv_to_gemm_shape
from repro.kernels.registry import available_kernels, make_kernel, paper_baseline_specs
from repro.sparse.spconv import Conv2dSpec

SHAPE = GEMMShape(m=2048, n=128, k=2048)
V100 = get_gpu("V100")
T4 = get_gpu("T4")
A100 = get_gpu("A100")


def time_of(name, arch, density, **kwargs):
    return make_kernel(name, **kwargs).estimate(arch, SHAPE, density).total_time_s


def whole_model_seconds(gpu, model, sparsity, *kernels):
    """Whole-model time of each kernel line: one timing cell each."""
    spec = SweepSpec(
        kernels=kernels,
        gpus=(gpu,),
        sparsities=(sparsity,),
        models=(model,),
        dense_baseline=None,
    )
    records = SweepRunner().run(spec).records
    assert all(record.ok for record in records)
    return [record.time_s for record in records]


class TestGEMMShape:
    def test_flops(self):
        assert GEMMShape(2, 3, 4).flops == 48

    def test_invalid(self):
        with pytest.raises(ValueError):
            GEMMShape(0, 1, 1)

    def test_conv_to_gemm(self):
        spec = Conv2dSpec(64, 128, 3, padding=1)
        shape = conv_to_gemm_shape(spec, batch=8, height=14, width=14)
        assert shape.m == 128
        assert shape.k == 64 * 9
        assert shape.n == 8 * 14 * 14


class TestSpeedupTrends:
    def test_shflbw_speedup_grows_with_sparsity(self):
        dense = time_of("dense", V100, 1.0)
        times = [time_of("shfl-bw", V100, d, vector_size=64) for d in (0.5, 0.25, 0.15, 0.05)]
        speedups = [dense / t for t in times]
        assert speedups == sorted(speedups)

    def test_shflbw_beats_dense_at_75_percent(self):
        for arch in (V100, T4, A100):
            dense = make_kernel("dense").estimate(arch, SHAPE, 1.0).total_time_s
            sparse = make_kernel("shfl-bw", vector_size=64).estimate(arch, SHAPE, 0.25).total_time_s
            assert dense / sparse > 1.5

    def test_unstructured_below_dense_even_at_95_percent(self):
        # Figure 1 / Figure 6: unstructured sparsity cannot exceed the
        # tensor-core dense baseline at 95 % sparsity.
        dense = time_of("dense", V100, 1.0)
        sputnik = time_of("sputnik", V100, 0.05)
        assert dense / sputnik < 1.0

    def test_unstructured_beats_cuda_core_dense_at_high_sparsity(self):
        dense_cc = time_of("dense-cudacore", V100, 1.0)
        assert time_of("sputnik", V100, 0.1) < dense_cc

    def test_shflbw_matches_vector_wise(self):
        # Section 6.2: row shuffling costs 0.97-1.02x of vector-wise.
        for arch in (V100, T4, A100):
            for density in (0.25, 0.15):
                vw = make_kernel("vector-wise", vector_size=64).estimate(arch, SHAPE, density)
                sb = make_kernel("shfl-bw", vector_size=64).estimate(arch, SHAPE, density)
                ratio = vw.total_time_s / sb.total_time_s
                assert 0.95 <= ratio <= 1.05

    def test_larger_v_no_slower_on_t4(self):
        small = time_of("shfl-bw", T4, 0.25, vector_size=32)
        large = time_of("shfl-bw", T4, 0.25, vector_size=64)
        assert large <= small * 1.05

    def test_vectorsparse_slower_than_ours(self):
        # Section 6.2: V=8 limits data reuse.
        ours = time_of("shfl-bw", V100, 0.25, vector_size=32)
        theirs = time_of("vectorsparse", V100, 0.25)
        assert theirs > ours

    def test_tilewise_below_dense(self):
        dense = time_of("dense", V100, 1.0)
        tile = time_of("tilewise", V100, 0.25)
        assert dense / tile < 1.0

    def test_balanced_small_speedup_on_a100(self):
        dense = make_kernel("dense").estimate(A100, SHAPE, 1.0).total_time_s
        balanced = make_kernel("cusparselt").estimate(A100, SHAPE, 0.5).total_time_s
        assert 1.0 < dense / balanced < 2.0

    def test_balanced_rejected_off_a100_or_off_density(self):
        kernel = make_kernel("cusparselt")
        with pytest.raises(KernelNotApplicableError):
            kernel.estimate(V100, SHAPE, 0.5)
        with pytest.raises(KernelNotApplicableError):
            kernel.estimate(A100, SHAPE, 0.25)

    def test_bsr_requires_divisible_shape(self):
        kernel = make_kernel("cusparse-bsr", block_size=32)
        with pytest.raises(ValueError):
            kernel.estimate(V100, GEMMShape(m=100, n=64, k=128), 0.5)


class TestAblations:
    """The kernel-design ablations of Sections 4.2 and 4.4, whole-model."""

    @staticmethod
    def prefetch_gain(sparsity: float) -> float:
        """No-prefetch over prefetch time of Shfl-BW V=32 on GNMT, T4."""
        with_prefetch, without = whole_model_seconds(
            "T4",
            "gnmt",
            sparsity,
            KernelSpec("shfl-bw", {"vector_size": 32, "prefetch_metadata": True}),
            KernelSpec("shfl-bw", {"vector_size": 32, "prefetch_metadata": False}),
        )
        return without / with_prefetch

    def test_prefetch_never_slower(self):
        for sparsity in PAPER_SPARSITIES:
            assert self.prefetch_gain(sparsity) >= 1 / 1.001

    def test_prefetch_matters_more_at_high_sparsity(self):
        # Metadata is a larger share of the traffic when weights are very
        # sparse, so prefetching gains more there.
        assert self.prefetch_gain(0.95) >= self.prefetch_gain(0.5) * 0.999

    def test_fused_write_back_makes_the_shuffle_nearly_free(self):
        vector_wise, fused, separate = whole_model_seconds(
            "V100",
            "transformer",
            0.75,
            KernelSpec("vector-wise", {"vector_size": 64}),
            KernelSpec("shfl-bw", {"vector_size": 64, "reordered_write_back": True}),
            KernelSpec("shfl-bw", {"vector_size": 64, "reordered_write_back": False}),
        )
        assert 0.97 <= fused / vector_wise <= 1.05
        # A separate permutation pass over the output costs measurably more.
        assert separate > fused * 1.03


class TestMetadata:
    def test_dense_kernel_has_no_metadata(self):
        assert make_kernel("dense").metadata_bytes(SHAPE, 1.0) == 0.0

    def test_shflbw_metadata_includes_row_indices(self):
        vw = make_kernel("vector-wise", vector_size=32).metadata_bytes(SHAPE, 0.25, vector_size=32)
        sb = make_kernel("shfl-bw", vector_size=32).metadata_bytes(SHAPE, 0.25, vector_size=32)
        assert sb == pytest.approx(vw + SHAPE.m * 4)

    def test_sparse_metadata_scales_with_density(self):
        kernel = make_kernel("sputnik")
        assert kernel.metadata_bytes(SHAPE, 0.5) > kernel.metadata_bytes(SHAPE, 0.1)


class TestRegistry:
    def test_all_registered_names_construct(self):
        for name in available_kernels():
            assert make_kernel(name) is not None

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            make_kernel("warp-speed")

    def test_paper_baselines_lineup(self):
        lineup = paper_baseline_specs((32, 64))
        assert "Shfl-BW,V=32" in lineup
        assert "Shfl-BW,V=64" in lineup
        assert "Balanced 2in4" in lineup
        assert "TileWise (VW,V=128)" in lineup

    def test_conv_estimate_requires_support(self):
        spec = Conv2dSpec(64, 128, 3, padding=1)
        dense = make_kernel("dense")
        timing = dense.estimate_conv(A100, spec, 1.0, batch=8, height=14, width=14)
        assert timing.total_time_s > 0
        with pytest.raises(KernelNotApplicableError):
            make_kernel("sputnik").estimate_conv(A100, spec, 0.25, batch=8, height=14, width=14)
