"""Tests for the GPU architecture registry."""

import pytest

from repro.gpu.arch import (
    A100,
    T4,
    V100,
    MMAShape,
    available_gpus,
    get_gpu,
)


class TestMMAShape:
    def test_flops_counts_macs_as_two_ops(self):
        assert MMAShape(16, 8, 16).flops == 2 * 16 * 8 * 16

    def test_str_contains_dims(self):
        assert str(MMAShape(16, 8, 16)) == "m16n8k16"


class TestRegistry:
    def test_available_gpus_contains_paper_gpus(self):
        assert {"A100", "T4", "V100"} <= set(available_gpus())

    def test_get_gpu_case_insensitive(self):
        assert get_gpu("v100") is V100
        assert get_gpu("T4") is T4

    def test_get_gpu_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("H100")


class TestPaperSpecs:
    def test_a100_has_sparse_tensor_cores(self):
        assert A100.supports_sparse_tensor_core
        assert not V100.supports_sparse_tensor_core
        assert not T4.supports_sparse_tensor_core

    def test_tensor_core_peak_exceeds_cuda_core_peak(self):
        for arch in (V100, T4, A100):
            assert arch.tensor_flops > 3 * arch.cuda_core_flops

    def test_a100_is_fastest(self):
        assert A100.tensor_flops > V100.tensor_flops > T4.tensor_flops
        assert A100.dram_bandwidth > V100.dram_bandwidth > T4.dram_bandwidth

    def test_a100_needs_about_63_macs_per_value(self):
        # Section 2.1: "one needs to perform 63 MACs on each loaded value".
        assert 50 <= A100.macs_per_value_for_peak <= 80

    def test_compute_to_bandwidth_positive(self):
        for arch in (V100, T4, A100):
            assert arch.compute_to_bandwidth > 0

    def test_per_sm_throughput(self):
        assert V100.tensor_flops_per_sm == pytest.approx(V100.tensor_flops / 80)
        assert V100.cuda_core_flops_per_sm == pytest.approx(V100.cuda_core_flops / 80)

    def test_with_overrides_does_not_mutate(self):
        modified = V100.with_overrides(sm_count=100)
        assert modified.sm_count == 100
        assert V100.sm_count == 80
