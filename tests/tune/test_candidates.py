"""Capability metadata and static candidate pruning."""

from __future__ import annotations

import pytest

from repro.gpu.arch import get_gpu
from repro.kernels.registry import DENSE_BASELINE_LABEL, make_kernel
from repro.models.shapes import model_layers, resnet50_layers, transformer_layers
from repro.tune import build_kernel, candidate_density, default_candidates


class TestCapabilities:
    def test_every_kernel_reports_capabilities(self):
        for spec in default_candidates():
            caps = build_kernel(spec).capabilities()
            assert caps.name
            assert isinstance(caps.supports_conv, bool)

    def test_dense_kernels_are_dense(self):
        assert make_kernel("dense").capabilities().is_dense
        assert make_kernel("dense-cudacore").capabilities().is_dense
        assert not make_kernel("shfl-bw").capabilities().is_dense

    def test_cusparselt_constraints_are_declarative(self):
        caps = make_kernel("cusparselt").capabilities()
        assert caps.fixed_density == 0.5
        assert caps.requires_sparse_tensor_core
        assert caps.infeasible_reason(get_gpu("V100"), density=0.5) is not None
        assert caps.infeasible_reason(get_gpu("A100"), density=0.5) is None
        reason = caps.infeasible_reason(get_gpu("A100"), density=0.25)
        assert reason is not None and "density" in reason

    def test_arch_restricted_kernels(self):
        caps = make_kernel("tilewise").capabilities()
        assert caps.supported_archs == ("V100",)
        assert caps.infeasible_reason(get_gpu("V100"), density=0.25) is None
        assert caps.infeasible_reason(get_gpu("A100"), density=0.25) is not None

    def test_conv_constraint(self):
        caps = make_kernel("sputnik").capabilities()
        assert caps.infeasible_reason(get_gpu("V100"), kind="conv", density=0.25)
        dense = make_kernel("dense").capabilities()
        assert dense.infeasible_reason(get_gpu("V100"), kind="conv", density=1.0) is None


class TestCandidateDensity:
    def test_dense_candidates_score_at_full_density(self):
        assert candidate_density(make_kernel("dense"), 0.25) == 1.0

    def test_sparse_candidates_keep_operating_density(self):
        assert candidate_density(make_kernel("shfl-bw"), 0.25) == 0.25


class TestDefaultCandidates:
    def test_pool_covers_the_paper_lineup(self):
        labels = {spec.display_label for spec in default_candidates()}
        assert DENSE_BASELINE_LABEL in labels
        assert "Shfl-BW,V=64" in labels
        assert "Balanced 2in4" in labels

    def test_pool_order_is_deterministic(self):
        assert default_candidates() == default_candidates()

    def test_vector_sizes_parameterise_the_pool(self):
        labels = {spec.display_label for spec in default_candidates((8,))}
        assert "Shfl-BW,V=8" in labels
        assert "Shfl-BW,V=64" not in labels


class TestPruning:
    """Static pruning of the default pool: the planner drops a candidate for
    a layer exactly when its capabilities give an ``infeasible_reason``."""

    @staticmethod
    def reason(label, gpu, layer, density):
        (spec,) = [spec for spec in default_candidates() if spec.display_label == label]
        kernel = build_kernel(spec)
        return kernel.capabilities().infeasible_reason(
            get_gpu(gpu), kind=layer.kind, density=candidate_density(kernel, density)
        )

    def test_conv_layers_prune_gemm_only_kernels(self):
        layer = resnet50_layers()[1]  # a 3x3 convolution
        assert layer.kind == "conv"
        assert self.reason("Unstructured (Sputnik)", "V100", layer, 0.25)
        assert self.reason("Balanced 2in4", "V100", layer, 0.25)
        assert self.reason(DENSE_BASELINE_LABEL, "V100", layer, 0.25) is None
        assert self.reason("Shfl-BW,V=64", "V100", layer, 0.25) is None
        for spec in default_candidates():
            if self.reason(spec.display_label, "V100", layer, 0.25) is None:
                assert build_kernel(spec).supports_conv, spec.display_label

    def test_fixed_density_pruning(self):
        layer = transformer_layers()[0]
        rejected = self.reason("Balanced 2in4", "A100", layer, 0.25)
        assert rejected and "density" in rejected
        assert self.reason("Balanced 2in4", "A100", layer, 0.5) is None

    @pytest.mark.parametrize("gpu", ["T4", "A100"])
    def test_arch_pruning(self, gpu):
        layer = transformer_layers()[0]
        assert self.reason("TileWise (VW,V=128)", gpu, layer, 0.25)

    def test_dense_is_always_feasible(self):
        for model in ("transformer", "gnmt", "resnet50"):
            for gpu in ("V100", "T4", "A100"):
                for layer in model_layers(model):
                    assert self.reason(DENSE_BASELINE_LABEL, gpu, layer, 0.15) is None
