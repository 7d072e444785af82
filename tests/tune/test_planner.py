"""The planner is exactly the brute-force argmin of the timing model."""

from __future__ import annotations

import pytest

from repro.eval.runner import KernelSpec
from repro.eval.speedup import FIGURE1_DENSITIES, PAPER_SPARSITIES
from repro.gpu.arch import get_gpu
from repro.kernels.base import KernelNotApplicableError
from repro.models.shapes import model_layers
from repro.tune import (
    Autotuner,
    build_kernel,
    candidate_density,
    compare_with_single_kernels,
    default_candidates,
    gemm_layer,
)

#: The Figure 1 GEMM problem.
FIGURE1_GEMM = (2048, 128, 2048)


def layer_seconds(kernel, arch, layer, density):
    """One layer occurrence on the scalar estimates: ``estimate_conv`` for
    convolutions, ``estimate`` for GEMMs."""
    if layer.kind == "conv":
        return kernel.estimate_conv(
            arch, layer.conv, density, batch=layer.batch, height=layer.height, width=layer.width
        ).total_time_s
    return kernel.estimate(arch, layer.gemm, density).total_time_s


def brute_force_best(candidates, arch, layer, density):
    """Reference argmin: try every candidate on the timing model, mirroring
    the sweep runner's applicability semantics (``supported_archs`` checked
    up front, estimate-time rejections treated as infeasible)."""
    best = None
    for spec in candidates:
        kernel = build_kernel(spec)
        if kernel.supported_archs is not None and arch.name not in kernel.supported_archs:
            continue
        try:
            time_s = layer_seconds(kernel, arch, layer, candidate_density(kernel, density))
        except (KernelNotApplicableError, ValueError):
            continue
        if best is None or time_s < best[1]:
            best = (spec.display_label, time_s)
    return best


class TestFigure1GridArgmin:
    @pytest.mark.parametrize("gpu", ["V100", "T4", "A100"])
    @pytest.mark.parametrize("density", FIGURE1_DENSITIES)
    def test_plan_matches_brute_force(self, gpu, density):
        """On every Figure 1 grid cell the tuner selects the same kernel as
        brute-force minimisation of the timing model."""
        sparsity = 1.0 - density
        tuner = Autotuner()
        plan = tuner.plan_gemm(FIGURE1_GEMM, gpu, sparsity)
        (assignment,) = plan.assignments
        label, time_s = brute_force_best(
            tuner.candidates, get_gpu(gpu), gemm_layer(FIGURE1_GEMM), density
        )
        assert assignment.label == label
        assert assignment.time_s == pytest.approx(time_s, rel=1e-12)


class TestModelPlanArgmin:
    @pytest.mark.parametrize("model", ["transformer", "gnmt", "resnet50"])
    @pytest.mark.parametrize("sparsity", PAPER_SPARSITIES)
    def test_every_layer_is_the_brute_force_argmin(self, model, sparsity):
        tuner = Autotuner()
        plan = tuner.plan(model, "V100", sparsity)
        arch = get_gpu("V100")
        layers = {layer.name: layer for layer in model_layers(model)}
        assert set(layers) == {a.layer for a in plan.assignments}
        for assignment in plan.assignments:
            label, time_s = brute_force_best(
                tuner.candidates, arch, layers[assignment.layer], 1.0 - sparsity
            )
            assert assignment.label == label, assignment.layer
            assert assignment.time_s == pytest.approx(time_s, rel=1e-12)

    def test_assignment_counts_match_layers(self):
        plan = Autotuner().plan("transformer", "T4", 0.85)
        for layer, assignment in zip(model_layers("transformer"), plan.assignments, strict=True):
            assert assignment.layer == layer.name
            assert assignment.count == layer.count
            assert assignment.considered > 0
        assert plan.total_time_s == pytest.approx(
            sum(a.time_s * a.count for a in plan.assignments)
        )


class TestNeverSlowerThanSingleKernel:
    @pytest.mark.parametrize("model", ["transformer", "gnmt", "resnet50"])
    @pytest.mark.parametrize("gpu", ["V100", "A100"])
    def test_planned_time_bounded_by_best_single(self, model, gpu):
        comparison = compare_with_single_kernels(model, gpu, 0.75)
        assert comparison.planned_time_s <= comparison.best_single_time_s * (1 + 1e-12)
        assert comparison.advantage >= 1.0 - 1e-12
        assert comparison.planned_speedup >= comparison.best_single_speedup * (1 - 1e-12)

    def test_dense_backstop_at_low_sparsity(self):
        """Where no sparse kernel wins, the best single kernel may be dense —
        and the plan can still never be slower."""
        comparison = compare_with_single_kernels("transformer", "V100", 0.5)
        assert comparison.planned_time_s <= comparison.best_single_time_s * (1 + 1e-12)
        labels = dict(comparison.single_kernel_times)
        assert comparison.best_single_label in labels


class TestPlanShape:
    def test_plans_are_deterministic(self):
        a = Autotuner().plan("gnmt", "A100", 0.85)
        b = Autotuner().plan("gnmt", "A100", 0.85)
        assert a == b

    def test_assignments_only_use_pool_candidates(self):
        tuner = Autotuner()
        plan = tuner.plan("resnet50", "T4", 0.95)
        pool = {spec.display_label for spec in tuner.candidates}
        for assignment in plan.assignments:
            assert assignment.label in pool
            assert build_kernel(
                KernelSpec(assignment.kernel, kwargs=assignment.kernel_kwargs)
            ).supports_conv  # resnet50 layers are all convolutions

    def test_conv_assignments_are_conv_capable(self):
        plan = Autotuner().plan("resnet50", "V100", 0.75)
        for assignment in plan.assignments:
            kernel = build_kernel(
                KernelSpec(assignment.kernel, kwargs=assignment.kernel_kwargs)
            )
            assert kernel.supports_conv

    def test_no_feasible_candidate_raises_with_reasons(self):
        only_balanced = tuple(
            spec for spec in default_candidates() if spec.display_label == "Balanced 2in4"
        )
        tuner = Autotuner(candidates=only_balanced)
        with pytest.raises(KernelNotApplicableError, match="no feasible kernel"):
            tuner.plan("transformer", "V100", 0.75)

    def test_empty_candidate_pool_rejected(self):
        with pytest.raises(ValueError):
            Autotuner(candidates=())

    def test_sparsity_validated(self):
        with pytest.raises(ValueError):
            Autotuner().plan("transformer", "V100", 1.0)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            Autotuner().plan("transformer", "V100", 0.75, layers=[])

    def test_gemm_plan_workload_label(self):
        plan = Autotuner().plan_gemm(FIGURE1_GEMM, "V100", 0.75)
        assert plan.workload == "gemm-2048x128x2048"
        assert plan.model is None
        assert len(plan.assignments) == 1

    def test_assignment_lookup(self):
        plan = Autotuner().plan("transformer", "V100", 0.75)
        assert plan.assignment_for("ffn1").layer == "ffn1"
        with pytest.raises(KeyError):
            plan.assignment_for("nope")
