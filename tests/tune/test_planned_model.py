"""PlannedModel execution and plan serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pruning import prune_shflbw
from repro.eval.runner import KernelSpec
from repro.kernels.base import GEMMShape
from repro.kernels.registry import make_kernel
from repro.models.shapes import LayerShape
from repro.tune import (
    Autotuner,
    PlannedModel,
    TuningPlan,
    gemm_layer,
)


class TestPlanSerialisation:
    def test_dict_round_trip(self):
        plan = Autotuner().plan("transformer", "V100", 0.75)
        assert TuningPlan.from_dict(plan.to_dict()) == plan

    def test_gemm_plan_round_trip(self):
        plan = Autotuner().plan_gemm((512, 64, 512), "T4", 0.85)
        assert TuningPlan.from_dict(plan.to_dict()) == plan

    def test_workload_exclusivity_enforced(self):
        with pytest.raises(ValueError):
            TuningPlan(gpu="V100", sparsity=0.5, assignments=())


class TestPlannedModel:
    def test_layers_resolved_from_model_name(self):
        plan = Autotuner().plan("transformer", "V100", 0.75)
        planned = PlannedModel(plan)
        assert set(planned.layers) == {a.layer for a in plan.assignments}
        assert planned.total_time_s == pytest.approx(plan.total_time_s)
        names = [name for name, _, _ in planned.layer_times()]
        assert names == [a.layer for a in plan.assignments]

    def test_kernel_instances_match_assignments_and_are_cached(self):
        plan = Autotuner().plan("transformer", "V100", 0.75)
        planned = PlannedModel(plan)
        kernel = planned.kernel_for("ffn1")
        assert kernel.name == make_kernel(plan.assignment_for("ffn1").kernel).name
        assert planned.kernel_for("ffn1") is kernel

    def test_matmul_routes_through_assigned_kernel(self, rng):
        layer = LayerShape("fc", GEMMShape(m=32, n=16, k=48))
        spec = KernelSpec("shfl-bw", kwargs={"vector_size": 8}, label="Shfl-BW,V=8")
        tuner = Autotuner(candidates=(spec,))
        plan = tuner.plan("transformer", "V100", 0.75, layers=[layer])
        planned = PlannedModel(plan, layers=[layer])

        weight = rng.normal(size=(32, 48))
        weight[weight == 0.0] = 0.1
        pruned, result = prune_shflbw(weight, sparsity=0.75, vector_size=8, seed=0)
        activations = rng.normal(size=(48, 16))
        out = planned.matmul("fc", pruned, activations, row_indices=result.row_indices)
        np.testing.assert_allclose(out, pruned @ activations, atol=1e-10)

    def test_dense_assignment_is_exact(self, rng):
        layer = LayerShape("fc", GEMMShape(m=32, n=16, k=48))
        spec = KernelSpec("dense", label="Dense")
        plan = Autotuner(candidates=(spec,)).plan(
            "transformer", "V100", 0.75, layers=[layer]
        )
        planned = PlannedModel(plan, layers=[layer])
        weight = rng.normal(size=(32, 48))
        activations = rng.normal(size=(48, 16))
        np.testing.assert_allclose(
            planned.matmul("fc", weight, activations), weight @ activations, atol=1e-12
        )

    def test_gemm_plan_builds_its_own_layer(self):
        plan = Autotuner().plan_gemm((256, 32, 256), "V100", 0.75)
        planned = PlannedModel(plan)
        assert list(planned.layers) == [plan.assignments[0].layer]

    def test_mismatched_layers_rejected(self):
        plan = Autotuner().plan("transformer", "V100", 0.75)
        with pytest.raises(ValueError, match="absent"):
            PlannedModel(plan, layers=[gemm_layer((64, 16, 64))])

