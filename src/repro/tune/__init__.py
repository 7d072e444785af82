"""Autotuned kernel selection and execution planning.

Turns the repo from "compare kernels" into "automatically pick the winner
per layer": the :class:`Autotuner` scores every feasible candidate kernel of
every layer on the analytical timing model, emits a versioned
:class:`TuningPlan` (one :data:`TUNING_TASK` cell, cached by the sweep
runner like every other cell family), and :class:`PlannedModel` executes
whole workloads through the plan.
"""

from .candidates import build_kernel, candidate_density, default_candidates
from .planned import (
    PlanComparison,
    PlannedModel,
    compare_with_single_kernels,
    single_kernel_spec,
)
from .planner import (
    TUNING_TASK,
    Autotuner,
    LayerAssignment,
    PlanRecord,
    PlanRequest,
    TuningPlan,
    execute_plan_requests,
    gemm_layer,
)

__all__ = [
    "TUNING_TASK",
    "Autotuner",
    "LayerAssignment",
    "PlanComparison",
    "PlanRecord",
    "PlanRequest",
    "PlannedModel",
    "TuningPlan",
    "build_kernel",
    "candidate_density",
    "compare_with_single_kernels",
    "default_candidates",
    "execute_plan_requests",
    "gemm_layer",
    "single_kernel_spec",
]
