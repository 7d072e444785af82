"""Autotuned kernel selection and execution planning.

Turns the repo from "compare kernels" into "automatically pick the winner
per layer": the :class:`Autotuner` scores every feasible candidate kernel of
every layer on the analytical timing model (optionally refined by measured
functional runs), emits a persistent, versioned :class:`TuningPlan`, and
:class:`PlannedModel` executes whole workloads through the plan.
"""

from .candidates import build_kernel, candidate_density, default_candidates
from .measure import MeasuredRefiner
from .planned import (
    PlanComparison,
    PlannedModel,
    compare_with_single_kernels,
    single_kernel_spec,
)
from .planner import (
    PLAN_FILENAME,
    Autotuner,
    LayerAssignment,
    PlanCache,
    TuningPlan,
    gemm_layer,
    plan_request_hash,
)

__all__ = [
    "PLAN_FILENAME",
    "Autotuner",
    "LayerAssignment",
    "MeasuredRefiner",
    "PlanCache",
    "PlanComparison",
    "PlannedModel",
    "TuningPlan",
    "build_kernel",
    "candidate_density",
    "compare_with_single_kernels",
    "default_candidates",
    "gemm_layer",
    "plan_request_hash",
    "single_kernel_spec",
]
