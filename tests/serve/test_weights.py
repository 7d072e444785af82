"""Served weights follow the sparsity pattern of each layer's kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.runner import KernelSpec
from repro.serve import InferenceService, derive_weights, planned_runtime
from repro.tune import Autotuner

from conftest import GEMM, LAYER, make_requests

SEED = 3
ATOL = 1e-10
M, _, K = GEMM

#: One single-candidate pool per kernel family: (spec, GPU, sparsity).
FAMILIES = {
    "dense": (KernelSpec("dense"), "V100", 0.9),
    "sputnik": (KernelSpec("sputnik"), "V100", 0.9),
    "cusparse-bsr": (KernelSpec("cusparse-bsr", (("block_size", 32),)), "V100", 0.9),
    "vector-wise": (KernelSpec("vector-wise", (("vector_size", 32),)), "V100", 0.9),
    "shfl-bw": (KernelSpec("shfl-bw", (("vector_size", 32),)), "V100", 0.9),
    "cusparselt": (KernelSpec("cusparselt"), "A100", 0.5),
}


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_plan(request):
    spec, gpu, sparsity = FAMILIES[request.param]
    plan = Autotuner(candidates=(spec,)).plan_gemm(GEMM, gpu, sparsity)
    assert plan.assignment_for(LAYER).kernel == spec.name
    return request.param, plan


def test_replay_serves_the_derived_weights(family_plan):
    """Whatever the kernel, a served response is ``derive_weights @ x``:
    the kernel's format stores the derived weight without projecting it."""
    _, plan = family_plan
    requests = make_requests(6)
    responses = InferenceService(plan, weight_seed=SEED).replay(requests)
    weight = derive_weights(plan, SEED)[LAYER]
    for request, response in zip(requests, responses, strict=True):
        np.testing.assert_allclose(response.output, weight @ request.to_array(), atol=ATOL)


def test_prepared_operand_keeps_only_the_pattern(family_plan):
    """Each structured kernel stores the plan's density in its own
    structure, not a near-dense compression of unstructured weights."""
    family, plan = family_plan
    density = 1.0 - plan.sparsity
    weight = derive_weights(plan, SEED)[LAYER]
    prepared = planned_runtime(plan, SEED)[1][LAYER]
    if family in ("vector-wise", "shfl-bw"):
        matrix = prepared if family == "vector-wise" else prepared.vector_matrix
        widths = {len(columns) for columns in matrix.group_columns}
        assert widths == {round(density * K)}
        assert np.array_equal(matrix.to_dense(), weight)
    elif family == "cusparse-bsr":
        assert len(prepared.block_indices) == round(density * (M // 32) * (K // 32))
        assert np.array_equal(prepared.to_dense(), weight)
    elif family == "cusparselt":
        kept = np.count_nonzero(weight.reshape(M, K // 4, 4), axis=2)
        assert (kept == 2).all()
        assert np.array_equal(prepared.to_dense(), weight)
    else:
        # Dense and unstructured layers keep the seeded random draw.
        rng = np.random.default_rng([SEED, 0])
        values = rng.normal(size=(M, K))
        assert np.array_equal(weight, values * (rng.random(size=(M, K)) < density))
