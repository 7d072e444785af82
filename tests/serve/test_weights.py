"""Served weights follow the sparsity pattern of each layer's kernel,
serving start holds one dense layer at a time, and a started service holds
each kept weight once."""

from __future__ import annotations

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import repro.serve.weights as weights_module
from repro.core.pattern import PatternKind
from repro.core.pruning import balanced_mask, block_wise_mask, vector_wise_mask
from repro.eval.runner import KernelSpec
from repro.serve import InferenceService, derive_weights, planned_runtime
from repro.serve.cells import _runtime_for
from repro.tune import Autotuner
from repro.tune.planned import PlannedModel

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
        widths = {len(matrix.group(g)[0]) for g in range(matrix.num_groups)}
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


def whole_array_weights(plan, weight_seed: int) -> dict[str, np.ndarray]:
    """Each layer's draw times one full-size mask of its kernel's pattern:
    the formula :func:`derive_weights` computes slab by slab, in place."""
    density = 1.0 - plan.sparsity
    model = PlannedModel(plan)
    weights = {}
    for index, assignment in enumerate(plan.assignments):
        kernel = model.kernel_for(assignment.layer)
        shape = model.layers[assignment.layer].gemm
        rng = np.random.default_rng([weight_seed, index])
        values = rng.normal(size=(shape.m, shape.k))
        if kernel.pattern in (PatternKind.VECTORWISE, PatternKind.SHFLBW):
            mask = vector_wise_mask(np.abs(values), density, kernel.vector_size)
        elif kernel.pattern is PatternKind.BLOCKWISE:
            mask = block_wise_mask(np.abs(values), density, kernel.block_size)
        elif kernel.pattern is PatternKind.BALANCED:
            mask = balanced_mask(np.abs(values))
        else:
            mask = rng.random(size=values.shape) < density
        weights[assignment.layer] = values * mask
    return weights


@pytest.mark.parametrize("slab_rows", [1, 3, 96, None])
def test_slab_masks_equal_the_whole_array_formula(family_plan, slab_rows, monkeypatch):
    """Bit for bit, signs included (a pruned negative weight is ``-0.0``),
    with slabs from one row group (or block row, or row) up to the default
    size, which holds this whole layer; 3 and 96 rows leave a short last
    slab."""
    _, plan = family_plan
    if slab_rows is not None:
        monkeypatch.setattr(weights_module, "_SLAB_BYTES", slab_rows * K * 8)
    derived = derive_weights(plan, SEED)
    expected = whole_array_weights(plan, SEED)
    assert list(derived) == list(expected)
    for layer, weight in derived.items():
        assert weight.tobytes() == expected[layer].tobytes()
        assert np.signbit(weight[weight == 0]).any()


def test_one_layer_equals_its_entry_in_the_full_dict(transformer_plan):
    """A layer is seeded by its position in the plan, not in the selection."""
    layers = [assignment.layer for assignment in transformer_plan.assignments]
    full = derive_weights(transformer_plan, SEED)
    picked = derive_weights(transformer_plan, SEED, layers=[layers[2]])
    assert list(picked) == [layers[2]]
    assert picked[layers[2]].tobytes() == full[layers[2]].tobytes()
    with pytest.raises(KeyError, match="no-such-layer"):
        derive_weights(transformer_plan, SEED, layers=[layers[0], "no-such-layer"])


def traced(call):
    """``call()``'s result and its tracemalloc peak beyond what was
    allocated before it, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def test_start_holds_one_dense_layer(served_plan):
    """Deriving and preparing one layer at a time peaks near the largest
    dense layer (33.6 MB) plus the prepared operands (about 10.2 MB);
    holding every dense layer at once peaked at 139 MB."""
    _, peak = traced(lambda: planned_runtime(served_plan, 1))
    assert peak <= 60e6


def test_derivation_allocates_one_slab_beyond_its_result(served_plan):
    """Slab masks need one slab's magnitudes and mask beyond the returned
    weights (about 4.7 MB); full-size magnitudes and masks took 37.8 MB."""
    weights, peak = traced(lambda: derive_weights(served_plan, 1))
    assert peak - sum(weight.nbytes for weight in weights.values()) <= 8e6


def array_bytes(value) -> int:
    """Bytes of the numpy arrays reachable from ``value`` through object
    attributes (memoised ones included), dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return sum(array_bytes(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(item) for item in value)
    if hasattr(value, "__dict__"):
        return array_bytes(vars(value))
    return 0


def test_started_service_holds_each_kept_weight_once(served_plan):
    """After ``start()``, calibration included, the prepared operands are
    their stitched panels and nothing else: 10.2 MB of arrays, where
    per-group arrays plus a memoised panel copy held 20.56 MB."""
    service = InferenceService(served_plan, weight_seed=1).start()
    try:
        _, prepared = _runtime_for(served_plan, 1)
        assert array_bytes(prepared) <= 11e6
        for operand in prepared.values():
            matrix = getattr(operand, "vector_matrix", operand)
            assert set(vars(matrix)) == {field.name for field in fields(matrix)}
    finally:
        service.stop()
