"""Host-side throughput of the functional (numpy) kernels.

These benchmarks time the *reference implementations* (the correctness halves
of the kernels), not the modelled GPU times — they document the cost of the
Python substrate itself and catch accidental complexity regressions in the
format conversions and SpMM loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pruning import prune_shflbw
from repro.kernels.registry import make_kernel
from repro.sparse.formats import CSRMatrix, ShflBWMatrix
from repro.sparse.spmm import dense_gemm, spmm_csr, spmm_shflbw

M, K, N = 256, 256, 64
SPARSITY = 0.75
V = 32


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    weight = rng.normal(size=(M, K))
    activations = rng.normal(size=(K, N))
    pruned, result = prune_shflbw(weight, sparsity=SPARSITY, vector_size=V)
    return weight, activations, pruned, result


def test_bench_dense_gemm(benchmark, problem):
    weight, activations, _, _ = problem
    out = benchmark(dense_gemm, weight, activations)
    assert out.shape == (M, N)


def test_bench_shflbw_spmm(benchmark, problem):
    _, activations, pruned, result = problem
    sparse = ShflBWMatrix.from_dense(pruned, V, result.row_indices)
    out = benchmark(spmm_shflbw, sparse, activations)
    np.testing.assert_allclose(out, pruned @ activations, atol=1e-10)


def test_bench_csr_spmm(benchmark, problem):
    _, activations, pruned, _ = problem
    csr = CSRMatrix.from_dense(pruned)
    out = benchmark(spmm_csr, csr, activations)
    np.testing.assert_allclose(out, pruned @ activations, atol=1e-10)


def test_bench_pattern_search(benchmark, problem):
    weight, _, _, _ = problem
    result = benchmark(prune_shflbw, weight, SPARSITY, V)
    assert result[1].density == pytest.approx(1.0 - SPARSITY, abs=0.05)


def test_bench_shflbw_compression(benchmark, problem):
    _, _, pruned, result = problem
    sparse = benchmark(ShflBWMatrix.from_dense, pruned, V, result.row_indices)
    assert sparse.nnz > 0


def test_bench_kernel_estimate(benchmark):
    from repro.gpu.arch import get_gpu
    from repro.kernels.base import GEMMShape

    kernel = make_kernel("shfl-bw", vector_size=64)
    timing = benchmark(kernel.estimate, get_gpu("A100"), GEMMShape(4096, 256, 1024), 0.25)
    assert timing.total_time_s > 0
