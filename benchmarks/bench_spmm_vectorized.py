#!/usr/bin/env python
"""Old-vs-new wall time of the vectorized SpMM engine.

Times the vectorized kernels in :mod:`repro.sparse.spmm` against the seed
loop implementations kept as oracles in :mod:`repro.sparse.spmm_reference`,
asserts the outputs match to ``1e-10``, and (for the headline ``spmm_csr`` /
``spmm_shflbw`` pair on the default 2048 x 2048 @ 10 % density shape) asserts
the vectorized engine is at least ``--min-speedup`` (default 5x) faster.

The default activation width is deliberately small (``--n 4``, the skinny
decode-style regime): that is where the Python-loop overhead of the seed
kernels dominates and where the vectorized engine pays off most.  Steady-state
behaviour is measured (best of ``--reps``), so the memoised scipy handle is
exercised exactly as a repeated inference workload would hit it; the Shfl-BW
matrix is built once with ``--tile-cols`` wide panels, which both kernels
read (the loop oracle walks them panel by panel in Python).

Run standalone::

    python benchmarks/bench_spmm_vectorized.py
    python benchmarks/bench_spmm_vectorized.py --smoke  # CI

"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.pruning import unstructured_mask, vector_wise_mask
from repro.sparse import spmm_reference as ref
from repro.sparse.formats import (
    Balanced24Matrix,
    BlockSparseMatrix,
    CSRMatrix,
    ShflBWMatrix,
    VectorSparseMatrix,
)
from repro.sparse.spmm import (
    spmm_balanced,
    spmm_block,
    spmm_csr,
    spmm_shflbw,
    spmm_vector_wise,
)

ATOL = 1e-10


@dataclass
class BenchResult:
    kernel: str
    old_ms: float
    new_ms: float
    max_abs_diff: float
    gated: bool  # whether this row is held to the --min-speedup bar

    @property
    def speedup(self) -> float:
        return self.old_ms / self.new_ms if self.new_ms > 0 else float("inf")


def _best_of(fn, reps: int) -> tuple[float, np.ndarray]:
    """Best wall time (ms) over ``reps`` calls, plus the last output."""
    out = fn()  # warm-up: fills the scipy handle cache, as steady state does
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1.0e3, out


def bench_pair(name, old_fn, new_fn, reference, reps, gated=True) -> BenchResult:
    old_ms, old_out = _best_of(old_fn, reps)
    new_ms, new_out = _best_of(new_fn, reps)
    diff = float(np.abs(new_out - old_out).max())
    np.testing.assert_allclose(new_out, old_out, atol=ATOL)
    np.testing.assert_allclose(new_out, reference, atol=ATOL)
    return BenchResult(name, old_ms, new_ms, diff, gated)


def run(
    m: int = 2048,
    k: int = 2048,
    n: int = 4,
    density: float = 0.10,
    vector_size: int = 32,
    tile_cols: int = 32,
    reps: int = 7,
    seed: int = 0,
) -> list[BenchResult]:
    rng = np.random.default_rng(seed)
    activations = rng.normal(size=(k, n))
    results: list[BenchResult] = []

    # --- unstructured (CSR) ------------------------------------------------ #
    weight = rng.normal(size=(m, k))
    unstructured = weight * unstructured_mask(np.abs(weight), density)
    csr = CSRMatrix.from_dense(unstructured)
    results.append(
        bench_pair(
            "spmm_csr",
            lambda: ref.spmm_csr_loop(csr, activations),
            lambda: spmm_csr(csr, activations),
            unstructured @ activations,
            reps,
        )
    )

    # --- Shfl-BW (vector-wise under a random row shuffle) ------------------ #
    weight = rng.normal(size=(m, k))
    vw_pruned = weight * vector_wise_mask(np.abs(weight), density, vector_size)
    row_indices = rng.permutation(m)
    shuffled = np.zeros_like(vw_pruned)
    shuffled[row_indices, :] = vw_pruned  # original-order matrix
    shfl = ShflBWMatrix.from_dense(shuffled, vector_size, row_indices, tile_cols=tile_cols)
    results.append(
        bench_pair(
            "spmm_shflbw",
            lambda: ref.spmm_shflbw_loop(shfl, activations),
            lambda: spmm_shflbw(shfl, activations),
            shuffled @ activations,
            reps,
        )
    )

    # --- informational rows (correctness-gated only) ----------------------- #
    vec = VectorSparseMatrix.from_dense(vw_pruned, vector_size)
    results.append(
        bench_pair(
            "spmm_vector_wise",
            lambda: ref.spmm_vector_wise_loop(vec, activations),
            lambda: spmm_vector_wise(vec, activations),
            vw_pruned @ activations,
            reps,
            gated=False,
        )
    )

    block_pruned = np.kron(
        rng.random((m // vector_size, k // vector_size)) < density,
        np.ones((vector_size, vector_size)),
    ) * rng.normal(size=(m, k))
    block = BlockSparseMatrix.from_dense(block_pruned, vector_size)
    results.append(
        bench_pair(
            "spmm_block",
            lambda: ref.spmm_block_loop(block, activations),
            lambda: spmm_block(block, activations),
            block_pruned @ activations,
            reps,
            gated=False,
        )
    )

    balanced = Balanced24Matrix.from_dense(rng.normal(size=(m, k)))
    results.append(
        bench_pair(
            "spmm_balanced",
            lambda: ref.spmm_balanced_loop(balanced, activations),
            lambda: spmm_balanced(balanced, activations),
            balanced.to_dense() @ activations,
            reps,
            gated=False,
        )
    )
    return results


def report(results: list[BenchResult]) -> str:
    lines = [
        f"{'kernel':<18} {'loop (ms)':>10} {'vectorized (ms)':>16} {'speedup':>8} {'max|diff|':>10}",
        "-" * 68,
    ]
    for r in results:
        lines.append(
            f"{r.kernel:<18} {r.old_ms:>10.3f} {r.new_ms:>16.3f} "
            f"{r.speedup:>7.1f}x {r.max_abs_diff:>10.2e}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=2048)
    parser.add_argument("--k", type=int, default=2048)
    parser.add_argument("--n", type=int, default=4, help="activation columns (batch)")
    parser.add_argument("--density", type=float, default=0.10)
    parser.add_argument("--vector-size", type=int, default=32)
    parser.add_argument("--tile-cols", type=int, default=32)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required vectorized-over-loop speedup for spmm_csr / spmm_shflbw",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small problem, correctness asserts only (for CI runners)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.m = args.k = 256
        args.n = 8
        args.reps = 3
        args.min_speedup = 0.0

    results = run(
        m=args.m,
        k=args.k,
        n=args.n,
        density=args.density,
        vector_size=args.vector_size,
        tile_cols=args.tile_cols,
        reps=args.reps,
        seed=args.seed,
    )
    print(
        f"SpMM old-vs-new wall time  (M={args.m} K={args.k} N={args.n} "
        f"density={args.density:.0%} V={args.vector_size} T_K={args.tile_cols}, "
        f"best of {args.reps})"
    )
    print(report(results))

    failures = [
        r for r in results if r.gated and args.min_speedup > 0 and r.speedup < args.min_speedup
    ]
    if failures:
        for r in failures:
            print(
                f"FAIL: {r.kernel} speedup {r.speedup:.1f}x is below the "
                f"{args.min_speedup:.1f}x bar",
                file=sys.stderr,
            )
        return 1
    print("all outputs match to 1e-10" + ("" if args.min_speedup <= 0 else "; speedup bar met"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
