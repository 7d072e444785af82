#!/usr/bin/env python
"""Planned-vs-single-kernel whole-model timings for the autotuner.

For every (model, GPU) cell of the paper grid, tunes a per-layer execution
plan with :class:`repro.tune.Autotuner` and prices it against every
single-kernel whole-model baseline (including the dense baseline) through
the sweep runner.  Two gates:

* *never slower*: the planned whole-model time must not exceed the best
  single-kernel baseline on any cell (the per-layer argmin construction
  guarantees this; the gate catches regressions in the plan/eval plumbing);
* *cache coherence*: re-planning against the runner's warm cache must
  reproduce the cold plan exactly.

Run standalone (after ``pip install -e .``)::

    python benchmarks/bench_autotune.py
    python benchmarks/bench_autotune.py --smoke        # CI subset
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.eval.runner import SweepRunner
from repro.eval.speedup import PAPER_GPUS
from repro.tune import Autotuner, compare_with_single_kernels

#: Allowed relative slack on the never-slower gate (float summation only;
#: the argmin construction is exact).
REL_EPS = 1e-9

MODELS = ("transformer", "gnmt", "resnet50")


def run_grid(
    models: tuple[str, ...],
    gpus: tuple[str, ...],
    sparsity: float,
) -> int:
    failures = 0
    print(f"Autotuned plan vs best single kernel (sparsity {sparsity:.0%})")
    header = (
        f"{'model':<12} {'GPU':<5} {'planned ms':>11} {'best single':>22} "
        f"{'single ms':>10} {'advantage':>9}"
    )
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SweepRunner(cache_dir=cache_dir)
        tuner = Autotuner(runner=runner)
        start = time.perf_counter()
        for model in models:
            for gpu in gpus:
                comparison = compare_with_single_kernels(model, gpu, sparsity, tuner=tuner)
                ok = comparison.planned_time_s <= comparison.best_single_time_s * (
                    1 + REL_EPS
                )
                failures += not ok
                print(
                    f"{model:<12} {gpu:<5} "
                    f"{comparison.planned_time_s * 1e3:>11.4f} "
                    f"{comparison.best_single_label:>22} "
                    f"{comparison.best_single_time_s * 1e3:>10.4f} "
                    f"{comparison.advantage:>8.4f}x"
                    + ("" if ok else "  << SLOWER THAN SINGLE KERNEL")
                )
                warm = tuner.plan(model, gpu, sparsity)
                if warm != comparison.plan:
                    failures += 1
                    print(f"{model:<12} {gpu:<5}  << WARM PLAN != COLD PLAN")
        elapsed = time.perf_counter() - start
        print(
            f"\n{len(models) * len(gpus)} cells in {elapsed:.2f}s; runner cache: "
            f"{runner.stats.hits} hits / {runner.stats.misses} misses"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="one model on one GPU (CI fast path)"
    )
    parser.add_argument(
        "--sparsity", type=float, default=0.75, help="weight sparsity (default 0.75)"
    )
    args = parser.parse_args(argv)

    models = MODELS[:1] if args.smoke else MODELS
    gpus = PAPER_GPUS[:1] if args.smoke else PAPER_GPUS
    failures = run_grid(models, gpus, args.sparsity)
    if failures:
        print(f"FAILED: {failures} gate violation(s)", file=sys.stderr)
        return 1
    print("OK: planned whole-model time never exceeded the best single kernel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
