#!/usr/bin/env python
"""Timing-model cost of the full Figure-6 grid through the sweep executor.

Every evaluation number comes out of one timing path: each kernel describes
its cells as a launch batch (``SpMMKernel.build_launch_batch``) and
``simulate_batch`` times them.  This benchmark drives the sweep executor
over the complete Figure 6 grid — 3 models x 3 GPUs x the full kernel
line-up x 4 sparsities, 405 configs — and gates the median of ``--repeats``
wall times at :data:`GATE_S`, an absolute bound about 3x the medians measured
on a 2-core container (8-14 ms).  A per-cell timing loop over the same grid
takes ~127 ms there, so reintroducing one fails the gate.

The measurements land in ``BENCH_estimate.json`` (override with
``--output``); CI uploads it as an artifact on every run.

Run standalone (after ``pip install -e .``)::

    python benchmarks/bench_estimate_grid.py
    python benchmarks/bench_estimate_grid.py --repeats 9
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.eval.runner import MODEL_VERSION, batched_executor
from repro.eval.speedup import figure6_spec

#: Gate on the median grid time, in seconds.
GATE_S = 0.040


def run(repeats: int) -> dict:
    spec = figure6_spec()
    configs = spec.expand()
    batched_executor(configs)  # warm-up: imports, registry, model layers
    samples: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        batched_executor(configs)
        samples.append(time.perf_counter() - start)
    return {
        "benchmark": "estimate_grid",
        "model_version": MODEL_VERSION,
        "grid": {
            "models": list(spec.models),
            "gpus": list(spec.gpus),
            "sparsities": list(spec.sparsities),
            "kernels": [kernel.display_label for kernel in spec.kernels],
            "configs": len(configs),
        },
        "repeats": repeats,
        "grid_s": samples,
        "median_s": statistics.median(samples),
        "gate_s": GATE_S,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed runs of the grid (default 7)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_estimate.json"),
        help="where to write the result JSON (default BENCH_estimate.json)",
    )
    args = parser.parse_args(argv)

    result = run(args.repeats)
    args.output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    grid = result["grid"]
    print(
        f"Figure-6 grid: {grid['configs']} configs "
        f"({len(grid['models'])} models x {len(grid['gpus'])} GPUs x "
        f"{len(grid['kernels'])} kernels x {len(grid['sparsities'])} sparsities)"
    )
    print(
        f"grid time: {result['median_s'] * 1e3:8.2f} ms  "
        f"(median of {args.repeats}; gate: <= {GATE_S * 1e3:.0f} ms)"
    )
    print(f"wrote {args.output}")

    if result["median_s"] > GATE_S:
        print(
            f"FAILED: the Figure-6 grid takes {result['median_s'] * 1e3:.2f} ms "
            f"(gate: {GATE_S * 1e3:.0f} ms)",
            file=sys.stderr,
        )
        return 1
    print("OK: the Figure-6 grid stays under the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
