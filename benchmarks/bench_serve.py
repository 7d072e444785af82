#!/usr/bin/env python
"""Micro-batched serving vs the batch-size-1 serial baseline.

The gates over ``repro.serve``:

* *byte-identity*: replaying the same request stream serially and across a
  process pool must produce byte-identical outputs (the repo-wide
  determinism contract, extended to serving);
* *throughput*: the live service with timing-model-planned micro-batching
  must reach at least ``--min-speedup`` times the request rate of the same
  service forced to batch-size-1 serial dispatch, at the same worker count;
* *absolute floor*: the serial mode must reach :data:`SERIAL_FLOOR_RPS`,
  so per-batch overhead creeping back into the hot path fails even when it
  slows both modes alike;
* *fault recovery*: the same micro-batched run with one worker killed
  mid-stream (a deterministic ``FaultPlan``) must lose zero requests and
  still reach :data:`MIN_FAULTED_SPEEDUP` times the serial rate — crash
  recovery costs a respawn, not the stream.

Both modes run the identical closed-loop protocol — every request submitted
up front, the service drained to completion — so the measured difference is
purely the coalescing policy.  Each process runs OpenBLAS single-threaded
(unless ``OPENBLAS_NUM_THREADS`` is already set), the multi-worker setup the
README recommends.  The service does not pin BLAS threads itself: with its
default of one BLAS thread per core, two workers oversubscribe a 2-core
host and the micro-batched and faulted modes can fall below the serial
one, so these gates do not cover an unpinned deployment.  The measurements
(p50/p99 latency, req/s per mode, the speedups) land in
``BENCH_serve.json``, an output only; perf-smoke CI enforces the gates and
uploads the JSON as an artifact.

Run standalone (after ``pip install -e .``)::

    python benchmarks/bench_serve.py
    python benchmarks/bench_serve.py --smoke           # identity gate only
    python benchmarks/bench_serve.py --min-speedup 2   # the CI bar
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from repro.eval.runner import MODEL_VERSION
from repro.serve import (
    FaultPlan,
    FaultSpec,
    InferenceService,
    PoolStompedWarning,
    PredictRequest,
)
from repro.tune import Autotuner

#: The benchmarked operating point: a decode-style skinny-activation GEMM
#: where coalescing pays (the planned kernel amortises its per-launch weight
#: traffic over the batch), at the paper's headline 90% sparsity.
GEMM = (1024, 32, 1024)
GPU = "V100"
SPARSITY = 0.9
LAYER = f"gemm-{GEMM[0]}x{GEMM[1]}x{GEMM[2]}"
#: Serial req/s floor: a third of the slowest serial rate (~830 req/s) in
#: seven runs on a 2-core x86 host.  Hashing the weight on every batch again
#: drops the serial mode to ~75 req/s there; a runner at half that host's
#: speed still passes.
SERIAL_FLOOR_RPS = 275.0
#: Faulted vs serial req/s bar.  The faulted run pays a worker respawn on
#: top of the micro-batched work, so its ratio sits below the micro-batched
#: one; the bar keeps 1.5x headroom below the committed measurement.
MIN_FAULTED_SPEEDUP = 1.5


def make_requests(count: int, *, seed: int = 42) -> list[PredictRequest]:
    """``count`` deterministic single-column (batch-size-1) requests."""
    rng = np.random.default_rng(seed)
    return [
        PredictRequest.from_array(
            LAYER, rng.normal(size=GEMM[2]), request_id=str(index)
        )
        for index in range(count)
    ]


def check_replay_identity(plan, requests, jobs: int) -> dict:
    """Serial vs ``jobs``-way replay of the same stream, byte for byte."""
    service = InferenceService(plan)
    serial = service.replay(requests, jobs=1)
    parallel = service.replay(requests, jobs=jobs)
    mismatches = sum(
        left.output.tobytes() != right.output.tobytes()
        for left, right in zip(serial, parallel, strict=True)
    )
    return {
        "requests": len(requests),
        "jobs": jobs,
        "identical": mismatches == 0,
        "mismatches": mismatches,
    }


def run_live(
    plan,
    requests,
    *,
    workers: int,
    width: int | None,
    fault_plan: FaultPlan | None = None,
) -> dict:
    """Closed-loop live serving of one request stream; returns the metrics."""
    service = InferenceService(
        plan,
        workers=workers,
        width=width,
        max_pending=len(requests) + 1,
        fault_plan=fault_plan,
        backoff_base_s=0.01,
    )
    service.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PoolStompedWarning)
            began = time.perf_counter()
            handles = [service.submit(request) for request in requests]
            for handle in handles:
                handle.result(timeout=600.0)
            elapsed = time.perf_counter() - began
    finally:
        service.stop()
    stats = service.stats.to_dict()
    stats["elapsed_s"] = elapsed
    stats["requests_per_s"] = len(requests) / elapsed
    stats["windows"] = {
        layer: {"width": window.width, "deadline_ms": window.deadline_s * 1e3}
        for layer, window in service.windows.items()
    }
    return stats


def run(*, requests: int, workers: int, jobs: int, smoke: bool) -> dict:
    plan = Autotuner().plan_gemm(GEMM, GPU, SPARSITY)
    stream = make_requests(requests)
    result: dict = {
        "benchmark": "serve",
        "model_version": MODEL_VERSION,
        "config": {
            "gemm": list(GEMM),
            "gpu": GPU,
            "sparsity": SPARSITY,
            "kernel": plan.assignments[0].label,
            "requests": requests,
            "workers": workers,
        },
        "replay_identity": check_replay_identity(plan, stream, jobs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if smoke:
        return result
    result["serial"] = run_live(plan, stream, workers=workers, width=1)
    result["microbatched"] = run_live(plan, stream, workers=workers, width=None)
    result["speedup"] = (
        result["microbatched"]["requests_per_s"] / result["serial"]["requests_per_s"]
    )
    # The faulted mode: identical micro-batched run, but one worker is
    # killed mid-stream (a deterministic FaultPlan, so the run is
    # reproducible).  The recovery gate: zero lost requests, and enough
    # throughput left to still beat the serial baseline.
    # Batch 1 always exists (any stream of >= 2 batches) and is never the
    # first — the kill lands mid-stream regardless of the planned width.
    faulted_stream = make_requests(requests)
    fault_plan = FaultPlan((FaultSpec(kind="kill", batch_id=1, times=1),))
    result["faulted"] = run_live(
        plan, faulted_stream, workers=workers, width=None, fault_plan=fault_plan
    )
    result["faulted"]["injected"] = [
        {"kind": spec.kind, "batch_id": spec.batch_id, "times": spec.times}
        for spec in fault_plan.specs
    ]
    result["faulted_speedup"] = (
        result["faulted"]["requests_per_s"] / result["serial"]["requests_per_s"]
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="fail below this micro-batched vs serial req/s ratio (default 2)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=1024,
        help="closed-loop request count per mode (default 1024; at 256 the "
        "micro-batched drain lasts ~0.1 s and its ratio is mostly noise)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes in both live modes (default 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="process count of the parallel replay identity check (default 2)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="replay byte-identity only; the throughput gate is skipped",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_serve.json"),
        help="where to write the result JSON (default BENCH_serve.json)",
    )
    args = parser.parse_args(argv)

    result = run(
        requests=args.requests,
        workers=args.workers,
        jobs=args.jobs,
        smoke=args.smoke,
    )
    result["min_speedup"] = args.min_speedup
    result["min_faulted_speedup"] = MIN_FAULTED_SPEEDUP
    result["serial_floor_rps"] = SERIAL_FLOOR_RPS
    args.output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    identity = result["replay_identity"]
    print(
        f"replay identity: {identity['requests']} requests, "
        f"1 vs {identity['jobs']} jobs -> "
        f"{'byte-identical' if identity['identical'] else 'MISMATCH'}"
    )
    if not identity["identical"]:
        print(
            f"FAILED: {identity['mismatches']} response(s) differ between "
            "serial and parallel replay",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        print(f"wrote {args.output}")
        print("OK: serial and parallel replay byte-identical (smoke)")
        return 0

    for mode in ("serial", "microbatched", "faulted"):
        stats = result[mode]
        print(
            f"{mode:13s}: {stats['requests_per_s']:8.1f} req/s  "
            f"p50 {stats['p50_latency_ms']:7.2f} ms  "
            f"p99 {stats['p99_latency_ms']:7.2f} ms  "
            f"mean width {stats['mean_batch_width']:5.1f}"
        )
    print(
        f"speedup      : {result['speedup']:8.2f}x  "
        f"(gate: >= {args.min_speedup}x at {args.workers} workers)"
    )
    print(
        f"faulted      : {result['faulted_speedup']:8.2f}x with one worker "
        f"killed mid-stream (gate: >= {MIN_FAULTED_SPEEDUP}x, zero lost)"
    )
    serial_rps = result["serial"]["requests_per_s"]
    print(f"serial floor : {serial_rps:8.1f} req/s (gate: >= {SERIAL_FLOOR_RPS})")
    print(f"wrote {args.output}")
    if serial_rps < SERIAL_FLOOR_RPS:
        print(
            f"FAILED: serial serving reached only {serial_rps:.1f} req/s, below "
            f"the {SERIAL_FLOOR_RPS} req/s floor",
            file=sys.stderr,
        )
        return 1
    if result["speedup"] < args.min_speedup:
        print(
            f"FAILED: micro-batching is only {result['speedup']:.2f}x the serial "
            f"baseline (gate: {args.min_speedup}x)",
            file=sys.stderr,
        )
        return 1
    faulted = result["faulted"]
    if faulted["retried"] < 1:
        print(
            "FAILED: the injected worker kill never fired (no batch was "
            "retried) — the faulted gate is vacuous",
            file=sys.stderr,
        )
        return 1
    if faulted["served"] != args.requests:
        print(
            f"FAILED: faulted run lost requests: served {faulted['served']} "
            f"of {args.requests}",
            file=sys.stderr,
        )
        return 1
    if result["faulted_speedup"] < MIN_FAULTED_SPEEDUP:
        print(
            f"FAILED: with one injected worker kill the service is only "
            f"{result['faulted_speedup']:.2f}x the serial baseline "
            f"(gate: {MIN_FAULTED_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    print("OK: micro-batched serving beats the serial baseline by the gated margin")
    print("OK: one injected worker kill recovers with zero lost requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
