"""The repository benchmark: one workload per run, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: ``serve``, ``sweep``, ``prune``, ``train`` (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it wraps the program's public layer
boundaries and reports the per-layer metrics, the self time of every traced
layer and the tracing overhead.  Every run checks the program's outputs; a
failed check makes the run exit 1.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The run
record (environment, sample counts, informational metrics) and, when traced,
the spans are written under ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import ROOT, SRC, WORK, print_self_times, run_record

WORKLOADS = ("serve", "sweep", "prune", "train")


def _run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    if name == "serve":
        import wl_serve

        return wl_serve.run(seed, seconds, trace)
    if name == "sweep":
        import wl_sweep

        return wl_sweep.run(seed, seconds, trace)
    import wl_jobs

    return wl_jobs.run(name, seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "serve":
        # Two workers with OpenBLAS's default thread per core oversubscribe
        # a 2-core host: spinning BLAS threads made burst drains 1x-10x slower
        # at random.  One thread per process keeps the load within nproc.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    began = time.perf_counter()
    result = _run_workload(args.workload, args.seed, args.seconds, trace)
    values = result["layers"] if trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if not trace and missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    correct = all(result["checks"].values())

    record = run_record(args.workload, args.seed, trace)
    record.update(
        {
            "seconds": args.seconds,
            "run_s": time.perf_counter() - began,
            "checks": result["checks"],
            "problems": result.get("problems", []),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "not_exercised": missing,
            "info": result.get("info", {}),
        }
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if trace:
        result["tracer"].dump(WORK / f"{stem}.spans.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + json.dumps({k: record[k] for k in (
        "nproc", "affinity", "python", "numpy", "blas_threads", "blas_env", "held_out_seed")}))
    for name, check in result["checks"].items():
        print(f"check {'ok  ' if check else 'FAIL'} {name}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, metric in metrics.items():
        print(f"metric {name:28s} {metric['value']:14.6f} {metric['unit']}")
    if missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))
    for name, value in record["info"].items():
        if not isinstance(value, (dict, list)):
            print(f"info   {name:28s} {value}")
    if trace:
        print_self_times(result["tracer"])
    print(f"run record: {WORK / (stem + '.json')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
