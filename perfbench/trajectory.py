"""Run the benchmark over several seeds and summarise, or record, the result.

Usage (from the repository root)::

    python3 perfbench/trajectory.py --seeds 1-10                  # spreads only
    python3 perfbench/trajectory.py --seeds 1-10 --append "label" # + trajectory point

Each workload runs once per seed with ``--trace 0`` and then once traced.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, against the metric's bound.
``--append`` adds the medians, quartiles and raw values, the informational
metrics (median over the runs that reported them), the environment and the
traced run's per-layer metrics as one point to ``results/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "results" / "trajectory.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout[-3000:]}"
                         f"\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench-runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def _median_of_measured(values: list) -> dict:
    """Median over the runs that measured a value (None: not reported)."""
    measured = [v for v in values if v is not None]
    return {
        "median": statistics.median(measured) if measured else None,
        "runs_measured": len(measured),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--append", default=None, metavar="LABEL")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = _seeds(args.seeds)
    point: dict = {"label": args.append, "measured": time.strftime("%Y-%m-%d"),
                   "seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        infos: dict[str, list] = {}
        environment = {}
        for seed in seeds:
            result, record = _run(workload, seed, spec["run_seconds"], 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for name, value in record["info"].items():
                if value is None or isinstance(value, (int, float)) and not isinstance(value, bool):
                    infos.setdefault(name, []).append(value)
            environment = {k: record[k] for k in ("nproc", "python", "numpy", "blas_threads")}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        traced, _ = _run(workload, seeds[0], spec["run_seconds"], 1)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": values[name]}
            print(f"SPREAD {workload:6s} {name:12s} median {median:10.4f} {metric['unit']:3s}"
                  f" spread {spread:.4f} bound {metric['bound']} ({spread / metric['bound']:.2f}"
                  " of bound)", flush=True)
        point["workloads"][workload] = {
            "environment": environment,
            "end_to_end": summary,
            "info": {k: _median_of_measured(v) for k, v in infos.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.append:
        TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
        history = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                   if TRAJECTORY.exists() else {"points": []})
        history["points"].append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
        print(f"appended point {args.append!r} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
