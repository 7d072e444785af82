"""``prune`` and ``train``: the two slow experiments, run in-process.

* ``prune``: Shfl-BW pattern search on the real Transformer and GNMT layer
  shapes at V=64 and 90% sparsity.  The GNMT 32000x1024 projection is where
  the n x k argsort dominates; the seven smaller layers show k-means++ and
  per-call overhead.  Each cell's ``retained_score`` must equal the value
  recorded at the seed commit exactly.
* ``train``: the Table 1 accuracy protocol at tiny scale: proxy-model
  training (forward, backward, optimizer) plus proxy-shape pruning.  The
  report records must be byte-identical to the seed commit's.

Both run serially into a fresh cache directory, so cache writes are part of
the job.  Their inputs are the paper's fixed grids; the seed names the run
but does not change what is computed.  Set-up is interpreter start plus
importing ``repro.eval``, timed in fresh processes.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from statistics import median

from common import (
    SETUP_REPEATS,
    WORK,
    Tracer,
    import_profile,
    import_seconds,
    install_program_tracing,
    layer_metrics,
    peak_rss_mb,
    run_program,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
RUN = Path(__file__).resolve().parent / "run.py"

JOBS = {
    "prune": (
        "pattern-search",
        {"models": ("transformer", "gnmt"), "vector_sizes": (64,), "sparsities": (0.9,)},
    ),
    "train": ("table1", {"tiny": True}),
}


def _timed_job(workload: str, seed: int) -> tuple[float, object]:
    from repro.eval import run_experiment
    from repro.eval.runner import SweepRunner

    experiment, kwargs = JOBS[workload]
    cache = WORK / f"{workload}-{seed}-{time.time_ns()}"
    try:
        began = time.perf_counter()
        report = run_experiment(experiment, runner=SweepRunner(cache_dir=cache), **kwargs)
        return time.perf_counter() - began, report
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _check(workload: str, report) -> list[str]:
    """Problems with the report against the seed commit's golden output."""
    if workload == "train":
        expected = (GOLDEN / "train_records.json").read_text(encoding="utf-8")
        actual = json.dumps(report.records, sort_keys=True, indent=1)
        return [] if actual == expected else ["train records differ from the seed commit's"]
    golden = json.loads((GOLDEN / "prune_retained.json").read_text(encoding="utf-8"))
    problems = []
    seen = set()
    for record in report.records:
        key = f"{record['model']}/{record['layer']}"
        seen.add(key)
        if record["status"] != "ok" or record["retained_score"] != golden.get(key):
            problems.append(f"{key}: retained_score {record['retained_score']!r} != {golden.get(key)!r}")
    problems.extend(f"{key}: missing" for key in sorted(set(golden) - seen))
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        return _traced(workload, seed, seconds)
    setup_s = median(import_seconds("import repro.eval", SETUP_REPEATS))
    wall_s, report = _timed_job(workload, seed)
    problems = _check(workload, report)
    return {
        "checks": {"output equals the seed commit's": not problems},
        "problems": problems,
        "attempted": len(report.records),
        "failed": len(problems),
        "metrics": {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb()},
        "info": {f"{workload}.wall_s": wall_s},
    }


def _traced(workload: str, seed: int, seconds: int) -> dict:
    """The job traced in this process, then untraced in a fresh one (the
    program memoises per process, so a second in-process job is not cold)."""
    tracer = Tracer()
    install_program_tracing(tracer)
    traced_s, report = _timed_job(workload, seed)
    tracer.restore()
    problems = _check(workload, report)
    _, done = run_program(
        [str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"]
    )
    untraced = json.loads(done.stdout.strip().splitlines()[-1])
    problems.extend([] if untraced["correct"] else ["untraced comparison run failed its check"])
    layers = layer_metrics(tracer)
    layers.update(import_profile("import repro.eval"))
    layers["trace.overhead_s"] = traced_s - untraced["metrics"]["wall_s"]["value"]
    return {
        "checks": {"output equals the seed commit's": not problems},
        "problems": problems,
        "attempted": len(report.records),
        "failed": len(problems),
        "layers": layers,
        "tracer": tracer,
        "info": {f"{workload}.wall_s.traced": traced_s},
    }
