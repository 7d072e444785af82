"""``sweep``: the timing-model experiments as a user runs them from the shell.

Each round runs ``python -m repro.eval {figure1,figure6,headline,autotune}``
as subprocesses, each cold into a fresh ``--cache-dir`` (cache writes) and
then warm against that cache (cache reads).  The warm JSON report must be
byte-identical to the cold one and served at a 100% hit rate.  Rounds
repeat until ``--seconds`` have passed (at least :data:`MIN_ROUNDS`); the
gated ``wall_s`` is the median over rounds of the four cold runs' summed wall
time.  The inputs are the paper's fixed grids; the seed only orders the
experiments within each round.
"""

from __future__ import annotations

import json
import re
import shutil
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    SETUP_REPEATS,
    WORK,
    Tracer,
    import_profile,
    import_seconds,
    layer_metrics,
    peak_rss_mb,
    run_program,
)

EXPERIMENTS = ("figure1", "figure6", "headline", "autotune")
MIN_ROUNDS = 4
MAX_ROUNDS = 8
_HITS = re.compile(r"^cache: (\d+) hits, (\d+) misses")
TRACED_CLI = str(Path(__file__).resolve().parent / "cli_traced.py")


def _one_round(order, workdir: Path, spans_dir: Path | None) -> dict:
    """Cold then warm run of every experiment; returns timings and checks."""
    cold = warm = 0.0
    bad: list[str] = []
    for experiment in order:
        cache = workdir / experiment
        outputs = {}
        for mode in ("cold", "warm"):
            report = workdir / f"{experiment}-{mode}.json"
            args = ["-m", "repro.eval", experiment, "--cache-dir", str(cache), "--json", str(report)]
            if spans_dir is not None:
                args = [TRACED_CLI, str(spans_dir / f"{experiment}-{mode}.json"), *args[2:]]
            seconds, done = run_program(args)
            outputs[mode] = (report.read_bytes(), done.stdout)
            if mode == "cold":
                cold += seconds
            else:
                warm += seconds
        if outputs["cold"][0] != outputs["warm"][0]:
            bad.append(f"{experiment}: warm report differs from cold")
        hits = [_HITS.match(line) for line in outputs["warm"][1].splitlines()]
        hits = [m for m in hits if m]
        if not hits or int(hits[-1].group(2)) != 0 or int(hits[-1].group(1)) == 0:
            bad.append(f"{experiment}: warm run is not a 100% cache hit")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"cold_s": cold, "warm_s": warm, "bad": bad}


def run(seed: int, seconds: int, trace: bool) -> dict:
    setup_s = median(import_seconds("import repro.eval.__main__", SETUP_REPEATS))
    rng = np.random.default_rng(seed)
    base = WORK / f"sweep-{seed}-{time.time_ns()}"
    rounds = []
    began = time.perf_counter()
    while len(rounds) < (1 if trace else MIN_ROUNDS) or (
        not trace and time.perf_counter() - began < seconds and len(rounds) < MAX_ROUNDS
    ):
        order = [EXPERIMENTS[i] for i in rng.permutation(len(EXPERIMENTS))]
        rounds.append(_one_round(order, base / f"round{len(rounds)}", None))
    bad = [problem for r in rounds for problem in r["bad"]]
    result = {
        "problems": bad,
        "attempted": 2 * len(EXPERIMENTS) * len(rounds),
        "metrics": {
            "setup_s": setup_s,
            "wall_s": median([r["cold_s"] for r in rounds]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "info": {
            "sweep.cold_s": median([r["cold_s"] for r in rounds]),
            "sweep.warm_s": median([r["warm_s"] for r in rounds]),
            "rounds": [{"cold_s": r["cold_s"], "warm_s": r["warm_s"]} for r in rounds],
        },
    }
    if trace:
        tracer = Tracer()
        spans_dir = base / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        traced = _one_round(list(EXPERIMENTS), base / "traced", spans_dir)
        for path in sorted(spans_dir.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            tracer.merge(payload["spans"], payload["counters"])
        bad.extend(traced["bad"])
        result["attempted"] += 2 * len(EXPERIMENTS)
        layers = layer_metrics(tracer)
        layers.update(import_profile("import repro.eval"))
        untraced = rounds[0]["cold_s"] + rounds[0]["warm_s"]
        layers["trace.overhead_s"] = traced["cold_s"] + traced["warm_s"] - untraced
        result["layers"] = layers
        result["tracer"] = tracer
    shutil.rmtree(base, ignore_errors=True)
    result["checks"] = {"warm reports byte-identical to cold at a 100% hit rate": not bad}
    result["failed"] = len(bad)
    return result
