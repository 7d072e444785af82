"""Shared plumbing of the repository benchmark.

Statistics with the sample-count rule, the run record, peak memory, timed
subprocesses of the program, and the tracer: spans recorded by wrappers the
benchmark installs around public functions of ``repro`` from the outside.
The program itself is never edited or instrumented from within.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
import platform
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch and trace output of benchmark runs (inside the checkout, ignored by git).
WORK = ROOT / ".perfbench-runs"

#: A seed no tuning or proof run of the benchmark has used; keep it for claims.
HELD_OUT_SEED = 9001

#: Fresh-interpreter imports timed per run; set-up time is their median.
SETUP_REPEATS = 5

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def program_env() -> dict[str, str]:
    """Environment for subprocesses that run the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values, q: float) -> float | None:
    """Linear-interpolated percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    position = (n - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy in use (None when not found)."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def run_record(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def run_program(args: list[str]):
    """Run ``python3 <args>`` against ``src``; returns (seconds, completed).
    A non-zero exit raises."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=150,
    )
    elapsed = time.perf_counter() - began
    if done.returncode != 0:
        raise RuntimeError(
            f"`python3 {' '.join(args)}` exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return elapsed, done


def import_seconds(statement: str, repeats: int) -> list[float]:
    """Interpreter start plus ``statement``, timed ``repeats`` times in fresh
    processes after one untimed run that leaves the bytecode caches warm."""
    run_program(["-c", statement])
    return [run_program(["-c", statement])[0] for _ in range(repeats)]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_profile(statement: str) -> dict[str, float]:
    """``-X importtime`` split: cumulative ms of ``repro.eval`` and total
    self ms spent in ``scipy`` modules."""
    _, done = run_program(["-X", "importtime", "-c", statement])
    eval_ms = 0.0
    scipy_ms = 0.0
    for line in done.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_us, cumulative_us, name = match.groups()
        if name == "repro.eval":
            eval_ms = int(cumulative_us) / 1e3
        if name == "scipy" or name.startswith("scipy."):
            scipy_ms += int(self_us) / 1e3
    return {"import.repro_eval_ms": eval_ms, "import.scipy_ms": scipy_ms}


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """Spans ``[name, start, end, parent]`` and named counters, in memory.

    Spans are recorded by wrappers around public functions and methods; the
    parent is the innermost open span of the calling thread.  ``install``
    rebinds a function everywhere a loaded module holds it, so callers that
    imported it by name see the wrapper too; ``restore`` undoes every rebind.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, original, name: str, *, hook=None, outermost: bool = False):
        """A traced twin of ``original``; ``hook(args, kwargs, result,
        seconds)`` runs after each recorded call."""
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if outermost and any(tracer.spans[i][0] == name for i in stack):
                return original(*args, **kwargs)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                tracer.spans[index][2] = end
            if hook is not None:
                hook(args, kwargs, result, end - tracer.spans[index][1])
            return result

        return traced

    def install(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` (a module function or a class's own method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        traced = self.wrap(original, name, **options)
        targets = [(owner, attr)]
        if isinstance(owner, ModuleType):
            for module in list(sys.modules.values()):
                if not isinstance(module, ModuleType) or module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        targets.append((module, key))
        for target, key in targets:
            setattr(target, key, traced)
            self._undo.append((target, key, original))

    def restore(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def merge(self, spans: list[list], counters: dict[str, float]) -> None:
        """Fold in spans and counters recorded by another process."""
        with self._lock:
            offset = len(self.spans)
            for name, start, end, parent in spans:
                self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
            for key, value in counters.items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total minus
        the time its direct children cover)."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if end is not None and parent >= since:
                child_time[parent - since] += end - start
        out: dict[str, dict[str, float]] = {}
        for position, (name, start, end, _) in enumerate(spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[position]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "counters": self.counters, "self_time": self.summary()}
        path.write_text(json.dumps(payload), encoding="utf-8")


def install_program_tracing(tracer: Tracer) -> None:
    """Wrap the public layer boundaries of ``repro`` that every workload
    shares: sweep runner, cache store, timing model, tuner, pattern search,
    proxy training and the serving kernels."""
    import repro.core.kmeans as kmeans
    import repro.core.pruning as pruning
    import repro.eval.pattern_search as pattern_search
    import repro.eval.runner as runner
    import repro.eval.store as store
    import repro.gpu.simulator as simulator
    import repro.kernels  # noqa: F401  (registers every kernel class)
    import repro.kernels.base as kernel_base
    import repro.models  # noqa: F401  (defines the proxy model classes)
    import repro.nn.layers as layers
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.nn.train as train
    import repro.serve.pool as pool
    import repro.serve.weights as weights
    import repro.tune.planner as planner

    tracer.install(runner.SweepRunner, "run", "eval.runner", outermost=True)
    tracer.install(runner.SweepRunner, "run_cells", "eval.runner", outermost=True)

    def _store_get(args, kwargs, result, seconds):
        tracer.add("eval.store_gets")
        if result is not None:
            tracer.add("eval.store_hits")

    tracer.install(store.BlobStore, "get", "eval.store_get", hook=_store_get)
    tracer.install(store.BlobStore, "put", "eval.store_put")
    tracer.install(store.BlobStore, "flush", "eval.store_put")
    tracer.install(simulator, "simulate_batch", "gpu.simulate_batch")
    tracer.install(kernel_base.SpMMKernel, "estimate_grid", "kernels.estimate_grid", outermost=True)
    tracer.install(planner.Autotuner, "plan", "tune.plan", outermost=True)

    tracer.install(pruning, "unstructured_mask", "core.unstructured_mask")
    tracer.install(pruning, "vector_wise_mask", "core.vector_wise_mask")
    tracer.install(kmeans, "kmeans_plusplus_init", "core.kmeans_init")

    def _pairs(args, kwargs, result, seconds):
        rows, group_size = len(args[0]), args[1]
        tracer.add("core.pairs_sorted", rows * (rows // group_size))

    tracer.install(kmeans, "balanced_kmeans", "core.balanced_kmeans", hook=_pairs)

    def _cell(args, kwargs, result, seconds):
        cell = args[0]
        if (cell.model, cell.layer) == ("gnmt", "proj"):
            tracer.add("prune.proj_s", seconds)

    tracer.install(pattern_search, "execute_pattern_search_cell", "eval.pattern_search_cell",
                   hook=_cell)

    for cls in _subclasses(layers.Module):
        for method in ("loss", "evaluate"):
            if method in cls.__dict__:
                tracer.install(cls, method, "nn.forward", outermost=True)
    tracer.install(tensor.Tensor, "backward", "nn.backward", outermost=True)
    for cls in [optim.Optimizer, *_subclasses(optim.Optimizer)]:
        if "step" in cls.__dict__:
            tracer.install(cls, "step", "nn.step", outermost=True)
    # The accuracy cells prune through ``build_masks`` (``prune_model`` wraps
    # it for one-shot callers), so that is the pruning boundary traced.
    tracer.install(train, "build_masks", "train.prune")

    tracer.install(kernel_base, "prepare_cache_key", "kernels.prepare_cache_key")
    for cls in _subclasses(kernel_base.SpMMKernel):
        if "run" in cls.__dict__:
            tracer.install(cls, "run", "kernels.run", outermost=True)
        if "prepare" in cls.__dict__:
            tracer.install(cls, "prepare", "kernels.prepare", outermost=True)
    tracer.install(weights, "derive_weights", "serve.derive_weights")
    tracer.install(pool.WorkerPool, "__init__", "serve.pool_spawn")


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every workload derives from the shared wrappers
    (zero where the workload never enters the layer)."""
    summary = tracer.summary()

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    counters = tracer.counters
    gets = counters.get("eval.store_gets", 0.0)
    return {
        "eval.runner_ms": total("eval.runner") * 1e3,
        "eval.store_get_ms": total("eval.store_get") * 1e3,
        "eval.store_put_ms": total("eval.store_put") * 1e3,
        "eval.store_hit_rate": counters.get("eval.store_hits", 0.0) / gets if gets else 0.0,
        "gpu.simulate_batch_ms": total("gpu.simulate_batch") * 1e3,
        "gpu.simulate_batch_calls": calls("gpu.simulate_batch"),
        "kernels.estimate_grid_ms": total("kernels.estimate_grid") * 1e3,
        "tune.plan_ms": total("tune.plan") * 1e3,
        "core.unstructured_mask_ms": total("core.unstructured_mask") * 1e3,
        "core.kmeans_init_ms": total("core.kmeans_init") * 1e3,
        "core.kmeans_assign_ms": summary.get("core.balanced_kmeans", {}).get("self_s", 0.0) * 1e3,
        "core.vector_wise_mask_ms": total("core.vector_wise_mask") * 1e3,
        "core.pairs_sorted": counters.get("core.pairs_sorted", 0.0),
        "prune.proj_s": counters.get("prune.proj_s", 0.0),
        "nn.forward_ms": total("nn.forward") * 1e3,
        "nn.backward_ms": total("nn.backward") * 1e3,
        "nn.step_ms": total("nn.step") * 1e3,
        "nn.steps": calls("nn.step"),
        "train.prune_ms": total("train.prune") * 1e3,
        "serve.derive_weights_s": total("serve.derive_weights"),
        "kernels.prepare_s": total("kernels.prepare"),
        "serve.pool_spawn_s": total("serve.pool_spawn"),
        "trace.spans": float(len(tracer.spans)),
    }


def print_self_times(tracer: Tracer) -> None:
    rows = sorted(tracer.summary().items(), key=lambda item: -item[1]["self_s"])
    print("layer self time (traced run):")
    for name, entry in rows:
        print(
            f"  {name:32s} calls {int(entry['calls']):7d}  total {entry['total_s'] * 1e3:10.2f} ms"
            f"  self {entry['self_s'] * 1e3:10.2f} ms"
        )
