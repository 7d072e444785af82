"""The timing CLI and the serving runtime load only what they run.

Each check runs in a fresh interpreter, because this test process has
already imported every package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.eval import run_experiment

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

TIMING_EXPERIMENTS = ("figure1", "figure6", "headline", "autotune")

#: Modules none of the timing experiments runs.
NEVER_LOADED = (
    "scipy",
    "repro.nn",
    "repro.eval.accuracy",
    "repro.eval.tradeoff",
    "repro.models.gnmt",
    "repro.models.resnet",
    "repro.models.transformer",
)


#: Modules the serving runtime never loads (scipy loads for CSR layers).
SERVE_NEVER_LOADED = tuple(name for name in NEVER_LOADED if name != "scipy")


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; returns the JSON of its last line."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_timing_experiments_skip_scipy_and_the_accuracy_stack(tmp_path):
    code = f"""
import json, sys
from repro.eval.__main__ import main
for experiment in {TIMING_EXPERIMENTS!r}:
    assert main([experiment, "--json", {str(tmp_path)!r} + f"/{{experiment}}.json"]) == 0
print(json.dumps([name for name in {NEVER_LOADED!r} if name in sys.modules]))
"""
    assert run_fresh(code) == []
    for experiment in TIMING_EXPERIMENTS:
        report = json.loads((tmp_path / f"{experiment}.json").read_text(encoding="utf-8"))
        assert report["records"]


def test_scipy_loads_on_first_use():
    """``scipy.special`` loads with the first ``log_factorial`` and
    ``scipy.sparse`` with the first ``spmm_csr``; both return the same bits
    as calling scipy directly."""
    code = """
import json, sys
import numpy as np
from repro.eval import run_experiment
from repro.sparse import CSRMatrix, spmm_csr

seen = {"special_at_import": "scipy.special" in sys.modules}
report = run_experiment("analysis")
seen["special_after_analysis"] = "scipy.special" in sys.modules
seen["analysis"] = report.to_json()

rng = np.random.default_rng(0)
weight = rng.normal(size=(64, 48)) * (rng.random((64, 48)) < 0.2)
rhs = rng.normal(size=(48, 5))
matrix = CSRMatrix.from_dense(weight)
seen["sparse_before_spmm"] = "scipy.sparse" in sys.modules
out = spmm_csr(matrix, rhs)
seen["sparse_after_spmm"] = "scipy.sparse" in sys.modules
import scipy.sparse
direct = scipy.sparse.csr_matrix(
    (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
) @ rhs
seen["spmm_is_scipy"] = bool(np.array_equal(out, direct))
print(json.dumps(seen))
"""
    seen = run_fresh(code)
    assert seen.pop("analysis") == run_experiment("analysis").to_json()
    assert seen == {
        "special_at_import": False,
        "special_after_analysis": True,
        "sparse_before_spmm": False,
        "sparse_after_spmm": True,
        "spmm_is_scipy": True,
    }


def test_serving_runtime_skips_the_accuracy_stack():
    """``import repro.serve`` and ``planned_runtime`` prune every served
    layer in its kernel's pattern with the masks of ``repro.core``: the
    vector-wise, 2:4 and block-wise plans load no autograd or proxy
    model."""
    code = f"""
import json, sys
from repro.eval.runner import KernelSpec
from repro.serve import planned_runtime
from repro.tune import Autotuner

gemm = (256, 32, 256)
plans = [
    Autotuner().plan("transformer", "V100", 0.9),
    Autotuner(candidates=(KernelSpec("cusparselt"),)).plan_gemm(gemm, "A100", 0.5),
    Autotuner(candidates=(KernelSpec("cusparse-bsr", (("block_size", 32),)),)).plan_gemm(
        gemm, "V100", 0.9
    ),
]
patterns = set()
for plan in plans:
    model, prepared = planned_runtime(plan, 1)
    patterns |= {{model.kernel_for(layer).pattern.value for layer in prepared}}
loaded = [name for name in {SERVE_NEVER_LOADED!r} if name in sys.modules]
print(json.dumps({{"loaded": loaded, "patterns": sorted(patterns)}}))
"""
    assert run_fresh(code) == {
        "loaded": [],
        "patterns": ["balanced", "blockwise", "vectorwise"],
    }
