"""Golden-regression net over the analytical timing model.

The timing model is the substrate every number in the evaluation depends on:
Figure 1's crossover regions, Figure 6's speedup bars and the Section 6.2
headline all reduce to ``simulate_batch()`` outputs.  This suite snapshots
the full paper grid into a checked-in JSON fixture:

* ``simulate``: per (GPU x paper kernel x sparsity) total time and bound
  classification on the Figure 1 GEMM shape (2048/128/2048), straight
  through ``SpMMKernel.estimate`` — no sweep machinery in the loop;
* ``figure6``: the complete Figure 6 speedup grid
  (3 models x 3 GPUs x kernel line-up x 4 sparsities).

A kernel/simulator refactor that shifts any total time, bound or speedup —
and therefore potentially a crossover point the paper's claims hinge on —
fails here with *every* cell that moved, and additionally writes the full
structured diff to ``golden-diff.json`` (path overridable via the
``GOLDEN_DIFF_PATH`` environment variable) so CI can upload it as an
artifact and regressions are diagnosable from the Actions UI.  To shift the
goldens *deliberately*, regenerate the fixture and review the diff::

    python -m pytest tests/gpu/test_golden_timings.py --update-goldens
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.eval.runner import MODEL_VERSION, SweepRunner
from repro.eval.speedup import PAPER_GPUS, PAPER_SPARSITIES, collate_figure6, figure6_spec
from repro.gpu.arch import get_gpu
from repro.kernels.base import GEMMShape, KernelNotApplicableError
from repro.kernels.registry import make_kernel, paper_baseline_specs

GOLDEN_PATH = Path(__file__).parent / "goldens" / "golden_timings.json"
#: The Figure 1 GEMM shape used for the per-kernel estimate() snapshot.
GOLDEN_SHAPE = (2048, 128, 2048)
#: Relative tolerance for float comparison: tight enough that any real model
#: change trips it, loose enough to absorb benign float-summation noise.
REL_TOL = 1.0e-9


def _simulate_grid() -> dict:
    """``{gpu: {kernel_label: {sparsity: {total_time_s, bound} | None}}}``."""
    shape = GEMMShape(*GOLDEN_SHAPE)
    grid: dict[str, dict[str, dict[str, dict | None]]] = {}
    for gpu in PAPER_GPUS:
        arch = get_gpu(gpu)
        per_kernel: dict[str, dict[str, dict | None]] = {}
        for label, (name, kwargs) in paper_baseline_specs().items():
            kernel = make_kernel(name, **kwargs)
            supported = getattr(kernel, "supported_archs", None)
            cells: dict[str, dict | None] = {}
            for sparsity in PAPER_SPARSITIES:
                key = str(sparsity)
                if supported is not None and arch.name not in supported:
                    cells[key] = None
                    continue
                try:
                    timing = kernel.estimate(arch, shape, 1.0 - sparsity)
                except (KernelNotApplicableError, ValueError):
                    cells[key] = None
                    continue
                cells[key] = {
                    "total_time_s": timing.total_time_s,
                    "bound": timing.bound,
                }
            per_kernel[label] = cells
        grid[gpu] = per_kernel
    return grid


def _figure6_grid() -> dict:
    """``{"model|gpu": {kernel_label: {sparsity: speedup | None}}}``."""
    results = collate_figure6(SweepRunner().run(figure6_spec()))
    return {
        f"{model}|{gpu}": {
            label: {str(s): value for s, value in by_sparsity.items()}
            for label, by_sparsity in per_kernel.items()
        }
        for (model, gpu), per_kernel in results.items()
    }


def build_goldens() -> dict:
    return {
        "model_version": MODEL_VERSION,
        "gemm_shape": list(GOLDEN_SHAPE),
        "simulate": _simulate_grid(),
        "figure6": _figure6_grid(),
    }


def _leaf_matches(golden, current) -> bool:
    if isinstance(golden, float) and isinstance(current, (int, float)):
        return current == pytest.approx(golden, rel=REL_TOL, abs=1e-15)
    return current == golden


def _tree_diff(path: str, golden, current, diffs: list[dict]) -> None:
    """Collect every differing cell (not just the first) into ``diffs``."""
    if isinstance(golden, dict):
        if not isinstance(current, dict):
            diffs.append({"path": path, "kind": "structure-changed"})
            return
        missing = sorted(set(golden) - set(current))
        new = sorted(set(current) - set(golden))
        if missing or new:
            diffs.append(
                {"path": path, "kind": "keys-changed", "missing": missing, "new": new}
            )
        for key in golden:
            if key in current:
                _tree_diff(f"{path}/{key}", golden[key], current[key], diffs)
    elif isinstance(golden, list):
        if not isinstance(current, list) or len(current) != len(golden):
            diffs.append({"path": path, "kind": "length-changed"})
            return
        for i, (g, c) in enumerate(zip(golden, current, strict=True)):
            _tree_diff(f"{path}[{i}]", g, c, diffs)
    elif not _leaf_matches(golden, current):
        diffs.append(
            {"path": path, "kind": "value-changed", "golden": golden, "current": current}
        )


def golden_diff_path() -> Path:
    """Where the structured diff lands (CI uploads this file on failure)."""
    return Path(os.environ.get("GOLDEN_DIFF_PATH", "golden-diff.json"))


def _write_diff_artifact(section: str, diffs: list[dict]) -> Path:
    """Merge one section's diff into the artifact file (sections are checked
    by separate tests, and all of them must land in one artifact)."""
    path = golden_diff_path()
    payload: dict = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["model_version"] = MODEL_VERSION
    payload[section] = diffs
    path.write_text(json.dumps(payload, indent=1, default=str), encoding="utf-8")
    return path


def _check_tree(section: str, golden, current) -> None:
    __tracebackhide__ = True
    diffs: list[dict] = []
    _tree_diff(section, golden, current, diffs)
    if not diffs:
        return
    artifact = _write_diff_artifact(section, diffs)
    preview = "\n".join(
        f"  {d['path']}: {d['kind']}"
        + (
            f" golden={d['golden']!r} current={d['current']!r}"
            if d["kind"] == "value-changed"
            else ""
        )
        for d in diffs[:10]
    )
    more = f"\n  ... and {len(diffs) - 10} more" if len(diffs) > 10 else ""
    pytest.fail(
        f"{len(diffs)} golden '{section}' cell(s) moved "
        f"(full structured diff written to {artifact}):\n{preview}{more}"
    )


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture {GOLDEN_PATH} is missing; regenerate it with "
            "pytest tests/gpu/test_golden_timings.py --update-goldens"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_update_goldens(update_goldens):
    """Rewrites the fixture when ``--update-goldens`` is passed (and is a
    no-op assertion otherwise, so the flag has exactly one writer)."""
    if not update_goldens:
        pytest.skip("pass --update-goldens to regenerate the fixture")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(build_goldens(), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def test_golden_model_version(goldens):
    """A MODEL_VERSION bump must come with regenerated goldens."""
    assert goldens["model_version"] == MODEL_VERSION, (
        "timing MODEL_VERSION changed; regenerate the goldens deliberately "
        "with --update-goldens and review the diff"
    )
    assert goldens["gemm_shape"] == list(GOLDEN_SHAPE)


def test_golden_simulate_totals_and_bounds(goldens):
    """estimate() totals and bound classification over GPUs x kernels x
    sparsities are unchanged."""
    _check_tree("simulate", goldens["simulate"], _simulate_grid())


def test_golden_figure6_speedups(goldens):
    """The full Figure 6 speedup grid (and its None applicability holes) is
    unchanged."""
    _check_tree("figure6", goldens["figure6"], _figure6_grid())


class TestDiffArtifact:
    """The failure path itself: a moved cell must produce a structured,
    uploadable diff file naming exactly the cells that moved."""

    def test_mismatch_writes_artifact_and_fails(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GOLDEN_DIFF_PATH", str(tmp_path / "golden-diff.json"))
        golden = {"V100": {"k": {"0.75": {"total_time_s": 1.0, "bound": "memory"}}}}
        current = {"V100": {"k": {"0.75": {"total_time_s": 2.0, "bound": "memory"}}}}
        with pytest.raises(pytest.fail.Exception, match="1 golden 'simulate'"):
            _check_tree("simulate", golden, current)
        payload = json.loads((tmp_path / "golden-diff.json").read_text())
        assert payload["model_version"] == MODEL_VERSION
        (diff,) = payload["simulate"]
        assert diff["path"] == "simulate/V100/k/0.75/total_time_s"
        assert diff["kind"] == "value-changed"
        assert diff["golden"] == 1.0 and diff["current"] == 2.0

    def test_sections_merge_into_one_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GOLDEN_DIFF_PATH", str(tmp_path / "golden-diff.json"))
        with pytest.raises(pytest.fail.Exception):
            _check_tree("simulate", {"a": 1.0}, {"a": 2.0})
        with pytest.raises(pytest.fail.Exception, match="keys-changed"):
            _check_tree("figure6", {"b": 1.0}, {"c": 1.0})
        payload = json.loads((tmp_path / "golden-diff.json").read_text())
        assert set(payload) == {"model_version", "simulate", "figure6"}

    def test_matching_trees_write_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GOLDEN_DIFF_PATH", str(tmp_path / "golden-diff.json"))
        tree = {"a": [1.0, 2.0], "b": None}
        _check_tree("simulate", tree, {"a": [1.0, 2.0], "b": None})
        assert not (tmp_path / "golden-diff.json").exists()


def test_golden_grid_is_complete(goldens):
    """The fixture really covers the paper grid: 3 GPUs x full kernel
    line-up x 4 sparsities, and 3 models x 3 GPUs for Figure 6."""
    simulate = goldens["simulate"]
    assert set(simulate) == set(PAPER_GPUS)
    labels = set(paper_baseline_specs())
    for gpu, per_kernel in simulate.items():
        assert set(per_kernel) == labels
        for cells in per_kernel.values():
            assert set(cells) == {str(s) for s in PAPER_SPARSITIES}
    assert set(goldens["figure6"]) == {
        f"{model}|{gpu}"
        for model in ("transformer", "gnmt", "resnet50")
        for gpu in PAPER_GPUS
    }
