"""Figure 6 + Section 6.2 headline: speedup over the dense tensor-core
baseline for the three workloads on V100 / T4 / A100 across the paper's
sparsity grid, for every kernel in the line-up.

Runs on the :mod:`repro.eval.runner` sweep runner; also exercises the
process-pool executor (records must be identical to the in-process run) and
the persistent result cache (a warm re-run must be nearly all hits).
"""

from __future__ import annotations

import pytest

from repro.eval.runner import SweepRunner
from repro.eval.speedup import (
    PAPER_GPUS,
    PAPER_SPARSITIES,
    figure6_spec,
    figure6_sweep,
    headline_speedups,
)

#: Paper headline numbers (Transformer GEMM layers, 75 % sparsity).
PAPER_HEADLINE = {"V100": 1.81, "T4": 4.18, "A100": 1.90}


@pytest.fixture(scope="module")
def transformer_results():
    return figure6_sweep(models=("transformer",), gpus=PAPER_GPUS, sparsities=PAPER_SPARSITIES)


def test_figure6_transformer_sweep(benchmark):
    result = benchmark.pedantic(
        figure6_sweep,
        kwargs={"models": ("transformer",), "gpus": PAPER_GPUS, "sparsities": PAPER_SPARSITIES},
        rounds=1,
        iterations=1,
    )
    print()
    for (model, gpu), per_kernel in result.items():
        print(f"--- {model} on {gpu} (speedup over dense)")
        for label, by_sparsity in per_kernel.items():
            cells = "  ".join(
                f"{s:.0%}:{'-' if by_sparsity[s] is None else format(by_sparsity[s], '.2f')}"
                for s in PAPER_SPARSITIES
            )
            print(f"  {label:<24} {cells}")


def test_figure6_gnmt_resnet_sweep(benchmark):
    result = benchmark.pedantic(
        figure6_sweep,
        kwargs={"models": ("gnmt", "resnet50"), "gpus": ("V100",), "sparsities": (0.75, 0.95)},
        rounds=1,
        iterations=1,
    )
    for (model, gpu), per_kernel in result.items():
        assert per_kernel["Shfl-BW,V=64"][0.75] is not None
        assert per_kernel["Shfl-BW,V=64"][0.75] > 1.0


def test_figure6_parallel_matches_serial(benchmark):
    """The process-pool executor must reproduce the in-process records
    exactly (same floats, same order) — parallelism only moves the
    computation."""
    spec = figure6_spec(models=("transformer", "resnet50"), gpus=PAPER_GPUS)
    serial = SweepRunner().run(spec)
    parallel_result = benchmark.pedantic(
        SweepRunner(jobs=4).run, args=(spec,), rounds=1, iterations=1
    )
    assert parallel_result.records == serial.records


def test_figure6_cache_warm_rerun(benchmark, tmp_path):
    """A warm re-run against the persistent cache must be >= 90% hits and
    faster than the cold run that populated it."""
    spec = figure6_spec()
    cold = SweepRunner(cache_dir=tmp_path).run(spec)
    assert cold.cache_misses == len({c.config_hash() for c in spec.expand()})
    warm = benchmark.pedantic(
        SweepRunner(cache_dir=tmp_path).run, args=(spec,), rounds=1, iterations=1
    )
    assert warm.hit_rate >= 0.90
    assert warm.records == cold.records
    assert warm.elapsed_s < cold.elapsed_s
    print(
        f"\n  cold: {cold.elapsed_s * 1e3:.1f} ms ({cold.cache_misses} computed)  "
        f"warm: {warm.elapsed_s * 1e3:.1f} ms ({warm.cache_hits} hits, "
        f"{warm.hit_rate:.0%})"
    )


def test_headline_speedups_match_paper_ballpark(benchmark):
    """Paper: 1.81x / 4.18x / 1.90x on V100 / T4 / A100 at 75 % sparsity.
    The analytical substrate is expected to land within ~2x of those factors
    while preserving 'sparse wins clearly on every GPU'."""
    measured = benchmark.pedantic(headline_speedups, rounds=1, iterations=1)
    print()
    for gpu in PAPER_GPUS:
        print(f"  {gpu}: measured {measured[gpu]:.2f}x  paper {PAPER_HEADLINE[gpu]:.2f}x")
        assert measured[gpu] > 1.3
        assert measured[gpu] < PAPER_HEADLINE[gpu] * 2.5


def test_speedup_increases_with_sparsity(transformer_results):
    for gpu in PAPER_GPUS:
        per_kernel = transformer_results[("transformer", gpu)]
        series = [per_kernel["Shfl-BW,V=64"][s] for s in (0.50, 0.75, 0.85)]
        assert series[0] < series[1] <= series[2] * 1.05


def test_shflbw_tracks_vector_wise(transformer_results):
    """Section 6.2: Shfl-BW is within 0.97-1.02x of our vector-wise kernel."""
    for gpu in PAPER_GPUS:
        per_kernel = transformer_results[("transformer", gpu)]
        for sparsity in PAPER_SPARSITIES:
            vw = per_kernel["VW,V=64"][sparsity]
            sb = per_kernel["Shfl-BW,V=64"][sparsity]
            assert 0.95 <= sb / vw <= 1.05


def test_unstructured_never_beats_dense(transformer_results):
    for gpu in PAPER_GPUS:
        per_kernel = transformer_results[("transformer", gpu)]
        for sparsity in PAPER_SPARSITIES:
            assert per_kernel["Unstructured (Sputnik)"][sparsity] < 1.0
            assert per_kernel["Unstructured cuSPARSE"][sparsity] < 1.0


def test_balanced_2in4_only_on_a100_at_50_percent(transformer_results):
    for gpu in PAPER_GPUS:
        per_kernel = transformer_results[("transformer", gpu)]
        value = per_kernel["Balanced 2in4"][0.50]
        if gpu == "A100":
            assert value is not None and 1.0 < value < 2.0
        else:
            assert value is None
        assert per_kernel["Balanced 2in4"][0.75] is None


def test_vectorsparse_and_tilewise_below_ours_on_v100(transformer_results):
    per_kernel = transformer_results[("transformer", "V100")]
    for sparsity in (0.75, 0.85):
        ours = per_kernel["Shfl-BW,V=32"][sparsity]
        assert per_kernel["VectorSparse (VW,V=8)"][sparsity] < ours
        assert per_kernel["TileWise (VW,V=128)"][sparsity] < 1.0
