"""Kernel speedups on the real Transformer layer shapes (Figure 6 style).

Sweeps the paper's sparsity grid and vector sizes on the computation-intensive
GEMM layers of the Transformer, for every kernel in the paper's line-up, on
V100 / T4 / A100.

Run with::

    python examples/transformer_kernel_speedup.py
"""

from __future__ import annotations

from repro.eval import SweepRunner
from repro.eval.speedup import collate_figure6, collate_headline, figure6_spec, headline_spec


def main() -> None:
    runner = SweepRunner()
    spec = figure6_spec(models=("transformer",))
    results = collate_figure6(runner.run(spec))

    for (_, gpu), per_kernel in results.items():
        print(f"\n=== Transformer GEMM layers on {gpu} (speedup over dense) ===")
        header = f"{'kernel':<26}" + "".join(f"{s:>9.0%}" for s in spec.sparsities)
        print(header)
        for label, by_sparsity in per_kernel.items():
            cells = [
                f"{'-':>9}" if speedup is None else f"{speedup:>8.2f}x"
                for speedup in by_sparsity.values()
            ]
            print(f"{label:<26}" + "".join(cells))

    print("\n=== Section 6.2 headline (Shfl-BW V=64 at 75% sparsity) ===")
    paper = {"V100": 1.81, "T4": 4.18, "A100": 1.90}
    for gpu, value in collate_headline(runner.run(headline_spec())).items():
        print(f"  {gpu:>5}: measured {value:.2f}x   (paper {paper[gpu]:.2f}x)")


if __name__ == "__main__":
    main()
