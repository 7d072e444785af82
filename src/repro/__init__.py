"""Shfl-BW reproduction: tensor-core aware weight pruning (DAC 2022).

The package is organised as:

* :mod:`repro.core` — the Shfl-BW sparsity pattern, its row grouping, the
  pattern-search (pruning) algorithm and the flexibility / efficiency
  analysis,
* :mod:`repro.sparse` — sparse storage formats and functional reference
  kernels (SpMM and implicit-GEMM convolution),
* :mod:`repro.gpu` — V100 / T4 / A100 architecture models and the analytical
  kernel-timing simulator that substitutes for real hardware,
* :mod:`repro.kernels` — the Shfl-BW GPU kernels and every baseline of the
  paper's evaluation (functional + timed),
* :mod:`repro.pruning` — one single-shot magnitude pruner per sparsity
  pattern,
* :mod:`repro.nn` — a small numpy autograd engine, layers and the masked
  fine-tuning loop used for the accuracy experiments,
* :mod:`repro.models` — real Transformer / GNMT / ResNet50 layer shapes and
  small proxy models,
* :mod:`repro.eval` — the experiment harness that regenerates every table and
  figure of the paper.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
