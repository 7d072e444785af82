"""Candidate kernel enumeration for the autotuner.

The tuner searches over *kernel specs* — registry name plus constructor
kwargs, the same hashable form :mod:`repro.eval.runner` sweeps consume — not
over kernel instances.  The default pool is the full Figure 6 line-up
(including the dense baseline, so a plan can always fall back to dense when
no sparse kernel wins, exactly the Figure 1 low-sparsity region).

Feasibility is the planner's job (:class:`repro.tune.planner.Autotuner`):
each candidate's :meth:`~repro.kernels.base.SpMMKernel.capabilities` rule it
out statically (wrong GPU, missing convolution support, fixed-density
patterns at the wrong density), and anything that check cannot see surfaces
as :class:`~repro.kernels.base.KernelNotApplicableError` when the survivors
are scored.  :func:`candidate_density` is the density both stages use.
"""

from __future__ import annotations

from ..eval.runner import KernelSpec
from ..kernels.base import SpMMKernel
from ..kernels.registry import make_kernel, paper_baseline_specs

__all__ = [
    "default_candidates",
    "build_kernel",
    "candidate_density",
]


def default_candidates(vector_sizes: tuple[int, ...] = (32, 64)) -> tuple[KernelSpec, ...]:
    """The default candidate pool: the paper's full kernel line-up.

    Returned in the deterministic Figure 6 legend order; the planner breaks
    exact ties by this order, so plans are reproducible.
    """
    return tuple(
        KernelSpec(name=name, kwargs=tuple(sorted(kwargs.items())), label=label)
        for label, (name, kwargs) in paper_baseline_specs(tuple(vector_sizes)).items()
    )


def build_kernel(spec: KernelSpec) -> SpMMKernel:
    """Instantiate the kernel a spec describes."""
    return make_kernel(spec.name, **dict(spec.kwargs))


def candidate_density(kernel: SpMMKernel, density: float) -> float:
    """The density a candidate is scored at.

    Dense kernels ignore weight sparsity — they always run the full GEMM —
    so they are timed at density 1.0 regardless of the operating point,
    matching the sweep runner's sparsity-0 dense baseline cells.
    """
    return 1.0 if kernel.capabilities().is_dense else density
