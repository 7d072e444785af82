"""Flexibility and computation-efficiency analysis (Section 3.2).

Two quantitative arguments underpin the paper's pattern design:

* **Flexibility** — the number of candidate weight structures a pattern can
  express at a given sparsity.  More candidates means a better chance of
  covering the important weights.  The counts are astronomically large, so
  everything here works in natural-log space (``log_*`` functions return
  ``ln(count)``).
* **Computation efficiency** — the data reuse (operation intensity) the
  pattern allows a tiled kernel to reach.  Unstructured / balanced patterns
  are limited to ``sqrt(alpha)`` of the dense reuse, while block-wise /
  vector-wise / Shfl-BW recover the dense reuse when ``V`` is at least the
  register-file-optimal tile size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.arch import GPUArch
from ..gpu.roofline import max_reuse_blockwise, max_reuse_dense, max_reuse_unstructured

__all__ = [
    "log_factorial",
    "log_binomial",
    "log_row_shuffle_multiplier",
    "log_candidates_unstructured",
    "log_candidates_blockwise",
    "log_candidates_vectorwise",
    "log_candidates_shflbw",
    "log_candidates_balanced",
    "log_candidates",
    "PatternAnalysis",
    "analyze_pattern",
    "compare_patterns",
]


def log_factorial(n: int) -> float:
    """``ln(n!)`` computed via the log-gamma function.

    ``scipy.special`` is imported on first use, so importing this module stays
    cheap.  ``math.lgamma`` is no substitute: it differs from ``gammaln`` in
    the last bit for 997 of the ``n <= 2000``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    from scipy.special import gammaln

    return float(gammaln(n + 1))


def log_binomial(n: int, k: int) -> float:
    """``ln(C(n, k))``; zero when the choice is degenerate."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k < 0 or k > n:
        return float("-inf")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def _kept_count(total: int, density: float) -> int:
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    return max(1, int(round(total * density)))


def log_row_shuffle_multiplier(m: int, vector_size: int) -> float:
    """``ln( M! / (V!)^(M/V) )`` — the factor by which row shuffling enlarges
    the vector-wise candidate space (Section 3.2.1).

    For ``M = 512`` and ``V = 128`` this exceeds 700, i.e. the multiplier is
    larger than ``e^700`` as quoted in the paper.
    """
    if vector_size <= 0 or m <= 0 or m % vector_size:
        raise ValueError("M must be a positive multiple of V")
    num_groups = m // vector_size
    return log_factorial(m) - num_groups * log_factorial(vector_size)


def log_candidates_unstructured(m: int, k: int, density: float) -> float:
    """``ln C(M*K, nnz)`` — candidate structures of unstructured sparsity."""
    total = m * k
    return log_binomial(total, _kept_count(total, density))


def log_candidates_blockwise(m: int, k: int, vector_size: int, density: float) -> float:
    """Candidate structures of ``V x V`` block-wise sparsity."""
    if m % vector_size or k % vector_size:
        raise ValueError("M and K must be multiples of V")
    total_blocks = (m // vector_size) * (k // vector_size)
    kept_blocks = _kept_count(total_blocks, density)
    return log_binomial(total_blocks, kept_blocks)


def log_candidates_vectorwise(m: int, k: int, vector_size: int, density: float) -> float:
    """Candidate structures of vector-wise sparsity (``V x 1`` vectors).

    Each of the ``M / V`` fixed consecutive row groups independently chooses
    which columns to keep.
    """
    if m % vector_size:
        raise ValueError("M must be a multiple of V")
    num_groups = m // vector_size
    kept_cols = _kept_count(k, density)
    return num_groups * log_binomial(k, kept_cols)


def log_candidates_shflbw(m: int, k: int, vector_size: int, density: float) -> float:
    """Candidate structures of Shfl-BW sparsity.

    Row shuffling multiplies the vector-wise candidate space by
    ``M! / (V!)^(M/V)`` (Section 3.2.1).
    """
    return log_candidates_vectorwise(m, k, vector_size, density) + log_row_shuffle_multiplier(
        m, vector_size
    )


def log_candidates_balanced(m: int, k: int, n: int = 2, group: int = 4) -> float:
    """Candidate structures of balanced ``n:group`` sparsity.

    Every group of ``group`` values independently chooses ``n`` positions; the
    sparsity level is fixed by the pattern (e.g. 50 % for 2:4).
    """
    if k % group:
        raise ValueError("K must be a multiple of the balance group size")
    num_groups = m * (k // group)
    return num_groups * log_binomial(group, n)


def log_candidates(
    pattern: str, m: int, k: int, density: float, vector_size: int = 32
) -> float:
    """Dispatch on a pattern name (see :class:`repro.core.pattern.PatternKind`)."""
    from .pattern import PatternKind

    kind = PatternKind.parse(pattern)
    if kind is PatternKind.UNSTRUCTURED:
        return log_candidates_unstructured(m, k, density)
    if kind is PatternKind.BLOCKWISE:
        return log_candidates_blockwise(m, k, vector_size, density)
    if kind is PatternKind.VECTORWISE:
        return log_candidates_vectorwise(m, k, vector_size, density)
    if kind is PatternKind.SHFLBW:
        return log_candidates_shflbw(m, k, vector_size, density)
    if kind is PatternKind.BALANCED:
        return log_candidates_balanced(m, k)
    if kind is PatternKind.DENSE:
        return 0.0
    raise ValueError(f"unsupported pattern {pattern!r}")


@dataclass(frozen=True)
class PatternAnalysis:
    """Flexibility + efficiency summary of one pattern at one operating point."""

    pattern: str
    density: float
    vector_size: int
    log_candidates: float
    max_reuse_flop_per_byte: float
    reuse_vs_dense: float


def analyze_pattern(
    pattern: str,
    arch: GPUArch,
    m: int,
    k: int,
    density: float,
    vector_size: int = 32,
) -> PatternAnalysis:
    """Compute the Section 3.2 metrics for one pattern on one GPU."""
    from .pattern import PatternKind

    kind = PatternKind.parse(pattern)
    dense_reuse = max_reuse_dense(arch)
    if kind in (PatternKind.UNSTRUCTURED, PatternKind.BALANCED):
        reuse = max_reuse_unstructured(arch, density)
    elif kind is PatternKind.DENSE:
        reuse = dense_reuse
    else:
        reuse = max_reuse_blockwise(arch, vector_size)
    return PatternAnalysis(
        pattern=kind.value,
        density=density,
        vector_size=vector_size,
        log_candidates=log_candidates(pattern, m, k, density, vector_size),
        max_reuse_flop_per_byte=reuse,
        reuse_vs_dense=reuse / dense_reuse if dense_reuse > 0 else 0.0,
    )


def compare_patterns(
    arch: GPUArch,
    m: int,
    k: int,
    density: float,
    vector_size: int = 32,
    patterns: tuple[str, ...] = ("unstructured", "balanced", "vectorwise", "blockwise", "shflbw"),
) -> list[PatternAnalysis]:
    """Analyse several patterns at the same operating point (Figure 3 ordering)."""
    return [
        analyze_pattern(p, arch, m, k, density, vector_size=vector_size) for p in patterns
    ]
