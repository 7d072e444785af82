"""Shfl-BW pattern search on the paper's real layer shapes (Section 5).

The accuracy experiments run the search on scaled-down proxy layers; this
experiment runs :func:`repro.core.pruning.search_shflbw_pattern` on the
*actual* GNMT / Transformer / ResNet50 weight shapes of
:mod:`repro.models.shapes` — up to the 32000 x 1024 GNMT projection — and
reports the fraction of total importance each vector size retains at each
sparsity.  That is the quantity the pattern trades against kernel speedup
(larger V -> faster kernels, lower retained importance), and evaluating it
at real scale is feasible only with the vectorized search engine: the seed
implementation walks ``n * k`` sorted distance pairs per Lloyd step in a
Python loop and materialises ``(n, k, K)`` distance intermediates.

Importance scores are synthetic but deterministic: magnitude-like
``|N(0, 1)|`` draws seeded per (model, layer, seed), standing in for the
absolute trained weights the paper prunes (offline training at these shapes
is not reproducible; the *relative* retained-importance ordering across V
and sparsity is what the experiment surfaces).  The grid keeps each layer's
cells adjacent, and a one-entry memo hands them one read-only matrix, so
each (model, layer, seed) is drawn once per serial sweep.

Execution mirrors the other sweeps: the grid expands into hashable
:class:`PatternSearchCell` configs, :func:`execute_pattern_search_cell` is a
module-level pure function, and :class:`~repro.eval.runner.SweepRunner` adds
process-pool parallelism across cells plus a persistent per-task cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.pruning import search_shflbw_pattern
from ..models.shapes import MODEL_NAMES, model_layers
from .runner import (
    MODEL_VERSION,
    PATTERN_SEARCH_SALT,
    CellTask,
    canonical_config_hash,
    encode_record,
    record_decoder,
)

__all__ = [
    "PatternSearchCell",
    "PatternSearchRecord",
    "PATTERN_SEARCH_TASK",
    "PAPER_VECTOR_SIZES",
    "layer_scores",
    "pattern_search_cells",
    "execute_pattern_search_cell",
    "collate_pattern_search",
]

#: The vector sizes the paper evaluates (Figure 2 adds V=128).
PAPER_VECTOR_SIZES = (32, 64, 128)


@dataclass(frozen=True)
class PatternSearchCell:
    """One hashable (model, layer, V, sparsity) cell of a pattern search."""

    model: str
    layer: str
    vector_size: int
    sparsity: float
    beta_factor: float = 2.0
    kmeans_iters: int = 4
    seed: int = 0
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if self.vector_size <= 0:
            raise ValueError("vector_size must be positive")

    @property
    def density(self) -> float:
        return 1.0 - self.sparsity

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {
            "model": self.model,
            "layer": self.layer,
            "vector_size": self.vector_size,
            "sparsity": self.sparsity,
            "beta_factor": self.beta_factor,
            "kmeans_iters": self.kmeans_iters,
            "seed": self.seed,
        }

    def config_hash(self, *, salt: str = MODEL_VERSION) -> str:
        """Stable hex digest (shared keying scheme of every cell family)."""
        return canonical_config_hash(self.to_dict(), salt=salt)


@dataclass(frozen=True)
class PatternSearchRecord:
    """Result of one pattern-search cell.

    ``status`` is ``"ok"`` or ``"not-applicable"`` (a layer whose row count
    is not divisible by V cannot hold the pattern — e.g. the 64-channel
    ResNet convolutions at V=128).  ``retained_score`` / ``total_score``
    carry the raw sums so collation can weight layers exactly;
    ``layer_count`` is the layer's multiplicity in the model.
    """

    config: PatternSearchCell
    status: str
    retained_score: float | None = None
    total_score: float | None = None
    density: float | None = None
    layer_count: int = 1
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retained_fraction(self) -> float | None:
        if not self.ok or not self.total_score:
            return None
        return self.retained_score / self.total_score

    def to_dict(self) -> dict:
        """Flat JSON/CSV-friendly form (one row per record)."""
        return {
            **self.config.to_dict(),
            "status": self.status,
            "retained_score": self.retained_score,
            "total_score": self.total_score,
            "retained_fraction": self.retained_fraction,
            "density": self.density,
            "layer_count": self.layer_count,
            "detail": self.detail,
        }


def layer_scores(model: str, layer: str, m: int, k: int, seed: int) -> np.ndarray:
    """Deterministic synthetic importance scores for one layer.

    Magnitude-like ``|N(0, 1)|`` draws; the generator is seeded from a
    stable digest of (model, layer, seed) so every process and platform
    draws the identical matrix.
    """
    digest = hashlib.blake2b(
        f"pattern-search/{model}/{layer}/{seed}".encode("utf-8"), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    scores = rng.standard_normal((m, k))
    return np.abs(scores, out=scores)


#: One-entry memo of the last score matrix, keyed by its ``layer_scores``
#: arguments.  Grid order puts each layer's cells next to each other, so a
#: serial sweep draws every matrix once; holding one entry keeps RSS flat.
_LAST_SCORES: dict[tuple[str, str, int, int, int], np.ndarray] = {}


def _memoised_layer_scores(model: str, layer: str, m: int, k: int, seed: int) -> np.ndarray:
    """:func:`layer_scores`, read-only and shared by adjacent cells of a layer."""
    key = (model, layer, m, k, seed)
    scores = _LAST_SCORES.get(key)
    if scores is None:
        _LAST_SCORES.clear()  # free the old matrix before drawing the new one
        scores = layer_scores(*key)
        scores.flags.writeable = False
        _LAST_SCORES[key] = scores
    return scores


_LAYER_CACHE: dict[str, dict[str, object]] = {}


def _find_layer(model: str, layer: str):
    layers = _LAYER_CACHE.get(model)
    if layers is None:
        layers = _LAYER_CACHE.setdefault(
            model, {shape.name: shape for shape in model_layers(model)}
        )
    if layer not in layers:
        raise ValueError(f"model {model!r} has no layer {layer!r}")
    return layers[layer]


def execute_pattern_search_cell(cell: PatternSearchCell) -> PatternSearchRecord:
    """Run the two-stage search for one cell on its real layer shape.

    Pure function of ``cell`` (module-level, so it pickles into process-pool
    workers).  Unknown models/layers raise — the *grid* is wrong; a layer
    shape that cannot hold the pattern returns ``"not-applicable"``.
    """
    shape = _find_layer(cell.model, cell.layer)
    m, k = shape.gemm.m, shape.gemm.k
    if m % cell.vector_size:
        return PatternSearchRecord(
            cell,
            status="not-applicable",
            layer_count=shape.count,
            detail=f"M={m} is not divisible by V={cell.vector_size}",
        )
    scores = _memoised_layer_scores(cell.model, cell.layer, m, k, cell.seed)
    result = search_shflbw_pattern(
        scores,
        density=cell.density,
        vector_size=cell.vector_size,
        beta_factor=cell.beta_factor,
        kmeans_iters=cell.kmeans_iters,
        seed=cell.seed,
    )
    return PatternSearchRecord(
        cell,
        status="ok",
        retained_score=result.retained_score,
        total_score=result.total_score,
        density=result.density,
        layer_count=shape.count,
    )


def _execute_pattern_search_cells(
    cells: list[PatternSearchCell],
) -> list[PatternSearchRecord]:
    """Serial batch executor (the :class:`CellTask` entry point)."""
    return [execute_pattern_search_cell(cell) for cell in cells]


#: The pattern search as a sweep-runner cell family.
PATTERN_SEARCH_TASK = CellTask(
    name="pattern-search",
    execute=_execute_pattern_search_cells,
    salt=PATTERN_SEARCH_SALT,
    encode=encode_record,
    decode=record_decoder(PatternSearchRecord),
)


def pattern_search_cells(
    models: tuple[str, ...] = MODEL_NAMES,
    vector_sizes: tuple[int, ...] = PAPER_VECTOR_SIZES,
    sparsities: tuple[float, ...] = (0.80, 0.90),
    *,
    kmeans_iters: int = 4,
    beta_factor: float = 2.0,
    seed: int = 0,
) -> list[PatternSearchCell]:
    """Expand the grid: one cell per (model, layer, V, sparsity)."""
    cells: list[PatternSearchCell] = []
    for model in models:
        for shape in model_layers(model):
            for vector_size in vector_sizes:
                for sparsity in sparsities:
                    cells.append(
                        PatternSearchCell(
                            model=model,
                            layer=shape.name,
                            vector_size=vector_size,
                            sparsity=sparsity,
                            beta_factor=beta_factor,
                            kmeans_iters=kmeans_iters,
                            seed=seed,
                        )
                    )
    return cells


def collate_pattern_search(
    records: list[PatternSearchRecord],
) -> dict[tuple[str, int], dict[float, float | None]]:
    """Per-(model, V) retained-importance fraction by sparsity.

    Layers are weighted by their raw score sums times their multiplicity in
    the model, so the fraction is exactly "importance kept / importance
    present" over the whole model.  A (model, V, sparsity) point where *no*
    layer can hold the pattern reads as ``None``.
    """
    retained: dict[tuple[str, int, float], float] = {}
    totals: dict[tuple[str, int, float], float] = {}
    seen: dict[tuple[str, int], set[float]] = {}
    for record in records:
        cell = record.config
        group = (cell.model, cell.vector_size)
        seen.setdefault(group, set()).add(cell.sparsity)
        if not record.ok:
            continue
        key = (cell.model, cell.vector_size, cell.sparsity)
        retained[key] = retained.get(key, 0.0) + record.retained_score * record.layer_count
        totals[key] = totals.get(key, 0.0) + record.total_score * record.layer_count
    out: dict[tuple[str, int], dict[float, float | None]] = {}
    for group, sparsities in seen.items():
        model, vector_size = group
        out[group] = {
            sparsity: (
                retained[(model, vector_size, sparsity)]
                / totals[(model, vector_size, sparsity)]
                if totals.get((model, vector_size, sparsity))
                else None
            )
            for sparsity in sorted(sparsities)
        }
    return out
