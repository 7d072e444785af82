"""Pruned-model accuracy experiments (Table 1 of the paper).

The paper reports BLEU (Transformer, GNMT) and ImageNet top-1 (ResNet50) for
block-wise, vector-wise and Shfl-BW pruning at 80 % and 90 % sparsity.  The
datasets and model scale are not reproducible offline, so the experiment runs
the same protocol on the proxy models of :mod:`repro.models`:

1. train a dense proxy on its synthetic task,
2. for every pattern configuration, prune the trained weights and fine-tune
   with the masks held fixed,
3. report the task metric per configuration.

Because the proxy layers are 8-16x narrower than the real models, the paper's
vector sizes are scaled down by ``vector_scale`` (default 4: paper V=32/64 ->
proxy V=8/16) so the *relative* granularity of the patterns is preserved.
What the experiment is expected to reproduce is the ordering — Shfl-BW >=
vector-wise >= block-wise at equal sparsity, and Shfl-BW at the larger V
competitive with vector-wise at the smaller V — not the absolute BLEU /
accuracy values of the paper.

Execution is structured like the timing sweeps: the grid expands into
hashable :class:`AccuracyCell` configs, and :func:`execute_accuracy_cell` is
a module-level pure function of its cell, so :class:`repro.eval.runner.
SweepRunner` can fan the (model, pattern, sparsity) cells over a process
pool and cache finished :class:`AccuracyRecord` results on disk (canonical-
JSON config hashes, salted like every sweep cache).  Every cell deriving
from the same (model, scale, seed) trains the identical dense proxy; the
dense run is memoised per process so a serial sweep trains it once per
model, exactly like the seed protocol did.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..core.pruning import (
    block_wise_mask,
    search_shflbw_pattern,
    unstructured_mask,
    vector_wise_mask,
)
from ..models.gnmt import GNMTConfig, GNMTProxy
from ..models.resnet import ResNetConfig, ResNetProxy
from ..models.transformer import TransformerConfig, TransformerProxy
from ..nn.data import SyntheticClassificationTask, SyntheticTranslationTask
from ..nn.train import TrainConfig, build_masks, train_model
from .runner import (
    ACCURACY_SALT,
    MODEL_VERSION,
    CellTask,
    canonical_config_hash,
    encode_record,
    record_decoder,
)

__all__ = [
    "AccuracyConfig",
    "PatternSpec",
    "AccuracyResult",
    "AccuracyCell",
    "AccuracyRecord",
    "ACCURACY_TASK",
    "accuracy_cells",
    "collate_accuracy",
    "execute_accuracy_cell",
    "table1_pattern_specs",
]

@dataclass(frozen=True)
class PatternSpec:
    """One row configuration of Table 1."""

    label: str
    pattern: str
    paper_vector_size: int | None = None

    def proxy_vector_size(self, vector_scale: int) -> int | None:
        if self.paper_vector_size is None:
            return None
        return max(4, self.paper_vector_size // vector_scale)


@dataclass(frozen=True)
class AccuracyConfig:
    """Scale of the proxy accuracy experiments.

    ``quick`` keeps runtimes in the tens of seconds for the evaluation CLI;
    the full setting trains longer for smoother numbers.  ``tiny`` shrinks
    both the tasks and the training budget to a few seconds per configuration
    and exists for the automated test/benchmark suites (the resulting metrics
    are noisy and only good for smoke-checking the protocol).
    """

    quick: bool = True
    tiny: bool = False
    vector_scale: int = 4
    seed: int = 0

    @property
    def train_config(self) -> TrainConfig:
        if self.tiny:
            return TrainConfig(epochs=2, batch_size=64, learning_rate=3.0e-3, seed=self.seed)
        if self.quick:
            return TrainConfig(epochs=6, batch_size=64, learning_rate=3.0e-3, seed=self.seed)
        return TrainConfig(epochs=16, batch_size=64, learning_rate=3.0e-3, seed=self.seed)

    @property
    def finetune_config(self) -> TrainConfig:
        if self.tiny:
            return TrainConfig(epochs=1, batch_size=64, learning_rate=1.5e-3, seed=self.seed + 1)
        if self.quick:
            return TrainConfig(epochs=3, batch_size=64, learning_rate=1.5e-3, seed=self.seed + 1)
        return TrainConfig(epochs=8, batch_size=64, learning_rate=1.5e-3, seed=self.seed + 1)

    @property
    def resnet_train_config(self) -> TrainConfig:
        epochs = 1 if self.tiny else (4 if self.quick else 10)
        return TrainConfig(epochs=epochs, batch_size=32, learning_rate=2.0e-3, seed=self.seed)

    @property
    def resnet_finetune_config(self) -> TrainConfig:
        epochs = 1 if self.tiny else (2 if self.quick else 6)
        return TrainConfig(epochs=epochs, batch_size=32, learning_rate=1.0e-3, seed=self.seed + 1)


@dataclass
class AccuracyResult:
    """Metrics of one model across pattern configurations."""

    model: str
    metric_name: str
    dense_metric: float
    results: dict[tuple[str, float], float] = field(default_factory=dict)

    def metric(self, label: str, sparsity: float) -> float | None:
        return self.results.get((label, sparsity))


@dataclass(frozen=True)
class AccuracyCell:
    """One hashable (model, pattern, sparsity) cell of an accuracy sweep.

    ``vector_size`` is the *proxy* (already scaled-down) vector size, so the
    cache key reflects the computation actually performed.  ``quick`` /
    ``tiny`` / ``seed`` pin the training scale; two cells that differ only
    in those fields never share a cache entry.  ``label`` is the display
    name (the Table 1 row label) and is cosmetic: excluded from equality
    and from the hash, exactly like :class:`~repro.eval.runner.RunConfig`.
    """

    model: str
    pattern: str
    sparsity: float
    vector_size: int | None = None
    quick: bool = True
    tiny: bool = False
    seed: int = 0
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.pattern

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {
            "model": self.model,
            "pattern": self.pattern,
            "sparsity": self.sparsity,
            "vector_size": self.vector_size,
            "quick": self.quick,
            "tiny": self.tiny,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AccuracyCell":
        return cls(
            model=data["model"],
            pattern=data["pattern"],
            sparsity=data["sparsity"],
            vector_size=data.get("vector_size"),
            quick=data.get("quick", True),
            tiny=data.get("tiny", False),
            seed=data.get("seed", 0),
            label=data.get("label"),
        )

    def config_hash(self, *, salt: str = MODEL_VERSION) -> str:
        """Stable hex digest (shared keying scheme of every cell family)."""
        return canonical_config_hash(self.to_dict(), salt=salt)

    def scale_config(self) -> AccuracyConfig:
        """The training-scale knobs this cell pins."""
        return AccuracyConfig(quick=self.quick, tiny=self.tiny, seed=self.seed)


@dataclass(frozen=True)
class AccuracyRecord:
    """Result of evaluating one :class:`AccuracyCell`.

    ``status`` is ``"ok"`` (with ``metric`` set) or ``"not-applicable"``
    (``detail`` names the reason — e.g. no prunable layer fits the pattern).
    ``dense_metric`` and ``metric_name`` describe the shared dense proxy the
    cell fine-tuned from, so collation needs no extra dense cells.
    """

    config: AccuracyCell
    status: str
    metric: float | None = None
    metric_name: str | None = None
    dense_metric: float | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """Flat JSON/CSV-friendly form (one row per record)."""
        return {
            **self.config.to_dict(),
            "label": self.config.display_label,
            "status": self.status,
            "metric": self.metric,
            "metric_name": self.metric_name,
            "dense_metric": self.dense_metric,
            "detail": self.detail,
        }


def table1_pattern_specs() -> list[PatternSpec]:
    """The pattern configurations of Table 1 (plus the unstructured reference
    used by Figure 2)."""
    return [
        PatternSpec("Unstructured", "unstructured"),
        PatternSpec("BW, V=32", "blockwise", 32),
        PatternSpec("VW, V=32", "vectorwise", 32),
        PatternSpec("Shfl-BW, V=32", "shflbw", 32),
        PatternSpec("Shfl-BW, V=64", "shflbw", 64),
    ]


def _build_model_and_task(model_name: str, config: AccuracyConfig):
    """Fresh proxy model + synthetic task + train/finetune configs."""
    seed = config.seed
    num_train = 256 if config.tiny else 1024
    if model_name == "transformer":
        task = SyntheticTranslationTask(seed=seed, num_train=num_train)
        model = TransformerProxy(TransformerConfig(vocab_size=task.vocab_size, seed=seed))
        return model, task, config.train_config, config.finetune_config
    if model_name == "gnmt":
        task = SyntheticTranslationTask(seed=seed, num_train=num_train)
        model = GNMTProxy(GNMTConfig(vocab_size=task.vocab_size, seed=seed))
        return model, task, config.train_config, config.finetune_config
    if model_name in ("resnet", "resnet50"):
        task = SyntheticClassificationTask(
            seed=seed, num_train=128 if config.tiny else 256, num_valid=128
        )
        model = ResNetProxy(ResNetConfig(width=32, num_blocks=1, seed=seed))
        return model, task, config.resnet_train_config, config.resnet_finetune_config
    raise ValueError(f"unknown model {model_name!r}")


def _cell_mask(cell: AccuracyCell):
    """The cell's pattern as a function from a weight's magnitudes to its
    keep-mask at the cell's density."""
    density = 1.0 - cell.sparsity
    v = cell.vector_size
    if cell.pattern == "unstructured":
        return lambda scores: unstructured_mask(scores, density)
    if cell.pattern == "blockwise":
        return lambda scores: block_wise_mask(scores, density, v)
    if cell.pattern == "vectorwise":
        return lambda scores: vector_wise_mask(scores, density, v)
    if cell.pattern == "shflbw":
        return lambda scores: search_shflbw_pattern(scores, density, v, seed=cell.seed).mask
    raise ValueError(f"unsupported pattern {cell.pattern!r}")


def _buffer_state(model) -> list[tuple]:
    """Snapshot of every non-parameter module state.

    ``state_dict`` only covers parameters, but fine-tuning also mutates
    batch-norm running mean/variance and (for modules with dropout) the
    module-held random generator; without restoring those, each cell's
    evaluation would depend on which cells ran before it in the same
    process (and serial and parallel sweeps would disagree).
    """
    buffers: list[tuple] = []
    for module in model.modules():
        if hasattr(module, "running_mean") and hasattr(module, "running_var"):
            buffers.append(
                ("norm", module, module.running_mean.copy(), module.running_var.copy())
            )
        rng = getattr(module, "_rng", None)
        if isinstance(rng, np.random.Generator):
            buffers.append(("rng", module, copy.deepcopy(rng.bit_generator.state)))
    return buffers


def _restore_buffers(buffers) -> None:
    for kind, module, *state in buffers:
        if kind == "norm":
            mean, var = state
            module.running_mean = mean.copy()
            module.running_var = var.copy()
        else:
            (rng_state,) = state
            module._rng.bit_generator.state = copy.deepcopy(rng_state)


#: Per-process memo of trained dense proxies, keyed by everything the dense
#: run depends on.  Training is deterministic given the key, so workers that
#: retrain it reach bit-identical states; within a process every cell of the
#: same model reuses one dense run, like the seed protocol.
_DENSE_PROXIES: dict[tuple, tuple] = {}


def _dense_proxy(cell: AccuracyCell):
    """The trained dense proxy shared by every cell of (model, scale, seed).

    Returns ``(model, task, finetune_cfg, dense_state, buffers,
    dense_metric)``; the caller must restore both ``dense_state`` and the
    buffer snapshot before using the model, so every cell starts from the
    identical post-dense-training state regardless of execution order.
    """
    key = (cell.model, cell.quick, cell.tiny, cell.seed)
    entry = _DENSE_PROXIES.get(key)
    if entry is None:
        config = cell.scale_config()
        model, task, train_cfg, finetune_cfg = _build_model_and_task(cell.model, config)
        dense_result = train_model(model, task, train_cfg)
        entry = _DENSE_PROXIES.setdefault(
            key,
            (
                model,
                task,
                finetune_cfg,
                model.state_dict(),
                _buffer_state(model),
                dense_result.final_metric,
            ),
        )
    return entry


def execute_accuracy_cell(cell: AccuracyCell) -> AccuracyRecord:
    """Run the prune + fine-tune protocol for one cell.

    Pure function of ``cell`` (module-level, so it pickles into process-pool
    workers): the dense proxy is trained deterministically from the cell's
    scale/seed fields, pruned with the cell's pattern and fine-tuned with
    the masks held fixed.  A pattern no prunable layer can hold is data, not
    an exception — it returns a ``"not-applicable"`` record.
    """
    model, task, finetune_cfg, dense_state, buffers, dense_metric = _dense_proxy(cell)
    model.load_state_dict(dense_state)
    _restore_buffers(buffers)
    mask_of = _cell_mask(cell)
    # Only mask construction may legitimately declare inapplicability; an
    # error raised by the fine-tune itself is a real bug and must propagate
    # (a swallowed one would be cached as a bogus "not-applicable" record).
    try:
        masks = build_masks(model, mask_of)
        if not masks:
            raise ValueError(
                f"no prunable layer of {cell.model!r} fits pattern {cell.pattern!r}"
            )
    except ValueError as exc:
        model.load_state_dict(dense_state)
        _restore_buffers(buffers)
        return AccuracyRecord(
            cell,
            status="not-applicable",
            metric_name=model.metric_name,
            dense_metric=dense_metric,
            detail=str(exc),
        )
    finetuned = train_model(model, task, finetune_cfg, masks=masks)
    # Restore the dense weights so the memoised proxy stays reusable.
    model.load_state_dict(dense_state)
    _restore_buffers(buffers)
    return AccuracyRecord(
        cell,
        status="ok",
        metric=finetuned.final_metric,
        metric_name=model.metric_name,
        dense_metric=dense_metric,
    )


def _execute_accuracy_cells(cells: list[AccuracyCell]) -> list[AccuracyRecord]:
    """Serial batch executor (the :class:`CellTask` entry point)."""
    return [execute_accuracy_cell(cell) for cell in cells]


#: The accuracy protocol as a sweep-runner cell family.  Contiguous
#: chunking keeps each worker's cells on as few models as possible, so the
#: per-process dense-proxy memo retrains each model's (expensive) dense run
#: once per boundary rather than once per worker per model.
ACCURACY_TASK = CellTask(
    name="accuracy",
    execute=_execute_accuracy_cells,
    salt=ACCURACY_SALT,
    encode=encode_record,
    decode=record_decoder(AccuracyRecord),
    chunking="contiguous",
)


def accuracy_cells(
    models: tuple[str, ...],
    sparsities: tuple[float, ...],
    specs: list[PatternSpec],
    config: AccuracyConfig,
) -> list[AccuracyCell]:
    """Expand a Table 1 grid into cells, model-major, in deterministic order."""
    return [
        AccuracyCell(
            model=model,
            pattern=spec.pattern,
            sparsity=sparsity,
            vector_size=spec.proxy_vector_size(config.vector_scale),
            quick=config.quick,
            tiny=config.tiny,
            seed=config.seed,
            label=spec.label,
        )
        for model in models
        for spec in specs
        for sparsity in sparsities
    ]


def collate_accuracy(records: list[AccuracyRecord]) -> dict[str, AccuracyResult]:
    """Fold records back into per-model :class:`AccuracyResult` tables.

    Not-applicable cells are simply absent from the results dict (their
    metric reads as ``None``), mirroring the bars missing from the paper's
    tables.
    """
    out: dict[str, AccuracyResult] = {}
    for record in records:
        model = record.config.model
        result = out.get(model)
        if result is None:
            result = out.setdefault(
                model,
                AccuracyResult(
                    model=model,
                    metric_name=record.metric_name or "",
                    dense_metric=record.dense_metric or 0.0,
                ),
            )
        if record.ok and record.metric is not None:
            result.results[(record.config.display_label, record.config.sparsity)] = (
                record.metric
            )
    return out
