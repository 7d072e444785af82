"""Training and masked fine-tuning loops for the proxy models.

The accuracy experiments follow the classic prune-then-fine-tune recipe: train
a dense proxy, prune its prunable weight matrices by magnitude with one of the
pattern masks of :mod:`repro.core.pruning`, then fine-tune with the masks held
fixed (masked gradients).  The proxy models in :mod:`repro.models` expose two
methods used here:

* ``loss(batch) -> Tensor`` — differentiable training loss for a batch,
* ``evaluate(batch) -> float`` — the task metric (BLEU or top-1 accuracy).
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .layers import Module
from .optim import Adam, Optimizer, SGD, clip_grad_norm
from .tensor import no_grad

__all__ = [
    "TrainConfig",
    "TrainResult",
    "build_masks",
    "apply_masks",
    "mask_gradients",
    "train_model",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training / fine-tuning run."""

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1.0e-3
    optimizer: str = "adam"
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")


@dataclass
class TrainResult:
    """Outcome of a training run."""

    losses: list[float]
    final_metric: float
    epochs: int


def _make_optimizer(model: Module, config: TrainConfig) -> Optimizer:
    if config.optimizer == "adam":
        return Adam(model.parameters(), lr=config.learning_rate)
    return SGD(model.parameters(), lr=config.learning_rate, momentum=0.9)


def build_masks(
    model: Module, mask_of: Callable[[np.ndarray], np.ndarray]
) -> dict[str, np.ndarray]:
    """Prune every prunable weight of ``model`` and return the keep-masks.

    ``mask_of`` maps a weight's magnitudes (the paper's criterion) to its
    boolean keep-mask, e.g. one of the :mod:`repro.core.pruning` masks at a
    fixed density.  A layer whose shape cannot hold the pattern, so that
    ``mask_of`` raises ``ValueError`` (rows not divisible by the vector
    size, or a stem conv whose reduction length is not divisible by the
    block size), is left dense, matching common pruning practice.
    """
    masks: dict[str, np.ndarray] = {}
    for name, param in model.prunable_parameters():
        # Non-finite weights are corruption (diverged training), not a
        # pattern-infeasibility: raise before the tolerant mask call below
        # can read the mask's finite-score rejection as "leave the layer
        # dense" and hide the problem.
        if not np.all(np.isfinite(param.data)):
            raise ValueError(
                f"weights of prunable layer {name!r} contain non-finite values"
            )
        try:
            masks[name] = mask_of(np.abs(param.data))
        except ValueError:
            continue
    return masks


def apply_masks(model: Module, masks: dict[str, np.ndarray]) -> None:
    """Zero out pruned weights in-place."""
    for name, param in model.prunable_parameters():
        if name in masks:
            param.data = param.data * masks[name]


def mask_gradients(model: Module, masks: dict[str, np.ndarray]) -> None:
    """Zero gradients of pruned weights so fine-tuning keeps the pattern."""
    for name, param in model.prunable_parameters():
        if name in masks and param.grad is not None:
            param.grad = param.grad * masks[name]


#: glibc's ``mallopt`` parameter for the free heap kept on top when trimming.
_M_TOP_PAD = -2
#: glibc's ``mallopt`` parameter for the size above which ``malloc`` maps
#: a block of its own instead of carving it from the heap.
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep up to 64 MiB of freed heap in the process instead of returning it.

    A training step's graph is freed as ``backward()`` consumes it.  With
    glibc's default 128 KiB top pad, ``free`` hands that memory back to the
    OS and the next step faults it in again, page by page.

    Setting the top pad also stops glibc from raising the mmap threshold as
    mapped blocks are freed, and freezes it wherever the process's heap
    history had left it; which arrays then live on the kept heap, and the
    peak resident set with them, would depend on what ran before.  So the
    threshold is pinned too, at glibc's default 128 KiB.  These are
    process-wide allocator settings; they are a no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 128 << 10)


def train_model(
    model: Module,
    task,
    config: TrainConfig,
    *,
    masks: dict[str, np.ndarray] | None = None,
) -> TrainResult:
    """Train (or fine-tune) a proxy model on a synthetic task.

    Parameters
    ----------
    model:
        A proxy model exposing ``loss(batch)`` and ``evaluate(batch)``.
    task:
        A dataset from :mod:`repro.nn.data` exposing ``train_split`` /
        ``valid_split`` / ``batches``.
    config:
        Training hyper-parameters.
    masks:
        Optional pruning masks; when given, weights and gradients are masked
        every step so the sparsity pattern is preserved.

    Each step's ``backward()`` frees that step's graph, so the next forward
    starts from the parameters alone.  So that the freed memory serves the
    next step rather than going back to the OS, this sets the process-wide
    glibc top pad to 64 MiB (``mallopt(M_TOP_PAD)``) and pins the mmap
    threshold at its 128 KiB default (``mallopt(M_MMAP_THRESHOLD)``); both
    are no-ops elsewhere.
    """
    _keep_freed_heap()
    optimizer = _make_optimizer(model, config)
    rng = np.random.default_rng(config.seed)
    train_split = task.train_split()
    valid_split = task.valid_split()

    if masks:
        apply_masks(model, masks)

    losses: list[float] = []
    model.train()
    for _ in range(config.epochs):
        for batch in task.batches(train_split, config.batch_size, rng=rng):
            optimizer.zero_grad()
            loss = model.loss(batch)
            loss.backward()
            if masks:
                mask_gradients(model, masks)
            clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            if masks:
                apply_masks(model, masks)
            losses.append(float(loss.data))

    model.eval()
    with no_grad():
        metric = model.evaluate(valid_split)
    return TrainResult(losses=losses, final_metric=float(metric), epochs=config.epochs)
