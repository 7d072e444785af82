"""Functional building blocks on top of the autograd :class:`Tensor`.

Softmax / log-softmax / losses / normalisation used by the proxy models.
Everything is composed from the differentiable primitives of
:mod:`repro.nn.tensor`, so no bespoke backward passes are needed here.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "layer_norm",
    "dropout",
    "one_hot",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label array (last axis added)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range")
    out = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, labels[..., None], 1.0, axis=-1)
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray, *, ignore_index: int | None = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (..., C) and integer ``labels`` (...).

    ``ignore_index`` positions (e.g. padding tokens) contribute nothing to the
    loss or the normalisation.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = logits.shape[-1]
    log_probs = log_softmax(logits, axis=-1)
    safe_labels = labels.copy()
    weights = np.ones(labels.shape, dtype=np.float64)
    if ignore_index is not None:
        ignored = labels == ignore_index
        safe_labels[ignored] = 0
        weights[ignored] = 0.0
    target = one_hot(safe_labels, num_classes) * weights[..., None]
    total = -(log_probs * Tensor(target)).sum()
    count = max(1.0, float(weights.sum()))
    return total * (1.0 / count)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, *, eps: float = 1.0e-5) -> Tensor:
    """Layer normalisation over the last dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    normed = centred / (var + eps).sqrt()
    return normed * weight + bias


def dropout(x: Tensor, p: float, *, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)
