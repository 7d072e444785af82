"""Minimal numpy training substrate (autograd, layers, optimisers, data,
metrics, training loops) used by the accuracy experiments."""

from .data import Batch, SyntheticClassificationTask, SyntheticTranslationTask
from .functional import (
    cross_entropy,
    dropout,
    layer_norm,
    log_softmax,
    one_hot,
    softmax,
)
from .layers import (
    BatchNorm2d,
    Conv2d,
    Embedding,
    GlobalAvgPool2d,
    LSTM,
    LSTMCell,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
)
from .metrics import bleu_score, top1_accuracy
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .tensor import Tensor, no_grad
from .train import (
    TrainConfig,
    TrainResult,
    apply_masks,
    build_masks,
    mask_gradients,
    train_model,
)

__all__ = [
    "Batch",
    "SyntheticClassificationTask",
    "SyntheticTranslationTask",
    "cross_entropy",
    "dropout",
    "layer_norm",
    "log_softmax",
    "one_hot",
    "softmax",
    "BatchNorm2d",
    "Conv2d",
    "Embedding",
    "GlobalAvgPool2d",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadSelfAttention",
    "bleu_score",
    "top1_accuracy",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "Tensor",
    "no_grad",
    "TrainConfig",
    "TrainResult",
    "apply_masks",
    "build_masks",
    "mask_gradients",
    "train_model",
]
