"""Neural-network layers on top of the autograd engine.

Only what the proxy models need: linear / embedding / normalisation layers,
2-D convolution and pooling (for the ResNet proxy), an LSTM (for the GNMT
proxy) and multi-head self-attention (for the Transformer proxy).

Every layer whose weight is a candidate for the paper's weight pruning marks
it *prunable*; :meth:`Module.prunable_parameters` walks the module tree and
returns those 2-D weight matrices, which is what the accuracy experiments
prune.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..sparse.spconv import Conv2dSpec, col2im, im2col
from .functional import dropout, layer_norm, softmax
from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "BatchNorm2d",
    "Conv2d",
    "GlobalAvgPool2d",
    "LSTMCell",
    "LSTM",
    "MultiHeadSelfAttention",
]


class Module:
    """Base class: parameter registration, traversal and train/eval mode."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        self._prunable: set[str] = set()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration (automatic via attribute assignment)
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_prunable(self, name: str) -> None:
        """Mark one of this module's parameters as a pruning target."""
        if name not in self._parameters:
            raise KeyError(f"{name!r} is not a registered parameter")
        self._prunable.add(name)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def prunable_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """2-D weight matrices subject to weight pruning."""
        for name in self._prunable:
            yield f"{prefix}{name}", self._parameters[name]
        for name, module in self._modules.items():
            yield from module.prunable_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value, keyed by its dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameter values saved by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _init_matrix(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> Tensor:
    """Kaiming-uniform-ish initialisation used by every weight matrix."""
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear(Module):
    """Fully connected layer ``y = x @ W^T + b`` with a prunable weight.

    The weight has shape ``(out_features, in_features)``, matching the
    ``(M, K)`` orientation of the SpMM kernels (output rows are the sparse
    dimension).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _init_matrix(rng, in_features, (out_features, in_features))
        self.register_prunable("weight")
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return x.linear(self.weight, self.bias)


class Embedding(Module):
    """Token embedding table (not a pruning target in the paper)."""

    def __init__(self, num_embeddings: int, dim: int, *, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(rng.normal(0.0, 0.1, size=(num_embeddings, dim)), requires_grad=True)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.weight.gather_rows(np.asarray(token_ids, dtype=np.int64))


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, *, eps: float = 1.0e-5):
        super().__init__()
        self.eps = eps
        self.weight = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, eps=self.eps)


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) for NCHW feature maps."""

    def __init__(self, channels: int, *, eps: float = 1.0e-5, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.weight = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
            centred = x - mean
        normed = centred / (var + self.eps).sqrt()
        scale = self.weight.reshape(1, -1, 1, 1)
        shift = self.bias.reshape(1, -1, 1, 1)
        return normed * scale + shift


class Conv2d(Module):
    """2-D convolution via im2col, with a prunable GEMM-view weight.

    The weight is stored directly in the implicit-GEMM layout
    ``(out_channels, in_channels * KH * KW)`` — the same matrix the Shfl-BW
    convolution kernel prunes and compresses.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.spec = Conv2dSpec(
            in_channels=in_channels,
            out_channels=out_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
        )
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = _init_matrix(rng, fan_in, (out_channels, fan_in))
        self.register_prunable("weight")
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        spec = self.spec
        n, _, h, w = x.shape
        oh, ow = spec.output_hw(h, w)
        cols = im2col(x.data, spec)  # (C*k*k, N*OH*OW)
        weight = self.weight
        out2d = weight.data @ cols
        out_data = out2d.reshape(spec.out_channels, n, oh, ow).transpose(1, 0, 2, 3)

        input_shape = x.shape

        def backward(grad: np.ndarray):
            grad2d = grad.transpose(1, 0, 2, 3).reshape(spec.out_channels, -1)
            grad_weight = grad2d @ cols.T
            if not x.requires_grad:
                return None, grad_weight
            grad_input = col2im(weight.data.T @ grad2d, input_shape, spec)
            return grad_input, grad_weight

        out = x._make(out_data, (x, weight), backward)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out


class GlobalAvgPool2d(Module):
    """Average over the spatial dimensions, producing (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))


class LSTMCell(Module):
    """A single LSTM cell with prunable input/hidden weight matrices."""

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = _init_matrix(rng, input_size, (4 * hidden_size, input_size))
        self.weight_hh = _init_matrix(rng, hidden_size, (4 * hidden_size, hidden_size))
        self.register_prunable("weight_ih")
        self.register_prunable("weight_hh")
        self.bias = Tensor(np.zeros(4 * hidden_size), requires_grad=True)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        # Only the input product is one ``linear`` node.  Through its
        # transpose nodes, ``weight_hh``'s per-step gradients arrive first
        # step first; one node per step would deliver them last step first
        # and sum them in another order.
        gates = x.linear(self.weight_ih) + h @ self.weight_hh.T + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        return (
            Tensor(np.zeros((batch, self.hidden_size))),
            Tensor(np.zeros((batch, self.hidden_size))),
        )


class LSTM(Module):
    """Unidirectional LSTM over a (batch, time, features) sequence."""

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        batch, steps, _ = x.shape
        if state is None:
            state = self.cell.initial_state(batch)
        outputs = []
        for t in range(steps):
            step_input = x[:, t, :]
            h, c = self.cell(step_input, state)
            state = (h, c)
            outputs.append(h)
        return Tensor.stack(outputs, axis=1), state


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with prunable projection weights."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        *,
        dropout_p: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError("dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.dropout_p = dropout_p
        self._rng = rng
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, seq, dim = x.shape
        heads, hd = self.num_heads, self.head_dim

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

        q = split_heads(self.q_proj(x))
        k = split_heads(self.k_proj(x))
        v = split_heads(self.v_proj(x))

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
        if mask is not None:
            scores = scores + Tensor(np.where(mask, 0.0, -1.0e9))
        attn = softmax(scores, axis=-1)
        attn = dropout(attn, self.dropout_p, rng=self._rng, training=self.training)
        context = attn @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        return self.out_proj(context)
