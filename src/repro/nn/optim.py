"""Optimisers for the proxy-model training loops."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging / divergence checks).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float((param.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad = param.grad * scale
    return norm


class Optimizer:
    """Base optimiser: holds parameters, applies updates in-place."""

    def __init__(self, parameters: list[Tensor], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 1.0e-2,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity, strict=True):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data = param.data - self.lr * update


class Adam(Optimizer):
    """Adam optimiser."""

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 1.0e-3,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1.0e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        beta1, beta2 = self.betas
        for param, m, v in zip(self.parameters, self._m, self._v, strict=True):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            # ``param.data - lr * m_hat / (sqrt(v_hat) + eps)`` through two
            # temporaries; the update buffer becomes the new ``param.data``.
            update = np.multiply(1 - beta1, grad)
            m *= beta1
            m += update
            np.square(grad, out=update)
            update *= 1 - beta2
            v *= beta2
            v += update
            denom = v / (1 - beta2**self._step)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, 1 - beta1**self._step, out=update)
            update *= self.lr
            update /= denom
            param.data = np.subtract(param.data, update, out=update)
