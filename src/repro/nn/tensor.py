"""A minimal reverse-mode automatic-differentiation engine on numpy arrays.

The accuracy side of the paper's evaluation (Table 1, Figure 2) requires
training and fine-tuning pruned models.  PyTorch is not available in this
environment, so this module provides the smallest autograd core that supports
the proxy models in :mod:`repro.models`: dense/elementwise ops, matmul,
reductions, indexing/embedding gather, and the shape manipulations the layers
need.  It is intentionally simple — eager, define-by-run, float64.

Every fast path performs the same float operations in the same order as the
generic expression it replaces, so training results stay bit-identical; the
property tests in ``tests/nn/test_fast_paths.py`` pin each one with
``np.array_equal``.

A graph is single-use.  :meth:`Tensor.backward` visits nodes in one
topological order and releases each interior node once it has passed its
gradient on: its closure, its parents and the engine's own reference go,
so activations are freed while the backward pass runs rather than when
it returns.  A consumed node keeps a sentinel closure, and a second
``backward()`` that reaches one raises ``RuntimeError``.

Gradients reach each node in topological order, and the engine adds them
in that order, as ``((g1 + g2) + g3) + ...`` would; only where the sum
lives differs.  The first contribution is kept as given, because backward
closures may return an alias of another node's gradient (``_unbroadcast``
and the pass-through ops do).  The second allocates the sum, and later
ones add into it in place, which is where the sum would be anyway.  An
in-place add keeps the buffer's layout, so only a C-ordered sum (the
layout ``sum + g`` has whenever ``sum`` is C-ordered) is added into;
other layouts keep summing out of place.  A leaf's first gradient is
``grad + 0.0`` in a fresh array, which has the bits of
``zeros_like(data) + grad``, and its layout unless data and gradient are
ordered differently and neither is C-ordered.

A basic-index slice ``x[index]`` returns a lazy gradient, which the
engine adds straight into ``x``'s gradient buffer at ``index``.  The
dense gradient adds the slice into zeros, which turns every ``-0.0`` of
``x``'s sum into ``+0.0``; so a buffer that started from a dense
contribution, and may therefore hold ``-0.0``, gets ``+ 0.0`` once
before its first scatter.  A buffer that started from zeros needs none:
a sum is ``-0.0`` only when both of its terms are.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad"]


_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling gradient tracking (for evaluation loops)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing (no target can repeat).

    Slices, integers, ``None`` and ``Ellipsis``, alone or in a tuple.  A
    ``bool`` is an advanced (mask) index even though it is an ``int``.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


def _matmul_grads(a: np.ndarray, b: np.ndarray, grad: np.ndarray, need_a: bool, need_b: bool):
    """Gradients of ``a @ b`` for ``a`` and ``b`` (``None`` where not needed)."""
    grad_a = grad_b = None
    # Batched operands contract over the batch dimensions; for 2-D ones
    # ``_unbroadcast`` is the identity.
    if need_a:
        grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if need_b and a.ndim == 3 and b.ndim == 2 and len(a) and b.size > 1:
        # The per-item products the batched matmul makes, summed in
        # ``.sum(axis=0)``'s sequential order without the (B, K, N)
        # temporary.  A 1x1 ``b`` is excluded: its axis-0 sum is a 1-D
        # pairwise sum.
        grad_b = a[0].T @ grad[0]
        for i in range(1, len(a)):
            grad_b += a[i].T @ grad[i]
    elif need_b:
        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return grad_a, grad_b


class _SliceGrad:
    """The gradient of ``operand[index]`` for a basic ``index``, unscattered.

    :meth:`dense` is the operand-shaped gradient: ``grad`` added into zeros
    at ``index``.  :meth:`Tensor.backward` adds ``grad`` straight into the
    operand's gradient buffer instead (see the module docstring).
    """

    __slots__ = ("operand", "index", "grad")

    def __init__(self, operand: np.ndarray, index, grad: np.ndarray):
        self.operand = operand
        self.index = index
        self.grad = grad

    def add_to(self, buffer: np.ndarray) -> np.ndarray:
        # A basic index selects each element at most once, so one in-place
        # add equals the unbuffered scatter-add.
        buffer[self.index] += self.grad
        return buffer

    def dense(self) -> np.ndarray:
        return self.add_to(np.zeros_like(self.operand))


def _consumed(grad: np.ndarray):
    """The closure of a node whose graph a backward pass has consumed."""
    raise RuntimeError(
        "backward() through a graph that an earlier backward() consumed; run the forward again"
    )


# How :meth:`Tensor.backward` holds a node's running gradient sum: as a
# contribution was given (it may alias another node's gradient), or in a
# C-ordered buffer the engine allocated, which may hold ``-0.0`` (OWNED) or
# cannot (CLEAN).
_GIVEN, _OWNED, _CLEAN = range(3)


def _add_grad(entry: list | None, grad) -> list:
    """``[sum, state]`` after adding ``grad``, with the bits and layout of
    ``sum + grad`` (``sum + slice.dense()`` for a slice gradient)."""
    if isinstance(grad, _SliceGrad):
        if entry is None:
            buffer = np.zeros_like(grad.operand)
        elif entry[1] == _GIVEN:
            # ``+ 0.0`` in the layout the dense sum would have had.
            buffer = entry[0] + np.zeros_like(grad.operand)
        else:
            buffer = entry[0]
            if entry[1] == _OWNED:
                buffer += 0.0
        grad.add_to(buffer)
        return [buffer, _CLEAN if buffer.flags.c_contiguous else _GIVEN]
    if entry is None:
        return [grad, _GIVEN]
    if entry[1] == _GIVEN:
        total = entry[0] + grad
        return [total, _OWNED if total.flags.c_contiguous else _GIVEN]
    # ``sum + grad`` of a C-ordered sum is C-ordered too.  A sum is
    # ``-0.0`` only where both terms are, so a CLEAN sum stays clean.
    entry[0] += grad
    return entry


class Tensor:
    """A numpy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like values (stored as ``float64``).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` on
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape), requires_grad=requires_grad)

    @classmethod
    def ones(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.ones(shape), requires_grad=requires_grad)

    @classmethod
    def randn(cls, *shape: int, rng: np.random.Generator | None = None, scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return cls(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)

    @staticmethod
    def as_tensor(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, state: int) -> None:
        if self.grad is not None:
            self.grad = self.grad + grad
        elif state == _GIVEN:
            # ``zeros_like(data) + grad`` is C-ordered when either term is.
            like = grad if grad.flags.c_contiguous else self.data
            self.grad = np.add(grad, 0.0, out=np.empty_like(like))
        else:
            if state == _OWNED:
                grad += 0.0
            self.grad = grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor (defaults to d(self)/d(self) = 1).

        Consumes the graph: every interior node reached is released once it
        has passed its gradient on (see the module docstring).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order over the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _consumed:
                _consumed(grad)  # raises before any gradient flows
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Popping from ``order`` drops the engine's reference to each node.
        sums: dict[int, list] = {id(self): [grad, _GIVEN]}
        while order:
            node = order.pop()
            entry = sums.pop(id(node), None)
            backward, parents = node._backward, node._parents
            if backward is None:
                if entry is not None:
                    node._accumulate(*entry)
                continue
            node._backward, node._parents = _consumed, ()
            if entry is None:
                continue
            parent_grads = backward(entry[0])
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for parent, pgrad in zip(parents, parent_grads, strict=True):
                if pgrad is None or not parent.requires_grad:
                    continue
                sums[id(parent)] = _add_grad(sums.get(id(parent)), pgrad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.data.shape) if self.requires_grad else None,
                _unbroadcast(grad, other.data.shape) if other.requires_grad else None,
            )

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other.data, self.data.shape) if self.requires_grad else None,
                _unbroadcast(grad * self.data, other.data.shape) if other.requires_grad else None,
            )

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other.data, self.data.shape) if self.requires_grad else None,
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
                if other.requires_grad
                else None,
            )

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray):
            return (grad * exponent * np.power(self.data, exponent - 1),)

        return self._make(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)

        def backward(grad: np.ndarray):
            return _matmul_grads(
                self.data, other.data, grad, self.requires_grad, other.requires_grad
            )

        return self._make(self.data @ other.data, (self, other), backward)

    def linear(self, weight: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
        """``self @ weight.T + bias`` as one node.

        The bias is added in place into the fresh GEMM output, which has the
        bits of the out-of-place sum, and the gradients are those of the
        transpose, matmul and add nodes this replaces.  Parents are ordered
        ``(self, weight, bias)``, so the topological sort reaches them in the
        order it reached them through those nodes.
        """
        out = self.data @ weight.data.T
        if bias is not None:
            out += bias.data

        def backward(grad: np.ndarray):
            grad_x, grad_wt = _matmul_grads(
                self.data, weight.data.T, grad, self.requires_grad, weight.requires_grad
            )
            grads = (grad_x, None if grad_wt is None else grad_wt.T)
            if bias is None:
                return grads
            return grads + (_unbroadcast(grad, bias.data.shape) if bias.requires_grad else None,)

        parents = (self, weight) if bias is None else (self, weight, bias)
        return self._make(out, parents, backward)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return self._make(self.data * mask, (self,), backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out**2),)

        return self._make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # ``1.0 / (1.0 + np.exp(-x))`` in one buffer.
        out = np.negative(self.data)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)

        def backward(grad: np.ndarray):
            result = grad * out
            result *= 1.0 - out
            return (result,)

        return self._make(out, (self,), backward)

    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * out,)

        return self._make(out, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / out,)

        return self._make(out, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray):
            g = np.asarray(grad)
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return self._make(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return self._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray):
            if _is_basic_index(index):
                return (_SliceGrad(self.data, index, grad),)
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._make(self.data[index], (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style gather: select rows by an integer index array."""
        indices = np.asarray(indices, dtype=np.int64)

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, indices.reshape(-1), grad.reshape(-1, self.data.shape[-1]))
            return (full,)

        return self._make(self.data[indices], (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray):
            splits = np.cumsum(sizes)[:-1]
            return tuple(np.split(grad, splits, axis=axis))

        parents = tuple(tensors)
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.as_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray):
            return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

        parents = tuple(tensors)
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out
