"""Bit-identity of the autograd fast paths against the expressions they replace.

Each fast path in :mod:`repro.nn.tensor`, :mod:`repro.nn.optim` and
:class:`repro.nn.layers.Conv2d` must perform the same float operations in
the same order as the generic expression, so training results (and every
report built on them) keep their bytes.  These properties compare with
``np.array_equal`` on tie-heavy, zero-heavy and ``-0.0``-containing inputs:
normal draws never reach the signed-zero case, where ``0.0 + -0.0`` and a
plain store differ.  The engine's gradient sums are checked against
:func:`_reference_backward`, the out-of-place algorithm they replace.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval.accuracy import AccuracyConfig, _build_model_and_task
from repro.nn.layers import LSTM, Conv2d
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor, _is_basic_index, _SliceGrad, _unbroadcast

SETTINGS = dict(max_examples=60, deadline=None)

VALUE_KINDS = ("mixed", "ties", "zeros", "signed_zeros")


def _values(rng: np.random.Generator, shape, kind: str) -> np.ndarray:
    """Mixed-magnitude values, optionally heavy in ties, zeros or ``-0.0``.

    Magnitudes spanning six decades make float addition order-sensitive, so
    a path that sums the same terms in another order shows.
    """
    x = np.array(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape))
    if kind == "ties":
        x = np.array(rng.choice([-1.5, -1.0, 0.1, 0.3, 1.0, 3.0], size=shape))
    elif kind == "zeros":
        x[rng.random(shape) < 0.7] = 0.0
    elif kind == "signed_zeros":
        x[rng.random(shape) < 0.5] = -0.0
    return x


draws = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(VALUE_KINDS))


def _reference_backward(root: Tensor) -> None:
    """Back-propagation as the engine did it before its in-place sums.

    The same topological order; each slice gradient materialised into zeros;
    every sum out of place, in arrival order; ``zeros_like(data) + grad`` at
    each leaf.  No node is released.
    """
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node._backward is None:
            node.grad = np.zeros_like(node.data) + grad if node.grad is None else node.grad + grad
            continue
        parent_grads = node._backward(grad)
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pgrad in zip(node._parents, parent_grads, strict=True):
            if pgrad is None or not parent.requires_grad:
                continue
            if isinstance(pgrad, _SliceGrad):
                pgrad = pgrad.dense()
            grads[id(parent)] = grads[id(parent)] + pgrad if id(parent) in grads else pgrad


def _record_sums(node: Tensor) -> list[np.ndarray]:
    """Copies of the gradient sums ``node``'s closure receives."""
    received = []
    closure = node._backward

    def recording(grad):
        received.append(grad.copy(order="K"))
        return closure(grad)

    node._backward = recording
    return received


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestBatchedWeightGrad:
    """3-D @ 2-D: the per-item weight grad equals the summed batched product."""

    @settings(**SETTINGS)
    @given(
        batch=st.integers(1, 70),
        rows=st.integers(1, 4),
        inner=st.sampled_from([1, 2, 3, 5, 8, 13]),
        outer=st.sampled_from([1, 2, 3, 7, 16]),
        strided=st.booleans(),
        draw=draws,
    )
    def test_matches_unbroadcast_batched_product(self, batch, rows, inner, outer, strided, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        a = _values(rng, (batch, rows, inner), kind)
        if strided:  # the same values through a non-contiguous view
            a = np.ascontiguousarray(np.swapaxes(a, 1, 2)).swapaxes(1, 2)
        b = Tensor(_values(rng, (inner, outer), kind), requires_grad=True)
        grad = _values(rng, (batch, rows, outer), kind)

        out = Tensor(a, requires_grad=True) @ b
        _, grad_b = out._backward(grad)

        expected = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
        assert grad_b.shape == b.shape
        assert np.array_equal(grad_b, expected)
        assert np.array_equal(np.signbit(grad_b), np.signbit(expected))


@st.composite
def basic_index_cases(draw):
    """A shape and a basic index into it: stepped/negative slices, ints,
    ``None`` and ``Ellipsis``, bare or in a tuple."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    items = []
    for size in shape:
        if draw(st.booleans()):
            items.append(draw(st.integers(-size, size - 1)))
        else:
            bound = st.none() | st.integers(-size - 1, size + 1)
            step = st.none() | st.sampled_from([-3, -2, -1, 1, 2, 3])
            items.append(slice(draw(bound), draw(bound), draw(step)))
    for _ in range(draw(st.integers(0, 2))):
        items.insert(draw(st.integers(0, len(items))), None)
    if draw(st.booleans()):
        # Replace a run of per-axis items by one Ellipsis.
        start = draw(st.integers(0, len(items)))
        stop = draw(st.integers(start, len(items)))
        items[start:stop] = [Ellipsis]
    elif draw(st.booleans()):
        items = items[: draw(st.integers(0, len(items)))]  # trailing axes implied
    index = tuple(items)
    if len(index) == 1 and draw(st.booleans()):
        index = index[0]
    return shape, index


class TestBasicIndexScatter:
    """``__getitem__`` backward on a basic index equals ``np.add.at`` into zeros."""

    @settings(**SETTINGS)
    @given(case=basic_index_cases(), draw=draws)
    def test_matches_add_at_into_zeros(self, case, draw):
        shape, index = case
        seed, kind = draw
        rng = np.random.default_rng(seed)
        assert _is_basic_index(index)
        x = Tensor(_values(rng, shape, kind), requires_grad=True)
        out = x[index]
        grad = _values(rng, out.shape, kind)

        (lazy,) = out._backward(grad)
        scattered = lazy.dense()

        expected = np.zeros(shape)
        np.add.at(expected, index, grad)
        assert np.array_equal(scattered, expected)
        assert np.array_equal(np.signbit(scattered), np.signbit(expected))

    def test_bool_and_array_indices_are_advanced(self):
        for index in (
            True,
            np.True_,
            (slice(None), False),
            [0, 0],
            np.array([1, 1]),
            (0, np.array([0, 0])),
            np.array([True, False]),
        ):
            assert not _is_basic_index(index), index
        for index in (0, np.int64(-1), slice(None, None, -2), None, Ellipsis, (Ellipsis, 1, None)):
            assert _is_basic_index(index), index

    def test_advanced_index_accumulates_repeats(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        for index in ([0, 0, 1], (np.array([1, 1]), 0), True):
            out = x[index]
            grad = np.full(out.shape, -0.0)
            grad.reshape(-1)[0] = 0.5
            (scattered,) = out._backward(grad)
            expected = np.zeros_like(x.data)
            np.add.at(expected, index, grad)
            assert np.array_equal(scattered, expected)
            assert np.array_equal(np.signbit(scattered), np.signbit(expected))


def _binary_grads(op, left, right, left_grad: bool, right_grad: bool):
    lhs = Tensor(left, requires_grad=left_grad)
    rhs = Tensor(right, requires_grad=right_grad)
    op(lhs, rhs).sum().backward()
    return lhs.grad, rhs.grad


ELEMENTWISE_SHAPES = [((3, 4), (4,)), ((2, 3), (2, 3)), ((1, 4), (3, 1))]
BINARY_OPS = {
    "add": (operator.add, ELEMENTWISE_SHAPES),
    "mul": (operator.mul, ELEMENTWISE_SHAPES),
    "truediv": (operator.truediv, ELEMENTWISE_SHAPES),
    "matmul": (operator.matmul, [((3, 4), (4, 2)), ((5, 3, 4), (4, 2)), ((2, 3, 4), (2, 4, 5))]),
}


class TestConstantOperands:
    """No grad for a constant operand; the other operand's grad is unchanged."""

    @settings(**SETTINGS)
    @given(
        op=st.sampled_from(sorted(BINARY_OPS)),
        shapes=st.integers(0, 2),
        constant_left=st.booleans(),
        draw=draws,
    )
    def test_grad_of_the_other_operand_is_unchanged(self, op, shapes, constant_left, draw):
        fn, cases = BINARY_OPS[op]
        left_shape, right_shape = cases[shapes]
        seed, kind = draw
        rng = np.random.default_rng(seed)
        left = _values(rng, left_shape, kind)
        right = _values(rng, right_shape, kind)
        if op == "truediv":
            right[right == 0.0] = 2.0

        both = _binary_grads(fn, left, right, True, True)
        one = _binary_grads(fn, left, right, not constant_left, constant_left)

        constant, variable = (0, 1) if constant_left else (1, 0)
        assert one[constant] is None
        assert np.array_equal(one[variable], both[variable])

    @settings(max_examples=20, deadline=None)
    @given(draw=draws, stride=st.integers(1, 2), padding=st.integers(0, 1))
    def test_conv2d_skips_the_input_grad_of_a_constant_input(self, draw, stride, padding):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        conv = Conv2d(2, 3, 3, stride=stride, padding=padding, rng=rng)
        images = _values(rng, (2, 2, 5, 5), kind)

        grads = []
        for requires_grad in (True, False):
            conv.zero_grad()
            x = Tensor(images, requires_grad=requires_grad)
            conv(x).sum().backward()
            grads.append((x.grad, conv.weight.grad))

        (input_grad, weight_grad), (constant_input_grad, constant_weight_grad) = grads
        assert input_grad is not None and constant_input_grad is None
        assert np.array_equal(constant_weight_grad, weight_grad)


#: Basic indices into the (4, 5) node of :class:`TestGradientSums`.
SUM_SLICES = (
    (slice(1, 3), slice(None)),
    0,
    (slice(None), slice(None, None, -2)),
    (Ellipsis, 2),
    (slice(None), None, slice(1, 4)),
)


class TestGradientSums:
    """In-place sums, slice scatters and leaf gradients equal the
    out-of-place sums they replace, whatever order the kinds arrive in.

    A leaf's first gradient adds ``0.0``, which hides the sign of a zero
    sum, so the interior node's sum is recorded as its closure receives it.
    """

    @settings(**SETTINGS)
    @given(
        first=st.permutations(["dense", "broadcast", "slice"]),
        extra=st.lists(st.sampled_from(["dense", "broadcast", "slice", "alias"]), max_size=3),
        interior=st.booleans(),
        fortran=st.booleans(),
        draw=draws,
    )
    def test_matches_out_of_place_sums(self, first, extra, interior, fortran, draw):
        seed, kind = draw

        def build():
            rng = np.random.default_rng(seed)
            order = "F" if fortran else "C"
            x, scale, partner = (
                Tensor(np.asarray(_values(rng, (4, 5), kind), order=order), requires_grad=True)
                for _ in range(3)
            )
            node = x * scale if interior else x
            received = _record_sums(node) if interior else []
            loss = None
            for consumer in [*first, *extra]:
                if consumer == "dense":
                    out = node * Tensor(_values(rng, (4, 5), kind))
                elif consumer == "broadcast":  # node's gradient is summed over axis 0
                    out = node + Tensor(_values(rng, (3, 4, 5), kind))
                elif consumer == "slice":
                    out = node[SUM_SLICES[rng.integers(len(SUM_SLICES))]]
                else:  # the add hands node and partner the same array
                    out = node + partner
                term = (out * Tensor(_values(rng, out.shape, kind))).sum()
                loss = term if loss is None else loss + term
            return loss, [x, scale, partner], received

        loss, leaves, want_received = build()
        _reference_backward(loss)
        expected = [leaf.grad for leaf in leaves]
        loss, leaves, received = build()
        loss.backward()
        got = [leaf.grad for leaf in leaves]
        for actual, want in zip(got + received, expected + want_received, strict=True):
            if want is None:
                assert actual is None
            else:
                _assert_same_bits(actual, want)
                assert actual.strides == want.strides

    @pytest.mark.parametrize(
        "consumers",
        [
            ("dense", "slice"),
            ("slice", "dense"),
            ("dense", "dense", "slice"),
            ("slice", "dense", "dense"),
            ("dense", "slice", "slice", "dense"),
        ],
    )
    def test_zero_signs_around_slices(self, consumers):
        """All-``-0.0`` contributions: only the ``+ 0.0`` before a buffer's
        first scatter keeps the sum's zero signs those of the dense sum."""

        def build():
            x = Tensor(np.ones((4, 5)), requires_grad=True)
            node = x * Tensor(np.ones((4, 5)))
            received = _record_sums(node)
            loss = None
            for consumer in consumers:
                out = node[1:3] if consumer == "slice" else node
                term = (out * Tensor(np.full(out.shape, -0.0))).sum()
                loss = term if loss is None else loss + term
            return loss, received

        loss, expected = build()
        _reference_backward(loss)
        loss, received = build()
        loss.backward()
        _assert_same_bits(received[0], expected[0])


class TestLinearNode:
    """``x.linear(W, b)`` equals ``x @ W.T + b`` built from the primitives."""

    @settings(**SETTINGS)
    @given(
        leading=st.sampled_from([(3,), (1,), (2, 3), (1, 4), (5, 1)]),
        features=st.sampled_from([(1, 1), (3, 2), (4, 7)]),
        bias=st.booleans(),
        constant_input=st.booleans(),
        draw=draws,
    )
    def test_matches_primitives(self, leading, features, bias, constant_input, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        in_features, out_features = features
        x0 = _values(rng, (*leading, in_features), kind)
        w0 = _values(rng, (out_features, in_features), kind)
        b0 = _values(rng, (out_features,), kind)
        upstream = _values(rng, (*leading, out_features), kind)

        def run(node: bool):
            x = Tensor(x0, requires_grad=not constant_input)
            w = Tensor(w0, requires_grad=True)
            b = Tensor(b0, requires_grad=True) if bias else None
            if node:
                out = x.linear(w, b)
            else:
                out = x @ w.T
                if b is not None:
                    out = out + b
            (out * Tensor(upstream)).sum().backward()
            return [out.data, x.grad, w.grad, None if b is None else b.grad]

        for got, want in zip(run(True), run(False), strict=True):
            if want is None:
                assert got is None
            else:
                _assert_same_bits(got, want)

    @settings(max_examples=30, deadline=None)
    @given(steps=st.integers(2, 4), draw=draws)
    def test_lstm_matches_primitives(self, steps, draw):
        """The LSTM's gradients keep the bits of its all-primitive graph,
        whose per-step weight gradients arrive in their own orders."""
        seed, kind = draw
        rng = np.random.default_rng(seed)
        lstm = LSTM(3, 4, rng=rng)
        cell = lstm.cell
        x0 = _values(rng, (2, steps, 3), kind)
        upstream = _values(rng, (2, steps, 4), kind)

        def primitives(x: Tensor) -> Tensor:
            h, c = cell.initial_state(2)
            outputs = []
            for t in range(steps):
                gates = x[:, t, :] @ cell.weight_ih.T + h @ cell.weight_hh.T + cell.bias
                i, f, g, o = (gates[:, k * 4 : (k + 1) * 4] for k in range(4))
                c = f.sigmoid() * c + i.sigmoid() * g.tanh()
                h = o.sigmoid() * c.tanh()
                outputs.append(h)
            return Tensor.stack(outputs, axis=1)

        def run(forward):
            lstm.zero_grad()
            x = Tensor(x0, requires_grad=True)
            with np.errstate(over="ignore"):
                out = forward(x)
                (out * Tensor(upstream)).sum().backward()
            return [out.data, x.grad, *(param.grad for param in lstm.parameters())]

        for got, want in zip(run(lambda x: lstm(x)[0]), run(primitives), strict=True):
            _assert_same_bits(got, want)


class TestReusedTemporaries:
    """``sigmoid`` and ``Adam.step`` compute their parent expressions."""

    @settings(**SETTINGS)
    @given(shape=st.sampled_from([(1,), (3, 4), (2, 3, 5)]), draw=draws)
    def test_sigmoid(self, shape, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        x = _values(rng, shape, kind)
        grad = _values(rng, shape, kind)
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-x))
            out = Tensor(x, requires_grad=True).sigmoid()
        (result,) = out._backward(grad)
        _assert_same_bits(out.data, expected)
        _assert_same_bits(result, grad * expected * (1.0 - expected))

    @settings(**SETTINGS)
    @given(weight_decay=st.sampled_from([0.0, 0.01]), draw=draws)
    def test_adam_step(self, weight_decay, draw):
        seed, kind = draw
        rng = np.random.default_rng(seed)
        param = Tensor(_values(rng, (3, 4), kind), requires_grad=True)
        lr, (beta1, beta2), eps = 1.0e-2, (0.9, 0.999), 1.0e-8
        optimizer = Adam([param], lr=lr, weight_decay=weight_decay)
        data, m, v = param.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for step in range(1, 4):
            grad = _values(rng, (3, 4), kind)
            param.grad = grad.copy()
            optimizer.step()
            if weight_decay:
                grad = grad + weight_decay * data
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad**2
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            data = data - lr * m_hat / (np.sqrt(v_hat) + eps)
            _assert_same_bits(param.data, data)


class TestEngineOnProxies:
    """Two Adam steps of each tiny proxy: the engine against
    :func:`_reference_backward`, every parameter and gradient bit for bit.

    The accuracy golden stores only BLEU/top-1 per cell, so it cannot see a
    last-bit change; this does.
    """

    @staticmethod
    def _two_steps(name: str, backward) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        model, task, config, _ = _build_model_and_task(name, AccuracyConfig(tiny=True))
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        batches = task.batches(task.train_split(), config.batch_size, rng=rng)
        steps = []
        for _ in range(2):
            optimizer.zero_grad()
            backward(model.loss(next(batches)))
            grads = [param.grad.copy(order="K") for param in model.parameters()]
            clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            steps.append(list(zip([p.data for p in model.parameters()], grads, strict=True)))
        return steps

    @pytest.mark.parametrize("name", ["transformer", "gnmt", "resnet"])
    def test_matches_reference_accumulator(self, name):
        engine = self._two_steps(name, Tensor.backward)
        reference = self._two_steps(name, _reference_backward)
        for engine_step, reference_step in zip(engine, reference, strict=True):
            for (data, grad), (want_data, want_grad) in zip(
                engine_step, reference_step, strict=True
            ):
                _assert_same_bits(grad, want_grad)
                # Later reductions over a gradient follow its memory order.
                assert grad.strides == want_grad.strides
                _assert_same_bits(data, want_data)
