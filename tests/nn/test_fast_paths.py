"""Bit-identity of the autograd fast paths against the expressions they replace.

Each fast path in :mod:`repro.nn.tensor` and :class:`repro.nn.layers.Conv2d`
must perform the same float operations in the same order as the generic
expression, so training results (and every report built on them) keep their
bytes.  These properties compare with ``np.array_equal`` on tie-heavy,
zero-heavy and ``-0.0``-containing inputs: normal draws never reach the
signed-zero case, where ``0.0 + -0.0`` and a plain store differ.
"""

import operator

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn.layers import Conv2d
from repro.nn.tensor import Tensor, _is_basic_index, _unbroadcast

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

        (scattered,) = out._backward(grad)

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
