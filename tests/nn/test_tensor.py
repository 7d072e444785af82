"""Gradient-correctness tests for the autograd engine (numeric grad checks)."""

import weakref

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad

from tests.conftest import numeric_gradient


def check_gradient(build_fn, x0, atol=1e-5):
    """Compare autograd gradient against a central-difference estimate."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = build_fn(x)
    out.backward()
    numeric = numeric_gradient(lambda arr: float(build_fn(Tensor(arr)).data), x0.copy())
    np.testing.assert_allclose(x.grad, numeric, atol=atol)


class TestBasicOps:
    def test_add_mul_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), x0)

    def test_sub_div_grad(self, rng):
        x0 = rng.normal(size=(3, 3)) + 3.0
        check_gradient(lambda x: ((x - 1.0) / (x + 2.0)).sum(), x0)

    def test_pow_grad(self, rng):
        x0 = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda x: (x**3).sum(), x0)

    def test_matmul_grad(self, rng):
        a0 = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)))
        check_gradient(lambda a: (a @ b).sum(), a0)

    def test_batched_matmul_grad(self, rng):
        a0 = rng.normal(size=(2, 3, 4))
        b = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda a: (a @ b).sum(), a0)

    def test_broadcast_add_grad(self, rng):
        x0 = rng.normal(size=(4,))
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: (other + x).sum(), x0)


class TestNonlinearities:
    def test_relu_grad(self, rng):
        x0 = rng.normal(size=(5, 5)) + 0.1  # avoid the kink at exactly 0
        check_gradient(lambda x: x.relu().sum(), x0)

    def test_tanh_sigmoid_grad(self, rng):
        x0 = rng.normal(size=(4, 4))
        check_gradient(lambda x: x.tanh().sum(), x0)
        check_gradient(lambda x: x.sigmoid().sum(), x0)

    def test_exp_log_sqrt_grad(self, rng):
        x0 = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda x: x.exp().sum(), x0)
        check_gradient(lambda x: x.log().sum(), x0)
        check_gradient(lambda x: x.sqrt().sum(), x0)


class TestReductionsAndShapes:
    def test_sum_axis_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), x0)

    def test_mean_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.mean(axis=1) ** 2).sum(), x0)

    def test_reshape_transpose_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_gradient(lambda x: (x.reshape(2, 6).T ** 2).sum(), x0)

    def test_getitem_grad(self, rng):
        x0 = rng.normal(size=(5, 4))
        check_gradient(lambda x: (x[1:4, :2] ** 2).sum(), x0)

    def test_gather_rows_grad(self, rng):
        x0 = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5])
        check_gradient(lambda x: (x.gather_rows(idx) ** 2).sum(), x0)

    def test_concatenate_stack_grad(self, rng):
        x0 = rng.normal(size=(2, 3))
        other = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda x: Tensor.concatenate([x, other], axis=0).sum() * 2.0, x0)
        check_gradient(lambda x: (Tensor.stack([x, other], axis=0) ** 2).sum(), x0)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x * 2.0).sum() + (x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_backward_on_a_bare_leaf_sets_ones(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        x.backward()
        assert np.array_equal(x.grad, np.ones((1, 3)))

    def test_backward_releases_the_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        hidden = x * 2.0
        watch = weakref.ref(hidden)
        y = (hidden * hidden).sum()
        del hidden
        y.backward()
        assert watch() is None
        assert y._parents == () and y._backward.__closure__ is None
        np.testing.assert_allclose(x.grad, 8.0 * x.data)

    def test_second_backward_through_a_consumed_graph_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        hidden = x * 2.0
        y = hidden.sum()
        y.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            y.backward()
        # A new root over a consumed node raises before any gradient flows.
        with pytest.raises(RuntimeError, match="consumed"):
            (hidden * 3.0 + x).sum().backward()
        assert np.array_equal(x.grad, grad)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_disables_tracking(self):
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * 2.0
        assert not y.requires_grad

    def test_detach_breaks_graph(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = (x.detach() * 2.0).sum()
        assert not y.requires_grad

    def test_zero_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_factory_methods(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0
        assert Tensor.randn(2, 2, rng=np.random.default_rng(0)).shape == (2, 2)
