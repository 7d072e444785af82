"""Tests for layers, losses and optimisers of the training substrate."""

import numpy as np
import pytest

from repro.nn.functional import cross_entropy, log_softmax, one_hot, softmax
from repro.nn.layers import (
    LSTM,
    BatchNorm2d,
    Conv2d,
    Embedding,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
)
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.nn.tensor import Tensor

from tests.conftest import numeric_gradient


class TestFunctional:
    def test_softmax_sums_to_one(self, rng):
        probs = softmax(Tensor(rng.normal(size=(4, 7))))
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4))

    def test_log_softmax_consistent(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(log_softmax(x).data, np.log(softmax(x).data), atol=1e-10)

    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(encoded, [[1, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            one_hot(np.array([5]), 3)

    def test_cross_entropy_matches_manual(self, rng):
        logits_np = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = cross_entropy(Tensor(logits_np), labels)
        log_probs = logits_np - np.log(np.exp(logits_np).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert float(loss.data) == pytest.approx(expected)

    def test_cross_entropy_ignore_index(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = np.array([0, 1, -1, 2])
        loss = cross_entropy(logits, labels, ignore_index=-1)
        assert np.isfinite(float(loss.data))

    def test_cross_entropy_gradient(self, rng):
        logits_np = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        x = Tensor(logits_np.copy(), requires_grad=True)
        cross_entropy(x, labels).backward()
        numeric = numeric_gradient(
            lambda arr: float(cross_entropy(Tensor(arr), labels).data), logits_np.copy()
        )
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)


class TwoLinear(Module):
    """The smallest module tree: two ``Linear`` children."""

    def __init__(self, inner: int, hidden: int, outer: int):
        super().__init__()
        self.first = Linear(inner, hidden)
        self.second = Linear(hidden, outer)


class TestModuleMechanics:
    def test_parameter_registration_and_traversal(self):
        model = TwoLinear(4, 8, 2)
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4  # two weights + two biases
        assert sum(p.size for p in model.parameters()) == 4 * 8 + 8 + 8 * 2 + 2

    def test_prunable_parameters_are_2d_weights(self):
        model = TwoLinear(4, 8, 2)
        prunable = dict(model.prunable_parameters())
        assert all(p.data.ndim == 2 for p in prunable.values())
        assert len(prunable) == 2

    def test_state_dict_round_trip(self, rng):
        model = Linear(4, 4, rng=rng)
        state = model.state_dict()
        model.weight.data = np.zeros_like(model.weight.data)
        model.load_state_dict(state)
        np.testing.assert_allclose(model.weight.data, state["weight"])

    def test_load_state_dict_validates(self):
        model = Linear(4, 4)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_train_eval_mode_propagates(self):
        model = TwoLinear(2, 2, 2)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_register_prunable_requires_parameter(self):
        module = Module()
        with pytest.raises(KeyError):
            module.register_prunable("missing")


class TestLayers:
    def test_linear_forward(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(5, 4)))
        out = layer(x)
        np.testing.assert_allclose(out.data, x.data @ layer.weight.data.T + layer.bias.data)

    def test_linear_weight_gradient(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)))
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.data.shape

    def test_linear_weight_gradient_numeric_on_3d_input(self, rng):
        # A (batch, time, features) input takes the 3-D @ 2-D weight-grad path.
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 5, 3)))
        (layer(x) ** 2).sum().backward()

        def loss_for(wdata):
            layer.weight.data = wdata
            return float((layer(x) ** 2).sum().data)

        numeric = numeric_gradient(loss_for, layer.weight.data.copy())
        np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-5)

    def test_embedding_lookup(self, rng):
        emb = Embedding(10, 6, rng=rng)
        out = emb(np.array([[1, 3], [0, 9]]))
        assert out.shape == (2, 2, 6)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_layer_norm_normalises(self, rng):
        ln = LayerNorm(16)
        out = ln(Tensor(rng.normal(size=(4, 16)) * 5 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-2)

    def test_batch_norm_train_and_eval(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 5, 5)) * 2 + 1)
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-6)
        bn.eval()
        out_eval = bn(x)
        assert out_eval.shape == x.shape

    def test_conv2d_matches_reference(self, rng):
        from repro.sparse.spconv import conv2d_dense

        conv = Conv2d(2, 4, 3, padding=1, bias=False, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out = conv(Tensor(x))
        expected = conv2d_dense(x, conv.weight.data.reshape(4, 2, 3, 3), conv.spec)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_conv2d_gradients_flow(self, rng):
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None and x.grad.shape == x.shape
        assert conv.weight.grad is not None

    def test_conv2d_weight_gradient_numeric(self, rng):
        conv = Conv2d(1, 2, 3, padding=1, bias=False, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        w0 = conv.weight.data.copy()

        def loss_for(wdata):
            conv.weight.data = wdata
            return float(conv(Tensor(x)).sum().data)

        conv.weight.data = w0
        out = conv(Tensor(x))
        conv.weight.zero_grad()
        out.sum().backward()
        numeric = numeric_gradient(loss_for, w0.copy())
        np.testing.assert_allclose(conv.weight.grad, numeric, atol=1e-5)
        conv.weight.data = w0

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = GlobalAvgPool2d()(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_lstm_shapes_and_gradients(self, rng):
        lstm = LSTM(6, 8, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 6)), requires_grad=True)
        out, (h, c) = lstm(x)
        assert out.shape == (3, 5, 8)
        assert h.shape == (3, 8) and c.shape == (3, 8)
        out.sum().backward()
        assert lstm.cell.weight_ih.grad is not None
        assert lstm.cell.weight_hh.grad is not None

    def test_attention_shapes_and_gradients(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
        out = attn(x)
        assert out.shape == (2, 5, 16)
        out.sum().backward()
        assert attn.q_proj.weight.grad is not None

    def test_attention_dim_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)


class TestOptim:
    def test_sgd_reduces_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = SGD([x], lr=0.1)
        for _ in range(50):
            opt.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step()
        assert np.abs(x.data).max() < 0.1

    def test_sgd_momentum_faster_than_plain(self):
        def optimise(momentum):
            x = Tensor(np.array([5.0]), requires_grad=True)
            opt = SGD([x], lr=0.02, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                (x * x).sum().backward()
                opt.step()
            return abs(float(x.data[0]))

        assert optimise(0.9) < optimise(0.0)

    def test_adam_reduces_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.3)
        for _ in range(100):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert np.abs(x.data).max() < 0.2

    def test_weight_decay_shrinks_weights(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([x], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (x * 0.0).sum().backward()
        opt.step()
        assert float(x.data[0]) < 1.0

    def test_clip_grad_norm(self, rng):
        x = Tensor(rng.normal(size=(10,)), requires_grad=True)
        (x * 100.0).sum().backward()
        norm = clip_grad_norm([x], max_norm=1.0)
        assert norm > 1.0
        assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_invalid_hyperparameters(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([x], lr=0.0)
        with pytest.raises(ValueError):
            SGD([x], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            clip_grad_norm([x], 0.0)
