"""Tests for the workload shape definitions and the proxy models."""

import numpy as np
import pytest

from repro.models.gnmt import GNMTConfig, GNMTProxy
from repro.models.resnet import ResNetConfig, ResNetProxy
from repro.models.shapes import (
    MODEL_NAMES,
    gnmt_layers,
    model_layers,
    resnet50_layers,
    transformer_layers,
)
from repro.models.transformer import TransformerConfig, TransformerProxy
from repro.nn.data import SyntheticClassificationTask, SyntheticTranslationTask


class TestLayerShapes:
    def test_transformer_layer_shapes(self):
        layers = transformer_layers(tokens=256)
        by_name = {layer.name: layer for layer in layers}
        assert by_name["ffn1"].gemm.m == 4096
        assert by_name["ffn1"].gemm.k == 1024
        assert by_name["attn_qkv"].gemm.m == 3072
        assert all(layer.gemm.n == 256 for layer in layers)

    def test_gnmt_layer_shapes(self):
        layers = gnmt_layers(batch=128)
        by_name = {layer.name: layer for layer in layers}
        assert by_name["lstm_ih"].gemm.m == 4096
        assert by_name["proj"].gemm.m == 32000

    def test_resnet_layers_are_convs(self):
        layers = resnet50_layers(batch=8)
        assert all(layer.kind == "conv" for layer in layers)
        # conv3_3x3: 128 output channels, 128*9 reduction.
        by_name = {layer.name: layer for layer in layers}
        assert by_name["conv3_3x3"].gemm.m == 128
        assert by_name["conv3_3x3"].gemm.k == 128 * 9

    def test_rows_divisible_by_paper_vector_sizes(self):
        # The paper prunes these layers at V in {32, 64}; the shapes must
        # admit the pattern.
        for model in MODEL_NAMES:
            for layer in model_layers(model):
                assert layer.gemm.m % 32 == 0
                assert layer.gemm.m % 64 == 0

    def test_model_layers_dispatch(self):
        assert model_layers("transformer")
        assert model_layers("RESNET50")
        with pytest.raises(ValueError):
            model_layers("bert")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            transformer_layers(tokens=0)
        with pytest.raises(ValueError):
            gnmt_layers(batch=0)


class TestTransformerProxy:
    def test_forward_shape(self):
        model = TransformerProxy(TransformerConfig(vocab_size=8, d_model=32, d_ff=64, num_layers=1, num_heads=2))
        logits = model.forward(np.zeros((3, 6), dtype=int))
        assert logits.shape == (3, 6, 8)

    def test_prunable_layers_cover_attention_and_ffn(self):
        model = TransformerProxy(TransformerConfig(vocab_size=8, d_model=32, d_ff=64, num_layers=1, num_heads=2))
        names = [name for name, _ in model.prunable_parameters()]
        assert any("ffn1" in n for n in names)
        assert any("q_proj" in n for n in names)
        assert not any("embedding" in n for n in names)

    def test_sequence_too_long_rejected(self):
        model = TransformerProxy(TransformerConfig(vocab_size=8, max_len=4))
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 10), dtype=int))

    def test_evaluate_returns_bleu(self):
        task = SyntheticTranslationTask(vocab_size=8, seq_len=6, num_valid=16)
        model = TransformerProxy(TransformerConfig(vocab_size=8, d_model=32, d_ff=64, num_layers=1, num_heads=2))
        score = model.evaluate(task.valid_split())
        assert 0.0 <= score <= 100.0


class TestGNMTProxy:
    def test_forward_shape(self):
        model = GNMTProxy(GNMTConfig(vocab_size=8, embed_dim=16, hidden_size=32, num_layers=2))
        logits = model.forward(np.zeros((2, 5), dtype=int))
        assert logits.shape == (2, 5, 8)

    def test_prunable_layers_are_lstm_gates_and_projection(self):
        model = GNMTProxy(GNMTConfig(vocab_size=8, embed_dim=16, hidden_size=32, num_layers=1))
        names = [name for name, _ in model.prunable_parameters()]
        assert any("weight_ih" in n for n in names)
        assert any("weight_hh" in n for n in names)
        assert any("output" in n for n in names)


class TestResNetProxy:
    def test_forward_shape(self):
        model = ResNetProxy(ResNetConfig(width=16, num_blocks=1))
        logits = model.forward(np.zeros((2, 3, 8, 8)))
        assert logits.shape == (2, 10)

    def test_prunable_layers_are_conv_gemm_weights(self):
        model = ResNetProxy(ResNetConfig(width=16, num_blocks=1))
        shapes = [p.data.shape for _, p in model.prunable_parameters()]
        assert (16, 16 * 9) in shapes

    def test_evaluate_returns_percentage(self):
        task = SyntheticClassificationTask(num_train=16, num_valid=16)
        model = ResNetProxy(ResNetConfig(width=16, num_blocks=1))
        acc = model.evaluate(task.valid_split())
        assert 0.0 <= acc <= 100.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ResNetConfig(width=0)
