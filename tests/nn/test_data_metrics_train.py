"""Tests for synthetic datasets, metrics and the (masked) training loop."""

import weakref

import numpy as np
import pytest

from repro.models.gnmt import GNMTConfig, GNMTProxy
from repro.models.transformer import TransformerConfig, TransformerProxy
from repro.nn.data import SyntheticClassificationTask, SyntheticTranslationTask
from repro.nn.metrics import bleu_score, top1_accuracy
from repro.nn.train import (
    TrainConfig,
    apply_masks,
    build_masks,
    mask_gradients,
    train_model,
)
from repro.pruning.patterns import ShflBWPruner, UnstructuredPruner


class TestTranslationTask:
    def test_splits_are_deterministic(self):
        task = SyntheticTranslationTask(seed=3)
        a, b = task.train_split(), task.train_split()
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_target_is_permuted_position_mapping(self):
        task = SyntheticTranslationTask(vocab_size=8, seq_len=5, seed=0)
        split = task.train_split()
        positions = np.arange(5)[None, :]
        expected = task._perm[(split.inputs + positions) % 8]
        np.testing.assert_array_equal(split.targets, expected)

    def test_batches_cover_split(self):
        task = SyntheticTranslationTask(num_train=50, seed=0)
        split = task.train_split()
        total = sum(len(b.inputs) for b in task.batches(split, 16))
        assert total == 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticTranslationTask(vocab_size=2)
        task = SyntheticTranslationTask()
        with pytest.raises(ValueError):
            list(task.batches(task.train_split(), 0))


class TestClassificationTask:
    def test_labels_in_range(self):
        task = SyntheticClassificationTask(num_classes=5, num_train=64)
        split = task.train_split()
        assert split.targets.min() >= 0 and split.targets.max() < 5
        assert split.inputs.shape == (64, 3, 8, 8)

    def test_low_noise_images_match_templates(self):
        task = SyntheticClassificationTask(noise=0.01, num_train=32)
        split = task.train_split()
        recovered = np.array(
            [
                np.argmin(((task._templates - img) ** 2).sum(axis=(1, 2, 3)))
                for img in split.inputs
            ]
        )
        assert (recovered == split.targets).mean() > 0.95


class TestMetrics:
    def test_bleu_perfect_match(self):
        refs = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert bleu_score(refs, refs) == pytest.approx(100.0)

    def test_bleu_zero_for_disjoint(self):
        refs = np.array([[1, 2, 3, 4]])
        hyps = np.array([[5, 6, 7, 8]])
        assert bleu_score(refs, hyps) < 1.0

    def test_bleu_partial_match_in_between(self):
        refs = [[1, 2, 3, 4, 5, 6]]
        hyps = [[1, 2, 3, 9, 9, 9]]
        score = bleu_score(refs, hyps)
        assert 0.0 < score < 100.0

    def test_bleu_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu_score([[1]], [[1], [2]])

    def test_top1_accuracy_from_logits(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3) * 5.0
        assert top1_accuracy(labels, logits) == pytest.approx(100.0)


class TestMaskedTraining:
    def _tiny_model_and_task(self):
        task = SyntheticTranslationTask(vocab_size=8, seq_len=6, num_train=64, num_valid=32)
        model = TransformerProxy(
            TransformerConfig(vocab_size=8, d_model=32, d_ff=64, num_layers=1, num_heads=2)
        )
        return model, task

    def test_training_reduces_loss(self):
        model, task = self._tiny_model_and_task()
        result = train_model(model, task, TrainConfig(epochs=2, batch_size=32))
        assert result.losses[-1] < result.losses[0]
        assert result.final_metric >= 0.0

    def test_build_masks_covers_prunable_layers(self):
        model, _ = self._tiny_model_and_task()
        masks, infos = build_masks(model, ShflBWPruner(vector_size=8), 0.75)
        assert masks
        for name, mask in masks.items():
            assert mask.dtype == bool
            assert name in infos

    def test_build_masks_rejects_non_finite_weights(self):
        # Corrupted (diverged) weights must raise loudly instead of reading
        # as "pattern does not fit, leave the layer dense".
        model, _ = self._tiny_model_and_task()
        name, param = next(iter(model.prunable_parameters()))
        param.data[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build_masks(model, UnstructuredPruner(), 0.5)

    def test_apply_masks_zeroes_weights(self):
        model, _ = self._tiny_model_and_task()
        masks, _ = build_masks(model, UnstructuredPruner(), 0.9)
        apply_masks(model, masks)
        for name, param in model.prunable_parameters():
            if name in masks:
                assert np.all(param.data[~masks[name]] == 0.0)

    def test_masked_training_preserves_sparsity(self):
        model, task = self._tiny_model_and_task()
        masks, _ = build_masks(model, UnstructuredPruner(), 0.8)
        apply_masks(model, masks)
        train_model(model, task, TrainConfig(epochs=1, batch_size=32), masks=masks)
        for name, param in model.prunable_parameters():
            if name in masks:
                assert np.all(param.data[~masks[name]] == 0.0)

    def test_mask_gradients_zeroes_pruned_grads(self):
        model, task = self._tiny_model_and_task()
        masks, _ = build_masks(model, UnstructuredPruner(), 0.5)
        apply_masks(model, masks)
        batch = next(task.batches(task.train_split(), 8))
        model.loss(batch).backward()
        mask_gradients(model, masks)
        for name, param in model.prunable_parameters():
            if name in masks and param.grad is not None:
                assert np.all(param.grad[~masks[name]] == 0.0)

    def test_gnmt_proxy_trains(self):
        task = SyntheticTranslationTask(vocab_size=8, seq_len=6, num_train=64, num_valid=32)
        model = GNMTProxy(GNMTConfig(vocab_size=8, embed_dim=16, hidden_size=32, num_layers=1))
        result = train_model(model, task, TrainConfig(epochs=2, batch_size=32))
        assert result.losses[-1] < result.losses[0]

    def test_previous_step_graph_is_freed_before_the_next_forward(self):
        task = SyntheticTranslationTask(vocab_size=8, seq_len=6, num_train=64, num_valid=32)
        model = GNMTProxy(GNMTConfig(vocab_size=8, embed_dim=16, hidden_size=32, num_layers=1))
        forward, graphs = model.loss, []

        def loss(batch):
            assert all(graph() is None for graph in graphs)
            out = forward(batch)
            graphs.append(weakref.ref(out._parents[0]))
            return out

        model.loss = loss
        train_model(model, task, TrainConfig(epochs=1, batch_size=16))
        assert len(graphs) == 4

    def test_invalid_train_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")
