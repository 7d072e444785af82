"""Prune-and-fine-tune a GNMT-style proxy with different sparsity patterns
(Table 1 / Figure 2 style, at example scale).

Trains the proxy LSTM seq2seq model on the synthetic translation task, prunes
its weight matrices to 80 % sparsity with block-wise, vector-wise and Shfl-BW
patterns, fine-tunes each pruned model with the mask held fixed, and reports
BLEU next to the kernel speedup on the real GNMT layer shapes.

Run with::

    python examples/gnmt_prune_finetune.py
"""

from __future__ import annotations

from repro.core import block_wise_mask, search_shflbw_pattern, unstructured_mask, vector_wise_mask
from repro.eval import KernelSpec, SweepRunner, SweepSpec
from repro.models import GNMTConfig, GNMTProxy
from repro.nn import SyntheticTranslationTask, TrainConfig, build_masks, train_model

SPARSITY = 0.80
DENSITY = 1.0 - SPARSITY
GPU = "V100"
#: (label, keep-mask of a weight's magnitudes at proxy scale, kernel on the real shapes)
CONFIGS = [
    ("Unstructured", lambda s: unstructured_mask(s, DENSITY), KernelSpec("sputnik")),
    (
        "BW, V=32",
        lambda s: block_wise_mask(s, DENSITY, 8),
        KernelSpec("cusparse-bsr", {"block_size": 32}),
    ),
    (
        "VW, V=32",
        lambda s: vector_wise_mask(s, DENSITY, 8),
        KernelSpec("vector-wise", {"vector_size": 32}),
    ),
    (
        "Shfl-BW, V=32",
        lambda s: search_shflbw_pattern(s, DENSITY, 8).mask,
        KernelSpec("shfl-bw", {"vector_size": 32}),
    ),
    (
        "Shfl-BW, V=64",
        lambda s: search_shflbw_pattern(s, DENSITY, 16).mask,
        KernelSpec("shfl-bw", {"vector_size": 64}),
    ),
]


def main() -> None:
    task = SyntheticTranslationTask(seed=0)
    model = GNMTProxy(GNMTConfig(vocab_size=task.vocab_size))

    print("training the dense GNMT proxy ...")
    dense_result = train_model(model, task, TrainConfig(epochs=6, learning_rate=3e-3, batch_size=64))
    dense_state = model.state_dict()
    print(f"dense proxy BLEU: {dense_result.final_metric:.2f}\n")

    # One timing grid prices every pattern's kernel on the real GNMT shapes.
    spec = SweepSpec(
        kernels=tuple(kernel for *_, kernel in CONFIGS),
        gpus=(GPU,),
        sparsities=(SPARSITY,),
        models=("gnmt",),
    )
    timing = SweepRunner().run(spec).by_config()
    dense_time = timing[spec.dense_config("gnmt", GPU)].time_s

    print(f"{'pattern':<16}{'BLEU':>8}{'drop':>8}{'kernel speedup (V100)':>24}")
    for label, mask_of, kernel in CONFIGS:
        model.load_state_dict(dense_state)
        masks = build_masks(model, mask_of)
        finetuned = train_model(
            model, task, TrainConfig(epochs=3, learning_rate=1.5e-3, batch_size=64), masks=masks
        )
        record = timing[spec.config(kernel, "gnmt", GPU, SPARSITY)]
        speedup = f"{dense_time / record.time_s:.2f}x" if record.ok else "-"
        drop = dense_result.final_metric - finetuned.final_metric
        print(f"{label:<16}{finetuned.final_metric:>8.2f}{drop:>8.2f}{speedup:>24}")


if __name__ == "__main__":
    main()
