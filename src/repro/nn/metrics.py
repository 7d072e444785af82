"""Evaluation metrics used by the accuracy experiments.

* :func:`bleu_score` — corpus BLEU with the standard brevity penalty and
  up-to-4-gram precisions, used for the Transformer / GNMT proxies (the paper
  reports BLEU on WMT),
* :func:`top1_accuracy` — classification accuracy, used for the ResNet proxy
  (the paper reports ImageNet top-1).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

__all__ = ["bleu_score", "top1_accuracy"]


def _ngram_counts(tokens: list[int], order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def bleu_score(
    references: np.ndarray | list[list[int]],
    hypotheses: np.ndarray | list[list[int]],
    *,
    max_order: int = 4,
    smooth: float = 1.0e-9,
) -> float:
    """Corpus-level BLEU (0-100) of hypothesis token sequences.

    Parameters
    ----------
    references, hypotheses:
        Sequences of token ids; arrays of shape ``(num_sentences, seq_len)``
        or lists of token lists.
    max_order:
        Highest n-gram order (4, as in standard BLEU).
    smooth:
        Additive smoothing so empty n-gram matches do not zero the score.
    """
    refs = [list(map(int, r)) for r in references]
    hyps = [list(map(int, h)) for h in hypotheses]
    if len(refs) != len(hyps):
        raise ValueError("references and hypotheses must have the same length")
    if not refs:
        return 0.0

    precisions = []
    for order in range(1, max_order + 1):
        matched = 0
        total = 0
        for ref, hyp in zip(refs, hyps, strict=True):
            ref_counts = _ngram_counts(ref, order)
            hyp_counts = _ngram_counts(hyp, order)
            overlap = sum((ref_counts & hyp_counts).values())
            matched += overlap
            total += max(0, len(hyp) - order + 1)
        precisions.append((matched + smooth) / (total + smooth) if total else smooth)

    ref_len = sum(len(r) for r in refs)
    hyp_len = sum(len(h) for h in hyps)
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    geo_mean = math.exp(sum(math.log(p) for p in precisions) / max_order)
    return 100.0 * brevity * geo_mean


def top1_accuracy(labels: np.ndarray, logits_or_preds: np.ndarray) -> float:
    """Top-1 accuracy (in percent) from logits ``(N, C)`` or predictions ``(N,)``."""
    labels = np.asarray(labels)
    arr = np.asarray(logits_or_preds)
    preds = arr.argmax(axis=-1) if arr.ndim == labels.ndim + 1 else arr
    if preds.shape != labels.shape:
        raise ValueError("prediction and label shapes do not match")
    if labels.size == 0:
        return 0.0
    return 100.0 * float((preds == labels).mean())
