"""Shared fixtures for the serving tests: one small tuned plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import PredictRequest
from repro.tune import Autotuner

#: The tiny GEMM problem every serving test plans against.
GEMM = (256, 32, 256)
LAYER = "gemm-256x32x256"


@pytest.fixture(scope="session")
def plan():
    """One analytically tuned plan of the tiny GEMM workload."""
    return Autotuner().plan_gemm(GEMM, "V100", 0.9)


@pytest.fixture(scope="session")
def transformer_plan():
    """A multi-layer plan (the transformer workload at small tokens)."""
    from repro.models.shapes import transformer_layers

    return Autotuner().plan(
        "transformer", "V100", 0.9, layers=transformer_layers(tokens=32)
    )


@pytest.fixture(scope="session")
def served_plan():
    """The plan perfbench serves: the transformer on V100 at 90%, every
    layer vector-wise."""
    return Autotuner().plan("transformer", "V100", 0.9)


def make_requests(count: int, *, layer: str = LAYER, k: int = 256, seed: int = 7):
    """``count`` deterministic single-column requests for one layer."""
    rng = np.random.default_rng(seed)
    return [
        PredictRequest.from_array(layer, rng.normal(size=k), request_id=str(i))
        for i in range(count)
    ]
