"""Workload definitions: real Transformer / GNMT / ResNet50 layer shapes for
the kernel-speedup experiments, and small proxy models (trained on synthetic
tasks) for the accuracy experiments.

The layer shapes load eagerly.  The proxy models build on :mod:`repro.nn`, so
they load on first attribute access (PEP 562): the timing experiments import
:mod:`repro.models.shapes`, which runs this ``__init__``, and never train.
"""

from importlib import import_module

from .shapes import (
    MODEL_NAMES,
    LayerShape,
    gnmt_layers,
    model_layers,
    resnet50_layers,
    transformer_layers,
)

__all__ = [
    "GNMTConfig",
    "GNMTProxy",
    "ResidualBlock",
    "ResNetConfig",
    "ResNetProxy",
    "MODEL_NAMES",
    "LayerShape",
    "gnmt_layers",
    "model_layers",
    "resnet50_layers",
    "transformer_layers",
    "TransformerBlock",
    "TransformerConfig",
    "TransformerProxy",
]

_LAZY = {
    "GNMTConfig": ".gnmt",
    "GNMTProxy": ".gnmt",
    "ResidualBlock": ".resnet",
    "ResNetConfig": ".resnet",
    "ResNetProxy": ".resnet",
    "TransformerBlock": ".transformer",
    "TransformerConfig": ".transformer",
    "TransformerProxy": ".transformer",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
