"""Real layer shapes of the paper's three workloads.

The kernel-speedup experiments (Figure 6 and the Section 6.2 headline
numbers) run on the GEMM shapes of the *real* models — Transformer [1],
GNMT [5] and ResNet50 [4] — exactly as the paper does ("when reporting model
kernel speedup, we use the shapes in real model").  Only the
computation-intensive linear and 2-D convolution layers are counted
(Section 6.1).

Linear layers are described directly by their ``(M, K)`` weight shape with
``N`` tokens of activation; convolutions carry their :class:`Conv2dSpec` and
input resolution and are lowered to implicit-GEMM shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..kernels.base import GEMMShape, conv_to_gemm_shape
from ..sparse.spconv import Conv2dSpec

__all__ = [
    "LayerShape",
    "transformer_layers",
    "gnmt_layers",
    "resnet50_layers",
    "model_layers",
    "MODEL_NAMES",
]

MODEL_NAMES = ("transformer", "gnmt", "resnet50")


@dataclass(frozen=True)
class LayerShape:
    """One prunable layer of a workload, in implicit-GEMM terms.

    Attributes
    ----------
    name:
        Layer label, e.g. ``"ffn1"`` or ``"conv3_1x1"``.
    gemm:
        GEMM shape: ``M`` is the weight-row (output feature) dimension — the
        dimension the sparsity patterns group — ``K`` the reduction and ``N``
        the token / pixel batch.
    count:
        How many times the layer (shape) occurs in the model; speedups are
        weighted by ``count`` so frequent layers dominate, as they do in the
        real model.
    kind:
        ``"linear"`` or ``"conv"``.
    conv:
        The convolution description for ``kind == "conv"`` layers, so the
        evaluation harness can route them through the kernels'
        ``estimate_conv`` (implicit GEMM + unfolding overhead) instead of
        treating them as plain GEMMs.
    batch, height, width:
        Input batch and spatial resolution of a convolution layer.
    """

    name: str
    gemm: GEMMShape
    count: int = 1
    kind: str = "linear"
    conv: Conv2dSpec | None = None
    batch: int = 1
    height: int = 1
    width: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.kind not in ("linear", "conv"):
            raise ValueError("kind must be 'linear' or 'conv'")
        if self.kind == "conv":
            if self.conv is None:
                raise ValueError("conv layers must carry their Conv2dSpec")
            if min(self.batch, self.height, self.width) <= 0:
                raise ValueError("conv layers need positive batch/height/width")
            expected = conv_to_gemm_shape(self.conv, self.batch, self.height, self.width)
            if expected != self.gemm:
                raise ValueError(
                    f"gemm shape {self.gemm} does not match the implicit-GEMM "
                    f"lowering {expected} of the conv spec"
                )

    @property
    def weighted_flops(self) -> float:
        """Dense FLOPs of all occurrences of this layer."""
        return self.gemm.flops * self.count

    @property
    def conv_kernel_size(self) -> int:
        """The convolution's ``KH``, or 0 for a linear layer (how
        :meth:`~repro.kernels.base.SpMMKernel.build_layer_cells` tells the
        two apart)."""
        if self.kind == "conv" and self.conv is not None:
            return self.conv.kernel_size
        return 0

    def with_tokens(self, tokens: int) -> "LayerShape":
        """This layer re-shaped to a different activation batch width.

        Linear layers only: ``N`` is the token dimension of their GEMM, so a
        serving-time batch sweep just swaps it (decode-time widths are as
        skinny as ``N = 1``).  A convolution's ``N`` is ``batch * OH * OW`` —
        re-batching it changes the lowering, not just one dimension — so it
        is rejected rather than silently mis-shaped.
        """
        if self.kind != "linear":
            raise ValueError(
                f"layer {self.name!r} is {self.kind}; only linear layers "
                "support token re-batching"
            )
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        return dataclasses.replace(
            self, gemm=GEMMShape(m=self.gemm.m, n=int(tokens), k=self.gemm.k)
        )


def transformer_layers(*, tokens: int = 256) -> list[LayerShape]:
    """Transformer-big encoder/decoder GEMM layers (d_model=1024, d_ff=4096).

    ``tokens`` is the activation batch (batch size x sequence length) used
    for the SpMM's dense operand.
    """
    if tokens <= 0:
        raise ValueError("tokens must be positive")
    d_model, d_ff, layers = 1024, 4096, 6
    return [
        LayerShape("attn_qkv", GEMMShape(m=3 * d_model, n=tokens, k=d_model), count=2 * layers),
        LayerShape("attn_out", GEMMShape(m=d_model, n=tokens, k=d_model), count=2 * layers),
        LayerShape("ffn1", GEMMShape(m=d_ff, n=tokens, k=d_model), count=2 * layers),
        LayerShape("ffn2", GEMMShape(m=d_model, n=tokens, k=d_ff), count=2 * layers),
    ]


def gnmt_layers(*, batch: int = 128) -> list[LayerShape]:
    """GNMT LSTM GEMM layers (hidden size 1024, 8 layers, 4 decoder steps
    batched).

    Each LSTM layer multiplies a ``4096 x 1024`` gate matrix by the input and
    the recurrent state; the attention and the output projection are the other
    computation-intensive GEMMs.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    hidden, layers, vocab = 1024, 8, 32000
    return [
        LayerShape("lstm_ih", GEMMShape(m=4 * hidden, n=batch, k=hidden), count=layers),
        LayerShape("lstm_hh", GEMMShape(m=4 * hidden, n=batch, k=hidden), count=layers),
        LayerShape("attention", GEMMShape(m=hidden, n=batch, k=2 * hidden), count=1),
        LayerShape("proj", GEMMShape(m=vocab, n=batch, k=hidden), count=1),
    ]


def resnet50_layers(*, batch: int = 32, image_size: int = 224) -> list[LayerShape]:
    """Representative ResNet50 convolution layers as implicit-GEMM shapes.

    One bottleneck block per stage is listed with the block's repeat count;
    the 7x7 stem and the final FC are excluded (their channel counts make
    them poor pruning targets, matching common practice).
    """
    if batch <= 0 or image_size <= 0:
        raise ValueError("batch and image_size must be positive")

    def conv(name: str, cin: int, cout: int, k: int, resolution: int, count: int, stride: int = 1) -> LayerShape:
        spec = Conv2dSpec(
            in_channels=cin,
            out_channels=cout,
            kernel_size=k,
            stride=stride,
            padding=k // 2,
        )
        gemm = conv_to_gemm_shape(spec, batch, resolution, resolution)
        return LayerShape(
            name,
            gemm,
            count=count,
            kind="conv",
            conv=spec,
            batch=batch,
            height=resolution,
            width=resolution,
        )

    scale = image_size / 224.0
    r56 = max(1, int(56 * scale))
    r28 = max(1, int(28 * scale))
    r14 = max(1, int(14 * scale))
    r7 = max(1, int(7 * scale))
    return [
        conv("conv2_1x1a", 256, 64, 1, r56, count=3),
        conv("conv2_3x3", 64, 64, 3, r56, count=3),
        conv("conv2_1x1b", 64, 256, 1, r56, count=3),
        conv("conv3_1x1a", 512, 128, 1, r28, count=4),
        conv("conv3_3x3", 128, 128, 3, r28, count=4),
        conv("conv3_1x1b", 128, 512, 1, r28, count=4),
        conv("conv4_1x1a", 1024, 256, 1, r14, count=6),
        conv("conv4_3x3", 256, 256, 3, r14, count=6),
        conv("conv4_1x1b", 256, 1024, 1, r14, count=6),
        conv("conv5_1x1a", 2048, 512, 1, r7, count=3),
        conv("conv5_3x3", 512, 512, 3, r7, count=3),
        conv("conv5_1x1b", 512, 2048, 1, r7, count=3),
    ]


def model_layers(model: str, **kwargs) -> list[LayerShape]:
    """Layer shapes of one of the paper's three workloads by name."""
    key = model.strip().lower()
    if key == "transformer":
        return transformer_layers(**kwargs)
    if key == "gnmt":
        return gnmt_layers(**kwargs)
    if key in ("resnet50", "resnet"):
        return resnet50_layers(**kwargs)
    raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
