"""Implicit-GEMM 2-D convolution references (dense and weight-sparse).

The paper implements sparse convolutions with the implicit-GEMM algorithm
(Section 4.1): the input feature map is unfolded (im2col) into a matrix on the
fly, so the convolution becomes an SpMM between the pruned weight matrix of
shape ``(C_out, C_in * KH * KW)`` and the unfolded activations of shape
``(C_in * KH * KW, N * OH * OW)``.  The functions here provide:

* :func:`im2col` / :func:`col2im_shape` — the unfolding used by every variant,
* :func:`conv2d_dense` — the cuDNN stand-in,
* :func:`conv2d_sparse` — convolution with any sparse weight format from
  :mod:`repro.sparse.formats`, dispatched through the reference SpMM kernels.

Activations use NCHW layout.  The paper's discussion of making batch the
innermost dimension only affects the memory model, not the mathematics, so
the functional reference keeps the conventional layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spmm import spmm

__all__ = [
    "Conv2dSpec",
    "im2col",
    "col2im",
    "conv2d_dense",
    "conv2d_sparse",
    "weight_to_gemm",
]


@dataclass(frozen=True)
class Conv2dSpec:
    """Shape and hyper-parameters of one 2-D convolution layer.

    Attributes
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel edge (KH == KW).
    stride, padding:
        Standard convolution hyper-parameters.
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels, self.kernel_size) <= 0:
            raise ValueError("channels and kernel_size must be positive")
        if self.stride <= 0 or self.padding < 0:
            raise ValueError("stride must be positive and padding non-negative")

    @property
    def gemm_k(self) -> int:
        """Reduction length of the implicit GEMM."""
        return self.in_channels * self.kernel_size * self.kernel_size

    @property
    def gemm_m(self) -> int:
        """Output-row count of the implicit GEMM (the sparse dimension)."""
        return self.out_channels

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        """Spatial output size for an ``h x w`` input."""
        kh = self.kernel_size
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kh) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ValueError("convolution produces an empty output")
        return oh, ow


def im2col(inputs: np.ndarray, spec: Conv2dSpec) -> np.ndarray:
    """Unfold an NCHW input into the implicit-GEMM activation matrix.

    Returns an array of shape ``(C_in * KH * KW, N * OH * OW)``.  One copy
    out of a strided window view of the padded input replaces the seed's
    channel x kernel-position loop nest (kept as
    :func:`repro.sparse.spmm_reference.im2col_loop`, the oracle the property
    suite checks exact equality against).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {inputs.shape}")
    n, c, h, w = inputs.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec expects {spec.in_channels}")
    kh = spec.kernel_size
    oh, ow = spec.output_hw(h, w)

    padded = np.pad(
        inputs,
        ((0, 0), (0, 0), (spec.padding, spec.padding), (spec.padding, spec.padding)),
    )
    # (n, c, oh, ow, kh, kw): every kernel tap of every output position.
    windows = sliding_window_view(padded, (kh, kh), axis=(2, 3))[
        :, :, :: spec.stride, :: spec.stride
    ]
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kh, n * oh * ow)


def col2im(
    cols: np.ndarray, input_shape: tuple[int, int, int, int], spec: Conv2dSpec
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add unfolded columns back to NCHW.

    Used by the convolution backward pass of the training substrate
    (:mod:`repro.nn`): the gradient with respect to the input is the col2im of
    ``W^T @ grad_output``.
    """
    cols = np.asarray(cols, dtype=np.float64)
    n, c, h, w = input_shape
    kh = spec.kernel_size
    oh, ow = spec.output_hw(h, w)
    if cols.shape != (c * kh * kh, n * oh * ow):
        raise ValueError(
            f"cols shape {cols.shape} does not match ({c * kh * kh}, {n * oh * ow})"
        )
    padded = np.zeros(
        (n, c, h + 2 * spec.padding, w + 2 * spec.padding), dtype=np.float64
    )
    # One strided-slice add per kernel tap replaces the seed's channel x
    # kernel-position loop nest (kept as
    # repro.sparse.spmm_reference.col2im_loop).  Taps go in ascending
    # (ki, kj) order, the order the loops added overlapping windows in, so
    # the result is bit-identical.
    values = cols.reshape(c, kh, kh, n, oh, ow).transpose(3, 0, 1, 2, 4, 5)
    rows_end, cols_end = spec.stride * oh, spec.stride * ow
    for ki in range(kh):
        for kj in range(kh):
            padded[
                :, :, ki : ki + rows_end : spec.stride, kj : kj + cols_end : spec.stride
            ] += values[:, :, ki, kj]
    if spec.padding:
        return padded[:, :, spec.padding : spec.padding + h, spec.padding : spec.padding + w]
    return padded


def weight_to_gemm(weight: np.ndarray) -> np.ndarray:
    """Reshape an ``(C_out, C_in, KH, KW)`` weight into the GEMM LHS."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 4:
        raise ValueError(f"expected OIHW weight, got shape {weight.shape}")
    return weight.reshape(weight.shape[0], -1)


def conv2d_dense(inputs: np.ndarray, weight: np.ndarray, spec: Conv2dSpec) -> np.ndarray:
    """Dense implicit-GEMM convolution (the cuDNN stand-in)."""
    cols = im2col(inputs, spec)
    gemm_weight = weight_to_gemm(weight)
    if gemm_weight.shape != (spec.gemm_m, spec.gemm_k):
        raise ValueError(
            f"weight GEMM shape {gemm_weight.shape} does not match spec "
            f"({spec.gemm_m}, {spec.gemm_k})"
        )
    out = gemm_weight @ cols
    return _fold_output(out, inputs.shape, spec)


def conv2d_sparse(inputs: np.ndarray, sparse_weight, spec: Conv2dSpec) -> np.ndarray:
    """Weight-sparse implicit-GEMM convolution.

    ``sparse_weight`` is any format from :mod:`repro.sparse.formats` whose
    dense shape equals ``(C_out, C_in * KH * KW)``.
    """
    if sparse_weight.shape != (spec.gemm_m, spec.gemm_k):
        raise ValueError(
            f"sparse weight shape {sparse_weight.shape} does not match spec "
            f"({spec.gemm_m}, {spec.gemm_k})"
        )
    cols = im2col(inputs, spec)
    out = spmm(sparse_weight, cols)
    return _fold_output(out, inputs.shape, spec)


def _fold_output(
    gemm_out: np.ndarray, input_shape: tuple[int, ...], spec: Conv2dSpec
) -> np.ndarray:
    """Reshape the GEMM output ``(C_out, N * OH * OW)`` back to NCHW."""
    n, _, h, w = input_shape
    oh, ow = spec.output_hw(h, w)
    out = gemm_out.reshape(spec.out_channels, n, oh, ow)
    return np.transpose(out, (1, 0, 2, 3))
