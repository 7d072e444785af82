"""Grid estimation: per-cell rejections, the single-cell API on top of the
grid, and the model-grid helpers.

* ``build_launch_batch`` never fails a whole grid: each cell it cannot run
  carries its own exception, the one ``estimate`` raises for that cell;
* ``estimate_grid`` raises the first rejected cell's exception;
* a NaN density is rejected by every non-dense kernel and ignored by the
  dense ones, like any other density;
* the per-layer model grid (``layer_times_grid``) applies the convolution
  rules.
"""

import numpy as np
import pytest

from repro.eval.speedup import layer_times_grid
from repro.gpu.arch import get_gpu
from repro.gpu.simulator import simulate_batch
from repro.kernels.base import GEMMShape, KernelNotApplicableError
from repro.kernels.registry import available_kernels, make_kernel
from repro.models.shapes import model_layers

#: Every registry name whose kernel exploits weight sparsity.
NON_DENSE = [
    name
    for name in available_kernels()
    if not make_kernel(name).capabilities().is_dense
]
DENSE = [name for name in available_kernels() if name not in NON_DENSE]


class TestNaNDensity:
    @pytest.mark.parametrize("name", NON_DENSE)
    def test_non_dense_kernels_reject_nan(self, name):
        kernel = make_kernel(name)
        arch = get_gpu("A100")
        shape = GEMMShape(2048, 128, 2048)
        with pytest.raises(ValueError):
            kernel.estimate(arch, shape, float("nan"))
        with pytest.raises(ValueError):
            kernel.estimate_grid(arch, [shape], np.array([np.nan]))

    @pytest.mark.parametrize("name", DENSE)
    def test_dense_kernels_ignore_density(self, name):
        kernel = make_kernel(name)
        arch = get_gpu("A100")
        shape = GEMMShape(2048, 128, 2048)
        nan = kernel.estimate_grid(arch, [shape], np.array([np.nan]))
        assert nan.timing(0) == kernel.estimate(arch, shape, 1.0)

    def test_registry_split(self):
        assert set(NON_DENSE) == {
            "balanced-2in4",
            "blockwise",
            "cusparse-bsr",
            "cusparse-csr",
            "cusparselt",
            "shfl-bw",
            "shfl-bw-conv",
            "sputnik",
            "tilewise",
            "unstructured",
            "vector-wise",
            "vectorsparse",
        }


class TestPerCellRejection:
    def test_rejected_cells_do_not_fail_the_grid(self):
        kernel = make_kernel("vector-wise", vector_size=64)
        shapes = [GEMMShape(128, 64, 256), GEMMShape(100, 64, 256), GEMMShape(128, 64, 256)]
        cells = kernel.build_launch_batch(
            get_gpu("V100"), shapes, np.array([0.5, 0.5, 0.0])
        )
        assert len(cells.batch) == 3
        assert cells.errors[0] is None
        assert isinstance(cells.errors[1], ValueError)
        assert str(cells.errors[1]) == "M=100 is not divisible by V=64"
        assert str(cells.errors[2]) == "kept_fraction must be in (0, 1]"

    def test_estimate_grid_raises_the_first_rejection(self):
        kernel = make_kernel("cusparselt")
        shapes = [GEMMShape(256, 64, 256)] * 3
        with pytest.raises(KernelNotApplicableError, match="got 0.25"):
            kernel.estimate_grid(get_gpu("A100"), shapes, [0.5, 0.25, 0.75])

    def test_accepted_cells_match_their_own_grid(self):
        """Rejected neighbours never leak into an accepted cell's numbers."""
        kernel = make_kernel("cusparse-bsr", block_size=32)
        arch = get_gpu("T4")
        good = GEMMShape(256, 96, 512)
        cells = kernel.build_launch_batch(
            arch, [GEMMShape(100, 96, 512), good], np.array([0.25, 0.25])
        )
        timing = simulate_batch(arch, cells.batch)
        assert cells.errors[1] is None
        assert timing.timing(1) == kernel.estimate(arch, good, 0.25)


class TestModelGrids:
    def test_conv_unsupported_kernel_raises_scalar_message(self):
        """A kernel without a convolution implementation rejects every conv
        layer with the exception the scalar ``estimate_conv`` raises."""
        kernel = make_kernel("sputnik")
        arch = get_gpu("V100")
        layers = model_layers("resnet50")
        _, errors = layer_times_grid(kernel, arch, layers, 0.5)
        layer = layers[0]
        with pytest.raises(KernelNotApplicableError) as scalar:
            kernel.estimate_conv(
                arch, layer.conv, 0.5, batch=layer.batch, height=layer.height, width=layer.width
            )
        assert "no convolution implementation" in str(scalar.value)
        for layer, error in zip(layers, errors, strict=True):
            assert (layer.kind == "conv") == (error is not None)
            if error is not None:
                assert isinstance(error, KernelNotApplicableError)
                assert str(error) == str(scalar.value)

    def test_conv_unfold_overhead_applied(self):
        """3x3 conv layers must pay the unfold overhead in the batched path
        (a pure-GEMM batch would undercut the conv estimate)."""
        kernel = make_kernel("dense")
        arch = get_gpu("V100")
        layers = [
            layer for layer in model_layers("resnet50") if layer.conv.kernel_size > 1
        ]
        times, errors = layer_times_grid(kernel, arch, layers, 1.0)
        assert not any(errors)
        for index, layer in enumerate(layers):
            bare = kernel.estimate(arch, layer.gemm, 1.0).total_time_s
            assert float(times[index]) > bare
