"""Tests for the speedup-experiment harness (Figures 1 and 6, headline)."""

import numpy as np
import pytest

from repro.eval.experiments import run_experiment
from repro.eval.report import Report, Table
from repro.eval.runner import KernelSpec, SweepRunner, SweepSpec
from repro.eval.speedup import (
    PAPER_GPUS,
    PAPER_SPARSITIES,
    collate_figure1,
    collate_figure6,
    collate_headline,
    figure1_spec,
    figure6_spec,
    headline_spec,
    layer_times_grid,
)
from repro.eval.tradeoff import figure2_spec
from repro.gpu.arch import get_gpu
from repro.kernels.base import SpMMKernel
from repro.kernels.registry import make_kernel
from repro.models.shapes import model_layers, resnet50_layers

#: The paper's Section 6.2 headline speedups (Transformer, 75 % sparsity).
PAPER_HEADLINE = {"V100": 1.81, "T4": 4.18, "A100": 1.90}


class TestReportContainers:
    def test_table_row_length_checked(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_text_and_markdown_render(self):
        table = Table("Speed", ["kernel", "x"]).add_row("shfl-bw", 1.81).add_row("none", None)
        report = Report("Demo").add_table(table).add_note("a note")
        text = report.to_text()
        md = report.to_markdown()
        assert "shfl-bw" in text and "a note" in text
        assert "| kernel | x |" in md
        assert "-" in text  # None rendered as dash


def layer_order_sum(kernel: SpMMKernel, gpu: str, model: str, density: float):
    """The whole-model oracle: ``0.0 + sum(times[i] * count[i])`` over
    :func:`layer_times_grid` in layer order, or the first rejected layer's
    exception."""
    layers = model_layers(model)
    times, errors = layer_times_grid(kernel, get_gpu(gpu), layers, density)
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        return error
    total = 0.0
    for time_s, layer in zip(times.tolist(), layers, strict=True):
        total += time_s * layer.count
    return total


class TestModelTime:
    """Whole-workload time is one ``TIMING_TASK`` cell per (kernel, model,
    GPU, sparsity): the weighted layer sum, or the rejection that stops it."""

    @pytest.fixture(scope="class")
    def figure6(self):
        return SweepRunner().run(figure6_spec())

    def test_model_cells_equal_the_layer_order_sum(self, figure6):
        """Every model x GPU x Figure 6 kernel cell equals the layer-order
        oracle bit for bit; a rejected layer makes the cell not-applicable
        with that layer's message.  A GPU the kernel does not support is
        rejected up front, with the capability's own message."""
        checked = 0
        for record in figure6.records:
            config = record.config
            kernel = make_kernel(config.kernel, **dict(config.kernel_kwargs))
            unsupported = kernel.capabilities().unsupported_arch(get_gpu(config.gpu))
            expected = layer_order_sum(kernel, config.gpu, config.model, config.density)
            if unsupported is not None:
                assert (record.status, record.detail) == ("not-applicable", unsupported)
            elif isinstance(expected, Exception):
                assert (record.status, record.detail) == ("not-applicable", str(expected))
            else:
                assert record.ok and record.time_s == expected, config
                checked += 1
        assert checked > len(figure6.records) // 2

    def test_dense_time_positive_and_additive(self, figure6):
        for model in figure6.spec.models:
            for gpu in figure6.spec.gpus:
                record = figure6.by_config()[figure6.spec.dense_config(model, gpu)]
                expected = layer_order_sum(make_kernel("dense"), gpu, model, 1.0)
                assert record.ok and record.time_s == expected > 0

    def test_model_speedup_none_for_inapplicable(self):
        results = collate_figure6(
            SweepRunner().run(
                figure6_spec(models=("transformer",), gpus=("V100",), sparsities=(0.75,))
            )
        )
        assert results[("transformer", "V100")]["Balanced 2in4"][0.75] is None

    def test_model_speedup_value(self):
        speedups = collate_headline(SweepRunner().run(headline_spec()))
        assert speedups["T4"] > 1.5


class TestConvRouting:
    def test_conv_layers_go_through_estimate_conv(self):
        """Every conv layer costs exactly what ``estimate_conv`` prices it
        at: the implicit GEMM plus the unfolding overhead."""
        layers = [layer for layer in resnet50_layers() if layer.kind == "conv"]
        assert layers, "resnet50 must expose conv layers"
        arch = get_gpu("V100")
        kernel = make_kernel("shfl-bw", vector_size=32)
        times, errors = layer_times_grid(kernel, arch, layers, 0.25)
        assert not any(errors)
        for time_s, layer in zip(times.tolist(), layers, strict=True):
            conv = kernel.estimate_conv(
                arch, layer.conv, 0.25, batch=layer.batch, height=layer.height, width=layer.width
            )
            assert time_s == conv.total_time_s > 0

    def test_model_time_rejects_convless_kernels_on_resnet(self):
        spec = SweepSpec(
            kernels=(KernelSpec("sputnik"),),
            gpus=("V100",),
            sparsities=(0.75,),
            models=("resnet50",),
        )
        lookup = SweepRunner().run(spec).by_config()
        record = lookup[spec.config(spec.kernels[0], "resnet50", "V100", 0.75)]
        assert record.status == "not-applicable"
        assert "no convolution implementation" in record.detail

    def test_conv_layer_costs_more_than_plain_gemm(self):
        # The unfolding overhead must actually show up in the layer time.
        layers = [
            layer
            for layer in resnet50_layers()
            if layer.kind == "conv" and layer.conv.kernel_size > 1
        ]
        arch = get_gpu("V100")
        kernel = make_kernel("dense")
        layer = layers[0]
        times, _ = layer_times_grid(kernel, arch, [layer], 1.0)
        gemm_time = kernel.estimate(arch, layer.gemm, 1.0).total_time_s
        assert float(times[0]) > gemm_time

    def test_figure6_resnet_sweep_prices_conv_layers_as_convolutions(self, monkeypatch):
        calls = []
        original = SpMMKernel.build_layer_cells

        def spy(self, arch, shapes, densities, *, kernel_sizes, **kwargs):
            calls.append((type(self).__name__, tuple(np.asarray(kernel_sizes).tolist())))
            return original(self, arch, shapes, densities, kernel_sizes=kernel_sizes, **kwargs)

        monkeypatch.setattr(SpMMKernel, "build_layer_cells", spy)
        report = run_experiment(
            "figure6",
            models=("resnet50",),
            gpus=("V100",),
            sparsities=(0.75,),
            vector_sizes=(32,),
        )
        assert "resnet50 on V100" in report.to_text()
        assert calls, "the ResNet-50 sweep must build its cells as layer cells"
        # Both our kernel and the dense baseline take the conv path,
        # including the 3x3 layers that pay the unfolding overhead.
        names = {name for name, _ in calls}
        assert "ShflBWKernel" in names
        assert "DenseTensorCoreGEMM" in names
        assert all(3 in sizes for _, sizes in calls)


def figure1_curves(densities: tuple[float, ...]) -> dict[str, dict[float, float]]:
    return collate_figure1(SweepRunner().run(figure1_spec(densities=densities)), densities)


class TestFigure1:
    def test_curve_structure(self):
        curves = figure1_curves((0.05, 0.25, 0.5))
        assert set(curves) == {
            "Cuda-Core",
            "Tensor-Core",
            "Cuda-Core Sparse",
            "Tensor-Core Sparse (Ours)",
        }
        assert all(len(v) == 3 for v in curves.values())

    def test_paper_relationships(self):
        curves = figure1_curves((0.02, 0.05, 0.25, 0.5))
        tc_dense = curves["Tensor-Core"][0.25]
        # Tensor-core dense is well above CUDA-core dense.
        assert tc_dense > 1.5
        # Our tensor-core sparse beats everything at moderate density.
        assert curves["Tensor-Core Sparse (Ours)"][0.25] > tc_dense
        # CUDA-core sparse only competes at extreme sparsity.
        assert curves["Cuda-Core Sparse"][0.5] < 1.0
        assert curves["Cuda-Core Sparse"][0.02] > 1.0
        # Region B: it beats the tensor-core dense GEMM only at extreme
        # sparsity (paper: ~95 %).
        assert curves["Cuda-Core Sparse"][0.25] < tc_dense
        assert curves["Cuda-Core Sparse"][0.02] > curves["Tensor-Core"][0.02]
        # Region C: ours is above the CUDA-core dense reference already at
        # 50 % sparsity, and gains with sparsity.
        ours = curves["Tensor-Core Sparse (Ours)"]
        assert ours[0.5] > 1.0
        assert ours[0.02] >= ours[0.5]


class TestHeadlineAndFigure6:
    def test_headline_covers_all_gpus(self):
        speedups = collate_headline(SweepRunner().run(headline_spec()))
        assert set(speedups) == set(PAPER_GPUS)
        for gpu, value in speedups.items():
            assert value > 1.3, f"{gpu} speedup {value}"
            assert value < PAPER_HEADLINE[gpu] * 2.5, f"{gpu} speedup {value}"

    def test_figure6_small_slice(self):
        spec = figure6_spec(
            models=("transformer",), gpus=("V100",), sparsities=(0.75,), vector_sizes=(32,)
        )
        results = collate_figure6(SweepRunner().run(spec))
        per_kernel = results[("transformer", "V100")]
        assert per_kernel["Shfl-BW,V=32"][0.75] is not None
        assert per_kernel["Shfl-BW,V=32"][0.75] > 1.0
        # Unstructured stays below dense; balanced unavailable off 50%/A100.
        assert per_kernel["Unstructured (Sputnik)"][0.75] < 1.0
        assert per_kernel["Balanced 2in4"][0.75] is None

    def test_paper_sparsity_grid(self):
        assert PAPER_SPARSITIES == (0.50, 0.75, 0.85, 0.95)


class TestFigure6Claims:
    """Section 6.2's claims on the full Figure 6 grid."""

    @pytest.fixture(scope="class")
    def results(self):
        return collate_figure6(SweepRunner().run(figure6_spec()))

    def test_gnmt_and_resnet_gain_at_75_percent(self, results):
        for model in ("gnmt", "resnet50"):
            assert results[(model, "V100")]["Shfl-BW,V=64"][0.75] > 1.0

    def test_speedup_increases_with_sparsity(self, results):
        for gpu in PAPER_GPUS:
            per_kernel = results[("transformer", gpu)]
            series = [per_kernel["Shfl-BW,V=64"][s] for s in (0.50, 0.75, 0.85)]
            assert series[0] < series[1] <= series[2] * 1.05

    def test_shflbw_tracks_vector_wise(self, results):
        for gpu in PAPER_GPUS:
            per_kernel = results[("transformer", gpu)]
            for sparsity in PAPER_SPARSITIES:
                ratio = per_kernel["Shfl-BW,V=64"][sparsity] / per_kernel["VW,V=64"][sparsity]
                assert 0.95 <= ratio <= 1.05

    def test_unstructured_never_beats_dense(self, results):
        for gpu in PAPER_GPUS:
            per_kernel = results[("transformer", gpu)]
            for sparsity in PAPER_SPARSITIES:
                assert per_kernel["Unstructured (Sputnik)"][sparsity] < 1.0
                assert per_kernel["Unstructured cuSPARSE"][sparsity] < 1.0

    def test_balanced_2in4_only_on_a100_at_50_percent(self, results):
        for gpu in PAPER_GPUS:
            per_kernel = results[("transformer", gpu)]
            value = per_kernel["Balanced 2in4"][0.50]
            if gpu == "A100":
                assert value is not None and 1.0 < value < 2.0
            else:
                assert value is None
            assert per_kernel["Balanced 2in4"][0.75] is None

    def test_vectorsparse_and_tilewise_below_ours_on_v100(self, results):
        per_kernel = results[("transformer", "V100")]
        for sparsity in (0.75, 0.85):
            ours = per_kernel["Shfl-BW,V=32"][sparsity]
            assert per_kernel["VectorSparse (VW,V=8)"][sparsity] < ours
            assert per_kernel["TileWise (VW,V=128)"][sparsity] < 1.0


class TestFigure2Speedups:
    """The kernel-speedup side of Figure 2 (GNMT on V100), no training."""

    @pytest.fixture(scope="class")
    def speedups(self):
        spec = figure2_spec()
        lookup = SweepRunner().run(spec).by_config()
        dense_time = lookup[spec.dense_config("gnmt", "V100")].time_s
        return {
            (kernel.display_label, sparsity): dense_time
            / lookup[spec.config(kernel, "gnmt", "V100", sparsity)].time_s
            for kernel in spec.kernels
            for sparsity in spec.sparsities
        }

    def test_unstructured_has_no_practical_speedup(self, speedups):
        assert all(speedups[("Unstructured", s)] < 1.0 for s in (0.80, 0.90))

    def test_shflbw_achieves_real_speedup(self, speedups):
        shfl = [value for (label, _), value in speedups.items() if label.startswith("Shfl-BW")]
        assert shfl and all(value > 1.0 for value in shfl)

    def test_larger_v_gives_no_less_speedup(self, speedups):
        for sparsity in (0.80, 0.90):
            assert (
                speedups[("Shfl-BW, V=64", sparsity)]
                >= speedups[("Shfl-BW, V=32", sparsity)] * 0.95
            )

    def test_shflbw_speedup_close_to_vector_wise(self, speedups):
        for sparsity in (0.80, 0.90):
            ratio = speedups[("Shfl-BW, V=32", sparsity)] / speedups[("VW, V=32", sparsity)]
            assert 0.9 <= ratio <= 1.1
