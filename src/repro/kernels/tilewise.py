"""TileWise baseline (Guo et al., SC'20): tile-wise sparsity via multi-stream.

TileWise prunes at a coarse granularity (the paper runs it as vector-wise with
``V = 128``) and dispatches the resulting dense sub-problems as separate GEMMs
on CUDA multi-streams.  The paper finds that the overhead of managing many
streams prevents it from beating the dense baseline on real weight shapes
(Section 6.2), unless the additional neuron pruning from the original paper is
applied.  We model the approach as a vector-wise kernel that pays one kernel
launch per row-group stream plus a per-stream synchronisation cost.
"""

from __future__ import annotations

import numpy as np

from ..gpu.arch import GPUArch
from ..gpu.tensorcore import ceil_div_array
from .base import LaunchCells, shape_arrays
from .vector_wise import VectorWiseKernel

__all__ = ["TileWiseKernel"]


class TileWiseKernel(VectorWiseKernel):
    """TileWise: coarse vector-wise sparsity executed with CUDA multi-streams."""

    name = "tilewise"
    supports_conv = False

    compute_efficiency = 0.75
    bandwidth_efficiency = 0.8

    #: Synchronisation / scheduling cost per stream, on top of the per-launch
    #: overhead (stream creation, event waits, reduced scheduling freedom).
    stream_overhead_s = 12.0e-6
    #: TileWise is only compiled for Volta in the paper's experiments.
    supported_archs = ("V100",)

    def __init__(self, vector_size: int = 128, max_streams: int = 8):
        super().__init__(vector_size=vector_size)
        if max_streams <= 0:
            raise ValueError("max_streams must be positive")
        self.max_streams = max_streams

    @property
    def label(self) -> str:
        return f"TileWise(VW,V={self.vector_size})"

    def build_launch_batch(
        self, arch: GPUArch, shapes, densities, **kwargs
    ) -> LaunchCells:
        """The vector-wise launches split over one stream per row group (up
        to ``max_streams``), each paying a launch and a synchronisation."""
        cells = super().build_launch_batch(arch, shapes, densities, **kwargs)
        batch = cells.batch
        v = kwargs.get("vector_size", self.vector_size)
        ms, _, _ = shape_arrays(shapes)
        streams = np.minimum(self.max_streams, ceil_div_array(ms, v))
        batch.launches = streams
        batch.extra_overhead_s = streams * self.stream_overhead_s
        # Splitting the GEMM across streams forfeits the single fused kernel's
        # software pipelining across row groups.
        batch.prefetch_metadata = np.broadcast_to(np.bool_(False), (len(batch),))
        return cells
