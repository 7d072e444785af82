"""Tests for the memory-traffic model."""

import pytest

from repro.gpu.arch import T4, V100
from repro.gpu.memory import OperandBatch, TrafficBatch


def operand(name: str, size: float, **kwargs) -> OperandBatch:
    """One operand stream of a one-launch batch."""
    return TrafficBatch(1).add(name, size, **kwargs).slots[0]


class TestOperandTraffic:
    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            operand("weight", -1.0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            operand("weight", 1.0, access_efficiency=0.0)
        with pytest.raises(ValueError):
            operand("weight", 1.0, access_efficiency=1.5)

    def test_raw_bytes_scale_with_reads(self):
        assert operand("activation", 1024.0, reads=4.0).raw_bytes() == 4096.0

    def test_small_footprint_rereads_filtered_by_l2(self):
        op = operand("activation", 1024.0, reads=8.0)
        # 1 KiB fits easily in half the L2: only one DRAM read.
        assert op.dram_bytes(V100) == pytest.approx(1024.0)

    def test_large_footprint_rereads_hit_dram(self):
        huge = 100 * 1024 * 1024  # much larger than L2
        op = operand("activation", float(huge), reads=4.0)
        assert op.dram_bytes(V100) > 3.5 * huge

    def test_partial_l2_residency_interpolates(self):
        half_l2 = V100.l2_capacity / 2
        dram = operand("activation", 2.0 * half_l2, reads=3.0).dram_bytes(V100)
        assert 2.0 * half_l2 < dram < 6.0 * half_l2

    def test_writes_not_filtered(self):
        op = operand("output", 1024.0, reads=4.0, is_write=True)
        assert op.dram_bytes(V100) == pytest.approx(4096.0)

    def test_access_efficiency_inflates_traffic(self):
        op = operand("gather", 1024.0, access_efficiency=0.5)
        assert op.dram_bytes(V100) == pytest.approx(2048.0)


class TestTrafficBreakdown:
    def _traffic(self) -> TrafficBatch:
        t = TrafficBatch(1)
        t.add("weight", 1.0e6)
        t.add("activation", 2.0e6, reads=2.0)
        t.add("output", 0.5e6, is_write=True)
        return t

    def test_total_raw_bytes(self):
        assert self._traffic().total_raw_bytes()[0] == pytest.approx(1.0e6 + 4.0e6 + 0.5e6)

    def test_dram_time_positive_and_scaled_by_efficiency(self):
        traffic = self._traffic()
        full = traffic.dram_time(V100, bandwidth_efficiency=1.0)
        derated = traffic.dram_time(V100, bandwidth_efficiency=0.5)
        assert derated[0] == pytest.approx(2.0 * full[0])

    def test_memory_time_at_least_dram_and_l2(self):
        traffic = self._traffic()
        assert traffic.memory_time(V100)[0] >= traffic.dram_time(V100)[0]
        assert traffic.memory_time(V100)[0] >= traffic.l2_time(V100)[0]

    def test_t4_slower_than_v100_on_same_traffic(self):
        traffic = self._traffic()
        assert traffic.dram_time(T4)[0] > traffic.dram_time(V100)[0]

    def test_invalid_bandwidth_efficiency(self):
        with pytest.raises(ValueError):
            self._traffic().dram_time(V100, bandwidth_efficiency=0.0)
