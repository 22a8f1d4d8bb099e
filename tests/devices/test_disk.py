"""The 1.8-inch disk comparator against MEMS, through the energy model."""

from __future__ import annotations

import pytest

from repro import units
from repro.core.energy import EnergyModel


class TestPaperComparison:
    def test_break_even_three_orders_above_mems(self, disk, device):
        disk_model = EnergyModel(disk)
        mems_model = EnergyModel(device)
        for rate in (32_000.0, 1_024_000.0, 4_096_000.0):
            ratio = disk_model.break_even_buffer(rate) / (
                mems_model.break_even_buffer(rate)
            )
            assert 900 <= ratio <= 1200  # three orders of magnitude

    def test_break_even_range_matches_paper(self, disk):
        model = EnergyModel(disk)
        low, high = model.break_even_range(32_000, 4_096_000)
        assert units.bits_to_mb(low) == pytest.approx(0.0726, rel=0.01)
        assert units.bits_to_mb(high) == pytest.approx(9.29, rel=0.01)

    def test_spin_up_dominates_overhead(self, disk):
        spin_energy = disk.seek_power_w * disk.seek_time_s
        assert spin_energy > 0.9 * disk.overhead_energy_j
