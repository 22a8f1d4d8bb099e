"""Technology-scaling tests: consistent future device configs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import ibm_mems_prototype
from repro.core.design_space import DesignSpaceExplorer
from repro.core.dimensioning import BufferDimensioner, Constraint
from repro.core.lifetime import LifetimeModel
from repro.config import DesignGoal, table1_workload
from repro.devices.scaling import (
    ROADMAP,
    TechnologyPoint,
    scale_table1_device,
)
from repro.errors import ConfigurationError

factors = st.floats(min_value=0.25, max_value=8.0)


class TestAnchor:
    def test_unit_point_reproduces_table1(self):
        scaled = scale_table1_device(TechnologyPoint())
        base = ibm_mems_prototype()
        assert scaled.active_probes == base.active_probes
        assert scaled.transfer_rate_bps == pytest.approx(
            base.transfer_rate_bps
        )
        assert units.bits_to_gb(scaled.capacity_bits) == pytest.approx(
            120.0
        )
        assert scaled.read_write_power_w == pytest.approx(
            base.read_write_power_w
        )
        assert scaled.seek_power_w == pytest.approx(base.seek_power_w)
        assert scaled.sync_bits_per_subsector == (
            base.sync_bits_per_subsector
        )
        assert scaled.springs_duty_cycles == base.springs_duty_cycles


class TestScalingLaws:
    def test_density_scales_capacity_only(self):
        dense = scale_table1_device(TechnologyPoint(density_factor=2.0))
        assert units.bits_to_gb(dense.capacity_bits) == pytest.approx(240.0)
        assert dense.transfer_rate_bps == pytest.approx(1.024e8)

    def test_probe_count_scales_rate_and_power(self):
        big = scale_table1_device(TechnologyPoint(probe_count_factor=4.0))
        assert big.total_probes == pytest.approx(4 * 4096, rel=0.01)
        assert big.active_probes == pytest.approx(4 * 1024, rel=0.01)
        assert big.transfer_rate_bps == pytest.approx(4 * 1.024e8, rel=0.01)
        assert big.read_write_power_w == pytest.approx(4 * 0.316, rel=0.01)
        assert big.standby_power_w == pytest.approx(0.005)  # floor fixed

    def test_channel_rate_scales_sync_bits(self):
        fast = scale_table1_device(
            TechnologyPoint(per_probe_rate_factor=4.0)
        )
        # The 30 µs sync window costs proportionally more bits at 4x rate.
        assert fast.sync_bits_per_subsector == 12
        assert fast.per_probe_rate_bps == pytest.approx(400_000)

    def test_endurance_factors(self):
        tough = scale_table1_device(
            TechnologyPoint(
                probe_endurance_factor=2.0, springs_endurance_factor=1e4
            )
        )
        assert tough.probe_write_cycles == pytest.approx(200)
        assert tough.springs_duty_cycles == pytest.approx(1e12)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            TechnologyPoint(density_factor=0.0)

    @given(factors, factors)
    @settings(max_examples=40, deadline=None)
    def test_configs_always_validate(self, count_factor, rate_factor):
        # Whatever the knobs, the derived config passes the validator
        # (the point of deriving whole configs instead of patching one).
        device = scale_table1_device(
            TechnologyPoint(
                name="property",
                probe_count_factor=count_factor,
                per_probe_rate_factor=rate_factor,
            )
        )
        assert device.transfer_rate_bps == pytest.approx(
            device.active_probes * device.per_probe_rate_bps
        )


class TestDesignSpaceConsequences:
    def test_tougher_tips_push_probes_wall_right(self):
        workload = table1_workload()
        base = scale_table1_device(TechnologyPoint())
        tough = scale_table1_device(
            TechnologyPoint(probe_endurance_factor=2.0)
        )
        wall_base = LifetimeModel(
            base, workload
        ).probes.max_rate_for_lifetime(7.0)
        wall_tough = LifetimeModel(
            tough, workload
        ).probes.max_rate_for_lifetime(7.0)
        assert wall_tough == pytest.approx(2 * wall_base, rel=0.01)

    def test_fast_channels_keep_capacity_goal_harder(self):
        # 4x per-probe rate quadruples the sync bits per subsector, so
        # the 88% format needs a ~4x larger sector/buffer.
        from repro.core.capacity import CapacityModel

        base = CapacityModel(scale_table1_device(TechnologyPoint()))
        fast = CapacityModel(
            scale_table1_device(TechnologyPoint(per_probe_rate_factor=4.0))
        )
        assert fast.min_buffer_for_utilisation(0.88) == pytest.approx(
            4 * base.min_buffer_for_utilisation(0.88), rel=0.02
        )

    def test_silicon_springs_shrink_the_buffer_not_the_wall(self):
        # The paper's conclusion: probe endurance, not the springs,
        # walls the design space.  Silicon springs only drop the
        # 1024 kbps buffer (springs-bound at Table I) to the capacity
        # plateau, and faster channels raise that plateau again.
        workload = table1_workload()
        goal = DesignGoal(energy_saving=0.70)
        devices = {point.name: scale_table1_device(point) for point in ROADMAP}
        base, springs, fast = (
            BufferDimensioner(devices[name], workload).dimension(
                goal, 1_024_000.0
            )
            for name in (
                "Table I prototype",
                "silicon springs",
                "fast channels (4x per-probe rate)",
            )
        )
        walls = [
            LifetimeModel(devices[name], workload)
            .probes.max_rate_for_lifetime(7.0)
            for name in ("Table I prototype", "silicon springs")
        ]
        assert walls[1] == pytest.approx(walls[0], rel=0.01)
        assert base.dominant is Constraint.SPRINGS
        assert springs.dominant is Constraint.CAPACITY
        assert springs.required_buffer_bits < 0.5 * base.required_buffer_bits
        assert fast.required_buffer_bits > 2 * springs.required_buffer_bits

    def test_roadmap_points_all_explore(self):
        workload = table1_workload()
        goal = DesignGoal(energy_saving=0.70)
        for point in ROADMAP:
            device = scale_table1_device(point)
            explorer = DesignSpaceExplorer(
                device, workload, points_per_decade=6
            )
            result = explorer.sweep(goal)
            assert result.points, point.name
            assert result.regions, point.name
