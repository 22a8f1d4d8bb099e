"""Cross-layer consistency checks that don't belong to any one module.

These tie together quantities that are computed independently in
different layers and must agree: sweep results vs point queries,
experiment headlines vs direct model calls, equation symmetries.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.config import DesignGoal, ibm_mems_prototype, table1_workload
from repro.core.design_space import DesignSpaceExplorer
from repro.core.dimensioning import BufferDimensioner
from repro.core.energy import EnergyModel
from repro.core.lifetime import LifetimeModel
from repro.experiments import run_experiment

DEVICE = ibm_mems_prototype()
WORKLOAD = table1_workload()
RATE = 1_024_000.0


class TestSweepVsPointQueries:
    def test_sweep_samples_match_dimensioner(self):
        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD, points_per_decade=6)
        dimensioner = BufferDimensioner(DEVICE, WORKLOAD)
        goal = DesignGoal(energy_saving=0.70)
        result = explorer.sweep(goal)
        for point in result.points[:: max(1, len(result.points) // 8)]:
            direct = dimensioner.dimension(goal, point.stream_rate_bps)
            assert direct.required_buffer_bits == pytest.approx(
                point.requirement.required_buffer_bits
            )
            assert direct.dominant == point.requirement.dominant

    def test_regions_partition_the_swept_range(self):
        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD, points_per_decade=8)
        result = explorer.sweep(DesignGoal(energy_saving=0.80))
        regions = result.regions
        assert regions[0].rate_low_bps == pytest.approx(
            WORKLOAD.stream_rate_min_bps
        )
        assert regions[-1].rate_high_bps == pytest.approx(
            WORKLOAD.stream_rate_max_bps
        )
        for left, right in zip(regions, regions[1:]):
            assert right.rate_low_bps == pytest.approx(left.rate_high_bps)

    def test_energy_series_matches_solver(self):
        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD, points_per_decade=6)
        goal = DesignGoal(energy_saving=0.70)
        result = explorer.sweep(goal)
        solver = explorer.dimensioner.solver
        for point in result.points[:: max(1, len(result.points) // 6)]:
            expected = solver.buffer_for_energy_saving(
                0.70, point.stream_rate_bps
            )
            assert point.energy_buffer_bits == pytest.approx(expected)


class TestExperimentHeadlinesMatchModels:
    def test_fig2a_break_even_matches_energy_model(self):
        result = run_experiment("fig2a")
        model = EnergyModel(DEVICE, WORKLOAD)
        assert result.headline["break_even_kb"] == pytest.approx(
            units.bits_to_kb(model.break_even_buffer(RATE))
        )

    def test_fig2b_ceiling_matches_lifetime_model(self):
        result = run_experiment("fig2b")
        lifetime = LifetimeModel(DEVICE, WORKLOAD)
        assert result.headline["probes_ceiling_years"] == pytest.approx(
            lifetime.probes.lifetime_ceiling_years(RATE)
        )

    def test_fig3a_wall_matches_explorer(self):
        result = run_experiment("fig3a")
        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD)
        wall = explorer.energy_wall_rate(DesignGoal(energy_saving=0.80))
        assert result.headline["energy_wall_kbps"] == pytest.approx(
            wall / 1000, rel=1e-6
        )


class TestEquationSymmetries:
    def test_cycle_time_is_refill_plus_drain(self):
        model = EnergyModel(DEVICE, WORKLOAD)
        for kb in (5, 20, 90):
            buffer_bits = units.kb_to_bits(kb)
            assert model.cycle_time(buffer_bits, RATE) == pytest.approx(
                model.refill_time(buffer_bits, RATE) + buffer_bits / RATE
            )

    def test_springs_lifetime_times_refills_equals_rating(self):
        lifetime = LifetimeModel(DEVICE, WORKLOAD)
        buffer_bits = units.kb_to_bits(50)
        years = lifetime.springs.lifetime_years(buffer_bits, RATE)
        refills_per_year = lifetime.springs.refills_per_year(
            buffer_bits, RATE
        )
        assert years * refills_per_year == pytest.approx(
            DEVICE.springs_duty_cycles
        )

    def test_probes_budget_conservation(self):
        # Lifetime x written-bits-per-year == total write budget.
        lifetime = LifetimeModel(DEVICE, WORKLOAD)
        buffer_bits = units.kb_to_bits(50)
        years = lifetime.probes.lifetime_years(buffer_bits, RATE)
        written = lifetime.probes._written_bits_per_year(buffer_bits, RATE)
        assert years * written == pytest.approx(
            DEVICE.capacity_bits * DEVICE.probe_write_cycles
        )
