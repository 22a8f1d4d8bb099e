"""Model ablations: one modelling choice moved, its effect on the landmarks.

Each test perturbs one assumption of the paper and checks the direction
and rough size of the effect on a design-space landmark:

* sync bits per subsector (the §III.B.2 "3 bits" assumption),
* the ECC overhead ratio (1/8 vs the disk's 1/10 vs none),
* the best-effort fraction (the §IV.A 5% tax that puts the Figure 3a
  wall "slightly above 1000 kbps"),
* the probe wear factor (literal Equation (6) vs write-verify),
* playback hours per day (Table I's 8 h),
* standby power, seek time and the springs rating.
"""

from __future__ import annotations

import math

import pytest

from repro.config import (
    DesignGoal,
    WorkloadConfig,
    ibm_mems_prototype,
    table1_workload,
)
from repro.core.capacity import CapacityModel
from repro.core.design_space import DesignSpaceExplorer
from repro.core.dimensioning import BufferDimensioner, Constraint
from repro.core.energy import EnergyModel
from repro.core.lifetime import ProbesModel

RATE = 1_024_000.0
GOAL_70 = DesignGoal(energy_saving=0.70)
GOAL_80 = DesignGoal(energy_saving=0.80)


def test_sync_bits_scale_the_capacity_buffer():
    buffers = {
        sync_bits: CapacityModel(
            ibm_mems_prototype().replace(sync_bits_per_subsector=sync_bits)
        ).min_buffer_for_utilisation(0.88)
        for sync_bits in (0, 3, 6, 12)
    }
    assert buffers[0] < buffers[3] < buffers[6] < buffers[12]
    # The requirement scales linearly with the per-subsector tax.
    assert buffers[6] == pytest.approx(2 * buffers[3], rel=0.01)


def test_ecc_ratio_sets_the_utilisation_supremum():
    suprema = {
        (numerator, denominator): CapacityModel(
            ibm_mems_prototype().replace(
                ecc_numerator=numerator, ecc_denominator=denominator
            )
        ).utilisation_supremum
        for numerator, denominator in ((1, 8), (1, 10), (0, 1))
    }
    assert suprema[(1, 8)] == pytest.approx(8 / 9)
    assert suprema[(1, 10)] == pytest.approx(10 / 11)
    assert suprema[(0, 1)] == 1.0
    # The paper's 88% goal is only just feasible under 1/8 ECC.
    assert suprema[(1, 8)] - 0.88 < 0.01


def test_best_effort_fraction_places_the_energy_wall():
    walls = {
        fraction: DesignSpaceExplorer(
            ibm_mems_prototype(),
            table1_workload().replace(best_effort_fraction=fraction),
        ).energy_wall_rate(GOAL_80)
        for fraction in (0.0, 0.05, 0.10)
    }
    # Without the tax the 80% goal never walls inside the studied range.
    assert math.isinf(walls[0.0])
    # With Table I's 5% the wall lands slightly above 1000 kbps.
    assert 1.0e6 <= walls[0.05] <= 1.5e6
    # A heavier tax pulls the wall further left.
    assert walls[0.10] < walls[0.05]


def test_probe_wear_factor_halves_the_probes_wall():
    walls = {
        wear: ProbesModel(
            ibm_mems_prototype(probe_wear_factor=wear), table1_workload()
        ).max_rate_for_lifetime(7.0)
        for wear in (1.0, 2.0)
    }
    assert walls[1.0] == pytest.approx(2 * walls[2.0], rel=1e-9)


def test_springs_bound_buffer_is_linear_in_hours_per_day():
    buffers = {}
    for hours in (4.0, 8.0, 16.0):
        requirement = BufferDimensioner(
            ibm_mems_prototype(), WorkloadConfig(hours_per_day=hours)
        ).dimension(GOAL_70, RATE)
        assert requirement.dominant is Constraint.SPRINGS
        buffers[hours] = requirement.required_buffer_bits
    assert buffers[8.0] == pytest.approx(2 * buffers[4.0], rel=0.01)
    assert buffers[16.0] == pytest.approx(2 * buffers[8.0], rel=0.01)


@pytest.mark.parametrize("knob", ["standby_power_w", "seek_time_s"])
def test_doubling_a_shutdown_cost_raises_break_even(knob):
    device = ibm_mems_prototype()
    workload = table1_workload()
    costlier = device.replace(**{knob: 2 * getattr(device, knob)})
    assert EnergyModel(costlier, workload).break_even_buffer(RATE) > (
        EnergyModel(device, workload).break_even_buffer(RATE)
    )


def test_doubling_the_springs_rating_halves_the_springs_buffer():
    device = ibm_mems_prototype()
    workload = table1_workload()
    base = BufferDimensioner(device, workload).dimension(GOAL_70, RATE)
    tougher = BufferDimensioner(
        device.replace(springs_duty_cycles=2 * device.springs_duty_cycles),
        workload,
    ).dimension(GOAL_70, RATE)
    assert base.dominant is Constraint.SPRINGS
    assert tougher.required_buffer_bits == pytest.approx(
        base.required_buffer_bits / 2, rel=0.01
    )
