"""Solver benchmarks: closed-form vs numeric inversion, dimensioning rate.

Not a paper artefact; keeps the library's own performance honest.  The
closed-form energy inverse must stay orders of magnitude faster than the
numeric bisection, and one full §IV.C dimensioning call must remain cheap
enough for dense Figure 3 sweeps.
"""

from __future__ import annotations

import pytest

from repro.config import DesignGoal, ibm_mems_prototype, table1_workload
from repro.core.dimensioning import BufferDimensioner
from repro.core.inverse import InverseSolver

RATE = 1_024_000.0


@pytest.fixture(scope="module")
def solver():
    return InverseSolver(ibm_mems_prototype(), table1_workload())


@pytest.mark.benchmark(group="inverse")
def test_energy_inverse_closed_form(benchmark, solver):
    buffer_bits = benchmark(
        solver.buffer_for_energy_saving, 0.70, RATE
    )
    assert solver.energy.energy_saving(buffer_bits, RATE) == pytest.approx(
        0.70
    )


@pytest.mark.benchmark(group="inverse")
def test_energy_inverse_numeric(benchmark, solver):
    buffer_bits = benchmark(
        solver.buffer_for_energy_saving_numeric, 0.70, RATE
    )
    assert buffer_bits == pytest.approx(
        solver.buffer_for_energy_saving(0.70, RATE), rel=1e-6
    )


@pytest.mark.benchmark(group="inverse")
def test_capacity_inverse(benchmark, solver):
    buffer_bits = benchmark(solver.buffer_for_capacity, 0.88)
    assert solver.capacity.utilisation(buffer_bits) >= 0.88


@pytest.mark.benchmark(group="inverse")
def test_full_dimensioning_call(benchmark):
    dimensioner = BufferDimensioner(
        ibm_mems_prototype(), table1_workload()
    )
    goal = DesignGoal(energy_saving=0.70)
    requirement = benchmark(dimensioner.dimension, goal, RATE)
    assert requirement.feasible
