"""Inverse-solver tests: closed forms validated against numeric inversion."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DesignGoal, ibm_mems_prototype, table1_workload
from repro.core.inverse import InverseSolver, invert_monotone
from repro.errors import (
    ConfigurationError,
    InfeasibleDesignError,
    SolverError,
)

RATE = 1_024_000.0


@pytest.fixture(scope="module")
def solver():
    return InverseSolver(ibm_mems_prototype(), table1_workload())


class TestInvertMonotone:
    def test_increasing(self):
        root = invert_monotone(lambda x: x * x, 9.0, lower=0.1, upper=10.0)
        assert root == pytest.approx(3.0)

    def test_decreasing(self):
        root = invert_monotone(
            lambda x: 1.0 / x, 0.25, lower=0.1, upper=10.0, increasing=False
        )
        assert root == pytest.approx(4.0)

    def test_expands_bracket(self):
        root = invert_monotone(lambda x: x, 5000.0, lower=1.0, upper=2.0)
        assert root == pytest.approx(5000.0)

    def test_already_satisfied_returns_lower(self):
        assert invert_monotone(lambda x: x, 0.5, lower=1.0, upper=2.0) == 1.0

    def test_unreachable_target_raises(self):
        with pytest.raises(SolverError):
            invert_monotone(
                lambda x: 1.0 - 1.0 / x, 2.0, lower=1.0, upper=4.0,
                max_expansions=20,
            )

    def test_rejects_bad_bracket(self):
        with pytest.raises(ConfigurationError):
            invert_monotone(lambda x: x, 1.0, lower=0.0, upper=1.0)
        with pytest.raises(ConfigurationError):
            invert_monotone(lambda x: x, 1.0, lower=2.0, upper=1.0)


class TestInvertMonotoneAccuracy:
    """Known inverses of ``a * x**p``, rooted far above the bracket."""

    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        power=st.floats(min_value=0.25, max_value=4.0),
        root_over_upper=st.floats(min_value=2.0, max_value=1e12),
        upper=st.floats(min_value=1.0, max_value=1e6),
        increasing=st.booleans(),
        tolerance=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_within_tolerance(
        self, scale, power, root_over_upper, upper, increasing, tolerance
    ):
        exponent = power if increasing else -power
        root = upper * root_over_upper

        def func(x):
            return scale * x**exponent

        found = invert_monotone(
            func,
            func(root),
            lower=upper / 2,
            upper=upper,
            increasing=increasing,
            tolerance=tolerance,
        )
        assert abs(found - root) <= tolerance + 1e-12 * root


class TestEnergyInverse:
    def test_closed_form_matches_numeric(self, solver):
        for saving in (0.3, 0.5, 0.7, 0.78):
            closed = solver.buffer_for_energy_saving(saving, RATE)
            numeric = solver.buffer_for_energy_saving_numeric(saving, RATE)
            assert closed == pytest.approx(numeric, rel=1e-6)

    @given(
        st.floats(min_value=0.1, max_value=0.75),
        st.floats(min_value=64_000, max_value=2_000_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_numeric_property(self, saving, rate):
        solver = InverseSolver(ibm_mems_prototype(), table1_workload())
        if saving >= solver.energy.max_energy_saving(rate) - 0.02:
            return  # too close to the wall for the numeric bracket
        closed = solver.buffer_for_energy_saving(saving, rate)
        numeric = solver.buffer_for_energy_saving_numeric(saving, rate)
        assert closed == pytest.approx(numeric, rel=1e-5)

    def test_round_trip(self, solver):
        b = solver.buffer_for_energy_saving(0.7, RATE)
        assert solver.energy.energy_saving(b, RATE) == pytest.approx(0.7)

    def test_monotone_in_target(self, solver):
        buffers = [
            solver.buffer_for_energy_saving(saving, RATE)
            for saving in (0.2, 0.5, 0.7, 0.79)
        ]
        assert buffers == sorted(buffers)

    def test_infeasible_beyond_max_saving(self, solver):
        max_saving = solver.energy.max_energy_saving(RATE)
        with pytest.raises(InfeasibleDesignError) as excinfo:
            solver.buffer_for_energy_saving(max_saving + 0.01, RATE)
        assert excinfo.value.constraint == "energy"

    def test_80_percent_feasible_at_1024_infeasible_at_2048(self, solver):
        # The Figure 3a energy wall sits between the two.
        assert solver.buffer_for_energy_saving(0.80, RATE) > 0
        with pytest.raises(InfeasibleDesignError):
            solver.buffer_for_energy_saving(0.80, 2_048_000.0)

    def test_diverges_near_wall(self, solver):
        max_saving = solver.energy.max_energy_saving(RATE)
        near = solver.buffer_for_energy_saving(max_saving - 1e-4, RATE)
        far = solver.buffer_for_energy_saving(max_saving - 0.1, RATE)
        assert near > 100 * far

    def test_rejects_bad_saving(self, solver):
        with pytest.raises(ConfigurationError):
            solver.buffer_for_energy_saving(1.0, RATE)
        with pytest.raises(ConfigurationError):
            solver.buffer_for_energy_saving(-0.1, RATE)


class TestOtherInverses:
    def test_capacity_inverse_delegates(self, solver):
        assert solver.buffer_for_capacity(0.88) == (
            solver.capacity.min_buffer_for_utilisation(0.88)
        )

    def test_springs_inverse_delegates(self, solver):
        assert solver.buffer_for_springs(7.0, RATE) == (
            solver.lifetime.springs.min_buffer_for_lifetime(7.0, RATE)
        )

    def test_probes_inverse_delegates(self, solver):
        assert solver.buffer_for_probes(7.0, RATE) == (
            solver.lifetime.probes.min_buffer_for_lifetime(7.0, RATE)
        )

    def test_latency_inverse_delegates(self, solver):
        assert solver.buffer_for_latency(RATE) == (
            solver.energy.latency_floor(RATE)
        )


class TestBuffersForGoal:
    def test_all_constraints_present(self, solver):
        buffers = solver.buffers_for_goal(DesignGoal(), RATE)
        assert set(buffers) == {
            "energy", "capacity", "springs", "probes", "latency",
        }

    def test_feasible_goal_all_finite(self, solver):
        buffers = solver.buffers_for_goal(
            DesignGoal(energy_saving=0.70), RATE
        )
        assert all(math.isfinite(v) for v in buffers.values())

    def test_infeasible_energy_reported_as_inf(self, solver):
        buffers = solver.buffers_for_goal(
            DesignGoal(energy_saving=0.80), 2_048_000.0
        )
        assert math.isinf(buffers["energy"])
        assert math.isfinite(buffers["capacity"])

    def test_infeasible_capacity_reported_as_inf(self, solver):
        buffers = solver.buffers_for_goal(
            DesignGoal(capacity_utilisation=0.89), RATE
        )
        assert math.isinf(buffers["capacity"])

    def test_infeasible_probes_reported_as_inf(self, solver):
        wall = solver.lifetime.probes.max_rate_for_lifetime(7.0)
        buffers = solver.buffers_for_goal(
            DesignGoal(energy_saving=0.3), wall * 1.05
        )
        assert math.isinf(buffers["probes"])

    def test_springs_dominate_at_high_rating_goal(self, solver):
        # At 1024 kbps with the (70%, 88%, 7) goal, springs demand the most.
        buffers = solver.buffers_for_goal(
            DesignGoal(energy_saving=0.70), RATE
        )
        assert buffers["springs"] == max(buffers.values())
