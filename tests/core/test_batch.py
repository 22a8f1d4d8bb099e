"""Scalar <-> batch parity: the vectorised fast paths change speed only.

Every ``*_batch`` method must agree with its scalar twin — to float
rounding (1e-9 relative) for the closed forms, bit for bit for the
exact integer inverses — over random configs, goals, and grids,
including infeasible points, which the batch paths encode as ``inf``
where the scalar paths raise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DesignGoal, WorkloadConfig, ibm_mems_prototype, table1_workload
from repro.core.capacity import CapacityModel
from repro.core.dimensioning import BufferDimensioner
from repro.core.energy import EnergyModel
from repro.core.lifetime import LifetimeModel
from repro.errors import ConfigurationError, InfeasibleDesignError
from repro.formatting.ecc import FractionalECC, NoECC
from repro.formatting.sector import SectorLayout

DEVICE = ibm_mems_prototype()
WORKLOAD = table1_workload()
RM = DEVICE.transfer_rate_bps

RTOL = 1e-9


def close(batch, scalar):
    """Parity check tolerating inf==inf (infeasible on both paths)."""
    return np.allclose(
        np.asarray(batch, dtype=float),
        np.asarray(scalar, dtype=float),
        rtol=RTOL,
        atol=0.0,
    )


# Random-but-valid model inputs.  Devices perturb the Table I prototype
# within its physical envelope (standby < idle is enforced by config
# validation, so scale idle upward only).
devices = st.builds(
    lambda seek, rw, idle_f, sync, springs, probes, wear: DEVICE.replace(
        seek_time_s=seek,
        read_write_power_w=rw,
        idle_power_w=DEVICE.idle_power_w * idle_f,
        sync_bits_per_subsector=sync,
        springs_duty_cycles=springs,
        probe_write_cycles=probes,
        probe_wear_factor=wear,
    ),
    seek=st.floats(min_value=1e-4, max_value=0.05),
    rw=st.floats(min_value=0.05, max_value=1.0),
    idle_f=st.floats(min_value=1.0, max_value=4.0),
    sync=st.integers(min_value=0, max_value=8),
    springs=st.floats(min_value=1e6, max_value=1e12),
    probes=st.floats(min_value=10.0, max_value=1000.0),
    wear=st.floats(min_value=0.5, max_value=2.0),
)
workloads = st.builds(
    WorkloadConfig,
    hours_per_day=st.floats(min_value=1.0, max_value=24.0),
    # Exactly zero (pure read) or sane: a denormal write fraction
    # underflows the probes ratio to 0.0, which both paths reject.
    write_fraction=st.one_of(
        st.just(0.0), st.floats(min_value=1e-9, max_value=1.0)
    ),
    best_effort_fraction=st.floats(min_value=0.0, max_value=0.25),
)
goals = st.builds(
    DesignGoal,
    energy_saving=st.floats(min_value=0.0, max_value=0.95),
    capacity_utilisation=st.floats(min_value=0.05, max_value=0.95),
    lifetime_years=st.floats(min_value=0.25, max_value=25.0),
)
rate_grids = st.lists(
    st.floats(min_value=1_000.0, max_value=RM * 0.999),
    min_size=1,
    max_size=40,
).map(np.asarray)
buffer_grids = st.lists(
    st.floats(min_value=1.0, max_value=1e12),
    min_size=1,
    max_size=40,
).map(np.asarray)


class TestEnergyParity:
    @given(devices, workloads, buffer_grids, rate_grids)
    @settings(max_examples=80, deadline=None)
    def test_forward_curves(self, device, workload, buffers, rates):
        model = EnergyModel(device, workload)
        rate = float(rates[0])
        assert close(
            model.per_bit_energy_batch(buffers, rate),
            [model.per_bit_energy(float(b), rate) for b in buffers],
        )
        assert close(
            model.energy_saving_batch(buffers, rate),
            [model.energy_saving(float(b), rate) for b in buffers],
        )

    @given(devices, workloads, rate_grids)
    @settings(max_examples=80, deadline=None)
    def test_rate_curves(self, device, workload, rates):
        model = EnergyModel(device, workload)
        assert close(
            model.always_on_per_bit_energy_batch(rates),
            [model.always_on_per_bit_energy(float(r)) for r in rates],
        )
        assert close(
            model.asymptotic_per_bit_energy_batch(rates),
            [model.asymptotic_per_bit_energy(float(r)) for r in rates],
        )
        assert close(
            model.max_energy_saving_batch(rates),
            [model.max_energy_saving(float(r)) for r in rates],
        )
        assert close(
            model.break_even_buffer_batch(rates),
            [model.break_even_buffer(float(r)) for r in rates],
        )

    @given(devices, workloads, rate_grids)
    @settings(max_examples=60, deadline=None)
    def test_latency_floor(self, device, workload, rates):
        model = EnergyModel(device, workload)
        scalar = []
        for rate in rates:
            try:
                scalar.append(model.latency_floor(float(rate)))
            except ConfigurationError:
                scalar.append(math.inf)  # batch encodes "no drain" as inf
        assert close(model.latency_floor_batch(rates), scalar)

    def test_invalid_rates_rejected(self):
        model = EnergyModel(DEVICE, WORKLOAD)
        with pytest.raises(ConfigurationError):
            model.break_even_buffer_batch(np.array([0.0]))
        with pytest.raises(ConfigurationError):
            model.per_bit_energy_batch(np.array([8.0]), np.array([RM]))
        with pytest.raises(ConfigurationError):
            model.per_bit_energy_batch(np.array([0.0]), np.array([RM / 2]))


class TestSectorAndCapacityParity:
    layouts = st.builds(
        SectorLayout,
        stripe_width=st.integers(min_value=1, max_value=2048),
        sync_bits_per_subsector=st.integers(min_value=0, max_value=8),
        ecc=st.one_of(
            st.builds(
                FractionalECC,
                numerator=st.integers(min_value=0, max_value=3),
                denominator=st.integers(min_value=4, max_value=16),
            ),
            st.just(NoECC()),
        ),
    )

    @given(
        layouts,
        st.lists(
            st.integers(min_value=1, max_value=10_000_000),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_sector_bits_batch_exact(self, layout, user_bits):
        batch = layout.sector_bits_batch(np.asarray(user_bits))
        assert batch.tolist() == [layout.sector_bits(u) for u in user_bits]

    @given(layouts, st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverse_batch_exact(self, layout, data):
        # Near-supremum targets stop at u = 9: further up, the scalar
        # search itself walks millions of subsector sizes on some
        # layouts (its envelope start loses precision as the gap
        # shrinks), so the oracle would take seconds to minutes.
        supremum = layout.utilisation_supremum
        near_supremum = st.integers(min_value=1, max_value=9).map(
            lambda u: supremum * (1 - 10.0**-u)
        )
        targets = data.draw(
            st.lists(
                st.one_of(
                    st.floats(min_value=1e-3, max_value=1.5), near_supremum
                ),
                min_size=1,
                max_size=30,
            )
        )
        batch = layout.min_user_bits_for_utilisation_batch(
            np.asarray(targets)
        )
        for target, got in zip(targets, batch):
            if target >= layout.utilisation_supremum or target > 1:
                assert math.isinf(got)
                continue
            try:
                scalar = float(layout.min_user_bits_for_utilisation(target))
            except InfeasibleDesignError:
                scalar = math.inf
            # Bit-for-bit: same first-admitting subsector class.
            assert got == scalar

    @pytest.mark.parametrize("stripe_width, sync_bits", [(1024, 3), (2048, 8)])
    def test_inverse_batch_exact_just_below_supremum(
        self, stripe_width, sync_bits
    ):
        """Targets 1-8 ulps under the supremum, batched in one grid.

        No answer may depend on which neighbours share the grid.  These
        searches build integers past 2**53, so the batch hands them to
        the scalar inverse; ``sup * (1 - 1e-10)`` stays on the walk.
        """
        layout = SectorLayout(stripe_width, sync_bits)
        supremum = layout.utilisation_supremum
        targets = [supremum]
        for _ in range(8):
            targets.append(float(np.nextafter(targets[-1], 0.0)))
        targets = targets[1:] + [supremum * (1 - 1e-10), supremum * (1 - 1e-13)]
        batch = layout.min_user_bits_for_utilisation_batch(np.array(targets))
        for target, got in zip(targets, batch):
            assert got == float(layout.min_user_bits_for_utilisation(target))

    def test_chunky_ecc_unreachable_target_is_inf_not_error(self):
        """One unreachable target must not poison the rest of the grid.

        Reed-Solomon parity is chunky: some targets below the
        asymptotic supremum are unreachable within the scalar search
        bound, where the scalar inverse raises per target.  The batch
        inverse must mirror that as a per-point inf and still resolve
        every other target exactly.
        """
        from repro.formatting.ecc import ReedSolomonECC

        layout = SectorLayout(
            stripe_width=1, sync_bits_per_subsector=16, ecc=ReedSolomonECC()
        )
        targets = np.array([0.3, 0.738, 0.5, 0.86])
        assert targets[1] < layout.utilisation_supremum
        batch = layout.min_user_bits_for_utilisation_batch(targets)
        for target, got in zip(targets, batch):
            try:
                scalar = float(layout.min_user_bits_for_utilisation(float(target)))
            except InfeasibleDesignError:
                scalar = math.inf
            assert got == scalar
        assert math.isinf(batch[1])
        assert np.isfinite(batch[[0, 2, 3]]).all()

    def test_non_finite_buffers_rejected(self):
        model = CapacityModel(DEVICE)
        with pytest.raises(ConfigurationError):
            model.sector_bits_batch(np.array([8000.0, np.inf]))
        with pytest.raises(ConfigurationError):
            model.utilisation_batch(np.array([np.nan]))

    @given(devices, buffer_grids)
    @settings(max_examples=40, deadline=None)
    def test_capacity_model_batch(self, device, buffers):
        model = CapacityModel(device)
        assert model.sector_bits_batch(buffers).tolist() == [
            model.sector_bits(float(b)) for b in buffers
        ]
        assert close(
            model.utilisation_batch(buffers),
            [model.utilisation(float(b)) for b in buffers],
        )


class TestLifetimeParity:
    @given(devices, workloads, buffer_grids, rate_grids)
    @settings(max_examples=60, deadline=None)
    def test_forward_curves(self, device, workload, buffers, rates):
        model = LifetimeModel(device, workload)
        rate = float(rates[0])
        assert close(
            model.springs.lifetime_years_batch(buffers, rate),
            [model.springs.lifetime_years(float(b), rate) for b in buffers],
        )
        assert close(
            model.probes.lifetime_years_batch(buffers, rate),
            [model.probes.lifetime_years(float(b), rate) for b in buffers],
        )

    @given(devices, workloads, rate_grids, st.floats(min_value=0.25, max_value=25.0))
    @settings(max_examples=60, deadline=None)
    def test_inverses(self, device, workload, rates, lifetime):
        model = LifetimeModel(device, workload)
        assert close(
            model.springs.min_buffer_for_lifetime_batch(lifetime, rates),
            [
                model.springs.min_buffer_for_lifetime(lifetime, float(r))
                for r in rates
            ],
        )
        scalar_probes = []
        for rate in rates:
            try:
                scalar_probes.append(
                    model.probes.min_buffer_for_lifetime(lifetime, float(rate))
                )
            except InfeasibleDesignError:
                scalar_probes.append(math.inf)
        assert close(
            model.probes.min_buffer_for_lifetime_batch(lifetime, rates),
            scalar_probes,
        )


class TestRequirementParity:
    @given(devices, workloads, goals, rate_grids)
    @settings(max_examples=60, deadline=None)
    def test_full_requirement(self, device, workload, goal, rates):
        dimensioner = BufferDimensioner(device, workload)
        batch = dimensioner.require_batch(goal, rates)
        labels = batch.labels()
        for index, rate in enumerate(rates):
            rebuilt = batch.requirement_at(index)
            try:
                scalar = dimensioner.dimension(goal, float(rate))
            except ConfigurationError:
                # Best-effort leaves no drain time at this rate: the
                # scalar path raises, the batch path masks with inf.
                assert not batch.feasible[index]
                assert math.isinf(rebuilt.required_buffer_bits)
                assert labels[index] == "X"
                continue
            assert labels[index] == (
                scalar.dominant.value if scalar.feasible else "X"
            )
            assert close(
                [rebuilt.required_buffer_bits],
                [scalar.required_buffer_bits],
            )
            assert rebuilt.feasible == scalar.feasible
            assert rebuilt.dominant == scalar.dominant
            for outcome, batch_outcome in zip(
                scalar.outcomes, rebuilt.outcomes
            ):
                assert batch_outcome.constraint is outcome.constraint
                assert close(
                    [batch_outcome.min_buffer_bits],
                    [outcome.min_buffer_bits],
                )

    @given(devices, workloads, goals, rate_grids)
    @settings(max_examples=40, deadline=None)
    def test_energy_inverse_and_masks(self, device, workload, goal, rates):
        dimensioner = BufferDimensioner(device, workload)
        solver = dimensioner.solver
        batch = solver.buffer_for_energy_saving_batch(
            goal.energy_saving, np.asarray(rates, dtype=float)
        )
        scalar = []
        for rate in rates:
            try:
                scalar.append(
                    solver.buffer_for_energy_saving(
                        goal.energy_saving, float(rate)
                    )
                )
            except InfeasibleDesignError:
                scalar.append(math.inf)
        assert close(batch, scalar)
        requirement = dimensioner.require_batch(goal, rates)
        scalar_feasible = []
        for rate in rates:
            try:
                scalar_feasible.append(
                    dimensioner.dimension(goal, float(rate)).feasible
                )
            except ConfigurationError:
                scalar_feasible.append(False)  # no drain time: masked
        assert requirement.feasible.tolist() == scalar_feasible

    def test_batch_requirement_shape_guard(self):
        dimensioner = BufferDimensioner(DEVICE, WORKLOAD)
        batch = dimensioner.require_batch(DesignGoal(), np.array([1e6, 2e6]))
        assert len(batch) == 2
        assert batch.constraint_buffers.shape == (
            len(dimensioner.constraints),
            2,
        )
        labels = batch.labels()
        assert len(labels) == 2
        # Readback helpers agree with the stacked matrix.
        for row, constraint in enumerate(batch.constraints):
            assert np.array_equal(
                batch.buffer_for(constraint),
                batch.constraint_buffers[row],
            )


class TestWallParity:
    """energy_wall_rate_batch: all goal boundaries bisect as one array."""

    saving_grids = st.lists(
        st.floats(min_value=0.0, max_value=0.999),
        min_size=1,
        max_size=30,
    ).map(np.asarray)

    @given(devices, workloads, saving_grids)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bisection(self, device, workload, savings):
        from repro.core.design_space import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(device, workload)
        batch = explorer.energy_wall_rate_batch(savings)
        scalar = np.array(
            [
                explorer.energy_wall_rate(
                    DesignGoal(energy_saving=float(s))
                )
                for s in savings
            ]
        )
        assert (np.isinf(batch) == np.isinf(scalar)).all()
        finite = np.isfinite(scalar)
        assert close(batch[finite], scalar[finite])

    def test_reference_config_edges(self):
        from repro.core.design_space import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD)
        walls = explorer.energy_wall_rate_batch([0.1, 0.80, 0.99])
        # Easy goal: reachable across the whole range.
        assert math.isinf(walls[0])
        # The Figure 3a wall sits slightly above 1000 kbps.
        assert 1_000_000 <= walls[1] <= 1_500_000
        # Impossible goal: wall collapses to the bottom of the range.
        assert walls[2] == pytest.approx(
            WORKLOAD.stream_rate_min_bps
        )
        assert explorer.energy_wall_rate_batch(np.array([])).shape == (0,)
        # Goals the scalar oracle rejects still get an answer per lane
        # (NaN is checked in tests/kernels/test_parity.py): +inf is
        # unreachable everywhere, -inf and the smallest denormal are
        # reachable everywhere.
        edges = explorer.energy_wall_rate_batch([math.inf, -math.inf, 5e-324])
        assert edges[0] == WORKLOAD.stream_rate_min_bps
        assert edges[1] == math.inf
        assert edges[2] == math.inf

    def test_preserves_input_shape(self):
        from repro.core.design_space import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(DEVICE, WORKLOAD)
        grid = np.full((3, 2), 0.80)
        assert explorer.energy_wall_rate_batch(grid).shape == (3, 2)


class TestBestUtilisationParity:
    """The fig2a saw-tooth peak search, vectorised."""

    @given(devices, buffer_grids)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_peaks(self, device, buffers):
        model = CapacityModel(device)
        batch = model.best_utilisation_batch(buffers)
        scalar = [model.best_utilisation(float(b)) for b in buffers]
        assert close(batch, scalar)

    def test_reference_grid_bit_exact(self):
        model = CapacityModel(DEVICE)
        buffers = np.geomspace(1.0, 1e8, 500)
        batch = model.best_utilisation_batch(buffers)
        scalar = np.array(
            [model.best_utilisation(float(b)) for b in buffers]
        )
        assert np.array_equal(batch, scalar)

    @given(TestSectorAndCapacityParity.layouts)
    @settings(max_examples=40, deadline=None)
    def test_layout_peaks_tiny_caps(self, layout):
        caps = np.arange(1, 80, dtype=np.int64)
        batch = layout.best_user_bits_at_most_batch(caps)
        for cap, got in zip(caps, batch):
            best = layout.best_user_bits_at_most(int(cap))
            # Peak *utilisation* must match exactly; ties between
            # distinct sector sizes may break either way.
            assert layout.utilisation(int(got)) == layout.utilisation(best)
            assert 0 < got <= cap

    def test_rejects_nonpositive(self):
        model = CapacityModel(DEVICE)
        with pytest.raises(ConfigurationError):
            model.best_utilisation_batch(np.array([0.5]))


class TestDRAMParity:
    """DRAM batch model vs the scalar Micron decomposition."""

    dram_grids = st.lists(
        st.floats(min_value=1.0, max_value=1e10),
        min_size=1,
        max_size=30,
    ).map(np.asarray)
    cycle_grids = st.lists(
        st.floats(min_value=1e-6, max_value=1e4),
        min_size=1,
        max_size=30,
    ).map(np.asarray)

    @given(dram_grids, cycle_grids)
    @settings(max_examples=80, deadline=None)
    def test_cycle_energy_terms(self, buffers, cycles):
        from repro.devices.dram import DRAMPowerModel

        model = DRAMPowerModel()
        n = min(len(buffers), len(cycles))
        buffers, cycles = buffers[:n], cycles[:n]
        batch = model.cycle_energy_batch(buffers, cycles)
        for index, (b, t) in enumerate(zip(buffers, cycles)):
            scalar = model.cycle_energy(float(b), float(t))
            assert close([batch.retention_j[index]], [scalar.retention_j])
            assert close([batch.activate_j[index]], [scalar.activate_j])
            assert close([batch.burst_j[index]], [scalar.burst_j])
            assert close([batch.total_j[index]], [scalar.total_j])
            assert close([batch.per_bit_j[index]], [scalar.per_bit_j])
            assert close(
                [batch.mean_power_w[index]], [scalar.mean_power_w]
            )

    @given(dram_grids)
    @settings(max_examples=60, deadline=None)
    def test_access_and_retention(self, buffers):
        from repro.devices.dram import DRAMPowerModel

        model = DRAMPowerModel()
        assert close(
            model.retention_power_w_batch(buffers),
            [model.retention_power_w(float(b)) for b in buffers],
        )
        for write in (True, False):
            assert close(
                model.access_energy_j_batch(buffers, write=write),
                [
                    model.access_energy_j(float(b), write=write)
                    for b in buffers
                ],
            )

    def test_zero_bits_access_is_free(self):
        from repro.devices.dram import DRAMPowerModel

        model = DRAMPowerModel()
        assert model.access_energy_j_batch(
            np.array([0.0]), write=True
        ).tolist() == [0.0]

    def test_rejects_invalid_grids(self):
        from repro.devices.dram import DRAMPowerModel

        model = DRAMPowerModel()
        with pytest.raises(ConfigurationError):
            model.cycle_energy_batch(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            model.cycle_energy_batch(np.array([8.0]), np.array([0.0]))
        with pytest.raises(ConfigurationError):
            model.access_energy_j_batch(np.array([-1.0]), write=False)

    def test_broadcasts_one_cycle_time(self):
        from repro.devices.dram import DRAMPowerModel
        from repro.core.energy import EnergyModel

        energy = EnergyModel(DEVICE, WORKLOAD)
        model = DRAMPowerModel()
        buffers = np.geomspace(1e3, 1e7, 11)
        cycles = energy.cycle_time_batch(buffers, 1_024_000.0)
        assert close(
            cycles,
            [energy.cycle_time(float(b), 1_024_000.0) for b in buffers],
        )
        batch = model.per_bit_energy_batch(buffers, cycles)
        assert close(
            batch,
            [
                model.per_bit_energy(
                    float(b), energy.cycle_time(float(b), 1_024_000.0)
                )
                for b in buffers
            ],
        )
