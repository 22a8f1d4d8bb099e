"""Energy-model tests: Equation (1), break-even, savings, cycle breakdown."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import WorkloadConfig, ibm_mems_prototype
from repro.core.energy import EnergyModel, per_bit_energy_closed_form
from repro.errors import ConfigurationError

RATE = 1_024_000.0

buffers = st.floats(min_value=1_000, max_value=1e7)
rates = st.floats(min_value=32_000, max_value=4_096_000)


class TestBreakEven:
    def test_paper_anchor_32kbps(self, energy_model):
        # Paper §III.A.1: 0.07 kB at 32 kbps.
        be = energy_model.break_even_buffer(32_000)
        assert units.bits_to_kb(be) == pytest.approx(0.070, rel=0.01)

    def test_paper_anchor_4096kbps(self, energy_model):
        # Paper: 8.87 kB at 4096 kbps (we land at 8.91, within 0.5%).
        be = energy_model.break_even_buffer(4_096_000)
        assert units.bits_to_kb(be) == pytest.approx(8.87, rel=0.01)

    def test_reference_point_1024(self, energy_model):
        be = energy_model.break_even_buffer(RATE)
        assert units.bits_to_kb(be) == pytest.approx(2.23, rel=0.01)

    def test_linear_in_rate(self, energy_model):
        assert energy_model.break_even_buffer(64_000) == pytest.approx(
            2 * energy_model.break_even_buffer(32_000)
        )

    def test_closed_form(self, device, energy_model):
        # B_be = rs (Eoh - Psb toh) / (Pidle - Psb).
        expected = (
            RATE
            * (
                device.overhead_energy_j
                - device.standby_power_w * device.overhead_time_s
            )
            / (device.idle_power_w - device.standby_power_w)
        )
        assert energy_model.break_even_buffer(RATE) == pytest.approx(expected)

    def test_saving_is_zero_at_break_even_without_best_effort(
        self, energy_model_no_be
    ):
        be = energy_model_no_be.break_even_buffer(RATE)
        assert energy_model_no_be.energy_saving(be, RATE) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_saving_negative_below_break_even(self, energy_model_no_be):
        be = energy_model_no_be.break_even_buffer(RATE)
        assert energy_model_no_be.energy_saving(0.5 * be, RATE) < 0

    def test_free_shutdown_breaks_even_immediately(self, device):
        free = device.replace(seek_power_w=0.0, shutdown_power_w=0.0)
        model = EnergyModel(free)
        assert model.break_even_buffer(RATE) == 0.0

    def test_range_endpoints(self, energy_model):
        low, high = energy_model.break_even_range(32_000, 4_096_000)
        assert low == energy_model.break_even_buffer(32_000)
        assert high == energy_model.break_even_buffer(4_096_000)

    def test_range_rejects_inverted(self, energy_model):
        with pytest.raises(ConfigurationError):
            energy_model.break_even_range(2e6, 1e6)

    @given(rates)
    @settings(max_examples=50)
    def test_break_even_positive(self, rate):
        model = EnergyModel(ibm_mems_prototype())
        assert model.break_even_buffer(rate) > 0


class TestEquation1:
    def test_matches_literal_closed_form(self, device, energy_model_no_be):
        for buffer_kb in (2, 5, 20, 45):
            b = units.kb_to_bits(buffer_kb)
            assert energy_model_no_be.per_bit_energy(b, RATE) == pytest.approx(
                per_bit_energy_closed_form(device, b, RATE), rel=1e-12
            )

    def test_figure2a_left_edge(self, energy_model):
        # ~120 nJ/b near the break-even buffer at 1024 kbps.
        be = energy_model.break_even_buffer(RATE)
        nj = units.j_per_bit_to_nj_per_bit(energy_model.per_bit_energy(be, RATE))
        assert nj == pytest.approx(135, rel=0.05)  # with 5% best-effort tax

    def test_figure2a_left_edge_no_best_effort(self, energy_model_no_be):
        be = energy_model_no_be.break_even_buffer(RATE)
        nj = units.j_per_bit_to_nj_per_bit(
            energy_model_no_be.per_bit_energy(be, RATE)
        )
        assert nj == pytest.approx(120, rel=0.02)

    def test_terms_sum_to_total(self, energy_model):
        b = units.kb_to_bits(20)
        terms = energy_model.per_bit_energy_terms(b, RATE)
        assert sum(terms) == pytest.approx(
            energy_model.per_bit_energy(b, RATE), rel=1e-12
        )

    def test_only_overhead_term_depends_on_buffer(self, energy_model):
        t_small = energy_model.per_bit_energy_terms(units.kb_to_bits(5), RATE)
        t_large = energy_model.per_bit_energy_terms(units.kb_to_bits(50), RATE)
        assert t_small[0] == pytest.approx(10 * t_large[0], rel=1e-9)
        assert t_small[1] == pytest.approx(t_large[1], rel=1e-9)
        assert t_small[2] == pytest.approx(t_large[2], rel=1e-9)

    @given(buffers)
    @settings(max_examples=100)
    def test_monotone_decreasing_in_buffer(self, b):
        model = EnergyModel(ibm_mems_prototype(), WorkloadConfig())
        assert model.per_bit_energy(b, RATE) > model.per_bit_energy(
            b * 1.5, RATE
        )

    @given(buffers)
    @settings(max_examples=100)
    def test_above_asymptote(self, b):
        model = EnergyModel(ibm_mems_prototype(), WorkloadConfig())
        assert model.per_bit_energy(b, RATE) > (
            model.asymptotic_per_bit_energy(RATE)
        )

    def test_converges_to_asymptote(self, energy_model):
        big = units.kb_to_bits(1e6)
        assert energy_model.per_bit_energy(big, RATE) == pytest.approx(
            energy_model.asymptotic_per_bit_energy(RATE), rel=1e-3
        )

    def test_rejects_bad_inputs(self, energy_model, device):
        with pytest.raises(ConfigurationError):
            energy_model.per_bit_energy(0, RATE)
        with pytest.raises(ConfigurationError):
            energy_model.per_bit_energy(1e4, 0)
        with pytest.raises(ConfigurationError):
            energy_model.per_bit_energy(1e4, device.transfer_rate_bps)


class TestCycle:
    def test_timing_identities(self, energy_model, device):
        b = units.kb_to_bits(20)
        cycle = energy_model.cycle(b, RATE)
        rm = device.transfer_rate_bps
        assert cycle.refill_time_s == pytest.approx(b / (rm - RATE))
        assert cycle.cycle_time_s == pytest.approx(
            b / (rm - RATE) * rm / RATE
        )
        # Phases partition the cycle.
        assert (
            cycle.seek_time_s
            + cycle.refill_time_s
            + cycle.best_effort_time_s
            + cycle.shutdown_time_s
            + cycle.standby_time_s
        ) == pytest.approx(cycle.cycle_time_s)

    def test_best_effort_is_5_percent(self, energy_model):
        b = units.kb_to_bits(20)
        cycle = energy_model.cycle(b, RATE)
        assert cycle.best_effort_time_s == pytest.approx(
            0.05 * cycle.cycle_time_s
        )

    def test_energy_decomposition(self, energy_model, device):
        b = units.kb_to_bits(20)
        cycle = energy_model.cycle(b, RATE)
        assert cycle.seek_energy_j == pytest.approx(
            device.seek_power_w * device.seek_time_s
        )
        assert cycle.total_energy_j == pytest.approx(
            cycle.per_bit_energy_j * b
        )

    def test_active_time(self, energy_model):
        b = units.kb_to_bits(20)
        cycle = energy_model.cycle(b, RATE)
        assert cycle.active_time_s == pytest.approx(
            cycle.seek_time_s + cycle.refill_time_s + cycle.best_effort_time_s
        )

    def test_duty_cycle_in_unit_interval(self, energy_model):
        duty = energy_model.duty_cycle(units.kb_to_bits(20), RATE)
        assert 0 < duty < 1

    def test_refills_per_year(self, energy_model, workload):
        b = units.kb_to_bits(90)
        expected = workload.playback_seconds_per_year * RATE / b
        assert energy_model.refills_per_year(b, RATE) == pytest.approx(expected)


class TestSaving:
    def test_always_on_reference_value(self, energy_model, device):
        # E_on = PRW/(rm - rs) + Pidle/rs ~ 120.3 nJ/b at 1024 kbps.
        e_on = energy_model.always_on_per_bit_energy(RATE)
        assert units.j_per_bit_to_nj_per_bit(e_on) == pytest.approx(
            120.3, rel=0.005
        )

    def test_always_on_independent_of_buffer(self, energy_model):
        # By construction it has no buffer argument at all; check the
        # derivation by comparing with a long-run cycle average.
        e_on = energy_model.always_on_per_bit_energy(RATE)
        assert e_on > 0

    def test_max_saving_above_80_at_1024(self, energy_model):
        # Figure 3a: the 80% goal is feasible at 1024 kbps, though only
        # just (§IV.C: the saving diverges in buffer near ~80.6%)...
        assert 0.80 < energy_model.max_energy_saving(RATE) < 0.82

    def test_max_saving_below_80_at_2048(self, energy_model):
        # ... but the wall arrives before 2048 kbps.
        assert energy_model.max_energy_saving(2_048_000) < 0.80

    def test_max_saving_decreases_with_rate(self, energy_model):
        savings = [
            energy_model.max_energy_saving(rate)
            for rate in (128_000, 512_000, 1_024_000, 4_096_000)
        ]
        assert savings == sorted(savings, reverse=True)

    @given(buffers)
    @settings(max_examples=50)
    def test_saving_below_max(self, b):
        model = EnergyModel(ibm_mems_prototype(), WorkloadConfig())
        assert model.energy_saving(b, RATE) < model.max_energy_saving(RATE)

    def test_is_energy_positive(self, energy_model_no_be):
        be = energy_model_no_be.break_even_buffer(RATE)
        assert energy_model_no_be.is_energy_positive(2 * be, RATE)
        assert not energy_model_no_be.is_energy_positive(0.5 * be, RATE)


class TestLatencyFloor:
    def test_floor_value(self, energy_model, device, workload):
        floor = energy_model.latency_floor(RATE)
        rm = device.transfer_rate_bps
        be_share = workload.best_effort_fraction * rm / (rm - RATE)
        expected = device.overhead_time_s * RATE / (1 - be_share)
        assert floor == pytest.approx(expected)

    def test_floor_without_best_effort(self, energy_model_no_be, device):
        floor = energy_model_no_be.latency_floor(RATE)
        assert floor == pytest.approx(device.overhead_time_s * RATE)

    def test_standby_time_positive_above_floor(self, energy_model):
        floor = energy_model.latency_floor(RATE)
        assert energy_model.standby_time(floor * 1.01, RATE) > 0
        assert energy_model.standby_time(floor * 0.99, RATE) < 0

    def test_floor_grows_with_rate(self, energy_model):
        assert energy_model.latency_floor(2_048_000) > (
            energy_model.latency_floor(512_000)
        )


class TestDefaults:
    def test_default_workload_has_no_best_effort(self, device):
        model = EnergyModel(device)
        assert model.workload.best_effort_fraction == 0.0

    def test_repr_mentions_device(self, energy_model):
        assert "IBM MEMS" in repr(energy_model)
