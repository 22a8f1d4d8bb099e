"""Fluid-buffer tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferUnderrunError, SimulationError
from repro.streaming.buffer import FluidBuffer


class TestLevelIntegration:
    def test_starts_full_by_default(self):
        buffer = FluidBuffer(1000)
        assert buffer.level_bits == 1000

    def test_net_drain(self):
        buffer = FluidBuffer(1000)
        buffer.set_rates(0.0, fill_bps=0, drain_bps=100)
        buffer.advance(2.0)
        assert buffer.level_bits == pytest.approx(800)

    def test_net_fill(self):
        buffer = FluidBuffer(1000, initial_bits=0)
        buffer.set_rates(0.0, fill_bps=300, drain_bps=100)
        buffer.advance(2.0)
        assert buffer.level_bits == pytest.approx(400)

    def test_totals_tracked(self):
        buffer = FluidBuffer(1000, initial_bits=0)
        buffer.set_rates(0.0, fill_bps=300, drain_bps=100)
        buffer.advance(2.0)
        assert buffer.total_filled_bits == pytest.approx(600)
        assert buffer.total_drained_bits == pytest.approx(200)

    def test_level_at_projection(self):
        buffer = FluidBuffer(1000)
        buffer.set_rates(0.0, drain_bps=100)
        assert buffer.level_at(3.0) == pytest.approx(700)
        assert buffer.level_at(20.0) == 0.0  # clamped projection

    def test_time_goes_backwards_rejected(self):
        buffer = FluidBuffer(1000)
        buffer.advance(5.0)
        with pytest.raises(SimulationError):
            buffer.advance(4.0)
        with pytest.raises(SimulationError):
            buffer.level_at(4.0)

    def test_advance_with_no_elapsed_time(self):
        # An int level (an int capacity or snap target) reads as its
        # float after any advance, one with no elapsed time included.
        buffer = FluidBuffer(1000)
        buffer.set_rates(0.0, drain_bps=100)
        assert type(buffer.level_bits) is float
        assert buffer.level_bits == 1000.0
        buffer.advance(2.0)
        buffer.snap_to(800)
        buffer.advance(2.0)
        assert type(buffer.level_bits) is float
        assert buffer.level_bits == 800.0
        # A time within 1e-12 before the clock drains nothing, and the
        # clock takes that earlier value.
        buffer.advance(2.0 - 5e-13)
        assert buffer.now == 2.0 - 5e-13
        assert buffer.level_bits == 800.0
        assert buffer.total_drained_bits == 200.0

    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            FluidBuffer(0)
        with pytest.raises(SimulationError):
            FluidBuffer(100, initial_bits=200)
        with pytest.raises(SimulationError):
            FluidBuffer(100, initial_bits=-5)

    def test_negative_rates_rejected(self):
        buffer = FluidBuffer(100)
        with pytest.raises(SimulationError):
            buffer.set_rates(0.0, fill_bps=-1)


class TestUnderrun:
    def test_strict_raises_with_exact_time(self):
        buffer = FluidBuffer(1000, strict=True)
        buffer.set_rates(0.0, drain_bps=100)
        with pytest.raises(BufferUnderrunError) as excinfo:
            buffer.advance(15.0)  # empties at t = 10
        assert excinfo.value.time == pytest.approx(10.0)

    def test_lenient_clamps_and_counts(self):
        buffer = FluidBuffer(1000, strict=False)
        buffer.set_rates(0.0, drain_bps=100)
        buffer.advance(15.0)
        assert buffer.level_bits == 0.0
        assert buffer.underruns == 1

    def test_overfill_always_raises(self):
        buffer = FluidBuffer(1000, initial_bits=0)
        buffer.set_rates(0.0, fill_bps=1000)
        with pytest.raises(SimulationError):
            buffer.advance(2.0)


class TestCrossings:
    def test_time_to_empty(self):
        buffer = FluidBuffer(1000)
        buffer.set_rates(0.0, drain_bps=250)
        assert buffer.time_to_empty() == pytest.approx(4.0)

    def test_time_to_full(self):
        buffer = FluidBuffer(1000, initial_bits=400)
        buffer.set_rates(0.0, fill_bps=300)
        assert buffer.time_to_full() == pytest.approx(2.0)

    def test_inf_when_moving_away(self):
        buffer = FluidBuffer(1000, initial_bits=500)
        buffer.set_rates(0.0, fill_bps=100)
        assert buffer.time_to_empty() == float("inf")
        buffer.set_rates(0.0, drain_bps=100)
        assert buffer.time_to_full() == float("inf")

    def test_time_to_level_directional(self):
        buffer = FluidBuffer(1000, initial_bits=500)
        buffer.set_rates(0.0, drain_bps=100)
        assert buffer.time_to_level(300) == pytest.approx(2.0)
        assert buffer.time_to_level(700) == float("inf")
        assert buffer.time_to_level(500) == 0.0

    def test_time_to_level_validates(self):
        buffer = FluidBuffer(1000)
        with pytest.raises(SimulationError):
            buffer.time_to_level(2000)

    def test_zero_net_rate(self):
        buffer = FluidBuffer(1000, initial_bits=500)
        buffer.set_rates(0.0, fill_bps=100, drain_bps=100)
        assert buffer.net_rate == 0.0
        assert buffer.time_to_level(400) == float("inf")


class TestSnap:
    def test_snap_absorbs_residue(self):
        buffer = FluidBuffer(1000, initial_bits=999.9999999)
        buffer.snap_to(1000.0)
        assert buffer.level_bits == 1000.0

    def test_snap_refuses_large_corrections(self):
        buffer = FluidBuffer(1000, initial_bits=500)
        with pytest.raises(SimulationError):
            buffer.snap_to(1000.0)

    def test_snap_validates_target(self):
        buffer = FluidBuffer(1000)
        with pytest.raises(SimulationError):
            buffer.snap_to(2000.0)


class TestInvariantProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),  # dt
                st.floats(min_value=0, max_value=500),      # fill
                st.floats(min_value=0, max_value=500),      # drain
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80)
    def test_level_always_in_bounds(self, steps):
        buffer = FluidBuffer(10_000, initial_bits=5_000, strict=False)
        time = 0.0
        for dt, fill, drain in steps:
            buffer.set_rates(time, fill_bps=fill, drain_bps=drain)
            time += dt
            try:
                buffer.advance(time)
            except SimulationError:
                # Overfill guard tripping is legitimate; level stays valid.
                break
        assert 0.0 <= buffer.level_bits <= buffer.capacity_bits
