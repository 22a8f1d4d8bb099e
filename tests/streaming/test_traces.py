"""Rate-trace tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.streaming.traces import RateTrace, markov_trace, sinusoidal_trace


class TestRateTrace:
    def test_basic_properties(self):
        trace = RateTrace(durations_s=(1.0, 3.0), rates_bps=(100.0, 200.0))
        assert trace.period_s == 4.0
        assert trace.mean_rate_bps == pytest.approx((100 + 600) / 4)
        assert trace.peak_rate_bps == 200.0

    def test_rate_at_cycles(self):
        trace = RateTrace(durations_s=(1.0, 1.0), rates_bps=(10.0, 20.0))
        assert trace.rate_at(0.5) == 10.0
        assert trace.rate_at(1.5) == 20.0
        assert trace.rate_at(2.5) == 10.0  # wrapped around

    def test_segments_cover_exactly(self):
        trace = RateTrace(durations_s=(1.0, 2.0), rates_bps=(10.0, 20.0))
        segments = list(trace.segments(7.0))
        assert segments[0] == (0.0, 1.0, 10.0)
        assert sum(duration for _, duration, _ in segments) == pytest.approx(
            7.0
        )
        # Starts follow on from each other without gaps.
        for (start_a, duration_a, _), (start_b, _, _) in zip(
            segments, segments[1:]
        ):
            assert start_b == pytest.approx(start_a + duration_a)

    def test_bits_in(self):
        trace = RateTrace(durations_s=(1.0, 1.0), rates_bps=(10.0, 20.0))
        assert trace.bits_in(2.0) == pytest.approx(30.0)
        assert trace.bits_in(3.0) == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateTrace(durations_s=(), rates_bps=())
        with pytest.raises(ConfigurationError):
            RateTrace(durations_s=(1.0,), rates_bps=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            RateTrace(durations_s=(0.0,), rates_bps=(1.0,))
        with pytest.raises(ConfigurationError):
            RateTrace(durations_s=(1.0,), rates_bps=(-1.0,))
        trace = RateTrace(durations_s=(1.0,), rates_bps=(1.0,))
        with pytest.raises(ConfigurationError):
            trace.rate_at(-1.0)
        with pytest.raises(ConfigurationError):
            list(trace.segments(0))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_segments(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            RateTrace(durations_s=(1.0, value), rates_bps=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="finite"):
            RateTrace(durations_s=(1.0, 1.0), rates_bps=(1.0, value))


class TestSinusoidalTrace:
    def test_mean_preserved(self):
        trace = sinusoidal_trace(1_000_000, swing_fraction=0.3)
        assert trace.mean_rate_bps == pytest.approx(1_000_000, rel=1e-6)

    def test_swing_respected(self):
        trace = sinusoidal_trace(1_000_000, swing_fraction=0.3)
        assert trace.peak_rate_bps <= 1_300_000 * (1 + 1e-9)
        assert min(trace.rates_bps) >= 700_000 * (1 - 1e-9)

    def test_segment_count(self):
        trace = sinusoidal_trace(1e6, period_s=60, segment_s=0.5)
        assert len(trace.durations_s) == 120

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sinusoidal_trace(0)
        with pytest.raises(ConfigurationError):
            sinusoidal_trace(1e6, swing_fraction=1.0)
        with pytest.raises(ConfigurationError):
            sinusoidal_trace(1e6, period_s=1, segment_s=2)


class TestMarkovTrace:
    def test_deterministic_for_seed(self):
        a = markov_trace(500_000, 2_000_000, seed=7)
        b = markov_trace(500_000, 2_000_000, seed=7)
        assert a == b

    def test_seed_changes_trace(self):
        a = markov_trace(500_000, 2_000_000, seed=7)
        b = markov_trace(500_000, 2_000_000, seed=8)
        assert a != b

    def test_rates_alternate_between_levels(self):
        trace = markov_trace(500_000, 2_000_000, total_s=60)
        assert set(trace.rates_bps) == {500_000, 2_000_000}
        for rate_a, rate_b in zip(trace.rates_bps, trace.rates_bps[1:]):
            assert rate_a != rate_b

    def test_covers_requested_duration(self):
        trace = markov_trace(500_000, 2_000_000, total_s=300)
        assert trace.period_s == pytest.approx(300)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            markov_trace(0, 1e6)
        with pytest.raises(ConfigurationError):
            markov_trace(2e6, 1e6)  # calm above action
        with pytest.raises(ConfigurationError):
            markov_trace(1e6, 2e6, mean_scene_s=0.1, gop_s=0.5)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_mean_between_levels(self, seed):
        trace = markov_trace(500_000, 2_000_000, total_s=120, seed=seed)
        assert 500_000 <= trace.mean_rate_bps <= 2_000_000
