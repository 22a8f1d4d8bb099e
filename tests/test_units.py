"""Unit-conversion tests: every constant and round-trip in repro.units."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.errors import UnitError

finite_positive = st.floats(
    min_value=1e-12, max_value=1e15, allow_nan=False, allow_infinity=False
)


class TestConstants:
    def test_bits_per_byte(self):
        assert units.BITS_PER_BYTE == 8

    def test_decimal_multipliers(self):
        assert units.KILO == 10**3
        assert units.MEGA == 10**6
        assert units.GIGA == 10**9
        assert units.TERA == 10**12

    def test_binary_multipliers(self):
        assert units.KIBI == 2**10
        assert units.MEBI == 2**20
        assert units.GIBI == 2**30

    def test_seconds_per_year_is_365_days(self):
        assert units.SECONDS_PER_YEAR == 365 * 24 * 3600


class TestSizeConversions:
    def test_kb_is_decimal(self):
        # 1 kB = 1000 bytes = 8000 bits (the paper's convention).
        assert units.kb_to_bits(1) == 8_000

    def test_mb_gb(self):
        assert units.bits_to_mb(8_000_000) == 1
        assert units.gb_to_bits(1) == 8_000_000_000

    def test_gb_round_figure(self):
        # The Table I capacity: 120 GB = 9.6e11 bits.
        assert units.gb_to_bits(120) == pytest.approx(9.6e11)

    @given(finite_positive)
    def test_bits_bytes_round_trip(self, value):
        assert units.bits_to_bytes(
            value * units.BITS_PER_BYTE
        ) == pytest.approx(value, rel=1e-12)

    @given(finite_positive)
    def test_kb_round_trip(self, value):
        assert units.bits_to_kb(units.kb_to_bits(value)) == pytest.approx(
            value, rel=1e-12
        )

    @given(finite_positive)
    def test_mb_round_trip(self, value):
        assert units.bits_to_mb(
            value * units.MEGA * units.BITS_PER_BYTE
        ) == pytest.approx(value, rel=1e-12)

    @given(finite_positive)
    def test_gb_round_trip(self, value):
        assert units.bits_to_gb(units.gb_to_bits(value)) == pytest.approx(
            value, rel=1e-12
        )


class TestRateConversions:
    def test_kbps(self):
        assert units.kbps_to_bps(1024) == 1_024_000

    def test_mbps(self):
        assert units.mbps_to_bps(102.4) == pytest.approx(1.024e8)

    @given(finite_positive)
    def test_kbps_round_trip(self, value):
        assert units.kbps_to_bps(value) / units.KILO == pytest.approx(
            value, rel=1e-12
        )

    @given(finite_positive)
    def test_mbps_round_trip(self, value):
        assert units.mbps_to_bps(value) / units.MEGA == pytest.approx(
            value, rel=1e-12
        )


class TestTimeConversions:
    def test_ms(self):
        assert units.ms_to_seconds(2) == 0.002

    def test_years(self):
        assert units.seconds_to_years(365 * 86_400) == 1

    def test_playback_seconds_table1(self):
        # 8 hours per day, every day: T = 8 * 3600 * 365.
        assert units.playback_seconds_per_year(8) == pytest.approx(1.0512e7)

    def test_playback_full_day(self):
        assert units.playback_seconds_per_year(24) == units.SECONDS_PER_YEAR

    @pytest.mark.parametrize("hours", [-1, 25, 100])
    def test_playback_rejects_out_of_range(self, hours):
        with pytest.raises(UnitError):
            units.playback_seconds_per_year(hours)


class TestPowerEnergy:
    def test_mw(self):
        assert units.mw_to_watts(316) == pytest.approx(0.316)

    def test_per_bit(self):
        assert units.j_per_bit_to_nj_per_bit(1.2e-7) == pytest.approx(120)


class TestArealDensity:
    def test_one_tb_per_in2(self):
        bits_per_m2 = units.terabit_per_in2_to_bits_per_m2(1.0)
        # 1 Tb over (0.0254 m)^2.
        assert bits_per_m2 == pytest.approx(1e12 / 0.0254**2)


class TestFormatters:
    def test_format_size_bytes(self):
        assert units.format_size(800) == "100 B"

    def test_format_size_kb(self):
        assert units.format_size(8_000) == "1 kB"
        assert units.format_size(17_817.4) == "2.23 kB"

    def test_format_size_mb_gb(self):
        assert units.format_size(8e6) == "1 MB"
        assert units.format_size(9.6e11) == "120 GB"

    def test_format_size_tb(self):
        assert "TB" in units.format_size(8e13)

    def test_format_rate(self):
        assert units.format_rate(1_024_000) == "1024 kbps"
        assert units.format_rate(500) == "500 bps"
        assert "Gbps" in units.format_rate(2e9)

    def test_format_duration_scales(self):
        assert units.format_duration(0) == "0 s"
        assert "µs" in units.format_duration(3e-5)
        assert "ms" in units.format_duration(0.002)
        assert units.format_duration(30) == "30 s"
        assert "h" in units.format_duration(7200)
        assert "years" in units.format_duration(units.SECONDS_PER_YEAR * 7)

    def test_round_sig_handles_nonfinite(self):
        assert math.isinf(units._round_sig(math.inf, 3))
        assert units._round_sig(0, 3) == 0
