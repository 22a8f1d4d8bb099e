"""Stream-description tests."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.streaming.traces import RateTrace
from repro.streaming.workload import CBRStream, VBRStream


class TestCBRStream:
    def test_constant_everywhere(self):
        stream = CBRStream(rate_bps=1_024_000)
        assert stream.rate_at(0) == 1_024_000
        assert stream.rate_at(1e6) == 1_024_000
        assert stream.mean_rate_bps() == 1_024_000
        assert stream.peak_rate_bps() == 1_024_000

    def test_single_rate_change(self):
        stream = CBRStream(rate_bps=100.0)
        changes = list(stream.rate_changes(60.0))
        assert changes == [(0.0, 100.0)]

    def test_default_write_fraction_table1(self):
        assert CBRStream(rate_bps=1.0).write_fraction == 0.40

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CBRStream(rate_bps=0)
        with pytest.raises(ConfigurationError):
            CBRStream(rate_bps=100, write_fraction=2.0)
        with pytest.raises(ConfigurationError):
            CBRStream(rate_bps=100).rate_at(-1)
        with pytest.raises(ConfigurationError):
            list(CBRStream(rate_bps=100).rate_changes(0))

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ConfigurationError, match="finite"):
            CBRStream(rate_bps=rate)


class TestVBRStream:
    @pytest.fixture()
    def trace(self):
        return RateTrace(durations_s=(1.0, 2.0), rates_bps=(100.0, 300.0))

    def test_delegates_to_trace(self, trace):
        stream = VBRStream(trace=trace)
        assert stream.rate_at(0.5) == 100.0
        assert stream.rate_at(1.5) == 300.0
        assert stream.mean_rate_bps() == trace.mean_rate_bps
        assert stream.peak_rate_bps() == 300.0

    def test_rate_changes_match_segments(self, trace):
        stream = VBRStream(trace=trace)
        changes = list(stream.rate_changes(6.0))
        assert changes[0] == (0.0, 100.0)
        assert changes[1] == (1.0, 300.0)
        assert changes[2] == (3.0, 100.0)

    def test_validation(self, trace):
        with pytest.raises(ConfigurationError):
            VBRStream(trace=trace, write_fraction=-0.1)
