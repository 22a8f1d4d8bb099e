"""Streaming-pipeline tests: the executable Figure 1b."""

from __future__ import annotations

import math

import pytest

from repro import units
from repro.core.energy import EnergyModel
from repro.errors import BufferUnderrunError, ConfigurationError
from repro.streaming.pipeline import (
    AlwaysOnPipeline,
    PipelineConfig,
    StreamingPipeline,
    simulate_always_on,
    simulate_streaming,
)
from repro.streaming.stats import compare_with_model
from repro.streaming.traces import markov_trace
from repro.streaming.workload import CBRStream, VBRStream

RATE = 1_024_000.0
BUFFER = units.kb_to_bits(20)


@pytest.fixture(scope="module")
def report(device, workload):
    """A 200-cycle CBR run at the Figure 2 operating point."""
    model = EnergyModel(device, workload)
    duration = 200 * model.cycle_time(BUFFER, RATE)
    return simulate_streaming(device, BUFFER, RATE, duration, workload)


class TestSteadyStateCBR:
    def test_no_underruns(self, report):
        assert report.underruns == 0

    def test_cycle_count_matches_model(self, report, device, workload):
        model = EnergyModel(device, workload)
        expected = report.duration_s / model.cycle_time(BUFFER, RATE)
        assert report.refill_cycles == pytest.approx(expected, abs=1.5)

    def test_one_seek_per_cycle(self, report):
        assert report.seek_count == report.refill_cycles

    def test_energy_agrees_with_equation1(self, report, device, workload):
        comparison = compare_with_model(report, device, workload, RATE)
        assert comparison.agrees(0.005)

    def test_streamed_bits_match_rate(self, report):
        assert report.streamed_bits == pytest.approx(
            RATE * report.duration_s, rel=0.01
        )

    def test_best_effort_share(self, report, workload):
        # 5% of every cycle goes to best-effort service.
        assert report.best_effort_s == pytest.approx(
            workload.best_effort_fraction * report.duration_s, rel=0.02
        )

    def test_duty_cycle_small(self, report):
        # At 1024 kbps of a 102.4 Mbps device the medium moves rarely.
        assert report.duty_cycle < 0.12

    def test_energy_by_state_sums(self, report):
        assert sum(report.energy_by_state.values()) == pytest.approx(
            report.device_energy_j
        )

    def test_time_by_state_sums_to_duration(self, report):
        assert sum(report.time_by_state.values()) == pytest.approx(
            report.duration_s, rel=0.01
        )


class TestAlwaysOnReference:
    def test_per_bit_energy_matches_model(self, device, workload):
        model = EnergyModel(device, workload)
        duration = 200 * model.cycle_time(BUFFER, RATE)
        report = simulate_always_on(device, BUFFER, RATE, duration, workload)
        assert report.per_bit_energy_j == pytest.approx(
            model.always_on_per_bit_energy(RATE), rel=0.02
        )

    def test_never_seeks(self, device, workload):
        report = simulate_always_on(device, BUFFER, RATE, 30.0, workload)
        assert report.seek_count == 0
        assert report.time_by_state["standby"] == 0.0

    def test_measured_saving_matches_model(self, device, workload, report):
        model = EnergyModel(device, workload)
        reference = simulate_always_on(
            device, BUFFER, RATE, report.duration_s, workload
        )
        measured = report.energy_saving_against(reference)
        assert measured == pytest.approx(
            model.energy_saving(BUFFER, RATE), abs=0.01
        )


class TestUnderrunDetection:
    def test_buffer_below_latency_floor_underruns(self, device, workload):
        model = EnergyModel(device, workload)
        floor = model.latency_floor(RATE)
        with pytest.raises(BufferUnderrunError):
            simulate_streaming(device, floor * 0.5, RATE, 30.0, workload)

    def test_buffer_above_floor_survives(self, device, workload):
        model = EnergyModel(device, workload)
        floor = model.latency_floor(RATE)
        report = simulate_streaming(
            device, floor * 1.5, RATE, 10.0, workload
        )
        assert report.underruns == 0


class TestVBR:
    def test_vbr_runs_clean_with_peak_sized_buffer(self, device, workload):
        trace = markov_trace(512_000, 2_048_000, total_s=60, seed=3)
        stream = VBRStream(trace=trace, write_fraction=0.4)
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=units.kb_to_bits(64),
                stream=stream,
                workload=workload,
            )
        )
        report = pipeline.run(60.0)
        assert report.underruns == 0
        assert report.refill_cycles > 10
        assert report.streamed_bits == pytest.approx(
            trace.bits_in(60.0), rel=0.02
        )

    def test_vbr_consumes_at_trace_rates(self, device, workload):
        trace = markov_trace(256_000, 1_024_000, total_s=30, seed=5)
        stream = VBRStream(trace=trace, write_fraction=0.0)
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=units.kb_to_bits(64),
                stream=stream,
                workload=workload,
            )
        )
        report = pipeline.run(30.0)
        assert report.mean_stream_rate_bps == pytest.approx(
            trace.bits_in(30.0) / 30.0, rel=0.02
        )


class TestPauseResume:
    def test_zero_rate_segment_models_a_pause(self, device, workload):
        from repro.streaming.traces import RateTrace

        # Play 10 s, pause 20 s, play 10 s — as a rate trace.
        trace = RateTrace(
            durations_s=(10.0, 20.0, 10.0),
            rates_bps=(RATE, 0.0, RATE),
        )
        stream = VBRStream(trace=trace, write_fraction=0.0)
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=stream,
                workload=workload,
            )
        )
        report = pipeline.run(40.0)
        assert report.underruns == 0
        # Only the playing time consumes data.
        assert report.streamed_bits == pytest.approx(20.0 * RATE, rel=0.01)
        # During the pause the device must not cycle: the refill count
        # stays close to what 20 s of playback alone would need.
        model = EnergyModel(device, workload)
        cycles_for_playback = 20.0 / model.cycle_time(BUFFER, RATE)
        assert report.refill_cycles <= cycles_for_playback + 2

    def test_long_pause_costs_only_standby(self, device, workload):
        from repro.streaming.traces import RateTrace

        trace = RateTrace(
            durations_s=(1.0, 100.0), rates_bps=(RATE, 0.0)
        )
        stream = VBRStream(trace=trace, write_fraction=0.0)
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=stream,
                workload=workload,
            )
        )
        report = pipeline.run(101.0)
        # The pause dominates the run; mean power approaches standby.
        assert report.mean_device_power_w < 2 * device.standby_power_w


class TestConfiguration:
    def test_rejects_zero_buffer(self, device, workload):
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                device=device,
                buffer_bits=0,
                stream=CBRStream(rate_bps=RATE),
                workload=workload,
            )

    @pytest.mark.parametrize(
        "buffer_bits", [math.nan, math.inf], ids=["nan", "inf"]
    )
    def test_rejects_non_finite_buffer(self, device, workload, buffer_bits):
        with pytest.raises(ConfigurationError, match="finite"):
            PipelineConfig(
                device=device,
                buffer_bits=buffer_bits,
                stream=CBRStream(rate_bps=RATE),
                workload=workload,
            )

    def test_rejects_rate_at_device_speed(self, device, workload):
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=CBRStream(rate_bps=device.transfer_rate_bps),
                workload=workload,
            )

    def test_rejects_nonpositive_duration(self, device, workload):
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=CBRStream(rate_bps=RATE),
                workload=workload,
            )
        )
        with pytest.raises(ConfigurationError):
            pipeline.run(0.0)

    @pytest.mark.parametrize("policy", [StreamingPipeline, AlwaysOnPipeline])
    def test_rejects_nan_duration(self, device, workload, policy):
        # An infinite duration never returns where it is not rejected,
        # so the CLI tests, which run under a timeout, cover inf.
        pipeline = policy(
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=CBRStream(rate_bps=RATE),
                workload=workload,
            )
        )
        with pytest.raises(ConfigurationError, match="finite"):
            pipeline.run(math.nan)

    def test_level_recording(self, device, workload):
        pipeline = StreamingPipeline(
            PipelineConfig(
                device=device,
                buffer_bits=BUFFER,
                stream=CBRStream(rate_bps=RATE),
                workload=workload,
                record_level=True,
            )
        )
        report = pipeline.run(2.0)
        assert len(report.level_samples) > 0
        levels = [sample.value for sample in report.level_samples]
        assert max(levels) <= BUFFER + 1e-6
        assert min(levels) >= -1e-6


class TestReportExtras:
    def test_summary_renders(self, report):
        text = report.summary()
        assert "refill cycles" in text
        assert "nJ/bit" in text

    def test_springs_lifetime_extrapolation(self, report, device, workload):
        from repro.core.lifetime import SpringsModel

        simulated = report.springs_lifetime_years(device, workload)
        analytic = SpringsModel(device, workload).lifetime_years(BUFFER, RATE)
        assert simulated == pytest.approx(analytic, rel=0.02)

    def test_dram_energy_negligible(self, report):
        assert report.dram_energy_j < 0.25 * report.device_energy_j
