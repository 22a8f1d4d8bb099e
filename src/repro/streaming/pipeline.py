"""The Figure 1b refill-cycle simulation.

Two executable policies:

* :class:`StreamingPipeline` — the paper's buffered shutdown policy.
  The device sleeps in standby while the DRAM buffer drains; when the
  level falls to the wake threshold (just enough to cover the seek) it
  seeks, refills the buffer to the brim at the media rate, serves the
  batched best-effort requests (5% of the cycle in Table I), shuts down,
  and sleeps again.
* :class:`AlwaysOnPipeline` — the always-on reference that the paper's
  energy saving ``E`` is measured against: the device never shuts down,
  idling between refills.

Each run is one direct event loop over a fluid buffer and a power-state
machine: a handful of events per cycle, exact for piecewise-constant
rates, underruns detected at their exact times.  The policy is
straight-line code whose every wait ends at the earliest of three
moments: its own planned moment, the stream's next rate change and the
stream's end.  Variable-bit-rate streams are supported; the controller
re-plans its sleep and its refill whenever the consumption rate changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import (
    DRAMConfig,
    MechanicalDeviceConfig,
    WorkloadConfig,
)
from ..devices.dram import DRAMPowerModel
from ..devices.states import PowerState, PowerStateMachine
from ..errors import ConfigurationError, SimulationError
from ..sim.monitor import CounterMonitor, TimeSeriesMonitor
from .buffer import FluidBuffer
from .stats import SimulationReport
from .workload import CBRStream, StreamDescription

#: Numerical slack when comparing fluid levels (bits).
_LEVEL_EPS = 1e-6

_INF = float("inf")


@dataclass(frozen=True)
class PipelineConfig:
    """Static description of one pipeline run."""

    device: MechanicalDeviceConfig
    buffer_bits: float
    stream: StreamDescription
    workload: WorkloadConfig | None = None
    dram: DRAMConfig | None = None
    #: Record the buffer level trajectory (costs memory on long runs).
    record_level: bool = False
    #: Fraction of the buffer pre-filled before playback starts.  The
    #: paper's steady-state cycle assumes a full buffer (1.0); smaller
    #: values model a player that starts before the prefill completes —
    #: the report's ``startup_s`` then shows when the buffer first fills.
    #: Starting below the drain needed to survive the first seek raises a
    #: :class:`~repro.errors.BufferUnderrunError` at the exact moment.
    initial_fill_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.buffer_bits) and self.buffer_bits > 0):
            raise ConfigurationError(
                f"buffer must be finite and > 0 bits, got {self.buffer_bits!r}"
            )
        if not 0.0 <= self.initial_fill_fraction <= 1.0:
            raise ConfigurationError(
                "initial_fill_fraction must lie in [0, 1]"
            )
        peak = self.stream.peak_rate_bps()
        if peak >= self.device.transfer_rate_bps:
            raise ConfigurationError(
                f"peak stream rate {peak:g} bit/s reaches the device "
                f"transfer rate {self.device.transfer_rate_bps:g} bit/s; "
                "the buffer can never refill"
            )


class _PipelineBase:
    """Machinery shared by the shutdown and always-on policies."""

    #: Snap a level found within slack of the wake level onto it.
    _snap_early = False

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.workload = (
            config.workload if config.workload is not None else WorkloadConfig()
        )
        self.buffer = FluidBuffer(
            config.buffer_bits,
            initial_bits=config.buffer_bits * config.initial_fill_fraction,
        )
        self.power = PowerStateMachine(
            config.device, initial_state=self._initial_state()
        )
        self.counters = CounterMonitor()
        self.level_monitor = (
            TimeSeriesMonitor("buffer_level", linear=True)
            if config.record_level
            else None
        )
        self._now = 0.0
        self._drain_bps = 0.0
        self._fill_bps = 0.0
        self._stream_ended = False
        self._change_at = _INF
        self._best_effort_s = 0.0
        self._first_full_s: float | None = (
            0.0 if config.initial_fill_fraction >= 1.0 else None
        )

    # -- policy hooks -----------------------------------------------------------

    def _initial_state(self) -> PowerState:
        raise NotImplementedError

    def _wake_level(self) -> float:
        """Buffer level at which the controller ends its sleep."""
        raise NotImplementedError

    def _control(self) -> None:
        """The policy's event loop; returns once the stream has ended."""
        raise NotImplementedError

    # -- plumbing -----------------------------------------------------------------

    def _apply_rates(self) -> None:
        self.buffer.set_rates(
            self._now, fill_bps=self._fill_bps, drain_bps=self._drain_bps
        )
        if self.level_monitor is not None:
            self.level_monitor.record(self._now, self.buffer.level_bits)

    def _set_fill(self, rate_bps: float) -> None:
        self._fill_bps = rate_bps
        self._apply_rates()

    def _set_drain(self, rate_bps: float) -> None:
        self._drain_bps = rate_bps
        self._apply_rates()

    def _mark_refill(self) -> None:
        self.counters.increment("refill")
        if self._first_full_s is None:
            self._first_full_s = self._now

    # -- the event loop -------------------------------------------------------------

    def _stream_events(self, duration_s: float):
        """The decoder's side: yields the stream's next moment.

        Resuming it at that moment applies the rate change there (and
        any others due by then), or ends the stream.
        """
        for change_time, rate in self.config.stream.rate_changes(duration_s):
            if change_time > self._now:
                yield self._now + (change_time - self._now)
            self._set_drain(rate)
        if duration_s > self._now:
            yield self._now + (duration_s - self._now)
        self._stream_ended = True
        self._set_drain(0.0)

    def _land(self) -> None:
        """Move to the stream's next moment and apply it."""
        self._now = self._change_at
        self._change_at = next(self._stream, _INF)

    def _sleep(self, delay_s: float) -> None:
        """A wait the stream cannot cut short (seek, best effort, shutdown).

        Rate changes inside it apply at their own moments, and so does
        one that lands on the wake-up moment itself: every stream event
        at or before that moment applies before the controller resumes.
        """
        start = self._now
        wake = start + delay_s
        while self._change_at <= wake:
            self._land()
        self._now = wake
        self.buffer.advance(wake)
        self.power.advance(wake - start)

    def _wait(self, delay_s: float) -> bool:
        """Wait ``delay_s``, or less if the stream changes strictly sooner.

        Returns True when the planned moment arrived.  A change at that
        very moment applies first, and the moment still counts as
        arrived.  An infinite delay waits for the next change.
        """
        start = self._now
        wake = start + delay_s
        arrived = self._change_at >= wake
        if self._change_at <= wake:
            self._land()
        else:
            self._now = wake
        self.buffer.advance(self._now)
        self.power.advance(self._now - start)
        return arrived

    def _sleep_until_wake(self) -> bool:
        """Standby or idle until the buffer drains to the wake level.

        Returns False once the stream has ended.
        """
        while True:
            self.buffer.advance(self._now)
            if self._stream_ended:
                return False
            level = self._wake_level()
            # Compare with slack: accumulated float error must not leave
            # the controller waiting for a crossing that already happened.
            if self.buffer.level_bits <= level + _LEVEL_EPS:
                if self._snap_early:
                    self.buffer.snap_to(level)
                return True
            if self._wait(self.buffer.time_to_level(level)):
                if self._stream_ended:
                    # The stream ended at the crossing: no cycle starts.
                    return False
                # The planned crossing arrived; absorb the float residue
                # that sub-resolution waits cannot close.
                self.buffer.snap_to(level)
                return True

    def _refill(self) -> None:
        """Read/write: refill the buffer to the brim at the media rate."""
        capacity = self.config.buffer_bits
        self.power.transition(PowerState.READ_WRITE)
        self._set_fill(self.config.device.transfer_rate_bps)
        while True:
            self.buffer.advance(self._now)
            if self.buffer.level_bits >= capacity - _LEVEL_EPS:
                self.buffer.snap_to(capacity)
                break
            wait = self.buffer.time_to_full()
            if wait == _INF:
                raise SimulationError(
                    "refill cannot complete: fill rate does not exceed "
                    "the drain rate"
                )
            if self._wait(wait):
                self.buffer.snap_to(capacity)
                break
        self._set_fill(0.0)
        self._mark_refill()

    # -- entry point ------------------------------------------------------------------

    def run(self, duration_s: float) -> SimulationReport:
        """Simulate ``duration_s`` seconds of streaming; returns the report."""
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ConfigurationError(
                f"duration must be finite and > 0, got {duration_s!r}"
            )
        self._stream = self._stream_events(duration_s)
        self._change_at = next(self._stream, _INF)
        self._control()
        self.buffer.advance(self._now)
        return self._report(duration_s)

    def _report(self, duration_s: float) -> SimulationReport:
        dram_model = DRAMPowerModel(
            self.config.dram if self.config.dram is not None else DRAMConfig()
        )
        retention_j = (
            dram_model.retention_power_w(self.config.buffer_bits) * duration_s
        )
        dram_access_j = dram_model.access_energy_j(
            self.buffer.total_filled_bits, write=True
        ) + dram_model.access_energy_j(
            self.buffer.total_drained_bits, write=False
        )
        return SimulationReport(
            policy=type(self).__name__,
            duration_s=duration_s,
            buffer_bits=self.config.buffer_bits,
            streamed_bits=self.buffer.total_drained_bits,
            filled_bits=self.buffer.total_filled_bits,
            device_energy_j=self.power.total_energy_j,
            energy_by_state={
                state.value: self.power.energy_in(state) for state in PowerState
            },
            time_by_state={
                state.value: self.power.time_in(state) for state in PowerState
            },
            refill_cycles=self.counters.count("refill"),
            seek_count=self.power.seek_count,
            best_effort_s=self._best_effort_s,
            underruns=self.buffer.underruns,
            dram_retention_j=retention_j,
            dram_access_j=dram_access_j,
            write_fraction=self.config.stream.write_fraction,
            startup_s=(
                self._first_full_s
                if self._first_full_s is not None
                else float("nan")
            ),
            level_samples=(
                self.level_monitor.samples
                if self.level_monitor is not None
                else ()
            ),
        )


class StreamingPipeline(_PipelineBase):
    """The buffered shutdown policy of Figure 1b."""

    def _initial_state(self) -> PowerState:
        return PowerState.STANDBY

    def _wake_level(self) -> float:
        """Buffer level at which the device must start its seek.

        Sized for the *peak* consumption rate, not the current one: a
        VBR stream may switch from a calm scene to an action scene while
        the seek is in flight, and the controller cannot abort a seek.
        For CBR streams peak == current, recovering the paper's cycle
        exactly.
        """
        worst_drain = max(
            self._drain_bps, self.config.stream.peak_rate_bps()
        )
        return min(
            self.config.buffer_bits,
            worst_drain * self.config.device.seek_time_s,
        )

    def _planned_best_effort_s(self) -> float:
        """Best-effort service time for the coming cycle (f_be * Tm)."""
        rate = self._drain_bps
        if rate <= 0:
            return 0.0
        rm = self.config.device.transfer_rate_bps
        cycle = self.config.buffer_bits * rm / (rate * (rm - rate))
        return self.workload.best_effort_fraction * cycle

    def _control(self) -> None:
        device = self.config.device
        # STANDBY until the wake threshold (or the stream's end).
        while self._sleep_until_wake():
            # The best-effort batch is sized by the cycle it accrued in:
            # plan it now, while the cycle's consumption rate is current
            # (at stream end the drain drops to zero, but the work already
            # batched during the cycle still has to be served).
            best_effort = self._planned_best_effort_s()
            # SEEK: reposition for the refill.
            self.power.transition(PowerState.SEEK)
            self._sleep(device.seek_time_s)
            self._refill()
            # Best-effort batch (still at read/write power).
            if best_effort > 0:
                self._sleep(best_effort)
                self._best_effort_s += best_effort
                self.counters.increment("best_effort_batch")
            # SHUTDOWN into standby.
            self.power.transition(PowerState.SHUTDOWN)
            self._sleep(device.shutdown_time_s)
            self.power.transition(PowerState.STANDBY)


class AlwaysOnPipeline(_PipelineBase):
    """The always-on reference: refill when empty, idle otherwise."""

    _snap_early = True

    def _initial_state(self) -> PowerState:
        return PowerState.IDLE

    def _wake_level(self) -> float:
        return 0.0

    def _control(self) -> None:
        # IDLE until the buffer is (effectively) empty, then refill.
        while self._sleep_until_wake():
            self._refill()
            self.power.transition(PowerState.IDLE)


def simulate_streaming(
    device: MechanicalDeviceConfig,
    buffer_bits: float,
    stream_rate_bps: float,
    duration_s: float,
    workload: WorkloadConfig | None = None,
    write_fraction: float | None = None,
    dram: DRAMConfig | None = None,
) -> SimulationReport:
    """Convenience wrapper: run the shutdown policy on a CBR stream."""
    workload = workload if workload is not None else WorkloadConfig()
    stream = CBRStream(
        rate_bps=stream_rate_bps,
        write_fraction=(
            write_fraction
            if write_fraction is not None
            else workload.write_fraction
        ),
    )
    pipeline = StreamingPipeline(
        PipelineConfig(
            device=device,
            buffer_bits=buffer_bits,
            stream=stream,
            workload=workload,
            dram=dram,
        )
    )
    return pipeline.run(duration_s)


def simulate_always_on(
    device: MechanicalDeviceConfig,
    buffer_bits: float,
    stream_rate_bps: float,
    duration_s: float,
    workload: WorkloadConfig | None = None,
) -> SimulationReport:
    """Convenience wrapper: run the always-on reference on a CBR stream."""
    workload = workload if workload is not None else WorkloadConfig()
    stream = CBRStream(rate_bps=stream_rate_bps, write_fraction=0.0)
    pipeline = AlwaysOnPipeline(
        PipelineConfig(
            device=device,
            buffer_bits=buffer_bits,
            stream=stream,
            workload=workload,
        )
    )
    return pipeline.run(duration_s)
