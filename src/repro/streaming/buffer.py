"""Fluid model of the DRAM streaming buffer.

Between simulation events the buffer's fill level is a linear function of
time — filled at the device rate, drained at the stream rate — so instead
of ticking bit by bit, :class:`FluidBuffer` integrates rates analytically
between events and predicts the exact times at which it would run empty or
full.  This keeps the pipeline's event count at a handful per refill
cycle while remaining exact for piecewise-constant rates.
"""

from __future__ import annotations

from ..errors import BufferUnderrunError, SimulationError


class FluidBuffer:
    """A buffer whose level changes linearly between rate changes.

    Parameters
    ----------
    capacity_bits:
        Buffer capacity ``B`` in bits.
    initial_bits:
        Starting level (a streaming player pre-fills the buffer before
        playback starts; the paper's steady-state cycle begins full).
    strict:
        Raise :class:`~repro.errors.BufferUnderrunError` when a drain
        pushes the level below zero; otherwise clamp and count.
    """

    def __init__(
        self,
        capacity_bits: float,
        initial_bits: float | None = None,
        strict: bool = True,
    ):
        if capacity_bits <= 0:
            raise SimulationError("buffer capacity must be > 0 bits")
        self.capacity_bits = capacity_bits
        level = capacity_bits if initial_bits is None else initial_bits
        if not 0 <= level <= capacity_bits + 1e-9:
            raise SimulationError(
                f"initial level {level!r} outside [0, {capacity_bits!r}]"
            )
        self._level = min(level, capacity_bits)
        self._time = 0.0
        self._fill_rate = 0.0
        self._drain_rate = 0.0
        self.strict = strict
        self.underruns = 0
        self.total_filled_bits = 0.0
        self.total_drained_bits = 0.0
        #: Tolerance for float accumulation.  Scales with capacity: at
        #: late simulation times an event's absolute-time rounding of
        #: ``ulp(t)`` multiplied by a fast fill rate reaches fractions of
        #: a bit, which is physically meaningless but would trip a fixed
        #: epsilon.
        self._epsilon = max(1e-6, 1e-8 * capacity_bits)

    # -- state ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Time of the last update (seconds)."""
        return self._time

    @property
    def level_bits(self) -> float:
        """Level at the last update (bits)."""
        return self._level

    @property
    def net_rate(self) -> float:
        """Current net fill rate (bit/s, may be negative)."""
        return self._fill_rate - self._drain_rate

    def level_at(self, time: float) -> float:
        """Projected level at a future ``time`` under the current rates."""
        if time < self._time - 1e-12:
            raise SimulationError(
                f"cannot project level into the past ({time!r} < {self._time!r})"
            )
        projected = self._level + self.net_rate * (time - self._time)
        return min(max(projected, 0.0), self.capacity_bits)

    # -- rate control -----------------------------------------------------------

    def set_rates(
        self, time: float, fill_bps: float = 0.0, drain_bps: float = 0.0
    ) -> None:
        """Advance to ``time`` under the old rates, then switch rates."""
        if fill_bps < 0 or drain_bps < 0:
            raise SimulationError("rates must be >= 0")
        self.advance(time)
        self._fill_rate = fill_bps
        self._drain_rate = drain_bps

    def advance(self, time: float) -> None:
        """Integrate the level forward to ``time`` under current rates."""
        if time == self._time:
            # Nothing elapsed.  Under finite rates the update below would
            # only turn the level into a float (an int capacity or snap
            # target into its float value, -0.0 into 0.0): ``+ 0.0`` does.
            self._level += 0.0
            return
        if time < self._time - 1e-12:
            raise SimulationError(
                f"buffer time went backwards ({self._time!r} -> {time!r})"
            )
        dt = max(0.0, time - self._time)
        filled = self._fill_rate * dt
        drained = self._drain_rate * dt
        level = self._level + filled - drained
        if level < -self._epsilon:
            self.underruns += 1
            if self.strict:
                # Compute the exact moment the buffer hit bottom.
                deficit_rate = self._drain_rate - self._fill_rate
                hit = self._time + self._level / deficit_rate
                raise BufferUnderrunError(
                    f"buffer underrun at t={hit:.6f}s (level would reach "
                    f"{level:.3f} bits at t={time:.6f}s)",
                    time=hit,
                )
        if level > self.capacity_bits + self._epsilon:
            raise SimulationError(
                f"buffer overfilled to {level:.3f} bits "
                f"(capacity {self.capacity_bits:g}); the filler must stop "
                "at the full mark"
            )
        self.total_filled_bits += filled
        self.total_drained_bits += min(drained, self._level + filled)
        self._level = min(max(level, 0.0), self.capacity_bits)
        self._time = time

    def snap_to(self, level_bits: float, tolerance_bits: float = 1.0) -> None:
        """Absorb float residue: force the level to an expected value.

        Controllers that computed an exact crossing time analytically call
        this when the planned moment arrives, instead of iterating on
        sub-picosecond residual waits that virtual time cannot resolve.
        The correction must be within ``tolerance_bits`` — anything larger
        indicates a logic error, not round-off.
        """
        if not 0 <= level_bits <= self.capacity_bits:
            raise SimulationError(
                f"snap target {level_bits!r} outside [0, {self.capacity_bits!r}]"
            )
        if abs(level_bits - self._level) > tolerance_bits:
            raise SimulationError(
                f"refusing to snap level by {abs(level_bits - self._level):.3f} "
                f"bits (> {tolerance_bits:g}); controller and buffer disagree"
            )
        self._level = level_bits

    # -- crossing predictions -----------------------------------------------------

    def time_to_empty(self) -> float:
        """Seconds until the level reaches zero at current rates (``inf``
        if the level is non-decreasing)."""
        if self.net_rate >= 0:
            return float("inf")
        return self._level / -self.net_rate

    def time_to_full(self) -> float:
        """Seconds until the level reaches capacity (``inf`` if
        non-increasing)."""
        if self.net_rate <= 0:
            return float("inf")
        return (self.capacity_bits - self._level) / self.net_rate

    def time_to_level(self, target_bits: float) -> float:
        """Seconds until the level crosses ``target_bits`` (``inf`` if it
        never will under the current rates)."""
        if not 0 <= target_bits <= self.capacity_bits:
            raise SimulationError(
                f"target level {target_bits!r} outside "
                f"[0, {self.capacity_bits!r}]"
            )
        gap = target_bits - self._level
        if gap == 0:
            return 0.0
        if self.net_rate == 0 or (gap > 0) != (self.net_rate > 0):
            return float("inf")
        return gap / self.net_rate
