"""Stream descriptions driving the pipeline simulation.

The Table I workload is a constant-bit-rate (CBR) stream with a write
fraction and a best-effort tax; :class:`CBRStream` captures exactly that.
:class:`VBRStream` wraps a :class:`~repro.streaming.traces.RateTrace` for
the variable-bit-rate extension.  Both expose the same small interface the
pipeline consumes: a piecewise-constant consumption rate over time plus
workload metadata.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import ConfigurationError
from .traces import RateTrace


class StreamDescription(ABC):
    """Interface: what the decoder consumes, and how it is written."""

    #: Fraction of the streamed traffic written to the device.
    write_fraction: float

    @abstractmethod
    def rate_at(self, time_s: float) -> float:
        """Consumption rate (bit/s) at absolute stream time ``time_s``."""

    @abstractmethod
    def mean_rate_bps(self) -> float:
        """Long-run average consumption rate (bit/s)."""

    @abstractmethod
    def peak_rate_bps(self) -> float:
        """Worst-case consumption rate (bit/s) — dimension for this."""

    @abstractmethod
    def rate_changes(self, until_s: float):
        """Yield ``(time_s, rate_bps)`` at each rate switch in
        ``[0, until_s)``, starting with ``(0.0, initial rate)``."""


@dataclass(frozen=True)
class CBRStream(StreamDescription):
    """Constant-bit-rate stream (the paper's workload).

    Attributes
    ----------
    rate_bps:
        The streaming bit rate ``rs``.
    write_fraction:
        Fraction of traffic writing to the device (Table I: 40%).
    """

    rate_bps: float
    write_fraction: float = 0.40

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_bps) and self.rate_bps > 0):
            raise ConfigurationError(
                f"stream rate must be finite and > 0, got {self.rate_bps!r}"
            )
        if not 0 <= self.write_fraction <= 1:
            raise ConfigurationError("write_fraction must lie in [0, 1]")

    def rate_at(self, time_s: float) -> float:
        if time_s < 0:
            raise ConfigurationError("time must be >= 0")
        return self.rate_bps

    def mean_rate_bps(self) -> float:
        return self.rate_bps

    def peak_rate_bps(self) -> float:
        return self.rate_bps

    def rate_changes(self, until_s: float):
        if until_s <= 0:
            raise ConfigurationError("until must be > 0")
        yield 0.0, self.rate_bps


@dataclass(frozen=True)
class VBRStream(StreamDescription):
    """Variable-bit-rate stream backed by a rate trace (extension)."""

    trace: RateTrace
    write_fraction: float = 0.40

    def __post_init__(self) -> None:
        if not 0 <= self.write_fraction <= 1:
            raise ConfigurationError("write_fraction must lie in [0, 1]")

    def rate_at(self, time_s: float) -> float:
        return self.trace.rate_at(time_s)

    def mean_rate_bps(self) -> float:
        return self.trace.mean_rate_bps

    def peak_rate_bps(self) -> float:
        return self.trace.peak_rate_bps

    def rate_changes(self, until_s: float):
        for start, _, rate in self.trace.segments(until_s):
            yield start, rate
