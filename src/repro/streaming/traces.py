"""Synthetic variable-bit-rate (VBR) traces.

The paper studies constant streaming rates; real encoded video varies per
group-of-pictures (GOP).  These generators produce deterministic,
seeded rate traces used by the VBR workload extension and its tests:

* :func:`sinusoidal_trace` — smooth long-period rate variation (scene
  complexity drift),
* :func:`markov_trace` — a two-state (calm/action) Markov-modulated rate,
  the classic simple VBR video model.

Traces are piecewise-constant: a sequence of ``(duration_s, rate_bps)``
segments, replayed cyclically by :class:`RateTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RateTrace:
    """A piecewise-constant rate signal, replayed cyclically."""

    durations_s: tuple[float, ...]
    rates_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.durations_s) != len(self.rates_bps):
            raise ConfigurationError("durations and rates must align")
        if not self.durations_s:
            raise ConfigurationError("a trace needs at least one segment")
        if not all(math.isfinite(d) and d > 0 for d in self.durations_s):
            raise ConfigurationError(
                "segment durations must be finite and > 0"
            )
        if not all(math.isfinite(r) and r >= 0 for r in self.rates_bps):
            raise ConfigurationError("rates must be finite and >= 0")

    @property
    def period_s(self) -> float:
        """Length of one full trace repetition."""
        return sum(self.durations_s)

    @property
    def mean_rate_bps(self) -> float:
        """Time-weighted mean rate over one period."""
        weighted = sum(
            d * r for d, r in zip(self.durations_s, self.rates_bps)
        )
        return weighted / self.period_s

    @property
    def peak_rate_bps(self) -> float:
        """Largest segment rate."""
        return max(self.rates_bps)

    def rate_at(self, time_s: float) -> float:
        """Rate in effect at absolute time ``time_s`` (cyclic replay)."""
        if time_s < 0:
            raise ConfigurationError("time must be >= 0")
        offset = math.fmod(time_s, self.period_s)
        for duration, rate in zip(self.durations_s, self.rates_bps):
            if offset < duration:
                return rate
            offset -= duration
        return self.rates_bps[-1]  # fmod landed exactly on the period

    def segments(self, until_s: float):
        """Yield ``(start_s, duration_s, rate_bps)`` until ``until_s``."""
        if until_s <= 0:
            raise ConfigurationError("until must be > 0")
        time = 0.0
        index = 0
        count = len(self.durations_s)
        while time < until_s:
            duration = self.durations_s[index % count]
            rate = self.rates_bps[index % count]
            clipped = min(duration, until_s - time)
            yield time, clipped, rate
            time += clipped
            index += 1

    def bits_in(self, until_s: float) -> float:
        """Total bits produced by the trace over ``[0, until_s)``."""
        return sum(d * r for _, d, r in self.segments(until_s))


def sinusoidal_trace(
    mean_rate_bps: float,
    swing_fraction: float = 0.3,
    period_s: float = 60.0,
    segment_s: float = 0.5,
) -> RateTrace:
    """A sinusoid sampled into piecewise-constant GOP segments.

    ``rate(t) = mean * (1 + swing * sin(2 pi t / period))``, sampled every
    ``segment_s`` over one full period.
    """
    if mean_rate_bps <= 0:
        raise ConfigurationError("mean rate must be > 0")
    if not 0 <= swing_fraction < 1:
        raise ConfigurationError("swing fraction must lie in [0, 1)")
    if period_s <= 0 or segment_s <= 0 or segment_s > period_s:
        raise ConfigurationError("need 0 < segment <= period")
    count = max(1, int(round(period_s / segment_s)))
    times = (np.arange(count) + 0.5) * (period_s / count)
    rates = mean_rate_bps * (
        1.0 + swing_fraction * np.sin(2.0 * np.pi * times / period_s)
    )
    return RateTrace(
        durations_s=tuple([period_s / count] * count),
        rates_bps=tuple(float(r) for r in rates),
    )


def markov_trace(
    calm_rate_bps: float,
    action_rate_bps: float,
    mean_scene_s: float = 8.0,
    total_s: float = 300.0,
    gop_s: float = 0.5,
    seed: int = 2011,
) -> RateTrace:
    """A two-state Markov-modulated VBR trace (calm vs action scenes).

    Scene lengths are geometric with mean ``mean_scene_s`` (quantised to
    GOPs); the rate alternates between the two levels.  Deterministic for
    a fixed seed.
    """
    if calm_rate_bps <= 0 or action_rate_bps <= 0:
        raise ConfigurationError("rates must be > 0")
    if calm_rate_bps > action_rate_bps:
        raise ConfigurationError("calm rate must not exceed action rate")
    if mean_scene_s < gop_s:
        raise ConfigurationError("mean scene must be at least one GOP")
    if total_s <= 0 or gop_s <= 0:
        raise ConfigurationError("durations must be > 0")
    rng = np.random.default_rng(seed)
    mean_gops = mean_scene_s / gop_s
    durations: list[float] = []
    rates: list[float] = []
    elapsed = 0.0
    state_action = False
    while elapsed < total_s:
        gops = 1 + rng.geometric(1.0 / mean_gops)
        duration = min(gops * gop_s, total_s - elapsed)
        durations.append(duration)
        rates.append(action_rate_bps if state_action else calm_rate_bps)
        elapsed += duration
        state_action = not state_action
    return RateTrace(
        durations_s=tuple(durations), rates_bps=tuple(rates)
    )
