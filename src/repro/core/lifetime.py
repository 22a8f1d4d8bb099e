"""Lifetime models: springs and probes (§III.C, Equations 5-6).

A streaming MEMS device seeks and shuts down once per refill cycle, so the
positioner springs flex through their full range ``T * rs / B`` times per
year.  With a duty-cycle rating ``Dsp`` the springs survive (Equation 5):

    Lsp(B) = Dsp * B / (T * rs)          [years]

Probe tips wear only when *writing*.  With a write fraction ``w``, every
refilled buffer of ``B`` user bits occupies ``S(B)`` medium bits (sector
overheads included), so the device's total write budget ``C * Dpb`` lasts
(Equation 6):

    Lpb(B) = C * Dpb * B / (w * S * T * rs)      [years]

The device dies when either component does: ``L = min(Lsp, Lpb)``.

Two useful structural facts, both exploited by the inverse solver:

* ``Lsp`` is strictly proportional to the buffer size;
* ``Lpb`` depends on the buffer only through the ratio ``B / S(B)`` — the
  capacity utilisation — which saturates at ``1 / (1 + ECC)``, so probe
  lifetime has a *rate-dependent ceiling* no buffer can lift (the paper:
  "a large buffer size has virtually no influence on probes lifetime").

``probe_wear_factor`` (default 1 = literal Equation 6) scales the written
volume, e.g. 2.0 for a write-verify pass; see DESIGN.md §4.5.
"""

from __future__ import annotations

import numpy as np

from ..config import MEMSDeviceConfig, WorkloadConfig
from ..errors import ConfigurationError, InfeasibleDesignError
from .capacity import CapacityModel


def _as_positive_rates(stream_rate_bps) -> np.ndarray:
    rates = np.asarray(stream_rate_bps, dtype=float)
    if rates.size and not bool((rates > 0).all()):
        raise ConfigurationError("stream rates must be > 0")
    return rates


class SpringsModel:
    """Equation (5): springs lifetime vs buffer size."""

    def __init__(self, device: MEMSDeviceConfig, workload: WorkloadConfig):
        self.device = device
        self.workload = workload

    def refills_per_year(self, buffer_bits: float, stream_rate_bps: float) -> float:
        """Spring flex cycles per year, ``T * rs / B``."""
        if buffer_bits <= 0:
            raise ConfigurationError("buffer must be > 0 bits")
        if stream_rate_bps <= 0:
            raise ConfigurationError("stream rate must be > 0")
        return (
            self.workload.playback_seconds_per_year
            * stream_rate_bps
            / buffer_bits
        )

    def lifetime_years(self, buffer_bits: float, stream_rate_bps: float) -> float:
        """Springs lifetime ``Lsp(B)`` in years."""
        return self.device.springs_duty_cycles / self.refills_per_year(
            buffer_bits, stream_rate_bps
        )

    def min_buffer_for_lifetime(
        self, lifetime_years: float, stream_rate_bps: float
    ) -> float:
        """Inverse of Equation (5): buffer (bits) for a target lifetime.

        ``B = L * T * rs / Dsp`` — always feasible, since the springs
        lifetime grows without bound with the buffer.
        """
        if lifetime_years <= 0:
            raise ConfigurationError("lifetime must be > 0 years")
        if stream_rate_bps <= 0:
            raise ConfigurationError("stream rate must be > 0")
        return (
            lifetime_years
            * self.workload.playback_seconds_per_year
            * stream_rate_bps
            / self.device.springs_duty_cycles
        )

    # -- batch fast paths ---------------------------------------------------

    def lifetime_years_batch(self, buffer_bits, stream_rate_bps) -> np.ndarray:
        """Vectorised Equation (5) over buffer/rate grids (broadcast)."""
        buffers = np.asarray(buffer_bits, dtype=float)
        if buffers.size and not bool((buffers > 0).all()):
            raise ConfigurationError("buffers must be > 0 bits")
        rates = _as_positive_rates(stream_rate_bps)
        refills = (
            self.workload.playback_seconds_per_year * rates / buffers
        )
        return self.device.springs_duty_cycles / refills

    def min_buffer_for_lifetime_batch(
        self, lifetime_years: float, stream_rate_bps
    ) -> np.ndarray:
        """Vectorised inverse of Equation (5) over a rate grid."""
        if lifetime_years <= 0:
            raise ConfigurationError("lifetime must be > 0 years")
        rates = _as_positive_rates(stream_rate_bps)
        return (
            lifetime_years
            * self.workload.playback_seconds_per_year
            * rates
            / self.device.springs_duty_cycles
        )


class ProbesModel:
    """Equation (6): probes lifetime vs buffer size."""

    def __init__(
        self,
        device: MEMSDeviceConfig,
        workload: WorkloadConfig,
        capacity: CapacityModel | None = None,
    ):
        self.device = device
        self.workload = workload
        self.capacity = capacity if capacity is not None else CapacityModel(device)

    def _written_bits_per_year(
        self, buffer_bits: float, stream_rate_bps: float
    ) -> float:
        """Medium bits written per year, overheads and wear factor included."""
        if stream_rate_bps <= 0:
            raise ConfigurationError("stream rate must be > 0")
        sector_bits = self.capacity.sector_bits(buffer_bits)
        refills = (
            self.workload.playback_seconds_per_year
            * stream_rate_bps
            / float(int(buffer_bits))
        )
        return (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * sector_bits
            * refills
        )

    def lifetime_years(self, buffer_bits: float, stream_rate_bps: float) -> float:
        """Probes lifetime ``Lpb(B)`` in years.

        Infinite for a pure-read workload (``w = 0``).
        """
        written = self._written_bits_per_year(buffer_bits, stream_rate_bps)
        if written == 0:
            return float("inf")
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        return budget / written

    def lifetime_ceiling_years(self, stream_rate_bps: float) -> float:
        """Supremum of ``Lpb`` over all buffers at this rate.

        Obtained in the limit ``B/S(B) -> 1/(1 + ECC)``; no finite buffer
        exceeds it, and increasing the buffer approaches it quickly.
        """
        if stream_rate_bps <= 0:
            raise ConfigurationError("stream rate must be > 0")
        wear = (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * self.workload.playback_seconds_per_year
            * stream_rate_bps
        )
        if wear == 0:
            return float("inf")
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        return budget * self.capacity.utilisation_supremum / wear

    def max_rate_for_lifetime(self, lifetime_years: float) -> float:
        """Largest stream rate (bit/s) whose lifetime ceiling reaches target.

        This is the "probes wall" of Figure 3b: beyond it the goal is
        infeasible regardless of buffering.  Infinite for ``w = 0``.
        """
        if lifetime_years <= 0:
            raise ConfigurationError("lifetime must be > 0 years")
        wear_per_rate = (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * self.workload.playback_seconds_per_year
        )
        if wear_per_rate == 0:
            return float("inf")
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        return (
            budget
            * self.capacity.utilisation_supremum
            / (wear_per_rate * lifetime_years)
        )

    def min_buffer_for_lifetime(
        self, lifetime_years: float, stream_rate_bps: float
    ) -> float:
        """Inverse of Equation (6): smallest buffer for a target lifetime.

        The probes constraint asks ``B / S(B) >= rho`` where ``rho`` is the
        utilisation the written volume must achieve — i.e. it *is* a
        capacity-utilisation constraint in disguise, solved exactly by the
        sector-layout inverse.  Returns 0.0 for a pure-read workload.

        Raises
        ------
        InfeasibleDesignError
            When the lifetime ceiling at this rate is below the target
            (the Lpb wall of Figure 3b).
        """
        if lifetime_years <= 0:
            raise ConfigurationError("lifetime must be > 0 years")
        if stream_rate_bps <= 0:
            raise ConfigurationError("stream rate must be > 0")
        wear = (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * self.workload.playback_seconds_per_year
            * stream_rate_bps
        )
        if wear == 0:
            return 0.0
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        required_ratio = lifetime_years * wear / budget
        if required_ratio >= self.capacity.utilisation_supremum:
            raise InfeasibleDesignError(
                f"probes lifetime of {lifetime_years:g} years is unreachable at "
                f"{stream_rate_bps:g} bit/s: ceiling is "
                f"{self.lifetime_ceiling_years(stream_rate_bps):.3g} years",
                constraint="probes",
            )
        return self.capacity.min_buffer_for_utilisation(required_ratio)

    # -- batch fast paths ---------------------------------------------------

    def lifetime_years_batch(self, buffer_bits, stream_rate_bps) -> np.ndarray:
        """Vectorised Equation (6) over buffer/rate grids (broadcast)."""
        buffers = np.asarray(buffer_bits, dtype=float)
        rates = _as_positive_rates(stream_rate_bps)
        sector_bits = self.capacity.sector_bits_batch(buffers)
        refills = (
            self.workload.playback_seconds_per_year
            * rates
            / np.floor(buffers)
        )
        written = (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * sector_bits
            * refills
        )
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        out = np.full(np.shape(written), np.inf)
        np.divide(budget, written, out=out, where=written != 0)
        return out

    def min_buffer_for_lifetime_batch(
        self, lifetime_years: float, stream_rate_bps
    ) -> np.ndarray:
        """Vectorised inverse of Equation (6) over a rate grid.

        Rates whose lifetime ceiling is below the target (the Lpb wall
        of Figure 3b) map to ``inf`` instead of raising; the exact
        sector-layout inverse resolves the rest as a masked walk, one
        lane per rate, falling back to the scalar inverse past its
        exact range.
        """
        if lifetime_years <= 0:
            raise ConfigurationError("lifetime must be > 0 years")
        rates = _as_positive_rates(stream_rate_bps)
        wear = (
            self.workload.write_fraction
            * self.device.probe_wear_factor
            * self.workload.playback_seconds_per_year
            * rates
        )
        if (
            self.workload.write_fraction * self.device.probe_wear_factor == 0
        ):
            return np.zeros(rates.shape)
        budget = self.device.capacity_bits * self.device.probe_write_cycles
        required_ratio = lifetime_years * wear / budget
        return self.capacity.min_buffer_for_utilisation_batch(required_ratio)


class LifetimeModel:
    """Combined lifetime ``L = min(Lsp, Lpb)`` of §III.C."""

    def __init__(
        self,
        device: MEMSDeviceConfig,
        workload: WorkloadConfig,
        capacity: CapacityModel | None = None,
    ):
        self.device = device
        self.workload = workload
        self.springs = SpringsModel(device, workload)
        self.probes = ProbesModel(device, workload, capacity)

    def lifetime_years(self, buffer_bits: float, stream_rate_bps: float) -> float:
        """Device lifetime in years: whichever component fails first."""
        return min(
            self.springs.lifetime_years(buffer_bits, stream_rate_bps),
            self.probes.lifetime_years(buffer_bits, stream_rate_bps),
        )

    def limiting_component(
        self, buffer_bits: float, stream_rate_bps: float
    ) -> str:
        """``"springs"`` or ``"probes"``, whichever limits the lifetime."""
        lsp = self.springs.lifetime_years(buffer_bits, stream_rate_bps)
        lpb = self.probes.lifetime_years(buffer_bits, stream_rate_bps)
        return "springs" if lsp <= lpb else "probes"

    def min_buffer_for_lifetime(
        self, lifetime_years: float, stream_rate_bps: float
    ) -> float:
        """Smallest buffer meeting the lifetime target on *both* components."""
        return max(
            self.springs.min_buffer_for_lifetime(lifetime_years, stream_rate_bps),
            self.probes.min_buffer_for_lifetime(lifetime_years, stream_rate_bps),
        )
