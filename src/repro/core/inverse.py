"""Inverse functions: from design requirements to a buffer size (§IV.C).

The paper's design-space exploration rests on inverting the four forward
models.  Three inverses are exact/closed-form (energy, springs, probes via
the sector-layout inverse); this module supplies the energy inverse, a
generic bracketing/bisection inverse used to cross-check the energy closed
form in the tests, and a façade (:class:`InverseSolver`) bundling all four.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..config import DesignGoal, MEMSDeviceConfig, WorkloadConfig
from ..errors import ConfigurationError, InfeasibleDesignError, SolverError
from .capacity import CapacityModel
from .energy import EnergyModel
from .lifetime import LifetimeModel


def invert_monotone(
    func: Callable[[float], float],
    target: float,
    lower: float,
    upper: float,
    increasing: bool = True,
    tolerance: float = 1e-9,
    max_expansions: int = 200,
) -> float:
    """Numerically invert a monotone function of the buffer size.

    Finds ``x`` in ``[lower, upper]`` with ``func(x) == target`` by root
    bracketing and bisection.  The upper bound is expanded geometrically
    (up to ``max_expansions`` doublings) if the target is not yet
    bracketed — convenient for saving-style curves that approach their
    supremum asymptotically.  The root is returned to within
    ``tolerance + 1e-12 * |root|``.

    Raises
    ------
    SolverError
        If the target cannot be bracketed (e.g. it exceeds the function's
        supremum).
    """
    if lower <= 0 or upper <= lower:
        raise ConfigurationError("need 0 < lower < upper")

    sign = 1.0 if increasing else -1.0

    def gap(x: float) -> float:
        return sign * (func(x) - target)

    lo, hi = lower, upper
    if gap(lo) >= 0:
        return lo  # already satisfied at the lower end
    gap_hi = gap(hi)
    expansions = 0
    while gap_hi < 0 and expansions < max_expansions:
        lo, hi = hi, hi * 2.0
        gap_hi = gap(hi)
        expansions += 1
    if gap_hi < 0:
        raise SolverError(
            f"could not bracket target {target!r}: f({hi:g}) is still "
            f"{'below' if increasing else 'above'} it after "
            f"{max_expansions} expansions"
        )
    # The root lies in (lo, hi]; bisect in log space (lower > 0) until
    # the bracket is within tolerance, or down to adjacent floats.
    while hi - lo > tolerance + 1e-12 * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class InverseSolver:
    """Design requirement -> minimal buffer size, for all four constraints.

    Parameters mirror :class:`~repro.core.dimensioning.BufferDimensioner`;
    the solver owns one instance of each forward model.
    """

    def __init__(
        self,
        device: MEMSDeviceConfig,
        workload: WorkloadConfig | None = None,
    ):
        self.device = device
        self.workload = workload if workload is not None else WorkloadConfig()
        self.energy = EnergyModel(device, self.workload)
        self.capacity = CapacityModel(device)
        self.lifetime = LifetimeModel(device, self.workload, self.capacity)

    # -- energy ---------------------------------------------------------------

    def buffer_for_energy_saving(
        self, saving: float, stream_rate_bps: float
    ) -> float:
        """Smallest buffer (bits) achieving an energy saving of ``saving``.

        Closed form from Equation (1): the saving constraint
        ``Em(B) <= (1 - E) * E_on`` isolates the single buffer-dependent
        term, giving

            B >= toh * (Poh - Psb) / ((1 - E) * E_on - Em_inf).

        Raises
        ------
        InfeasibleDesignError
            When the requested saving is at or above the asymptotic maximum
            at this rate — the "X" wall of Figure 3a.
        """
        if not 0 <= saving < 1:
            raise ConfigurationError(f"saving must lie in [0, 1), got {saving!r}")
        headroom = (1.0 - saving) * self.energy.always_on_per_bit_energy(
            stream_rate_bps
        ) - self.energy.asymptotic_per_bit_energy(stream_rate_bps)
        if headroom <= 0:
            raise InfeasibleDesignError(
                f"energy saving of {saving:.0%} is unreachable at "
                f"{stream_rate_bps:g} bit/s: maximum is "
                f"{self.energy.max_energy_saving(stream_rate_bps):.2%}",
                constraint="energy",
            )
        dev = self.device
        numerator = dev.overhead_time_s * (
            dev.overhead_power_w - dev.standby_power_w
        )
        if numerator <= 0:
            return 0.0
        return numerator / headroom

    def buffer_for_energy_saving_numeric(
        self, saving: float, stream_rate_bps: float
    ) -> float:
        """Numeric cross-check of :meth:`buffer_for_energy_saving`.

        Inverts ``energy_saving`` by bisection; used by the test-suite to
        validate the closed form.
        """
        if saving >= self.energy.max_energy_saving(stream_rate_bps):
            raise InfeasibleDesignError(
                f"energy saving of {saving:.0%} is unreachable at "
                f"{stream_rate_bps:g} bit/s",
                constraint="energy",
            )
        return invert_monotone(
            lambda b: self.energy.energy_saving(b, stream_rate_bps),
            saving,
            lower=1.0,
            upper=max(4.0, 4 * self.energy.break_even_buffer(stream_rate_bps)),
            increasing=True,
        )

    # -- capacity -------------------------------------------------------------

    def buffer_for_capacity(self, utilisation: float) -> float:
        """Smallest buffer (bits) admitting a format of ``utilisation``.

        Rate-independent: the flat left region of Figure 3.
        """
        return self.capacity.min_buffer_for_utilisation(utilisation)

    # -- lifetime ---------------------------------------------------------------

    def buffer_for_springs(
        self, lifetime_years: float, stream_rate_bps: float
    ) -> float:
        """Smallest buffer (bits) giving the springs a target lifetime."""
        return self.lifetime.springs.min_buffer_for_lifetime(
            lifetime_years, stream_rate_bps
        )

    def buffer_for_probes(
        self, lifetime_years: float, stream_rate_bps: float
    ) -> float:
        """Smallest buffer (bits) giving the probes a target lifetime."""
        return self.lifetime.probes.min_buffer_for_lifetime(
            lifetime_years, stream_rate_bps
        )

    # -- latency floor ----------------------------------------------------------

    def buffer_for_latency(self, stream_rate_bps: float) -> float:
        """Smallest buffer that survives seek + shutdown + best-effort."""
        return self.energy.latency_floor(stream_rate_bps)

    # -- convenience -------------------------------------------------------------

    def buffers_for_goal(
        self, goal: DesignGoal, stream_rate_bps: float
    ) -> dict[str, float]:
        """Per-constraint minimal buffers (bits) for a full design goal.

        Infeasible constraints are reported as ``math.inf`` so callers can
        distinguish "large" from "impossible" without exception handling;
        :class:`~repro.core.dimensioning.BufferDimensioner` adds richer
        reporting on top.  That includes the latency floor: a rate whose
        best-effort share leaves no drain time is an infeasible operating
        point (``inf``), matching the batch path — only a rate outside
        ``(0, rm)`` is a caller error.
        """
        results: dict[str, float] = {}
        try:
            results["energy"] = self.buffer_for_energy_saving(
                goal.energy_saving, stream_rate_bps
            )
        except InfeasibleDesignError:
            results["energy"] = math.inf
        try:
            results["capacity"] = self.buffer_for_capacity(
                goal.capacity_utilisation
            )
        except InfeasibleDesignError:
            results["capacity"] = math.inf
        results["springs"] = self.buffer_for_springs(
            goal.lifetime_years, stream_rate_bps
        )
        try:
            results["probes"] = self.buffer_for_probes(
                goal.lifetime_years, stream_rate_bps
            )
        except InfeasibleDesignError:
            results["probes"] = math.inf
        # The batch twin of the latency floor: identical arithmetic, but
        # the no-drain-time wall comes back as inf instead of raising,
        # so dominance-boundary bisection can probe past it.
        results["latency"] = float(
            self.buffer_for_latency_batch(np.asarray([stream_rate_bps]))[0]
        )
        return results

    # -- batch fast paths ---------------------------------------------------

    def buffer_for_energy_saving_batch(
        self, saving, stream_rate_bps
    ) -> np.ndarray:
        """Vectorised energy inverse over saving and/or rate grids.

        The closed form of :meth:`buffer_for_energy_saving` evaluated
        array-natively; ``saving`` and ``stream_rate_bps`` broadcast
        against each other.  Unreachable savings map to ``inf`` instead
        of raising — the "X" wall becomes a masked region of the grid.
        """
        savings = np.asarray(saving, dtype=float)
        if savings.size and not bool(
            ((savings >= 0) & (savings < 1)).all()
        ):
            raise ConfigurationError("savings must lie in [0, 1)")
        headroom = (1.0 - savings) * self.energy.always_on_per_bit_energy_batch(
            stream_rate_bps
        ) - self.energy.asymptotic_per_bit_energy_batch(stream_rate_bps)
        dev = self.device
        numerator = dev.overhead_time_s * (
            dev.overhead_power_w - dev.standby_power_w
        )
        out = np.full(np.shape(headroom), np.inf)
        reachable = headroom > 0
        if numerator <= 0:
            out[reachable] = 0.0
        else:
            np.divide(numerator, headroom, out=out, where=reachable)
        return out

    def buffer_for_latency_batch(self, stream_rate_bps) -> np.ndarray:
        """Vectorised latency floor over a rate grid (``inf`` = no drain)."""
        return self.energy.latency_floor_batch(stream_rate_bps)

    def buffers_for_goal_batch(
        self, goal: DesignGoal, stream_rates_bps
    ) -> dict[str, np.ndarray]:
        """Per-constraint minimal-buffer curves over a whole rate grid.

        The batch twin of :meth:`buffers_for_goal`: every constraint is
        evaluated in a handful of vectorised passes (the closed-form
        inverses directly; the sector-layout inverse as a masked walk
        over each point's own search, with a scalar fallback past its
        exact range), with infeasible points mapping to ``inf``.
        """
        rates = np.atleast_1d(np.asarray(stream_rates_bps, dtype=float))
        results: dict[str, np.ndarray] = {}
        results["energy"] = self.buffer_for_energy_saving_batch(
            goal.energy_saving, rates
        )
        try:
            capacity = self.buffer_for_capacity(goal.capacity_utilisation)
        except InfeasibleDesignError:
            capacity = math.inf
        results["capacity"] = np.full(rates.shape, capacity)
        results["springs"] = self.lifetime.springs.min_buffer_for_lifetime_batch(
            goal.lifetime_years, rates
        )
        results["probes"] = self.lifetime.probes.min_buffer_for_lifetime_batch(
            goal.lifetime_years, rates
        )
        results["latency"] = self.buffer_for_latency_batch(rates)
        return results
