"""Design-space exploration over streaming rates (§IV, Figure 3).

Sweeps the :class:`~repro.core.dimensioning.BufferDimensioner` over a
logarithmic grid of streaming bit rates and post-processes the result into
the artefacts Figure 3 displays:

* the *minimal required buffer* curve,
* the *energy-efficiency buffer* curve (energy constraint alone),
* contiguous *dominance regions* (the "C", "E", "Lsp", "Lpb" brackets),
* the *feasibility wall* (the "X" range and its vertical line).

Crossover rates between regions are refined by bisection, so region
boundaries are reported far more precisely than the sweep grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import units
from ..config import DesignGoal, MEMSDeviceConfig, WorkloadConfig
from .dimensioning import BufferDimensioner, BufferRequirement, Constraint


def log_rate_grid(
    rate_min_bps: float, rate_max_bps: float, points_per_decade: int = 48
) -> np.ndarray:
    """Logarithmically spaced rate grid including both endpoints."""
    if not 0 < rate_min_bps < rate_max_bps:
        raise ValueError("need 0 < rate_min < rate_max")
    decades = math.log10(rate_max_bps / rate_min_bps)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(rate_min_bps, rate_max_bps, count)


@dataclass(frozen=True)
class DominanceRegion:
    """A maximal rate interval governed by a single constraint.

    ``constraint`` dictates the required buffer on
    ``[rate_low_bps, rate_high_bps]``; infeasible stretches are reported
    with ``feasible = False`` (the paper's "X" ranges).
    """

    constraint: Constraint
    rate_low_bps: float
    rate_high_bps: float
    feasible: bool

    @property
    def label(self) -> str:
        """Figure 3 label: the constraint code, or ``"X"`` if infeasible."""
        return self.constraint.value if self.feasible else "X"

    def __str__(self) -> str:
        return (
            f"{self.label}: {units.format_rate(self.rate_low_bps)}"
            f" - {units.format_rate(self.rate_high_bps)}"
        )


@dataclass(frozen=True)
class DesignSpacePoint:
    """One sweep sample: rate, full requirement, energy-only buffer."""

    stream_rate_bps: float
    requirement: BufferRequirement
    energy_buffer_bits: float


@dataclass(frozen=True)
class DesignSpaceResult:
    """Output of :meth:`DesignSpaceExplorer.sweep` for one design goal."""

    goal: DesignGoal
    points: tuple[DesignSpacePoint, ...]
    regions: tuple[DominanceRegion, ...]

    @property
    def rates_bps(self) -> np.ndarray:
        """Sampled streaming rates (bit/s)."""
        return np.array([p.stream_rate_bps for p in self.points])

    @property
    def required_buffer_bits(self) -> np.ndarray:
        """Minimal required buffer per rate (bits; ``inf`` when infeasible)."""
        return np.array(
            [p.requirement.required_buffer_bits for p in self.points]
        )

    @property
    def energy_buffer_bits(self) -> np.ndarray:
        """Energy-efficiency buffer per rate (bits; ``inf`` when unreachable)."""
        return np.array([p.energy_buffer_bits for p in self.points])

    @property
    def dominant_labels(self) -> list[str]:
        """Dominant-constraint label per sampled rate ("X" if infeasible)."""
        return [
            p.requirement.dominant.value if p.requirement.feasible else "X"
            for p in self.points
        ]

    @property
    def feasible_mask(self) -> np.ndarray:
        """Boolean array marking feasible samples."""
        return np.array([p.requirement.feasible for p in self.points])

    @property
    def max_feasible_rate_bps(self) -> float:
        """Highest sampled rate that is feasible (``nan`` if none)."""
        feasible = [
            p.stream_rate_bps for p in self.points if p.requirement.feasible
        ]
        return max(feasible) if feasible else float("nan")

    def region_sequence(self) -> list[str]:
        """Ordered labels of the dominance regions, e.g. ``['C', 'E', 'X']``."""
        return [region.label for region in self.regions]

    def region_for_rate(self, stream_rate_bps: float) -> DominanceRegion:
        """The dominance region containing a given rate."""
        for region in self.regions:
            if region.rate_low_bps <= stream_rate_bps <= region.rate_high_bps:
                return region
        raise KeyError(
            f"rate {stream_rate_bps:g} bit/s outside the swept range"
        )


class DesignSpaceExplorer:
    """Regenerates the Figure 3 panels for arbitrary goals and devices."""

    def __init__(
        self,
        device: MEMSDeviceConfig,
        workload: WorkloadConfig | None = None,
        points_per_decade: int = 48,
        include_latency_floor: bool = True,
    ):
        self.device = device
        self.workload = workload if workload is not None else WorkloadConfig()
        self.dimensioner = BufferDimensioner(
            device, self.workload, include_latency_floor=include_latency_floor
        )
        self.points_per_decade = points_per_decade

    def sweep(
        self,
        goal: DesignGoal,
        rate_min_bps: float | None = None,
        rate_max_bps: float | None = None,
    ) -> DesignSpaceResult:
        """Sweep the buffer requirement over a streaming-rate range.

        Defaults to the workload's rate range (Table I: 32-4096 kbps).
        """
        rate_min = (
            rate_min_bps
            if rate_min_bps is not None
            else self.workload.stream_rate_min_bps
        )
        rate_max = (
            rate_max_bps
            if rate_max_bps is not None
            else self.workload.stream_rate_max_bps
        )
        grid = log_rate_grid(rate_min, rate_max, self.points_per_decade)
        batch = self.dimensioner.require_batch(goal, grid)
        # The energy-efficiency curve IS the energy constraint row of
        # the batch requirement (inf where the goal is unreachable).
        energy_buffers = batch.buffer_for(Constraint.ENERGY)
        points = [
            DesignSpacePoint(
                stream_rate_bps=float(rate),
                requirement=batch.requirement_at(index),
                energy_buffer_bits=float(energy_buffers[index]),
            )
            for index, rate in enumerate(grid)
        ]
        regions = self._extract_regions(goal, points)
        return DesignSpaceResult(
            goal=goal, points=tuple(points), regions=tuple(regions)
        )

    # -- region extraction ----------------------------------------------------

    def _point_state(self, point: DesignSpacePoint) -> tuple[Constraint, bool]:
        return point.requirement.dominant, point.requirement.feasible

    def _extract_regions(
        self, goal: DesignGoal, points: list[DesignSpacePoint]
    ) -> list[DominanceRegion]:
        """Merge consecutive samples with equal state; refine boundaries."""
        if not points:
            return []
        # Memo shared by every boundary refinement of this sweep: once
        # a bisection interval collapses to adjacent floats the same mid
        # rate is produced again and again, and neighbouring boundaries
        # re-probe each other's endpoints — each distinct rate is
        # dimensioned once.
        memo: dict[float, BufferRequirement] = {
            point.stream_rate_bps: point.requirement for point in points
        }
        regions: list[DominanceRegion] = []
        run_start = points[0].stream_rate_bps
        state = self._point_state(points[0])
        previous_rate = points[0].stream_rate_bps
        for point in points[1:]:
            current = self._point_state(point)
            if current != state:
                boundary = self._refine_boundary(
                    goal, previous_rate, point.stream_rate_bps, state, memo
                )
                regions.append(
                    DominanceRegion(
                        constraint=state[0],
                        rate_low_bps=run_start,
                        rate_high_bps=boundary,
                        feasible=state[1],
                    )
                )
                run_start = boundary
                state = current
            previous_rate = point.stream_rate_bps
        regions.append(
            DominanceRegion(
                constraint=state[0],
                rate_low_bps=run_start,
                rate_high_bps=previous_rate,
                feasible=state[1],
            )
        )
        return regions

    def _dimension_memoized(
        self,
        goal: DesignGoal,
        rate: float,
        memo: dict[float, BufferRequirement],
    ) -> BufferRequirement:
        """One :meth:`BufferDimensioner.dimension` call per distinct rate."""
        requirement = memo.get(rate)
        if requirement is None:
            requirement = memo[rate] = self.dimensioner.dimension(goal, rate)
        return requirement

    def _refine_boundary(
        self,
        goal: DesignGoal,
        rate_low: float,
        rate_high: float,
        low_state: tuple[Constraint, bool],
        memo: dict[float, BufferRequirement],
        iterations: int = 40,
    ) -> float:
        """Bisect the rate at which the dominance state changes."""
        lo, hi = rate_low, rate_high
        for _ in range(iterations):
            mid = math.sqrt(lo * hi)  # bisect in log space
            requirement = self._dimension_memoized(goal, mid, memo)
            if (requirement.dominant, requirement.feasible) == low_state:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1 + 1e-12:
                break
        return math.sqrt(lo * hi)

    # -- feasibility walls ------------------------------------------------------

    def energy_wall_rate(self, goal: DesignGoal) -> float:
        """Rate beyond which the energy-saving goal is unreachable (bit/s).

        The solid vertical line of Figure 3a.  Returns ``inf`` when the
        goal stays reachable across the whole swept range (Figure 3c).
        """
        rate_min = self.workload.stream_rate_min_bps
        rate_max = self.workload.stream_rate_max_bps
        energy = self.dimensioner.solver.energy

        def reachable(rate: float) -> bool:
            return energy.max_energy_saving(rate) > goal.energy_saving

        if reachable(rate_max):
            return math.inf
        if not reachable(rate_min):
            return rate_min
        lo, hi = rate_min, rate_max
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if reachable(mid):
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    def energy_wall_rate_batch(self, energy_savings) -> np.ndarray:
        """Vectorised :meth:`energy_wall_rate` over a grid of saving goals.

        ``energy_savings`` is an array of energy-saving fractions (the
        ``DesignGoal.energy_saving`` of each sweep point); the return
        value holds one wall rate per goal.  All boundaries bisect in
        lockstep as a single array — log-domain midpoints, a convergence
        mask retiring finished lanes — so a 1k-goal sweep costs a few
        dozen vectorised :meth:`EnergyModel.max_energy_saving_batch`
        passes instead of ~80k scalar model evaluations.  Every pass
        asks the explorer's own energy model, so a subclass that
        overrides the saving formula bisects its own curve.

        Per-goal semantics match the scalar method: ``inf`` where the
        goal stays reachable at the top of the swept range, ``rate_min``
        where it is unreachable already at the bottom, and the bisected
        boundary (within bisection tolerance of the scalar answer)
        otherwise.
        """
        targets = np.asarray(energy_savings, dtype=float)
        flat = targets.ravel().astype(float)
        out = np.empty(flat.shape)
        if flat.size == 0:
            return out.reshape(targets.shape)
        rate_min = self.workload.stream_rate_min_bps
        rate_max = self.workload.stream_rate_max_bps
        energy = self.dimensioner.solver.energy
        max_at_max = float(energy.max_energy_saving(rate_max))
        max_at_min = float(energy.max_energy_saving(rate_min))
        reachable_everywhere = flat < max_at_max
        unreachable_at_min = ~reachable_everywhere & (flat >= max_at_min)
        out[reachable_everywhere] = math.inf
        out[unreachable_at_min] = rate_min
        idx = np.flatnonzero(~reachable_everywhere & ~unreachable_at_min)
        if idx.size:
            goals = flat[idx]
            lo = np.full(idx.shape, float(rate_min))
            hi = np.full(idx.shape, float(rate_max))
            live = np.ones(idx.shape, dtype=bool)
            for _ in range(80):
                sel = np.flatnonzero(live)
                if sel.size == 0:
                    break
                mid = np.sqrt(lo[sel] * hi[sel])
                reach = energy.max_energy_saving_batch(mid) > goals[sel]
                lo[sel[reach]] = mid[reach]
                hi[sel[~reach]] = mid[~reach]
                live[sel] = hi[sel] / lo[sel] >= 1.0 + 1e-12
            out[idx] = np.sqrt(lo * hi)
        return out.reshape(targets.shape)

    def probes_wall_rate(self, goal: DesignGoal) -> float:
        """Rate beyond which the probes-lifetime goal is unreachable (bit/s).

        The dashed vertical line of Figure 3b; ``inf`` when the probes can
        always meet the goal in the swept range.
        """
        wall = self.dimensioner.solver.lifetime.probes.max_rate_for_lifetime(
            goal.lifetime_years
        )
        return wall
