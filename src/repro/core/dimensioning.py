"""Buffer dimensioning: combine all constraints into one design answer.

§IV.C of the paper poses the design question: *what buffer size achieves a
goal of energy saving E, capacity utilisation C, and lifetime L?*  The
answer is either a buffer size — the maximum of the per-constraint minimal
buffers — or a statement that the design point is infeasible (the "X"
ranges of Figure 3).

:class:`BufferDimensioner` answers the question for one operating point and
reports *which* constraint dictated the answer; the design-space explorer
sweeps it over streaming rates to regenerate Figure 3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .. import units
from ..config import DesignGoal, MEMSDeviceConfig, WorkloadConfig
from ..errors import InfeasibleDesignError
from .inverse import InverseSolver


class Constraint(enum.Enum):
    """The requirements that can dictate the streaming buffer size.

    Values match the region labels of Figure 3 where applicable.
    """

    ENERGY = "E"
    CAPACITY = "C"
    SPRINGS = "Lsp"
    PROBES = "Lpb"
    LATENCY = "lat"

    @property
    def key(self) -> str:
        """Dictionary key used by :class:`~repro.core.inverse.InverseSolver`."""
        return _CONSTRAINT_KEYS[self]


_CONSTRAINT_KEYS = {
    Constraint.ENERGY: "energy",
    Constraint.CAPACITY: "capacity",
    Constraint.SPRINGS: "springs",
    Constraint.PROBES: "probes",
    Constraint.LATENCY: "latency",
}


@dataclass(frozen=True)
class ConstraintOutcome:
    """Minimal buffer demanded by one constraint at one operating point."""

    constraint: Constraint
    min_buffer_bits: float

    @property
    def feasible(self) -> bool:
        """False when no finite buffer satisfies the constraint."""
        return math.isfinite(self.min_buffer_bits)


@dataclass(frozen=True)
class BufferRequirement:
    """The answer to a §IV.C design question at one streaming rate."""

    goal: DesignGoal
    stream_rate_bps: float
    outcomes: tuple[ConstraintOutcome, ...]

    @property
    def feasible(self) -> bool:
        """True when every constraint admits a finite buffer."""
        return all(outcome.feasible for outcome in self.outcomes)

    @property
    def infeasible_constraints(self) -> tuple[Constraint, ...]:
        """Constraints no buffer can satisfy at this operating point."""
        return tuple(o.constraint for o in self.outcomes if not o.feasible)

    @property
    def required_buffer_bits(self) -> float:
        """Minimal buffer meeting *all* constraints (``inf`` if infeasible)."""
        return max(o.min_buffer_bits for o in self.outcomes)

    @property
    def dominant(self) -> Constraint:
        """The constraint that dictates the buffer size.

        For an infeasible point, the (first) infeasible constraint — the
        wall responsible for the "X" marking.
        """
        infeasible = self.infeasible_constraints
        if infeasible:
            return infeasible[0]
        return max(self.outcomes, key=lambda o: o.min_buffer_bits).constraint

    def buffer_for(self, constraint: Constraint) -> float:
        """Minimal buffer (bits) demanded by one specific constraint."""
        for outcome in self.outcomes:
            if outcome.constraint is constraint:
                return outcome.min_buffer_bits
        raise KeyError(constraint)

    @property
    def required_buffer_kb(self) -> float:
        """Required buffer in decimal kilobytes (Figure 3's y-axis)."""
        return units.bits_to_kb(self.required_buffer_bits)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        rate = units.format_rate(self.stream_rate_bps)
        if not self.feasible:
            walls = ", ".join(c.value for c in self.infeasible_constraints)
            return (
                f"{self.goal.label()} @ {rate}: INFEASIBLE "
                f"(constraint(s): {walls})"
            )
        return (
            f"{self.goal.label()} @ {rate}: "
            f"{units.format_size(self.required_buffer_bits)} "
            f"(dictated by {self.dominant.value})"
        )


@dataclass(frozen=True)
class BatchRequirement:
    """Buffer requirements over a whole rate grid, array-natively.

    The batch twin of :class:`BufferRequirement`: one row of
    ``constraint_buffers`` per constraint (in :attr:`constraints`
    order), one column per rate.  Infeasible points carry ``inf``;
    derived arrays are computed lazily and cached, and
    :meth:`requirement_at` rebuilds the scalar object for any column so
    point-wise consumers keep their API.
    """

    goal: DesignGoal
    rates_bps: np.ndarray
    constraints: tuple[Constraint, ...]
    constraint_buffers: np.ndarray

    def __post_init__(self) -> None:
        if self.constraint_buffers.shape != (
            len(self.constraints),
            self.rates_bps.size,
        ):
            raise ValueError(
                "constraint_buffers must be (n_constraints, n_rates)"
            )

    def __len__(self) -> int:
        return int(self.rates_bps.size)

    def _cached(self, name: str, compute) -> np.ndarray:
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        return value

    @property
    def required_buffer_bits(self) -> np.ndarray:
        """Minimal buffer meeting all constraints, per rate (``inf`` = X)."""
        return self._cached(
            "_required", lambda: self.constraint_buffers.max(axis=0)
        )

    @property
    def feasible(self) -> np.ndarray:
        """Boolean mask of rates where every constraint admits a buffer."""
        return self._cached(
            "_feasible", lambda: np.isfinite(self.required_buffer_bits)
        )

    @property
    def dominant_index(self) -> np.ndarray:
        """Index into :attr:`constraints` of the dictating constraint.

        First-of-equal-maxima, matching the scalar
        :attr:`BufferRequirement.dominant` tie-break; for infeasible
        points this is the first infeasible constraint (the "X" wall).
        """
        return self._cached(
            "_dominant", lambda: np.argmax(self.constraint_buffers, axis=0)
        )

    def buffer_for(self, constraint: Constraint) -> np.ndarray:
        """One constraint's minimal-buffer curve over the grid (bits)."""
        return self.constraint_buffers[self.constraints.index(constraint)]

    def labels(self) -> np.ndarray:
        """Per-rate dominance label as a str array (``"X"`` where infeasible).

        One index into the array of constraint names; ``.tolist()``
        gives plain Python strings.
        """
        names = np.array([c.value for c in self.constraints] + ["X"])
        index = np.where(
            self.feasible, self.dominant_index, len(self.constraints)
        )
        return names[index]

    def requirement_at(self, index: int) -> BufferRequirement:
        """Rebuild the scalar :class:`BufferRequirement` for one column."""
        outcomes = tuple(
            ConstraintOutcome(
                constraint, float(self.constraint_buffers[row, index])
            )
            for row, constraint in enumerate(self.constraints)
        )
        return BufferRequirement(
            goal=self.goal,
            stream_rate_bps=float(self.rates_bps[index]),
            outcomes=outcomes,
        )


class BufferDimensioner:
    """Answers §IV.C design questions for one device/workload pair.

    Parameters
    ----------
    device:
        MEMS device under study.
    workload:
        Streaming workload (Table I defaults when omitted).
    include_latency_floor:
        Whether to include the latency floor (buffer must survive
        seek + shutdown + best-effort) as a fifth constraint.  The paper
        folds this into "dimensioning the buffer" (§IV.A); it never
        dominates for the Table I device but is kept for generality.
    """

    def __init__(
        self,
        device: MEMSDeviceConfig,
        workload: WorkloadConfig | None = None,
        include_latency_floor: bool = True,
    ):
        self.device = device
        self.workload = workload if workload is not None else WorkloadConfig()
        self.solver = InverseSolver(device, self.workload)
        self.include_latency_floor = include_latency_floor

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """Constraints considered by this dimensioner."""
        base = (
            Constraint.ENERGY,
            Constraint.CAPACITY,
            Constraint.SPRINGS,
            Constraint.PROBES,
        )
        if self.include_latency_floor:
            return base + (Constraint.LATENCY,)
        return base

    def dimension(
        self, goal: DesignGoal, stream_rate_bps: float
    ) -> BufferRequirement:
        """Compute the buffer requirement for ``goal`` at one stream rate."""
        buffers = self.solver.buffers_for_goal(goal, stream_rate_bps)
        outcomes = tuple(
            ConstraintOutcome(constraint, buffers[constraint.key])
            for constraint in self.constraints
        )
        return BufferRequirement(
            goal=goal, stream_rate_bps=stream_rate_bps, outcomes=outcomes
        )

    def require_batch(self, goal: DesignGoal, stream_rates_bps) -> BatchRequirement:
        """Buffer requirements for ``goal`` over a whole rate grid.

        The batch twin of :meth:`dimension`: all constraint curves are
        computed in a handful of vectorised passes
        (:meth:`~repro.core.inverse.InverseSolver.buffers_for_goal_batch`),
        so dense design-space scans cost array arithmetic instead of
        per-point Python calls.  Agrees with the scalar path to float
        rounding; infeasible points carry ``inf``.
        """
        rates = np.atleast_1d(np.asarray(stream_rates_bps, dtype=float))
        buffers = self.solver.buffers_for_goal_batch(goal, rates)
        constraints = self.constraints
        stack = np.vstack([buffers[c.key] for c in constraints])
        return BatchRequirement(
            goal=goal,
            rates_bps=rates,
            constraints=constraints,
            constraint_buffers=stack,
        )

    def require(self, goal: DesignGoal, stream_rate_bps: float) -> float:
        """Required buffer in bits; raises if the goal is infeasible.

        Raises
        ------
        InfeasibleDesignError
            With the responsible constraint recorded, matching the paper's
            "statement of infeasible design point".
        """
        requirement = self.dimension(goal, stream_rate_bps)
        if not requirement.feasible:
            walls = requirement.infeasible_constraints
            raise InfeasibleDesignError(
                f"design goal {goal.label()} is infeasible at "
                f"{units.format_rate(stream_rate_bps)}: "
                + ", ".join(c.value for c in walls),
                constraint=walls[0].key,
            )
        return requirement.required_buffer_bits

    def energy_efficiency_buffer(
        self, goal: DesignGoal, stream_rate_bps: float
    ) -> float:
        """The "energy-efficiency buffer" series of Figure 3 (bits).

        The buffer the *energy* constraint alone would demand —
        ``inf`` where the energy goal is unreachable.
        """
        try:
            return self.solver.buffer_for_energy_saving(
                goal.energy_saving, stream_rate_bps
            )
        except InfeasibleDesignError:
            return math.inf
