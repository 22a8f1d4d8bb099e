"""Wear-levelling across sectors: the assumption behind Equation (6).

§III.C.2 derives the probes lifetime "assuming a perfect balance in
writing across all probes".  Striping already balances wear across
probes *within* a sector; whether wear balances across *sectors*
depends on the write-placement policy and the workload's skew.  This
module makes that assumption executable:

* :class:`SectorWearMap` — per-sector write counters for a formatted
  device,
* placement policies — :class:`DirectPlacement` (logical = physical,
  no levelling), :class:`RotatingPlacement` (start-shifted round robin,
  the classic log-style leveller), :class:`LeastWornPlacement` (greedy
  optimum, an upper bound); each places a whole write sequence at once
  with an exact closed form of its per-write rule,
* :func:`simulate_wear` — drive a policy with a (possibly skewed)
  write workload and report the *wear-levelling efficiency*: the ratio
  of achieved lifetime (limited by the most-worn sector) to the ideal
  perfectly-balanced lifetime that Equation (6) assumes.

A streaming workload that records over the medium front-to-back is
naturally balanced (efficiency ~1, vindicating the paper); a skewed
file-system workload under direct placement is not, and the levelling
policies recover most of the gap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


class SectorWearMap:
    """Write counters for every physical sector of a formatted device."""

    def __init__(self, sector_count: int, write_cycle_rating: float):
        if sector_count <= 0:
            raise ConfigurationError("sector_count must be > 0")
        if write_cycle_rating <= 0:
            raise ConfigurationError("write_cycle_rating must be > 0")
        self.sector_count = sector_count
        self.write_cycle_rating = write_cycle_rating
        self._writes = np.zeros(sector_count, dtype=np.int64)

    def _check_sector(self, physical_sector: int) -> None:
        if not 0 <= physical_sector < self.sector_count:
            raise ConfigurationError(
                f"sector {physical_sector} outside 0..{self.sector_count - 1}"
            )

    def record_write(self, physical_sector: int) -> None:
        """Count one overwrite of ``physical_sector``."""
        self._check_sector(physical_sector)
        self._writes[physical_sector] += 1

    def record_writes(self, physical_sectors: np.ndarray) -> None:
        """Count one overwrite of each sector in ``physical_sectors``.

        The bulk twin of :meth:`record_write`: it rejects the same
        sectors, and records nothing when any of them is out of range.
        """
        sectors = np.asarray(physical_sectors, dtype=np.int64)
        if sectors.size:
            self._check_sector(int(sectors.min()))
            self._check_sector(int(sectors.max()))
        self._writes += np.bincount(sectors, minlength=self.sector_count)

    # -- statistics -----------------------------------------------------------

    @property
    def total_writes(self) -> int:
        """Total sector writes recorded."""
        return int(self._writes.sum())

    @property
    def max_writes(self) -> int:
        """Writes to the most-worn sector (the lifetime limiter)."""
        return int(self._writes.max())

    @property
    def mean_writes(self) -> float:
        """Mean writes per sector (the perfectly-balanced figure)."""
        return float(self._writes.mean())

    def writes_to(self, physical_sector: int) -> int:
        """Writes recorded against one sector."""
        self._check_sector(physical_sector)
        return int(self._writes[physical_sector])

    @property
    def wear_efficiency(self) -> float:
        """Achieved fraction of the perfectly-balanced lifetime.

        ``mean / max`` of the per-sector write counts: 1.0 means the
        device dies exactly when Equation (6) predicts; 0.1 means the
        hottest sector burns out at a tenth of the ideal lifetime.
        Defined as 1.0 for an unwritten device.
        """
        if self.max_writes == 0:
            return 1.0
        return self.mean_writes / self.max_writes

    @property
    def rating_fraction_used(self) -> float:
        """Fraction of the hottest sector's write rating consumed."""
        return self.max_writes / self.write_cycle_rating

    def lifetime_scale(self) -> float:
        """Multiplier to apply to Equation (6)'s lifetime.

        Equation (6) assumes balance; the achieved lifetime is the ideal
        one scaled by :attr:`wear_efficiency`.
        """
        return self.wear_efficiency


class PlacementPolicy(ABC):
    """Maps logical sector writes to physical sectors."""

    def __init__(self, sector_count: int):
        if sector_count <= 0:
            raise ConfigurationError("sector_count must be > 0")
        self.sector_count = sector_count

    @abstractmethod
    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        """Physical sector to absorb a write of ``logical_sector``."""

    def place_all(self, logical_writes: np.ndarray, wear: SectorWearMap) -> None:
        """Place every write of ``logical_writes``, in order, into ``wear``.

        One :meth:`place` and :meth:`SectorWearMap.record_write` per
        write, so a policy that defines only :meth:`place` works as is.
        An override must leave ``wear`` and the policy in exactly the
        state this loop leaves them in.
        """
        for logical in logical_writes:
            wear.record_write(self.place(int(logical), wear))


class DirectPlacement(PlacementPolicy):
    """No levelling: logical address = physical address (baseline)."""

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        return logical_sector % self.sector_count

    def place_all(self, logical_writes: np.ndarray, wear: SectorWearMap) -> None:
        writes = np.asarray(logical_writes, dtype=np.int64)
        wear.record_writes(writes % self.sector_count)


class RotatingPlacement(PlacementPolicy):
    """Start-shifted placement: the mapping rotates every N writes.

    The classic cheap leveller: a single offset register shifts the
    whole logical-to-physical mapping by one sector every
    ``rotation_period`` writes, so hot logical sectors sweep across the
    medium over time.
    """

    def __init__(self, sector_count: int, rotation_period: int = 64):
        super().__init__(sector_count)
        if rotation_period <= 0:
            raise ConfigurationError("rotation_period must be > 0")
        self.rotation_period = rotation_period
        self._writes_seen = 0
        self._offset = 0

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        physical = (logical_sector + self._offset) % self.sector_count
        self._writes_seen += 1
        if self._writes_seen % self.rotation_period == 0:
            self._offset = (self._offset + 1) % self.sector_count
        return physical

    def place_all(self, logical_writes: np.ndarray, wear: SectorWearMap) -> None:
        # Before write i the offset has advanced once for every multiple
        # of the period in (seen, seen + i].
        writes = np.asarray(logical_writes, dtype=np.int64)
        seen, period = self._writes_seen, self.rotation_period
        rotations = (seen + np.arange(writes.size)) // period - seen // period
        wear.record_writes(
            (writes % self.sector_count + self._offset + rotations)
            % self.sector_count
        )
        self._writes_seen = seen + writes.size
        self._offset = (
            self._offset + self._writes_seen // period - seen // period
        ) % self.sector_count


class LeastWornPlacement(PlacementPolicy):
    """Greedy optimum: always write the least-worn sector.

    Ignores read locality entirely (a real device would pay remapping
    metadata); serves as the achievable upper bound on levelling.
    """

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        return int(np.argmin(wear._writes))

    def place_all(self, logical_writes: np.ndarray, wear: SectorWearMap) -> None:
        # argmin takes the lowest index among ties, so the greedy loop is
        # a water-fill: every sector is raised to the highest level the
        # writes can fill, and the writes left over go one each to the
        # lowest-index sectors at that level.
        total = len(logical_writes)
        worn = wear._writes
        levels = np.sort(worn)
        # cost[k]: writes that raise the k + 1 least-worn sectors to
        # levels[k]; it never decreases with k, and cost[0] is 0.
        cost = np.arange(1, worn.size + 1) * levels - np.cumsum(levels)
        raised = int(np.searchsorted(cost, total, side="right"))
        level = (total + int(levels[:raised].sum())) // raised
        gained = np.maximum(level - worn, 0)
        left_over = total - int(gained.sum())
        gained[np.flatnonzero(worn <= level)[:left_over]] += 1
        wear.record_writes(np.repeat(np.arange(worn.size), gained))


@dataclass(frozen=True)
class WearSimulationResult:
    """Outcome of :func:`simulate_wear`."""

    policy: str
    sector_count: int
    total_writes: int
    max_writes: int
    mean_writes: float
    wear_efficiency: float

    @property
    def lifetime_penalty(self) -> float:
        """Factor by which the achieved lifetime falls short of Eq. (6)."""
        if self.wear_efficiency == 0:
            return float("inf")
        return 1.0 / self.wear_efficiency


def zipf_write_workload(
    sector_count: int,
    total_writes: int,
    skew: float = 0.0,
    seed: int = 2011,
) -> np.ndarray:
    """Logical-sector write sequence with Zipf-like skew.

    ``skew = 0`` gives the uniform (streaming, front-to-back) pattern
    the paper assumes; larger values concentrate writes on few sectors
    (file-system metadata hot spots).
    """
    if sector_count <= 0 or total_writes <= 0:
        raise ConfigurationError("counts must be > 0")
    if skew < 0:
        raise ConfigurationError("skew must be >= 0")
    if skew == 0:
        # Sequential overwrite: the streaming-recorder pattern.
        return np.arange(total_writes, dtype=np.int64) % sector_count
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, sector_count + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(sector_count, size=total_writes, p=weights)


def simulate_wear(
    policy: PlacementPolicy,
    logical_writes: np.ndarray,
    write_cycle_rating: float = 100.0,
) -> WearSimulationResult:
    """Drive a placement policy with a write sequence; report balance."""
    wear = SectorWearMap(policy.sector_count, write_cycle_rating)
    policy.place_all(logical_writes, wear)
    return WearSimulationResult(
        policy=type(policy).__name__,
        sector_count=policy.sector_count,
        total_writes=wear.total_writes,
        max_writes=wear.max_writes,
        mean_writes=wear.mean_writes,
        wear_efficiency=wear.wear_efficiency,
    )
