"""repro — reproduction of *Buffering Implications for the Design Space of
Streaming MEMS Storage* (Khatib & Abelmann, DATE 2011).

The library models the energy consumption, formatted capacity, and
component lifetime of a MEMS probe-storage device as functions of its
streaming buffer size, implements the inverse functions (design goal ->
buffer size), and explores the design space over streaming bit rates —
plus the substrates the paper relies on: a 1.8-inch disk comparator, a
Micron-style DRAM buffer power model, sector/ECC formatting, and a
discrete-event simulation of the streaming pipeline used to validate the
closed-form models.

Quickstart
----------
>>> import repro
>>> device = repro.ibm_mems_prototype()
>>> model = repro.EnergyModel(device, repro.table1_workload())
>>> round(repro.units.bits_to_kb(model.break_even_buffer(1_024_000)), 2)
2.23

Campaigns — batches of experiments run through the orchestration
engine (parallel workers, retry-on-failure, and a persistent result
store that makes re-runs resolve from cache):

>>> campaign = repro.registry_campaign(["table1", "breakeven"])
>>> outcome = repro.run_campaign(campaign, jobs=1)
>>> outcome.ok
True
>>> sorted(outcome.headlines())
['breakeven', 'table1']

Pass ``jobs=4`` to fan out over four worker processes (headline
scalars are bit-identical to serial execution) and
``store_path="results.jsonl"`` to persist results — an interrupted or
repeated campaign then resumes from the store instead of recomputing.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__version__ = "1.8.0"

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".units": None,
    ".config": (
        "MechanicalDeviceConfig",
        "MEMSDeviceConfig",
        "WorkloadConfig",
        "DesignGoal",
        "DRAMConfig",
        "ibm_mems_prototype",
        "disk_18inch",
        "table1_workload",
        "micron_ddr_dram",
        "TABLE1_RATE_GRID_BPS",
    ),
    ".core": (
        "EnergyModel",
        "RefillCycle",
        "CapacityModel",
        "LifetimeModel",
        "SpringsModel",
        "ProbesModel",
        "InverseSolver",
        "BatchRequirement",
        "BufferDimensioner",
        "BufferRequirement",
        "Constraint",
        "ConstraintOutcome",
        "DesignSpaceExplorer",
        "DesignSpaceResult",
        "DominanceRegion",
        "TradeoffAnalysis",
        "TradeoffPoint",
    ),
    ".core.tradeoff": ("compare_energy_goals",),
    ".runner": (
        "Campaign",
        "CampaignResult",
        "JobSpec",
        "JobResult",
        "JsonlBackend",
        "ProgressMonitor",
        "ResultCache",
        "ResultStore",
        "SqliteBackend",
        "migrate_store",
        "registry_campaign",
        "run_campaign",
    ),
    ".errors": (
        "ReproError",
        "ConfigurationError",
        "UnitError",
        "InfeasibleDesignError",
        "SimulationError",
        "BufferUnderrunError",
        "CampaignError",
        "SolverError",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__.append("__version__")
