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

from . import units
from .config import (
    DRAMConfig,
    DesignGoal,
    MEMSDeviceConfig,
    MechanicalDeviceConfig,
    WorkloadConfig,
    TABLE1_RATE_GRID_BPS,
    disk_18inch,
    ibm_mems_prototype,
    micron_ddr_dram,
    table1_workload,
)
from .core import (
    BatchRequirement,
    BufferDimensioner,
    BufferRequirement,
    CapacityModel,
    Constraint,
    ConstraintOutcome,
    DesignSpaceExplorer,
    DesignSpaceResult,
    DominanceRegion,
    EnergyModel,
    InverseSolver,
    LifetimeModel,
    ParetoFrontier,
    ParetoPoint,
    ProbesModel,
    RefillCycle,
    SpringsModel,
    TradeoffAnalysis,
    TradeoffPoint,
    energy_buffer_frontier,
)
from .core.tradeoff import compare_energy_goals
from .errors import (
    BufferUnderrunError,
    CampaignError,
    ConfigurationError,
    InfeasibleDesignError,
    ReproError,
    SimulationError,
    SolverError,
    UnitError,
)
from .runner import (
    Campaign,
    CampaignResult,
    JobResult,
    JobSpec,
    JsonlBackend,
    ProgressMonitor,
    ResultCache,
    ResultStore,
    SqliteBackend,
    migrate_store,
    registry_campaign,
    run_campaign,
)
from . import api

__version__ = "1.8.0"

__all__ = [
    "api",
    "units",
    # configuration
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
    # core models
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
    "compare_energy_goals",
    "ParetoFrontier",
    "ParetoPoint",
    "energy_buffer_frontier",
    # campaign engine
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
    # errors
    "ReproError",
    "ConfigurationError",
    "UnitError",
    "InfeasibleDesignError",
    "SimulationError",
    "BufferUnderrunError",
    "CampaignError",
    "SolverError",
    "__version__",
]
