"""The paper's primary contribution: buffer-centric models of a streaming
MEMS storage device and their inverses.

* :mod:`repro.core.energy` — per-bit energy and break-even buffer (Eq. 1),
* :mod:`repro.core.capacity` — formatted-capacity model (Eqs. 2-4),
* :mod:`repro.core.lifetime` — springs and probes lifetime (Eqs. 5-6),
* :mod:`repro.core.inverse` — design requirement -> buffer size,
* :mod:`repro.core.dimensioning` — combined goal dimensioning (Fig. 3),
* :mod:`repro.core.design_space` — rate sweeps and dominance regions,
* :mod:`repro.core.tradeoff` — the 10%-energy/3-orders-of-magnitude claim.
"""

from .energy import EnergyModel, RefillCycle
from .capacity import CapacityModel
from .lifetime import LifetimeModel, SpringsModel, ProbesModel
from .inverse import InverseSolver
from .batch import break_even_curve, evaluate_rate_grid
from .dimensioning import (
    BatchRequirement,
    BufferDimensioner,
    BufferRequirement,
    Constraint,
    ConstraintOutcome,
)
from .design_space import DesignSpaceExplorer, DesignSpaceResult, DominanceRegion
from .tradeoff import TradeoffAnalysis, TradeoffPoint

__all__ = [
    "BatchRequirement",
    "EnergyModel",
    "RefillCycle",
    "break_even_curve",
    "evaluate_rate_grid",
    "CapacityModel",
    "LifetimeModel",
    "SpringsModel",
    "ProbesModel",
    "InverseSolver",
    "BufferDimensioner",
    "BufferRequirement",
    "Constraint",
    "ConstraintOutcome",
    "DesignSpaceExplorer",
    "DesignSpaceResult",
    "DominanceRegion",
    "TradeoffAnalysis",
    "TradeoffPoint",
]
