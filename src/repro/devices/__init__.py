"""Device substrates: the power-state machine, probe-array geometry,
technology scaling and the DRAM power model used by the paper's
evaluation.

* :mod:`repro.devices.states` — explicit power-state machine with energy
  accounting, which the refill-cycle simulation drives,
* :mod:`repro.devices.geometry` — probe-array area, density and capacity,
* :mod:`repro.devices.scaling` — consistent future devices derived from
  the Table I anchor,
* :mod:`repro.devices.dram` — Micron TN-46-03-style DRAM power model.

The package exports its names lazily, so importing one submodule (say
the geometry, for Table I) loads neither numpy nor the DRAM model.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".states": ("PowerState", "PowerStateMachine", "StateVisit"),
    ".geometry": ("ProbeArrayGeometry",),
    ".dram": ("DRAMPowerModel", "DRAMEnergyBreakdown"),
    ".scaling": ("TechnologyPoint", "scale_table1_device", "ROADMAP"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
