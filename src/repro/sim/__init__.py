"""Signal monitors for the refill-cycle simulation.

The streaming pipeline (:mod:`repro.streaming.pipeline`) runs as one
direct event loop and records its buffer level and its cycle counts
here; :mod:`repro.runner.monitor` records campaign progress the same
way.

* :class:`~repro.sim.monitor.TimeSeriesMonitor` — piecewise-constant and
  piecewise-linear signal recording with exact time integrals,
* :class:`~repro.sim.monitor.CounterMonitor` — named event tallies.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".monitor": ("TimeSeriesMonitor", "CounterMonitor"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
