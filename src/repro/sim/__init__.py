"""A small discrete-event simulation (DES) kernel, and signal monitors.

The streaming pipeline (:mod:`repro.streaming.pipeline`) used to run on
this kernel; it now runs as one direct event loop and only records with
:mod:`repro.sim.monitor`.  No pipeline uses the engine or the resources
any more, and their deletion is pending.  What the package holds:

* :class:`~repro.sim.engine.Environment` — event loop and virtual clock,
* :class:`~repro.sim.engine.Event` / ``Timeout`` / ``Process`` —
  generator-based processes that ``yield`` events,
* :class:`~repro.sim.engine.AnyOf` / ``AllOf`` — condition events,
* :class:`~repro.sim.resources.Container` — fluid level resource,
* :class:`~repro.sim.resources.Store` — FIFO object store,
* :class:`~repro.sim.monitor.TimeSeriesMonitor` — piecewise-constant and
  piecewise-linear signal recording with exact time integrals.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".engine": (
        "Environment",
        "Event",
        "Timeout",
        "Process",
        "Interrupt",
        "AnyOf",
        "AllOf",
    ),
    ".resources": ("Container", "Store"),
    ".monitor": ("TimeSeriesMonitor", "CounterMonitor"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
