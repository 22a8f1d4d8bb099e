"""Analysis harness shared by experiments and the CLI.

* :mod:`repro.analysis.tables` — ASCII rendering of tables and log-log
  series (the library's "figures" are printed series, as every command
  runs headless),
* :mod:`repro.analysis.validation` — analytic-vs-simulation matrices,
* :mod:`repro.analysis.plots` — ASCII design-space charts.

Parameter grids run as sharded campaigns
(:func:`repro.runner.run_sharded_sweep`).
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".tables": ("Table", "format_table", "render_series"),
    ".validation": ("ValidationMatrix", "validate_operating_points"),
    ".plots": ("AsciiChart", "plot_design_space"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
