"""Analysis harness shared by experiments, benchmarks, and the CLI.

* :mod:`repro.analysis.tables` — ASCII rendering of tables and log-log
  series (the library's "figures" are printed series, as benchmarks run
  headless),
* :mod:`repro.analysis.sweep` — generic one-parameter sweeps,
* :mod:`repro.analysis.validation` — analytic-vs-simulation matrices,
* :mod:`repro.analysis.sensitivity` — one-at-a-time sensitivity studies.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".tables": ("Table", "format_table", "render_series"),
    ".sweep": ("SweepResult", "sweep_parameter"),
    ".validation": ("ValidationMatrix", "validate_operating_points"),
    ".sensitivity": ("SensitivityResult", "sensitivity_analysis"),
    ".plots": ("AsciiChart", "plot_design_space"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
