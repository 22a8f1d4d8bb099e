"""Experiment registry: every table and figure of the paper, regenerable.

Each experiment module exposes a ``run(...) -> ExperimentResult`` callable
returning printable tables/series plus machine-checkable headline numbers;
the registry maps stable experiment ids (``table1``, ``fig2a``, ...) to
those callables for the CLI and the benchmark harness.  The ids and
their descriptions live in :mod:`~repro.experiments.catalog`, which
imports no experiment, so listing or validating ids stays cheap.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".base": ("ExperimentResult",),
    ".catalog": ("list_experiments", "validate_experiment_ids"),
    ".registry": (
        "EXPERIMENTS",
        "get_experiment",
        "run_experiment",
        "run_experiments",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
