"""Experiment ids and descriptions, readable without importing an experiment.

``repro list``, ``--help`` and campaign validation need only the ids and
their one-line descriptions; importing the experiments themselves would
load numpy and the whole model core.  :mod:`repro.experiments.registry`
pairs this table with the runners and refuses to import if the two
disagree on ids.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError

#: Experiment id -> one-line description, in registry order.
DESCRIPTIONS: dict[str, str] = {
    "table1": "Table I settings and derived quantities",
    "breakeven": "§III.A.1 break-even buffers: MEMS vs 1.8-inch disk",
    "capacity-example": (
        "§III.B capacity utilisation example (88%, ~106 of 120 GB)"
    ),
    "fig2a": "Figure 2a: energy & capacity vs buffer",
    "fig2b": "Figure 2b: lifetime vs buffer",
    "fig3a": "Figure 3a: goal (80%, 88%, 7)",
    "fig3b": "Figure 3b: goal (70%, 88%, 7)",
    "fig3c": "Figure 3c: improved endurance",
    "fig3-c85": "§IV.C prose variant with C=85%",
    "tradeoff10": (
        "Abstract claim: 10% energy vs 3 orders of magnitude of buffer"
    ),
    "sim-validate": "Analytic model vs discrete-event simulation",
    "dram-negligible": "§IV.A DRAM energy share",
    "wear-balance": (
        "§III.C.2 write-balance assumption under skewed workloads"
    ),
}


def list_experiments() -> list[tuple[str, str]]:
    """All registered ``(id, description)`` pairs, sorted by id."""
    return sorted(DESCRIPTIONS.items())


def validate_experiment_ids(experiment_ids: Sequence[str]) -> None:
    """Reject unknown ids up front (before any experiment runs)."""
    unknown = sorted(set(experiment_ids) - set(DESCRIPTIONS))
    if unknown:
        known = ", ".join(sorted(DESCRIPTIONS))
        raise ConfigurationError(
            f"unknown experiment(s) {', '.join(unknown)}; known: {known}"
        )
