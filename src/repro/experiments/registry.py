"""Registry mapping experiment ids to their ``run`` callables."""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ConfigurationError
from . import (
    breakeven,
    capacity_example,
    dram_exp,
    fig2,
    fig3,
    table1,
    tradeoff10,
    validation_exp,
    wear_exp,
)
from .base import ExperimentResult
from .catalog import (  # noqa: F401  (re-exported)
    DESCRIPTIONS,
    list_experiments,
    validate_experiment_ids,
)

#: Experiment id -> runner; the descriptions live in :mod:`.catalog`.
_RUNNERS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "breakeven": breakeven.run,
    "capacity-example": capacity_example.run,
    "fig2a": fig2.run_fig2a,
    "fig2b": fig2.run_fig2b,
    "fig3a": fig3.run_fig3a,
    "fig3b": fig3.run_fig3b,
    "fig3c": fig3.run_fig3c,
    "fig3-c85": fig3.run_fig3_c85,
    "tradeoff10": tradeoff10.run,
    "sim-validate": validation_exp.run,
    "dram-negligible": dram_exp.run,
    "wear-balance": wear_exp.run,
}

if _RUNNERS.keys() != DESCRIPTIONS.keys():
    raise RuntimeError(
        "experiment catalog and runners disagree on ids: "
        f"{sorted(DESCRIPTIONS.keys() ^ _RUNNERS.keys())}"
    )

#: Experiment id -> (runner, one-line description).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    experiment_id: (_RUNNERS[experiment_id], description)
    for experiment_id, description in DESCRIPTIONS.items()
}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment's runner by id."""
    try:
        runner, _ = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return runner


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run an experiment by id with optional overrides."""
    return get_experiment(experiment_id)(**kwargs)


def run_experiments(
    experiment_ids: Sequence[str] | None = None,
    jobs: int = 1,
    retries: int = 0,
    observers: Sequence[Callable] = (),
    store_path: str | None = None,
    store_backend: str | None = None,
    run_id: str = "",
    executor: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run several experiments through the campaign queue.

    ``jobs > 1`` fans the experiments out over a process pool; results
    come back keyed by id regardless of completion order and are
    bit-identical to serial execution.  ``store_path`` persists results
    to a result store (``store_backend`` picks ``"jsonl"`` or
    ``"sqlite"``), so repeated calls resolve from cache — note that a
    cache-resolved entry is the stored JSON payload (headline scalars
    and rendered text), not a live ``ExperimentResult``.  A failure
    raises :class:`~repro.errors.CampaignError` naming the failed ids.
    """
    from ..runner.campaign import registry_campaign, run_campaign

    campaign = registry_campaign(experiment_ids, retries=retries)
    outcome = run_campaign(
        campaign,
        jobs=jobs,
        observers=observers,
        store_path=store_path,
        store_backend=store_backend,
        strict=True,
        run_id=run_id,
        executor=executor,
    )
    return {
        job_id: outcome.results[job_id].value for job_id in outcome.order
    }
