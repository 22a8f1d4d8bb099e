"""``repro.api`` — the stable high-level facade.

One module, a handful of verbs, coherent keywords.  Everything the
library can do from a script goes through here with the same four
spellings everywhere they apply:

* ``store=`` — path of the persistent result store,
* ``backend=`` — its format (``"jsonl"`` / ``"sqlite"`` / ``None`` to
  auto-resolve),
* ``jobs=`` — worker processes,
* ``telemetry=`` — ``False`` disables collection for the call
  (equivalent to ``REPRO_TELEMETRY=off``), ``None`` leaves the
  environment's choice alone.

The facade is a *compatibility contract*: signatures here only grow,
never break, while the underlying modules stay free to refactor
(their richer keyword surfaces remain available for power users).
The one break so far: ``serve``, ``submit``, ``status``, ``cancel``
and ``watch`` were removed with the campaign service they talked to.

Importing the deep paths keeps working; sharded sweeps are
:func:`sweep` / :func:`sweep_campaign` here, or
``run_sharded_sweep`` / ``sharded_sweep_campaign`` from
:mod:`repro.runner`.

>>> from repro import api
>>> result = api.run_experiment("table1")
>>> outcome = api.sweep("demo", "pkg.mod:fn", "x", [1.0, 2.0],
...                     store="results.jsonl", jobs=4)
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator, Mapping, Sequence

from .runner.campaign import (
    Campaign,
    CampaignResult,
    registry_campaign,
    run_campaign as _run_campaign,
)
from .runner.monitor import ProgressMonitor
from .runner.sharding import (
    SweepColumns,
    collect_arrays,
    collect_points,
    run_sharded_sweep as _run_sharded_sweep,
    sharded_sweep_campaign,
)
from .runner.store import ResultStore
from .telemetry import TELEMETRY_ENV_VAR

__all__ = [
    "Campaign",
    "CampaignResult",
    "ProgressMonitor",
    "ResultStore",
    "SweepColumns",
    "collect_arrays",
    "collect_points",
    "open_store",
    "registry_campaign",
    "run_campaign",
    "run_experiment",
    "sweep",
    "sweep_campaign",
]

#: The stable alias of the sweep-campaign builder.
sweep_campaign = sharded_sweep_campaign


@contextlib.contextmanager
def _telemetry_override(telemetry: bool | None) -> Iterator[None]:
    """Temporarily force telemetry on/off for one facade call."""
    if telemetry is None:
        yield
        return
    previous = os.environ.get(TELEMETRY_ENV_VAR)
    os.environ[TELEMETRY_ENV_VAR] = "on" if telemetry else "off"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[TELEMETRY_ENV_VAR]
        else:
            os.environ[TELEMETRY_ENV_VAR] = previous


def open_store(
    store: str | os.PathLike[str], *, backend: str | None = None
) -> ResultStore:
    """Open (creating on first append) a persistent result store."""
    return ResultStore(store, backend=backend)


def run_experiment(experiment_id: str, **overrides: Any) -> Any:
    """Run one registry experiment; returns its ``ExperimentResult``."""
    from .experiments import run_experiment as _run

    return _run(experiment_id, **overrides)


def run_campaign(
    campaign: Campaign,
    *,
    store: str | os.PathLike[str] | None = None,
    backend: str | None = None,
    jobs: int = 1,
    telemetry: bool | None = None,
    **kwargs: Any,
) -> CampaignResult:
    """Execute a campaign (facade spelling of the engine keywords).

    With a ``store``, the cache warms only this campaign's own content
    keys (``cache_preload="specs"``, the default), however much else
    the store holds.  Extra keyword arguments pass straight through to
    :func:`repro.runner.campaign.run_campaign` (``monitor=``,
    ``strict=``, ``cache_preload=``, ``faults=``, ...).
    """
    with _telemetry_override(telemetry):
        return _run_campaign(
            campaign,
            jobs=jobs,
            store_path=os.fspath(store) if store is not None else None,
            store_backend=backend,
            **kwargs,
        )


def sweep(
    name: str,
    target: str,
    parameter: str,
    values: Sequence[Any] | Mapping[str, Any],
    *,
    store: str | os.PathLike[str],
    backend: str | None = None,
    jobs: int = 1,
    shards: int = 8,
    telemetry: bool | None = None,
    **kwargs: Any,
) -> CampaignResult:
    """Run one sharded parameter sweep against a persistent store.

    ``values`` is an explicit grid or a descriptor mapping
    (:func:`repro.runner.sharding.grid_descriptor`).  Extra keywords
    pass through to :func:`repro.runner.sharding.run_sharded_sweep`
    (``common=``, ``codec=``, ``flush_chunk=``, ``monitor=``, ...).
    """
    with _telemetry_override(telemetry):
        return _run_sharded_sweep(
            name,
            target,
            parameter,
            values,
            store_path=os.fspath(store),
            store_backend=backend,
            jobs=jobs,
            shards=shards,
            **kwargs,
        )

