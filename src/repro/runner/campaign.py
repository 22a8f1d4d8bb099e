"""Declarative campaigns: batches of experiments and sweeps as one run.

A :class:`Campaign` collects job specs through a small builder API —
registry experiments and importable callables — and
:func:`run_campaign` executes the whole batch through the scheduler
with an optional persistent store, returning a
:class:`CampaignResult` that renders a summary table and exposes every
job's headline scalars.

The acceptance contract of the engine: a campaign run with ``jobs=N``
produces headline scalars identical to serial execution, and an
immediate re-run against the same store resolves entirely from cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..errors import CampaignError, ConfigurationError
from .cache import ResultCache
from .jobs import (
    KIND_CALLABLE,
    KIND_EXPERIMENT,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    JobResult,
    JobSpec,
)
from .monitor import ProgressMonitor
from .queue import Observer, run_jobs
from .store import ResultStore


@dataclass
class Campaign:
    """A named, ordered batch of jobs built declaratively.

    Builder methods return ``self`` so campaigns chain::

        campaign = (
            Campaign("nightly")
            .experiment("table1")
            .experiment("fig2a")
            .call("grid", "repro.core.batch:break_even_curve",
                  rate_bps=[32_000.0, 1_024_000.0])
        )

    Parameter grids run as sharded campaigns
    (:func:`repro.runner.sharding.sharded_sweep_campaign`).
    """

    name: str = "campaign"
    specs: list[JobSpec] = field(default_factory=list)
    _ids: set[str] = field(
        init=False, repr=False, compare=False, default_factory=set
    )

    def __post_init__(self) -> None:
        self._ids = {spec.job_id for spec in self.specs}

    def _add(self, spec: JobSpec) -> "Campaign":
        if spec.job_id in self._ids:
            raise ConfigurationError(
                f"campaign {self.name!r} already has job {spec.job_id!r}"
            )
        self.specs.append(spec)
        self._ids.add(spec.job_id)
        return self

    def experiment(
        self,
        experiment_id: str,
        job_id: str | None = None,
        after: Sequence[str] = (),
        retries: int = 0,
        **overrides: Any,
    ) -> "Campaign":
        """Add one registry experiment (with optional kwarg overrides)."""
        return self._add(
            JobSpec(
                job_id=job_id or experiment_id,
                kind=KIND_EXPERIMENT,
                target=experiment_id,
                params=overrides,
                after=tuple(after),
                retries=retries,
            )
        )

    def call(
        self,
        job_id: str,
        target: str,
        after: Sequence[str] = (),
        retries: int = 0,
        **params: Any,
    ) -> "Campaign":
        """Add one importable ``"pkg.module:function"`` callable job."""
        return self._add(
            JobSpec(
                job_id=job_id,
                kind=KIND_CALLABLE,
                target=target,
                params=params,
                after=tuple(after),
                retries=retries,
            )
        )

    def job_ids(self) -> list[str]:
        """Ids in declaration order."""
        return [spec.job_id for spec in self.specs]


def registry_campaign(
    experiment_ids: Sequence[str] | None = None,
    name: str = "registry",
    retries: int = 0,
) -> Campaign:
    """A campaign over registry experiments (all of them by default)."""
    from ..experiments import list_experiments, validate_experiment_ids

    if experiment_ids is None:
        experiment_ids = [eid for eid, _ in list_experiments()]
    else:
        validate_experiment_ids(experiment_ids)
    campaign = Campaign(name)
    for experiment_id in experiment_ids:
        campaign.experiment(experiment_id, retries=retries)
    return campaign


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign run produced.

    Attributes
    ----------
    name:
        The campaign's name.
    results:
        Terminal :class:`~repro.runner.jobs.JobResult` per job id.
    order:
        Job ids in declaration order (summary rows keep this order).
    duration_s:
        Wall time of the whole run.
    cache_stats:
        Hit/miss/put counters of the cache used (empty without one).
    """

    name: str
    results: dict[str, JobResult]
    order: tuple[str, ...]
    duration_s: float
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every job succeeded (fresh or cached)."""
        return all(result.succeeded for result in self.results.values())

    @property
    def failures(self) -> tuple[str, ...]:
        """Ids of failed or skipped jobs, in declaration order."""
        return tuple(
            job_id
            for job_id in self.order
            if not self.results[job_id].succeeded
        )

    def status_counts(self) -> dict[str, int]:
        """How many jobs ended in each status."""
        counts: dict[str, int] = {}
        for result in self.results.values():
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def headlines(self) -> dict[str, dict[str, Any]]:
        """Headline scalars per succeeded job id, in declaration order.

        Identical whether a job ran serially, in parallel, or resolved
        from cache — this is the campaign's result of record.
        """
        return {
            job_id: self.results[job_id].headline()
            for job_id in self.order
            if self.results[job_id].succeeded
        }

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.CampaignError` if any job failed."""
        failures = self.failures
        if failures:
            details = "; ".join(
                f"{job_id}: {self.results[job_id].error}"
                for job_id in failures[:3]
            )
            raise CampaignError(
                f"campaign {self.name!r}: {len(failures)} of "
                f"{len(self.order)} jobs did not succeed ({details})",
                job_ids=failures,
            )

    def summary(self) -> str:
        """Aligned per-job summary table plus a totals line."""
        from ..analysis.tables import Table

        rows = []
        for job_id in self.order:
            result = self.results[job_id]
            detail = (
                result.error
                if result.error
                else f"{len(result.headline())} headline scalars"
            )
            rows.append(
                (
                    job_id,
                    result.status,
                    result.attempts,
                    f"{result.duration_s:.2f}",
                    detail,
                )
            )
        table = Table(
            title=f"Campaign {self.name!r}",
            headers=("job", "status", "attempts", "seconds", "detail"),
            rows=tuple(rows),
        )
        counts = self.status_counts()
        totals = ", ".join(
            f"{counts[status]} {status}"
            for status in (STATUS_OK, STATUS_CACHED, STATUS_FAILED,
                           STATUS_SKIPPED)
            if counts.get(status)
        )
        footer = (
            f"{len(self.order)} jobs: {totals} in {self.duration_s:.2f}s"
        )
        if self.cache_stats:
            footer += (
                f" (cache: {self.cache_stats.get('hits', 0)} hits, "
                f"{self.cache_stats.get('misses', 0)} misses)"
            )
        return table.render() + "\n\n" + footer


def run_campaign(
    campaign: Campaign,
    *,
    jobs: int = 1,
    store_path: str | None = None,
    store_backend: str | None = None,
    store: ResultStore | None = None,
    cache: ResultCache | None = None,
    cache_preload: str | None = None,
    observers: Sequence[Observer] = (),
    monitor: ProgressMonitor | None = None,
    strict: bool = False,
    run_id: str = "",
    backoff_seed: int | None = None,
    faults: Any = None,
    executor: Any = None,
) -> CampaignResult:
    """Execute a campaign and return its :class:`CampaignResult`.

    Parameters
    ----------
    jobs:
        Worker processes (``1`` = serial in-process).
    store_path / store:
        Persist results to a result store at this path (or use the
        given store); previously stored results resolve as cache hits,
        which makes interrupted or repeated campaigns resumable.
    store_backend:
        Persistence backend for ``store_path`` (``"jsonl"`` or
        ``"sqlite"``); ``None`` resolves automatically (existing format
        > ``REPRO_STORE_BACKEND`` > extension > jsonl).
    cache:
        Explicit cache instance (overrides store-derived caching).
    cache_preload:
        How the store-derived cache warms up: ``"specs"`` (the default,
        also spelled ``None``) preloads exactly this campaign's content
        keys, the only keys the scheduler looks up — a JSONL store
        skips every other record before verifying or decoding it, and
        SQLite answers one indexed ``get`` per key.  ``"all"`` preloads
        the store's whole latest-per-key view and ``"lazy"`` resolves
        keys on first lookup.
    observers, monitor:
        Extra scheduler observers; ``monitor`` is appended last so its
        counters see every event.
    strict:
        Raise :class:`~repro.errors.CampaignError` on any failure
        instead of returning a result with ``ok == False``.
    run_id:
        Event-stream identity, forwarded to
        :func:`~repro.runner.queue.run_jobs`: it stamps every published
        :class:`~repro.runner.events.Event`.
    backoff_seed:
        Seed for retry-backoff jitter, forwarded to
        :func:`~repro.runner.queue.run_jobs` (``None`` = entropy).
    faults:
        Optional fault-injection plan for the run (a
        :class:`~repro.faults.FaultPlan`, plan mapping, inline JSON,
        or plan-file path), forwarded to
        :func:`~repro.runner.queue.run_jobs`.
    executor:
        Execution backend choice forwarded to
        :func:`~repro.runner.queue.run_jobs`: ``None`` (resolve from
        ``REPRO_EXECUTOR`` then the ``jobs`` count), a kind name
        (``"serial"``/``"pool"``), or an
        :class:`~repro.runner.executors.ExecutionBackend` instance.
    """
    if store_path is not None and store is not None:
        raise ConfigurationError("pass either store_path or store, not both")
    if store_backend is not None and store_path is None:
        raise ConfigurationError(
            "store_backend needs store_path (a constructed store already "
            "carries its backend)"
        )
    if cache is not None and cache_preload is not None:
        raise ConfigurationError(
            "cache_preload configures the store-derived cache; an explicit "
            "cache already chose its preload"
        )
    if cache_preload not in (None, "all", "lazy", "specs"):
        raise ConfigurationError(
            f"unknown cache_preload {cache_preload!r} "
            "(expected 'all', 'lazy', or 'specs')"
        )
    owned_store: ResultStore | None = None
    if store_path is not None:
        store = owned_store = ResultStore(store_path, backend=store_backend)
    try:
        if cache is None and store is not None:
            if cache_preload in (None, "specs"):
                cache = ResultCache(
                    store, preload=[spec.key for spec in campaign.specs]
                )
            else:
                cache = ResultCache(store, preload=cache_preload)
        all_observers = list(observers)
        if monitor is not None:
            all_observers.append(monitor)
        start = time.perf_counter()
        results = run_jobs(
            campaign.specs,
            jobs=jobs,
            cache=cache,
            observers=all_observers,
            executor=executor,
            run_id=run_id,
            backoff_seed=backoff_seed,
            faults=faults,
        )
        outcome = CampaignResult(
            name=campaign.name,
            results=results,
            order=tuple(campaign.job_ids()),
            duration_s=time.perf_counter() - start,
            cache_stats=cache.stats() if cache is not None else {},
        )
    finally:
        # Close only the store this call opened; a caller-provided
        # store (or cache backing) stays the caller's to manage.
        if owned_store is not None:
            owned_store.close()
    if strict:
        outcome.raise_on_failure()
    return outcome


def headline_of(result: JobResult | Mapping[str, Any]) -> dict[str, Any]:
    """Headline scalars from a live result or a stored record."""
    if isinstance(result, JobResult):
        return result.headline()
    return JobResult.from_record(result).headline()
