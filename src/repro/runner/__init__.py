"""Campaign orchestration engine: parallel, cached, resumable runs.

The runner executes batches of experiments and parameter grids across a
process pool with dependency ordering, retry-on-failure,
content-addressed memoization, and a persistent JSONL result store:

* :mod:`~repro.runner.jobs` — :class:`JobSpec`/:class:`JobResult` with
  deterministic content-hash keys,
* :mod:`~repro.runner.events` — the versioned event protocol
  (:class:`Event`, :class:`EventBus`) every layer publishes on,
* :mod:`~repro.runner.queue` — the dependency-aware scheduler
  (:func:`run_jobs`),
* :mod:`~repro.runner.executors` — pluggable execution backends
  (serial / process pool),
* :mod:`~repro.runner.cache` — content-addressed memoization with
  provenance-stamp invalidation,
* :mod:`~repro.runner.store` — the persistent, resumable result store,
* :mod:`~repro.runner.backends` — pluggable store persistence
  (append-only JSONL, indexed WAL-mode SQLite),
* :mod:`~repro.runner.provenance` — version + config-hash stamps that
  detect results produced by older model code,
* :mod:`~repro.runner.campaign` — the declarative high-level API,
* :mod:`~repro.runner.sharding` — million-point sweeps as sharded,
  resumable campaigns over the batch-evaluation fast paths,
* :mod:`~repro.runner.monitor` — progress hooks in the
  :mod:`repro.sim.monitor` idiom.

Quickstart::

    from repro.runner import registry_campaign, run_campaign

    result = run_campaign(
        registry_campaign(),          # every registered experiment
        jobs=4,                       # across four worker processes
        store_path="results.jsonl",   # re-runs resolve from cache
    )
    print(result.summary())
"""

from __future__ import annotations

from .._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".backends": (
        "BACKENDS",
        "BACKEND_ENV_VAR",
        "JsonlBackend",
        "SqliteBackend",
        "StoreBackend",
    ),
    ".cache": ("ResultCache",),
    ".campaign": (
        "Campaign",
        "CampaignResult",
        "registry_campaign",
        "run_campaign",
    ),
    ".codec": ("CODEC_COLUMNAR", "STORAGE_FORMAT"),
    ".events": (
        "EVENT_LOST",
        "EVENT_REQUEUED",
        "EVENT_SCHEMA",
        "TERMINAL_EVENTS",
        "Event",
        "EventBus",
        "event_from_json",
        "event_to_json",
    ),
    ".executors": (
        "EXECUTOR_ENV_VAR",
        "EXECUTOR_KINDS",
        "ExecutionBackend",
        "PoolExecutor",
        "SerialExecutor",
        "make_executor",
    ),
    ".jobs": (
        "STATUS_CACHED",
        "STATUS_FAILED",
        "STATUS_OK",
        "STATUS_SKIPPED",
        "JobResult",
        "JobSpec",
        "content_key",
    ),
    ".monitor": ("ProgressMonitor",),
    ".provenance": ("config_content_hash", "provenance_stamp"),
    ".queue": ("JobEvent", "run_jobs", "topological_order"),
    ".sharding": (
        "SweepColumns",
        "collect_arrays",
        "grid_descriptor",
        "run_sharded_sweep",
        "shard_grid",
        "sharded_sweep_campaign",
    ),
    ".store": ("ResultStore", "migrate_store"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
