"""Pluggable execution backends for the job scheduler.

The scheduler in :mod:`repro.runner.queue` owns policy (order, retry
budgets, backoff, caching, events); the backends here own mechanism —
where an attempt runs and how its loss is detected.  Two ship:
:class:`SerialExecutor` (in-process) and :class:`PoolExecutor` (a
local process pool).  See :mod:`repro.runner.executors.base` for the
protocol and :func:`make_executor` for resolution (explicit choice >
``REPRO_EXECUTOR`` > jobs count).
"""

from __future__ import annotations

from ..._lazy import lazy_exports

#: Module (relative to this package) -> the public names it defines.
_EXPORTS: dict[str, tuple[str, ...] | None] = {
    ".base": (
        "EXECUTOR_ENV_VAR",
        "EXECUTOR_KINDS",
        "KIND_POOL",
        "KIND_SERIAL",
        "OUTCOME_ERROR",
        "OUTCOME_LOST",
        "OUTCOME_OK",
        "OUTCOME_TIMEOUT",
        "AttemptOutcome",
        "DeadlineExceeded",
        "ExecutionBackend",
        "ExecutorFn",
        "make_executor",
        "resolve_executor_kind",
        "run_one_attempt",
    ),
    ".pool": ("PoolExecutor",),
    ".serial": ("SerialExecutor",),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), _EXPORTS)
