"""The execution-backend protocol: submit / poll / collect / shutdown.

The scheduler (:func:`repro.runner.queue.run_jobs`) owns *policy* —
dependency order, retry budgets, backoff windows, caching, events —
and delegates *mechanism* to an :class:`ExecutionBackend`: where an
attempt runs, how its completion is observed, and how its loss is
detected.  Two implementations ship:

* :class:`~repro.runner.executors.serial.SerialExecutor` — in-process,
  one attempt at a time (the debugging baseline),
* :class:`~repro.runner.executors.pool.PoolExecutor` — a local
  ``ProcessPoolExecutor`` with broken-pool isolation and deadline
  eviction (refactored out of the old ``queue._run_pool`` path).

A backend reports each finished attempt as an :class:`AttemptOutcome`.
The ``status`` vocabulary is deliberately small:

========== ==========================================================
``ok``      the attempt produced a value
``error``   the attempt raised; ``error`` carries the text
``timeout`` the attempt outlived its wall-clock deadline
``lost``    the attempt's worker vanished (crash, broken pool, deadline
            eviction) before producing a result; a lost attempt is
            always requeued, whatever the retry budget (pool-break
            suspects must re-run in isolation even with zero retries —
            that is how the culprit is found)
========== ==========================================================

``charge`` says whether the attempt counts against the spec's retry
budget (an innocent evicted with its pool is refunded).  An attempt no
worker started is never reported: the backend reruns it itself.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from ...errors import ConfigurationError
from ...faults import fault_site
from ...telemetry import metrics, recorder, span
from ..jobs import JobSpec

#: The per-spec execution callable (same shape run_jobs always took).
ExecutorFn = Callable[[JobSpec], Any]

#: Environment variable selecting the default execution backend.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

KIND_SERIAL = "serial"
KIND_POOL = "pool"
EXECUTOR_KINDS = (KIND_SERIAL, KIND_POOL)

OUTCOME_OK = "ok"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_LOST = "lost"


class DeadlineExceeded(Exception):
    """An attempt outlived its wall-clock deadline."""

    def __init__(self, deadline_s: float):
        super().__init__(f"deadline exceeded ({deadline_s:g}s)")
        self.deadline_s = deadline_s


@dataclass(frozen=True)
class AttemptOutcome:
    """What one dispatched attempt came back as (see module docstring)."""

    ticket: str
    job_id: str
    attempt: int
    status: str
    value: Any = None
    error: str = ""
    duration_s: float = 0.0
    worker_pid: int = 0
    telemetry: Any = None
    #: Whether the attempt counts against the spec's retry budget.
    charge: bool = True


class ExecutionBackend(ABC):
    """Where attempts run.  One instance serves exactly one run."""

    name: str = "backend"

    @abstractmethod
    def capacity(self) -> int:
        """Most attempts the scheduler may hold submitted at once.

        It may exceed the attempts the backend can execute at once: the
        pool counts one attempt queued behind its workers.  An attempt
        that waits for a worker starts its deadline clock only when one
        is free for it, and a failure it took no part in never reports
        it.
        """

    @abstractmethod
    def submit(
        self, spec: JobSpec, attempt: int, deadline_s: float | None
    ) -> str:
        """Dispatch one attempt; returns an opaque ticket id."""

    @abstractmethod
    def poll(self, timeout: float | None) -> list[str]:
        """Tickets with an outcome ready to :meth:`collect`.

        Blocks up to ``timeout`` seconds (``None`` = until the backend's
        own next wake point) and may return an empty list — the
        scheduler loops.
        """

    @abstractmethod
    def collect(self, ticket: str) -> AttemptOutcome:
        """The outcome of one ready ticket (consumes it)."""

    @abstractmethod
    def shutdown(self) -> None:
        """Release every resource; the instance is finished."""


def run_one_attempt(
    spec: JobSpec, executor_fn: ExecutorFn, attempt: int = 0
) -> tuple[Any, float, int]:
    """Run one attempt in this process: ``(value, duration_s, pid)``.

    The ``queue.attempt`` fault site exposes ``"<job_id>#<attempt>"``
    as its job-id context: fault rules can target every attempt of a
    job (``"shard-3#*"``), or exactly one (``"shard-3#1"``) — the only
    trigger shape that stays deterministic across worker replacement,
    since per-rule ``nth`` counters are per-process and a crashed
    worker's replacement starts counting from zero.
    """
    fault_site("queue.attempt", f"{spec.job_id}#{attempt}")
    start = time.perf_counter()
    with span("job.execute", cat="queue", job_id=spec.job_id):
        value = executor_fn(spec)
    return value, time.perf_counter() - start, os.getpid()


def telemetry_marks() -> tuple[dict[str, Any], int]:
    """Worker-side pre-attempt marks for the piggyback delta."""
    return metrics().snapshot(), recorder().mark()


def telemetry_delta(
    marks: tuple[dict[str, Any], int]
) -> dict[str, Any] | None:
    """What this process recorded since ``marks`` (None when empty)."""
    snapshot, span_mark = marks
    delta = metrics().delta_since(snapshot)
    spans = recorder().delta_since(span_mark)
    if not (delta["counters"] or delta["histograms"] or spans):
        return None
    return {"metrics": delta, "spans": spans}


def resolve_executor_kind(choice: str | None, jobs: int) -> str:
    """The backend kind for one run: explicit > env > jobs count."""
    if choice is None:
        choice = os.environ.get(EXECUTOR_ENV_VAR, "").strip() or None
    if choice is None:
        return KIND_SERIAL if jobs == 1 else KIND_POOL
    if choice not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor {choice!r}; known: {EXECUTOR_KINDS}"
        )
    return choice


def make_executor(
    choice: str | None,
    *,
    jobs: int,
    executor_fn: ExecutorFn | None = None,
) -> ExecutionBackend:
    """Build the execution backend one run will schedule over.

    ``choice`` is a kind name (``"serial"`` / ``"pool"``) or ``None``
    to resolve from :data:`EXECUTOR_ENV_VAR` and the ``jobs`` count.
    """
    if executor_fn is None:
        from ..jobs import execute as executor_fn
    kind = resolve_executor_kind(choice, jobs)
    if kind == KIND_SERIAL:
        from .serial import SerialExecutor

        return SerialExecutor(executor_fn=executor_fn)
    from .pool import PoolExecutor

    return PoolExecutor(max(jobs, 1), executor_fn=executor_fn)
