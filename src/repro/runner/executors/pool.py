"""Process-pool execution backend with broken-pool isolation.

The mechanism half of what ``queue.py``'s ``_run_pool``/``_batch_round``
used to be.  A worker dying hard (segfault, OOM kill) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`, which poisons every
in-flight future with :class:`BrokenProcessPool` — the culprit is
indistinguishable from innocent co-flying jobs.  On breakage every
in-flight attempt is reported *lost* (charged; the scheduler requeues
every lost attempt) and its job marked a **suspect**: the next time
the scheduler submits it, it runs alone on a fresh single-worker pool,
where a broken pool can only mean this job killed its worker (a
certain verdict, charged as an ordinary error).  Attempts that were
submitted but never picked up by a worker are requeued *uncharged*
and are not suspects — they cannot have killed anyone.

Deadlines: a ticket's clock starts at submission.  Workers cannot be
interrupted individually, so an expired running attempt evicts its
whole pool (:func:`abandon_pool`); the expired attempt is reported as
a timeout (charged), innocent co-flyers as uncharged losses.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from ...telemetry import metrics
from ..jobs import KIND_EXPERIMENT, JobSpec, execute
from .base import (
    OUTCOME_ERROR,
    OUTCOME_LOST,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    ExecutionBackend,
    ExecutorFn,
    run_one_attempt,
    telemetry_delta,
    telemetry_marks,
)

#: Error text for in-flight suspects when the shared pool breaks.
BROKEN_POOL_ERROR = "worker process died (pool broken); isolating"
#: Error text when a job breaks its own single-worker pool.
SOLO_BREAK_ERROR = "worker process died (job killed its worker)"
#: Error text for submitted-but-never-started attempts on a dead pool.
QUEUED_BEHIND_ERROR = (
    "worker process died (pool broken); queued job requeued"
)
#: Error text for a future cancelled before any worker picked it up.
NEVER_STARTED_ERROR = (
    "pool replaced before the attempt started; requeued"
)
#: Error text for innocents evicted alongside an expired attempt.
EVICTED_ERROR = "pool replaced (deadline eviction); requeued"


def pool_attempt(
    spec: JobSpec, attempt: int = 0
) -> tuple[Any, float, int, Any]:
    """Module-level worker entry point (picklable by reference).

    Returns ``(value, duration_s, pid, telemetry)`` — the fourth slot
    carries the worker's metrics/spans delta for this attempt, merged
    into the parent's registries when the result resolves.
    """
    marks = telemetry_marks()
    value, duration, pid = run_one_attempt(spec, execute, attempt)
    return value, duration, pid, telemetry_delta(marks)


def pool_custom_attempt(
    spec: JobSpec, executor_fn: ExecutorFn, attempt: int = 0
) -> tuple[Any, float, int, Any]:
    """Worker entry point for a custom (picklable) executor."""
    marks = telemetry_marks()
    value, duration, pid = run_one_attempt(spec, executor_fn, attempt)
    return value, duration, pid, telemetry_delta(marks)


def warm_worker() -> None:
    """Process-pool initializer: build the reference models once.

    Runs in each worker before its first job so sweep shards start
    computing immediately instead of rebuilding the Table I config and
    model stack per call.  Warmup is best-effort — a failure here must
    never poison the pool, the job itself will surface any real error.
    """
    try:
        from ...core.batch import warm_reference_models

        warm_reference_models()
    except Exception:  # noqa: BLE001 - warmup is strictly best-effort
        pass


def make_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers pre-build the reference models.

    The workers fork at the pool's first submit.  The parent imports the
    model core before then, so every worker inherits it instead of
    importing numpy and the models in :func:`warm_worker`.  A command
    that never builds a pool (a fully cached campaign) never pays for
    the import.
    """
    from ...core import batch  # noqa: F401

    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=warm_worker
    )


def abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for hung workers.

    ``ProcessPoolExecutor`` has no per-task cancellation once a worker
    is executing, so an expired deadline means replacing the pool:
    terminate every worker (hung ones included — that is the point),
    then shut down without blocking.  The executor machinery treats
    the terminations like any other abrupt worker death and unwinds
    cleanly; a later ``shutdown(wait=True)`` from a context manager
    only joins already-dead processes.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Ticket:
    spec: JobSpec
    attempt: int
    future: Future
    pool: ProcessPoolExecutor
    solo: bool
    cutoff: float | None
    order: int


class PoolExecutor(ExecutionBackend):
    """Local process-pool backend (see module docstring)."""

    name = "pool"

    def __init__(
        self, max_workers: int, *, executor_fn: ExecutorFn = execute
    ):
        self._max_workers = max(1, int(max_workers))
        self._fn = executor_fn
        self._main: ProcessPoolExecutor | None = None
        self._tickets: dict[str, _Ticket] = {}
        self._ready: dict[str, AttemptOutcome] = {}
        self._suspects: set[str] = set()
        self._seq = 0

    def capacity(self) -> int:
        return self._max_workers

    # -- dispatch ----------------------------------------------------------

    def _submit_to(
        self, pool: ProcessPoolExecutor, spec: JobSpec, attempt: int
    ) -> Future:
        if self._fn is execute:
            return pool.submit(pool_attempt, spec, attempt)
        return pool.submit(pool_custom_attempt, spec, self._fn, attempt)

    def submit(
        self, spec: JobSpec, attempt: int, deadline_s: float | None
    ) -> str:
        if spec.kind == KIND_EXPERIMENT:
            # Like the model core in make_pool: imported before a pool
            # forks, the registry is inherited by its workers.  Only
            # experiment jobs need it; a sweep's shards do not.
            from ...experiments import registry  # noqa: F401
        self._seq += 1
        ticket = f"p{self._seq}"
        solo = spec.job_id in self._suspects
        if solo:
            pool = make_pool(1)
        else:
            if self._main is None:
                self._main = make_pool(self._max_workers)
            pool = self._main
        try:
            future = self._submit_to(pool, spec, attempt)
        except BrokenProcessPool:
            # Only the shared pool can already be broken: a worker died
            # since the last poll.  Account its tickets like any break,
            # then submit to a fresh pool.
            self._handle_break(pool)
            pool = self._main = make_pool(self._max_workers)
            future = self._submit_to(pool, spec, attempt)
        cutoff = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        self._tickets[ticket] = _Ticket(
            spec, attempt, future, pool, solo, cutoff, self._seq
        )
        return ticket

    # -- completion --------------------------------------------------------

    def poll(self, timeout: float | None) -> list[str]:
        if self._ready:
            return list(self._ready)
        waitable = {
            ticket.future: tid for tid, ticket in self._tickets.items()
        }
        if not waitable:
            return []
        bound = timeout
        cutoffs = [
            ticket.cutoff
            for ticket in self._tickets.values()
            if ticket.cutoff is not None
        ]
        if cutoffs:
            until = max(0.0, min(cutoffs) - time.monotonic())
            bound = until if bound is None else min(bound, until)
        done, _ = wait(
            list(waitable), timeout=bound, return_when=FIRST_COMPLETED
        )
        for future in done:
            self._harvest(waitable[future])
        self._evict_overdue()
        return list(self._ready)

    def collect(self, ticket: str) -> AttemptOutcome:
        return self._ready.pop(ticket)

    def _finish(self, tid: str, outcome: AttemptOutcome) -> None:
        ticket = self._tickets.pop(tid)
        self._ready[tid] = outcome
        if ticket.solo and outcome.status in (OUTCOME_OK, OUTCOME_ERROR):
            # A healthy solo pool is single-use; broken/evicted solo
            # pools are abandoned by their handlers instead.
            if outcome.error != SOLO_BREAK_ERROR:
                ticket.pool.shutdown(wait=True)

    def _harvest(self, tid: str) -> None:
        """Turn one completed future into an outcome (idempotent)."""
        ticket = self._tickets.get(tid)
        if ticket is None:
            return  # already finished by a break/eviction handler
        try:
            value, duration, pid, telemetry = ticket.future.result(
                timeout=0
            )
        except BrokenProcessPool:
            self._handle_break(ticket.pool)
            return
        except (FutureTimeout, CancelledError):
            return  # not actually done; eviction will account for it
        except Exception as error:  # noqa: BLE001 - jobs may raise anything
            self._finish(
                tid,
                AttemptOutcome(
                    tid, ticket.spec.job_id, ticket.attempt, OUTCOME_ERROR,
                    error=f"{type(error).__name__}: {error}",
                ),
            )
            return
        self._finish(
            tid,
            AttemptOutcome(
                tid, ticket.spec.job_id, ticket.attempt, OUTCOME_OK,
                value=value, duration_s=duration, worker_pid=pid,
                telemetry=telemetry,
            ),
        )

    # -- failure handling --------------------------------------------------

    def _handle_break(self, pool: ProcessPoolExecutor) -> None:
        """Account every ticket on a broken pool, then abandon it.

        On the shared pool, at most ``max_workers`` attempts can have
        been executing when it broke — in submission order, those are
        the suspects (charged, marked for isolation).  Later tickets
        were still queued behind them: requeued uncharged, innocent.
        """
        members = sorted(
            (
                tid
                for tid, ticket in self._tickets.items()
                if ticket.pool is pool
            ),
            key=lambda tid: self._tickets[tid].order,
        )
        main = pool is self._main
        if main:
            self._main = None
        lost: list[str] = []
        for tid in members:
            ticket = self._tickets[tid]
            try:
                value, duration, pid, telemetry = ticket.future.result(
                    timeout=0
                )
            except (BrokenProcessPool, FutureTimeout, CancelledError):
                lost.append(tid)
            except Exception as error:  # noqa: BLE001
                self._finish(
                    tid,
                    AttemptOutcome(
                        tid, ticket.spec.job_id, ticket.attempt,
                        OUTCOME_ERROR,
                        error=f"{type(error).__name__}: {error}",
                    ),
                )
            else:
                self._finish(
                    tid,
                    AttemptOutcome(
                        tid, ticket.spec.job_id, ticket.attempt, OUTCOME_OK,
                        value=value, duration_s=duration, worker_pid=pid,
                        telemetry=telemetry,
                    ),
                )
        if not main:
            # Alone on a one-worker pool, a break has one explanation.
            for tid in lost:
                ticket = self._tickets[tid]
                metrics().count("executor.workers.lost")
                self._finish(
                    tid,
                    AttemptOutcome(
                        tid, ticket.spec.job_id, ticket.attempt,
                        OUTCOME_ERROR, error=SOLO_BREAK_ERROR,
                    ),
                )
        else:
            suspects = lost[: self._max_workers]
            queued_behind = lost[self._max_workers:]
            for tid in suspects:
                ticket = self._tickets[tid]
                self._suspects.add(ticket.spec.job_id)
                metrics().count("executor.workers.lost")
                self._finish(
                    tid,
                    AttemptOutcome(
                        tid, ticket.spec.job_id, ticket.attempt,
                        OUTCOME_LOST, error=BROKEN_POOL_ERROR,
                        charge=True,
                    ),
                )
            for tid in queued_behind:
                ticket = self._tickets[tid]
                self._finish(
                    tid,
                    AttemptOutcome(
                        tid, ticket.spec.job_id, ticket.attempt,
                        OUTCOME_LOST, error=QUEUED_BEHIND_ERROR,
                        charge=False,
                    ),
                )
        abandon_pool(pool)

    def _evict_overdue(self) -> None:
        """Replace pools holding expired attempts.

        Three populations, three treatments (matching the scheduler's
        historical semantics):

        * an overdue future the pool never *started* is cancelled and
          reported as an uncharged loss (queue wait ate the window —
          an undersized pool, not a hung job),
        * an overdue *running* attempt is reported as a timeout
          (charged),
        * innocent in-flight jobs lose their worker with the pool;
          they are reported as uncharged losses.
        """
        now = time.monotonic()
        overdue = {
            tid
            for tid, ticket in self._tickets.items()
            if ticket.cutoff is not None
            and now >= ticket.cutoff
            and not ticket.future.done()
        }
        if not overdue:
            return
        pools = {self._tickets[tid].pool for tid in overdue}
        for pool in pools:
            members = sorted(
                (
                    tid
                    for tid, ticket in self._tickets.items()
                    if ticket.pool is pool
                ),
                key=lambda tid: self._tickets[tid].order,
            )
            for tid in members:
                ticket = self._tickets[tid]
                if ticket.future.done():
                    self._harvest(tid)  # finished before the axe fell
                    continue
                if ticket.future.cancel():
                    self._finish(
                        tid,
                        AttemptOutcome(
                            tid, ticket.spec.job_id, ticket.attempt,
                            OUTCOME_LOST, error=NEVER_STARTED_ERROR,
                            charge=False,
                        ),
                    )
                elif tid in overdue:
                    self._finish(
                        tid,
                        AttemptOutcome(
                            tid, ticket.spec.job_id, ticket.attempt,
                            OUTCOME_TIMEOUT,
                        ),
                    )
                else:
                    self._finish(
                        tid,
                        AttemptOutcome(
                            tid, ticket.spec.job_id, ticket.attempt,
                            OUTCOME_LOST, error=EVICTED_ERROR,
                            charge=False,
                        ),
                    )
            if pool is self._main:
                self._main = None
            abandon_pool(pool)

    # -- teardown ----------------------------------------------------------

    def shutdown(self) -> None:
        leftovers = {
            ticket.pool for ticket in self._tickets.values()
        }
        self._tickets.clear()
        self._ready.clear()
        self._suspects.clear()
        for pool in leftovers:
            abandon_pool(pool)
        if self._main is not None and self._main not in leftovers:
            self._main.shutdown(wait=True)
        self._main = None
