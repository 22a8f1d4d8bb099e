"""Process-pool execution backend with broken-pool isolation.

The shared pool holds one attempt beyond its workers
(:meth:`PoolExecutor.capacity`), the same one-call slack CPython's own
executor keeps: a worker that finishes an attempt starts the next one
at once, while the parent unpickles, persists and announces the last.
Workers take attempts in submission order, so of a pool's unfinished
attempts only the first ``max_workers`` can have started; any later
one is *queued*, and no worker has touched it.

A worker dying hard (segfault, OOM kill) breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`, which poisons every
pending future with :class:`BrokenProcessPool` — the culprit is
indistinguishable from innocent co-flying jobs.  On breakage every
started attempt is reported *lost* (charged; the scheduler requeues
every lost attempt) and its job marked a **suspect**: the next time
the scheduler submits it, it runs alone on a fresh single-worker pool,
where a broken pool can only mean this job killed its worker (a
certain verdict, charged as an ordinary error).  A queued attempt
cannot have killed anyone: it moves to the replacement pool unseen,
under the same ticket and attempt number, with no ``lost`` outcome and
no charge.  Once a suspect is known the queued slot is withheld, so a
suspect's solo run never lifts the executing attempts past
``max_workers``.

Deadlines: an attempt's clock starts when a worker is free for it, so
time spent queued never eats its window.  Workers cannot be
interrupted individually, so an expired running attempt evicts its
whole pool (:func:`abandon_pool`); the expired attempt is reported as
a timeout (charged), started co-flyers as uncharged losses, and an
attempt no worker started — queued, or still cancellable — moves to
the replacement pool unseen.
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

#: Error text for started attempts when the shared pool breaks.
BROKEN_POOL_ERROR = "worker process died (pool broken); isolating"
#: Error text when a job breaks its own single-worker pool.
SOLO_BREAK_ERROR = "worker process died (job killed its worker)"
#: Error text for started innocents evicted alongside an expired attempt.
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
    deadline_s: float | None
    #: When the deadline expires; set once a worker is free for it.
    cutoff: float | None = None


class PoolExecutor(ExecutionBackend):
    """Local process-pool backend (see module docstring)."""

    name = "pool"

    def __init__(
        self, max_workers: int, *, executor_fn: ExecutorFn = execute
    ):
        self._max_workers = max(1, int(max_workers))
        self._fn = executor_fn
        self._main: ProcessPoolExecutor | None = None
        #: Unfinished tickets in submission order, the order in which a
        #: pool's workers take them (a moved ticket keeps its place).
        self._tickets: dict[str, _Ticket] = {}
        self._ready: dict[str, AttemptOutcome] = {}
        self._suspects: set[str] = set()
        self._seq = 0

    def capacity(self) -> int:
        """The workers, plus one queued attempt while no suspect is known.

        A suspect may be resubmitted at any later time and then runs on
        its own worker, so from the first suspect on only the workers
        count: the executing attempts never exceed ``max_workers``.  A
        break first seen by :meth:`submit` lowers it in the middle of a
        dispatch pass; the scheduler still counts the suspects' lost
        tickets until it collects them, so its earlier reading cannot
        overfill the pool.
        """
        if self._suspects:
            return self._max_workers
        return self._max_workers + 1

    # -- dispatch ----------------------------------------------------------

    def _main_pool(self) -> ProcessPoolExecutor:
        if self._main is None:
            self._main = make_pool(self._max_workers)
        return self._main

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
        pool = make_pool(1) if solo else self._main_pool()
        try:
            future = self._submit_to(pool, spec, attempt)
        except BrokenProcessPool:
            # Only the shared pool can already be broken: a worker died
            # since the last poll.  Account its tickets like any break,
            # then submit beside any attempt it moved to the replacement.
            self._handle_break(pool)
            pool = self._main_pool()
            future = self._submit_to(pool, spec, attempt)
        self._tickets[ticket] = _Ticket(
            spec, attempt, future, pool, solo, deadline_s
        )
        self._start_clocks()
        return ticket

    def _on(self, pool: ProcessPoolExecutor) -> list[str]:
        """The tickets on ``pool``, in submission order."""
        return [
            tid for tid, ticket in self._tickets.items()
            if ticket.pool is pool
        ]

    def _move(self, tid: str) -> None:
        """Resubmit an attempt no worker started to a fresh pool, unseen."""
        ticket = self._tickets[tid]
        ticket.pool = make_pool(1) if ticket.solo else self._main_pool()
        ticket.future = self._submit_to(
            ticket.pool, ticket.spec, ticket.attempt
        )
        ticket.cutoff = None

    def _start_clocks(self) -> None:
        """Start the deadline clock of each attempt a worker is free for."""
        now = time.monotonic()
        for pool in {ticket.pool for ticket in self._tickets.values()}:
            for tid in self._on(pool)[: self._max_workers]:
                ticket = self._tickets[tid]
                if ticket.cutoff is None and ticket.deadline_s is not None:
                    ticket.cutoff = now + ticket.deadline_s

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
        self._start_clocks()
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

    def _settled(self, tid: str) -> AttemptOutcome | None:
        """The job's own outcome if its future holds one, else ``None``.

        ``None`` covers a future still pending, cancelled, or poisoned
        by its pool's break.
        """
        ticket = self._tickets[tid]
        try:
            value, duration, pid, telemetry = ticket.future.result(
                timeout=0
            )
        except (BrokenProcessPool, FutureTimeout, CancelledError):
            return None
        except Exception as error:  # noqa: BLE001 - jobs may raise anything
            return AttemptOutcome(
                tid, ticket.spec.job_id, ticket.attempt, OUTCOME_ERROR,
                error=f"{type(error).__name__}: {error}",
            )
        return AttemptOutcome(
            tid, ticket.spec.job_id, ticket.attempt, OUTCOME_OK,
            value=value, duration_s=duration, worker_pid=pid,
            telemetry=telemetry,
        )

    def _harvest(self, tid: str) -> None:
        """Turn a completed future into an outcome (idempotent)."""
        ticket = self._tickets.get(tid)
        if ticket is None or not ticket.future.done():
            return  # finished by a break/eviction handler, or pending
        outcome = self._settled(tid)
        if outcome is not None:
            self._finish(tid, outcome)
        elif not ticket.future.cancelled():
            self._handle_break(ticket.pool)

    # -- failure handling --------------------------------------------------

    def _handle_break(self, pool: ProcessPoolExecutor) -> None:
        """Account every ticket on a broken pool, then abandon it.

        Attempts that finished before the break keep their outcomes.  Of
        the rest, in submission order, the first ``max_workers`` may
        have been executing.  On the shared pool they are the suspects
        (charged, marked for isolation); alone on a solo pool, the one
        attempt is the culprit.  Any later attempt was still queued: it
        moves to the replacement pool unseen.
        """
        if pool is self._main:
            self._main = None
        lost: list[str] = []
        for tid in self._on(pool):
            outcome = self._settled(tid)
            if outcome is None:
                lost.append(tid)
            else:
                self._finish(tid, outcome)
        abandon_pool(pool)
        for tid in lost[: self._max_workers]:
            ticket = self._tickets[tid]
            metrics().count("executor.workers.lost")
            if ticket.solo:
                # Alone on a one-worker pool, a break has one explanation.
                outcome = AttemptOutcome(
                    tid, ticket.spec.job_id, ticket.attempt,
                    OUTCOME_ERROR, error=SOLO_BREAK_ERROR,
                )
            else:
                self._suspects.add(ticket.spec.job_id)
                outcome = AttemptOutcome(
                    tid, ticket.spec.job_id, ticket.attempt,
                    OUTCOME_LOST, error=BROKEN_POOL_ERROR, charge=True,
                )
            self._finish(tid, outcome)
        for tid in lost[self._max_workers:]:
            self._move(tid)

    def _evict_overdue(self) -> None:
        """Replace pools holding expired attempts.

        On each such pool, attempts that finished keep their outcomes.
        Of the rest, in submission order, the first ``max_workers`` may
        be executing: an expired one is reported as a timeout
        (charged), any other as an innocent evicted with its pool (an
        uncharged loss).  An attempt no worker started — queued behind
        them, or still cancellable — moves to the replacement pool
        unseen.
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
        for pool in {self._tickets[tid].pool for tid in overdue}:
            for tid in self._on(pool):
                self._harvest(tid)  # finished before the axe fell?
            members = self._on(pool)
            if overdue.isdisjoint(members):
                continue  # finished in time, or a break accounted for them
            unstarted: list[str] = []
            for position, tid in enumerate(members):
                ticket = self._tickets[tid]
                if position >= self._max_workers or ticket.future.cancel():
                    unstarted.append(tid)
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
            for tid in unstarted:
                self._move(tid)

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
