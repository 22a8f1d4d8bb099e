"""Dependency-aware job scheduler over pluggable execution backends.

:func:`run_jobs` takes a batch of :class:`~repro.runner.jobs.JobSpec`
and executes them respecting ``after`` dependencies, retrying failures
up to each spec's budget, consulting an optional content-addressed
cache, and emitting :class:`JobEvent` notifications to observers.

The scheduler owns *policy* — topological order, retry budgets,
full-jitter backoff, deadlines, caching, events — and delegates
*mechanism* to an :class:`~repro.runner.executors.ExecutionBackend`
(``submit / poll / collect / shutdown``):

* ``serial`` — in this process, one attempt at a time (default for
  ``jobs=1``; no pickling, easiest to debug),
* ``pool`` — a local :class:`~concurrent.futures.ProcessPoolExecutor`
  with broken-pool isolation and deadline eviction (default for
  ``jobs > 1``).

One loop drives every backend through that protocol.  It takes ready
jobs in the stable topological order of the specs, from a heap fed by
per-job dependency counts, and hands each to the backend while it has
a free slot; skips and cache hits resolve only then too.  So both
backends produce the same results, a parallel campaign is a faithful —
bit-identical — replay of the serial one, and the serial backend's one
slot makes each job's events follow the previous job's end.  Each job
is looked up in the cache once, before its first attempt; a duplicate
of a content key that is executing waits for that job to resolve, then
resolves as ``cached``.  A backend reporting an attempt *lost* (worker
crash, broken pool, deadline eviction) emits ``lost``/``requeued``
events and the job re-runs — worker death is a recoverable event, not
a run-fatal one.

Resilience: every attempt may carry a wall-clock **deadline**
(``JobSpec.deadline_s``, or the ``REPRO_JOB_DEADLINE_S`` environment
default) — an attempt that outlives it is abandoned, emits a
``timeout`` event, and is charged against the retry budget, so one
hung job can never wedge a campaign.  Its retry starts at once, since
the hung attempt already waited out its deadline; a retry after an
error waits an exponentially growing, fully jittered **backoff**
(``JobSpec.retry_backoff_s``), seedable per run for deterministic
tests, while later ready jobs run.  The scheduler also hosts the
``queue.attempt`` fault-injection site (:mod:`repro.faults`):
``run_jobs(..., faults=...)`` activates a plan for the run, exported
to worker processes through the environment.

Events travel over the :class:`~repro.runner.events.EventBus`: every
run publishes a stamped :class:`~repro.runner.events.Event` stream
(sequence numbers, timestamps, run id) and observers are just bus
subscribers.  Telemetry rides the same machinery in reverse — workers
record metrics/spans into their own process-global registries and ship
the delta back piggybacked on the attempt outcome, which
:meth:`_Run.resolve` merges into the parent's registries, so a
parallel campaign aggregates observability without extra IPC.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError
from ..faults import (
    FaultPlan,
    active_faults,
    coerce_plan,
    faults_active,
)
from ..telemetry import metrics, recorder
from .cache import ResultCache
from .events import (
    EVENT_CACHED,
    EVENT_FAILED,
    EVENT_FINISHED,
    EVENT_LOST,
    EVENT_REQUEUED,
    EVENT_RETRY,
    EVENT_SCHEDULED,
    EVENT_SKIPPED,
    EVENT_STARTED,
    EVENT_TIMEOUT,
    Event,
    EventBus,
    JobEvent,
)
from .executors.base import (
    OUTCOME_LOST,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    ExecutionBackend,
    make_executor,
)
from .jobs import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    JobResult,
    JobSpec,
    execute,
)

__all__ = [
    "EVENT_CACHED",
    "EVENT_FAILED",
    "EVENT_FINISHED",
    "EVENT_LOST",
    "EVENT_REQUEUED",
    "EVENT_RETRY",
    "EVENT_SCHEDULED",
    "EVENT_SKIPPED",
    "EVENT_STARTED",
    "EVENT_TIMEOUT",
    "Event",
    "EventBus",
    "Executor",
    "JobEvent",
    "Observer",
    "run_jobs",
    "topological_order",
]

Observer = Callable[["JobEvent"], None]
Executor = Callable[[JobSpec], Any]

#: Environment variable supplying a default per-attempt deadline for
#: specs that set none (``JobSpec.deadline_s`` wins when present).
DEADLINE_ENV_VAR = "REPRO_JOB_DEADLINE_S"

#: Ceiling on any single jittered backoff delay, seconds.
BACKOFF_CAP_S = 30.0


def _env_deadline() -> float | None:
    """The :data:`DEADLINE_ENV_VAR` default deadline, validated."""
    raw = os.environ.get(DEADLINE_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{DEADLINE_ENV_VAR} must be a number of seconds, got {raw!r}"
        ) from None
    if not value > 0:
        raise ConfigurationError(
            f"{DEADLINE_ENV_VAR} must be positive, got {raw!r}"
        )
    return value


def _backoff_delay(
    spec: JobSpec, attempt: int, rng: random.Random
) -> float:
    """Full-jitter exponential backoff before retrying ``spec``.

    ``attempt`` is the 1-based attempt that just failed; the delay is
    uniform in ``[0, min(cap, base * 2**(attempt-1))]`` — the classic
    "full jitter" scheme, which decorrelates retry storms better than
    equal or decorrelated jitter at the same mean delay.
    """
    base = spec.retry_backoff_s
    if base <= 0:
        return 0.0
    ceiling = min(BACKOFF_CAP_S, base * (2.0 ** (attempt - 1)))
    return rng.uniform(0.0, ceiling)


def topological_order(specs: Sequence[JobSpec]) -> list[JobSpec]:
    """Stable topological order of ``specs`` by their ``after`` edges.

    Raises :class:`~repro.errors.ConfigurationError` on duplicate ids,
    unknown dependencies, or cycles.  Stability: among ready jobs, the
    original sequence order is preserved (Kahn's algorithm with a
    FIFO ready list).
    """
    by_id: dict[str, JobSpec] = {}
    for spec in specs:
        if spec.job_id in by_id:
            raise ConfigurationError(f"duplicate job id {spec.job_id!r}")
        by_id[spec.job_id] = spec
    dependents: dict[str, list[str]] = {spec.job_id: [] for spec in specs}
    missing: dict[str, int] = {}
    for spec in specs:
        for dep in spec.after:
            if dep not in by_id:
                raise ConfigurationError(
                    f"job {spec.job_id!r} depends on unknown job {dep!r}"
                )
            dependents[dep].append(spec.job_id)
        missing[spec.job_id] = len(spec.after)
    ready = [spec.job_id for spec in specs if missing[spec.job_id] == 0]
    order: list[JobSpec] = []
    cursor = 0
    while cursor < len(ready):
        job_id = ready[cursor]
        cursor += 1
        order.append(by_id[job_id])
        for dependent in dependents[job_id]:
            missing[dependent] -= 1
            if missing[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(specs):
        cyclic = sorted(set(by_id) - {spec.job_id for spec in order})
        raise ConfigurationError(
            f"dependency cycle among jobs: {', '.join(cyclic)}"
        )
    return order


class _Run:
    """Shared bookkeeping for one :func:`run_jobs` invocation.

    It also holds the run's queues.  :attr:`ready` is a heap of the
    topological indices of the jobs that may be taken now.  A job enters
    it when its last dependency resolves (the counts in :attr:`blocked`),
    when an attempt is retried or requeued, or when a wait ends.  Two
    waits keep a job out of it: a retry's backoff window
    (:attr:`backoff`), and a duplicate's wait for the job that holds the
    same content key (:attr:`waiting`).
    """

    def __init__(
        self,
        specs: Sequence[JobSpec],
        cache: ResultCache | None,
        observers: Sequence[Observer],
        run_id: str = "",
        backoff_seed: int | None = None,
    ):
        self.order = topological_order(specs)
        self.default_deadline = _env_deadline()
        #: One rng for every backoff draw in the run: seeded, the whole
        #: retry schedule is reproducible; unseeded, delays decorrelate
        #: across concurrent campaigns (what production wants).
        self.backoff_rng = random.Random(backoff_seed)
        self.index = {spec.job_id: i for i, spec in enumerate(self.order)}
        self.dependents: list[list[int]] = [[] for _ in self.order]
        for i, spec in enumerate(self.order):
            for dep in spec.after:
                self.dependents[self.index[dep]].append(i)
        #: Unresolved dependencies of each job, by topological index.
        self.blocked = [len(spec.after) for spec in self.order]
        # Ascending, so already a heap.
        self.ready = [i for i, count in enumerate(self.blocked) if not count]
        #: ``(not_before, index)`` heap of retries waiting out a backoff.
        self.backoff: list[tuple[float, int]] = []
        #: Content key -> id of the started job computing it, until that
        #: job resolves; duplicates wait in :attr:`waiting` meanwhile.
        self.running: dict[str, str] = {}
        self.waiting: dict[str, list[int]] = {}
        #: Attempts handed to the backend per started job.
        self.attempts: dict[str, int] = {}
        self.cache = cache
        self.bus = EventBus(run_id=run_id)
        for observer in observers:
            self.bus.subscribe(observer)
        self.results: dict[str, JobResult] = {}
        #: Run-local successful result per content key, so duplicate
        #: specs resolve as "cached" deterministically (and with the
        #: live value) whether the run is serial or parallel.
        self.done_by_key: dict[str, JobResult] = {}
        self.total = len(self.order)
        for spec in self.order:
            self._event(EVENT_SCHEDULED, spec.job_id)

    def _event(self, kind: str, job_id: str, **kwargs: Any) -> None:
        if kind == EVENT_RETRY:
            metrics().count("queue.retries")
        elif kind == EVENT_LOST:
            metrics().count("queue.lost")
        elif kind == EVENT_REQUEUED:
            metrics().count("queue.requeues")
        self.bus.publish(
            kind,
            job_id,
            total=self.total,
            done=len(self.results),
            **kwargs,
        )

    def resolve(self, result: JobResult) -> None:
        """Record a terminal result, emit its event, and release waiters.

        A result carrying a worker telemetry delta (pool attempts) has
        it merged into the parent's registries here, exactly once.
        Dependents whose last dependency this was become ready, and so
        do duplicates waiting on this job's content key.
        """
        if result.telemetry is not None:
            metrics().merge(
                result.telemetry.get("metrics", {}),
                worker_pid=result.worker_pid,
            )
            recorder().absorb(result.telemetry.get("spans", ()))
        self.results[result.job_id] = result
        kind = {
            STATUS_OK: EVENT_FINISHED,
            STATUS_FAILED: EVENT_FAILED,
            STATUS_SKIPPED: EVENT_SKIPPED,
        }.get(result.status, EVENT_CACHED)
        if result.status == STATUS_OK:
            metrics().observe("queue.job_s", result.duration_s)
        self._event(
            kind,
            result.job_id,
            attempt=result.attempts,
            duration_s=result.duration_s,
            error=result.error,
        )
        if result.succeeded and result.key not in self.done_by_key:
            self.done_by_key[result.key] = result
        index = self.index[result.job_id]
        if self.cache is not None and result.status == STATUS_OK:
            self.cache.put(self.order[index], result)
        for dependent in self.dependents[index]:
            self.blocked[dependent] -= 1
            if not self.blocked[dependent]:
                heapq.heappush(self.ready, dependent)
        if self.running.get(result.key) == result.job_id:
            del self.running[result.key]
            for waiter in self.waiting.pop(result.key, ()):
                heapq.heappush(self.ready, waiter)

    def deadline_for(self, spec: JobSpec) -> float | None:
        """Effective per-attempt deadline: spec first, then env default."""
        if spec.deadline_s is not None:
            return spec.deadline_s
        return self.default_deadline

    def backoff_delay(self, spec: JobSpec, attempt: int) -> float:
        """Draw (and record) the jittered delay before the next retry."""
        delay = _backoff_delay(spec, attempt, self.backoff_rng)
        if delay > 0:
            metrics().observe("queue.backoff_s", delay)
        return delay

    def timed_out(self, spec: JobSpec, attempt: int) -> str:
        """Account one expired attempt; returns its error text."""
        deadline = self.deadline_for(spec)
        error_text = f"deadline exceeded ({deadline:g}s)"
        metrics().count("queue.timeouts")
        self._event(
            EVENT_TIMEOUT,
            spec.job_id,
            attempt=attempt,
            duration_s=float(deadline or 0.0),
            error=error_text,
        )
        return error_text

    def failed_dep(self, spec: JobSpec) -> str | None:
        for dep in spec.after:
            result = self.results.get(dep)
            if result is not None and not result.succeeded:
                return dep
        return None

    def skip(self, spec: JobSpec, dep: str) -> None:
        self.resolve(
            JobResult(
                job_id=spec.job_id,
                key=spec.key,
                status=STATUS_SKIPPED,
                error=f"dependency {dep!r} did not succeed",
            )
        )

    def from_cache(self, spec: JobSpec) -> bool:
        """Try to resolve ``spec`` from memo state; True on a hit.

        Run-local results win over the external cache so a duplicate
        spec in the same run reuses the live value just produced.
        """
        prior = self.done_by_key.get(spec.key)
        if prior is not None:
            self.resolve(
                JobResult(
                    job_id=spec.job_id,
                    key=spec.key,
                    status=STATUS_CACHED,
                    value=prior.value,
                )
            )
            return True
        if self.cache is None:
            return False
        hit = self.cache.lookup(spec)
        if hit is None:
            return False
        self.resolve(hit)
        return True

    def claim(self, spec: JobSpec) -> bool:
        """Settle a ready job's first turn; True when it must run.

        A failed dependency skips it.  A duplicate of a content key
        whose job has started and not resolved waits for that job, and
        takes its turn again once it has.  Otherwise the job is looked
        up in the cache, once, and a job that misses holds its key until
        it resolves.
        """
        failed = self.failed_dep(spec)
        if failed is not None:
            self.skip(spec, failed)
            return False
        if spec.key in self.running:
            self.waiting.setdefault(spec.key, []).append(
                self.index[spec.job_id]
            )
            return False
        if self.from_cache(spec):
            return False
        self.running[spec.key] = spec.job_id
        self.attempts[spec.job_id] = 0
        return True

    def requeue(self, spec: JobSpec, delay: float = 0.0) -> None:
        """Queue another attempt of ``spec``, after ``delay`` seconds."""
        index = self.index[spec.job_id]
        if delay > 0:
            heapq.heappush(self.backoff, (time.monotonic() + delay, index))
        else:
            heapq.heappush(self.ready, index)


def run_jobs(
    specs: Iterable[JobSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    observers: Sequence[Observer] = (),
    executor: Executor | str | ExecutionBackend | None = execute,
    run_id: str = "",
    backoff_seed: int | None = None,
    faults: FaultPlan | str | Mapping[str, Any] | None = None,
) -> dict[str, JobResult]:
    """Execute a batch of job specs; return results keyed by job id.

    Parameters
    ----------
    jobs:
        Worker parallelism.  ``1`` executes serially in this process;
        ``N > 1`` fans out over a process pool (specs and values must
        pickle) — unless ``executor`` overrides the backend.
    cache:
        Optional content-addressed cache consulted before execution and
        updated after success.
    observers:
        Callables receiving every :class:`JobEvent` (subscribed to the
        run's event bus).
    executor:
        One of three things:

        * a **callable** — the per-spec execution function (injectable
          for tests; with a process-backed backend it must pickle).
          The backend is then resolved from ``REPRO_EXECUTOR`` and the
          ``jobs`` count, exactly as before this parameter grew.
        * a **backend kind name** — ``"serial"`` or ``"pool"`` —
          selecting the execution backend with the default
          :func:`~repro.runner.jobs.execute` function.
        * an :class:`~repro.runner.executors.ExecutionBackend`
          **instance** — full control (custom function *and*
          backend).  The run owns the instance and shuts it down on
          exit.
    run_id:
        Identifier stamped into every published event.
    backoff_seed:
        Seed for the run's retry-backoff jitter.  ``None`` (default)
        draws from entropy; a fixed seed makes the whole retry
        schedule reproducible for tests.
    faults:
        Optional fault-injection plan for this run — a
        :class:`~repro.faults.FaultPlan`, a plan mapping, inline JSON,
        or a plan-file path (see :func:`~repro.faults.coerce_plan`).
        Activated for the duration of the call and exported through
        ``REPRO_FAULTS`` so worker processes inherit it.  Jobs already
        honouring ``REPRO_FAULTS`` from the environment need nothing
        here.
    """
    spec_list = list(specs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    # Resolve (and validate) the backend before any event fires.
    if isinstance(executor, ExecutionBackend):
        backend = executor
    elif isinstance(executor, str):
        backend = make_executor(executor, jobs=jobs)
    else:
        backend = make_executor(None, jobs=jobs, executor_fn=executor)
    if faults is None:
        # A malformed REPRO_FAULTS plan must fail the run up front,
        # not surface as a per-job failure at the first probe.
        faults_active()
    with active_faults(coerce_plan(faults)):
        run = _Run(
            spec_list, cache, observers, run_id=run_id,
            backoff_seed=backoff_seed,
        )
        _run_dispatch(run, backend)
        return run.results


def _submit_ready(
    run: _Run, backend: ExecutionBackend, tickets: dict[str, JobSpec]
) -> None:
    """Start ready jobs, in topological order, while a slot is free.

    A job is handed to the backend only while it holds fewer attempts
    than the backend's capacity: one for the serial backend; for the
    pool, its workers plus one queued attempt.  The pool itself moves
    an attempt no worker started off a broken or evicted pool, so a
    failure never takes down jobs merely queued behind the casualties.
    Skips and cache hits resolve only while a slot is free too, so on
    the serial backend each job's events follow the previous job's end.
    """
    now = time.monotonic()
    while run.backoff and run.backoff[0][0] <= now:
        heapq.heappush(run.ready, heapq.heappop(run.backoff)[1])
    capacity = backend.capacity()
    while run.ready and len(tickets) < capacity:
        spec = run.order[heapq.heappop(run.ready)]
        if spec.job_id not in run.attempts and not run.claim(spec):
            continue
        run.attempts[spec.job_id] += 1
        attempt = run.attempts[spec.job_id]
        run._event(EVENT_STARTED, spec.job_id, attempt=attempt)
        ticket = backend.submit(spec, attempt, run.deadline_for(spec))
        tickets[ticket] = spec
    metrics().gauge(
        "queue.depth", run.total - len(run.results) - len(tickets)
    )
    metrics().gauge_max("queue.active", len(tickets))


def _dispatch_outcome(
    run: _Run, spec: JobSpec, outcome: AttemptOutcome
) -> None:
    """Apply retry/requeue policy to one collected attempt outcome."""
    attempt = outcome.attempt
    if outcome.status == OUTCOME_OK:
        run.resolve(
            JobResult(
                job_id=spec.job_id,
                key=spec.key,
                status=STATUS_OK,
                value=outcome.value,
                attempts=attempt,
                duration_s=outcome.duration_s,
                worker_pid=outcome.worker_pid,
                telemetry=outcome.telemetry,
            )
        )
        return
    if outcome.status == OUTCOME_TIMEOUT:
        error_text = run.timed_out(spec, attempt)
        if attempt <= spec.retries:
            # No backoff: a hung retry already pays the full deadline.
            run._event(
                EVENT_RETRY, spec.job_id, attempt=attempt, error=error_text
            )
            run.requeue(spec)
        else:
            run.resolve(
                JobResult(
                    job_id=spec.job_id,
                    key=spec.key,
                    status=STATUS_FAILED,
                    error=error_text,
                    attempts=attempt,
                )
            )
        return
    if outcome.status == OUTCOME_LOST:
        # Always requeued, immediately: a pool-break suspect must
        # re-run in isolation to find the culprit, and a refunded
        # attempt (an innocent evicted with its pool) re-runs as if it
        # had never been dispatched.
        run._event(
            EVENT_LOST, spec.job_id, attempt=attempt, error=outcome.error
        )
        if not outcome.charge:
            run.attempts[spec.job_id] -= 1
        run._event(
            EVENT_REQUEUED, spec.job_id,
            attempt=run.attempts[spec.job_id], error=outcome.error,
        )
        run.requeue(spec)
        return
    # OUTCOME_ERROR: an ordinary job failure, retried under budget.
    if attempt <= spec.retries:
        run._event(
            EVENT_RETRY, spec.job_id, attempt=attempt, error=outcome.error
        )
        run.requeue(spec, run.backoff_delay(spec, attempt))
    else:
        run.resolve(
            JobResult(
                job_id=spec.job_id,
                key=spec.key,
                status=STATUS_FAILED,
                error=outcome.error,
                attempts=attempt,
            )
        )


def _run_dispatch(run: _Run, backend: ExecutionBackend) -> None:
    """Drive one run over an execution backend, until every job resolves.

    The loop: start ready jobs while a slot is free, poll the backend
    for finished attempts, apply retry/requeue policy, repeat.  The
    backend owns where attempts run and how their loss is detected;
    this loop owns everything observable (events, budgets, results).
    """
    tickets: dict[str, JobSpec] = {}
    try:
        _submit_ready(run, backend, tickets)
        while len(run.results) < run.total:
            if tickets:
                wait = None
                if run.backoff:
                    wait = max(0.0, run.backoff[0][0] - time.monotonic())
                for tid in backend.poll(wait):
                    spec = tickets.pop(tid)
                    _dispatch_outcome(run, spec, backend.collect(tid))
            else:
                # Nothing is executing, so every unresolved job waits,
                # directly or through a dependency or a duplicate key,
                # on a retry in its backoff window.  Sleep the first out.
                time.sleep(max(0.0, run.backoff[0][0] - time.monotonic()))
            _submit_ready(run, backend, tickets)
    finally:
        backend.shutdown()
