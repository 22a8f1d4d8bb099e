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

Both backends share the same bookkeeping, produce the same results, and
schedule ready jobs in the stable order the specs were given, so a
parallel campaign is a faithful — bit-identical — replay of the serial
one.  A backend reporting an attempt *lost* (worker crash, broken
pool, deadline eviction) emits ``lost``/``requeued`` events and the
job re-runs — worker death is a recoverable event, not a run-fatal
one.

Resilience: every attempt may carry a wall-clock **deadline**
(``JobSpec.deadline_s``, or the ``REPRO_JOB_DEADLINE_S`` environment
default) — an attempt that outlives it is abandoned, emits a
``timeout`` event, and is charged against the retry budget, so one
hung job can never wedge a campaign.  Its retry starts at once, since
the hung attempt already waited out its deadline; a retry after an
error waits an exponentially growing, fully jittered **backoff**
(``JobSpec.retry_backoff_s``), seedable per run for deterministic
tests.  The serial and pool loops share this policy.  The scheduler
also hosts the ``queue.attempt`` fault-injection site
(:mod:`repro.faults`): ``run_jobs(..., faults=...)`` activates a plan
for the run, exported to worker processes through the environment.

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
    KIND_SERIAL,
    OUTCOME_LOST,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    DeadlineExceeded,
    ExecutionBackend,
    make_executor,
    resolve_executor_kind,
)
from .executors.serial import SerialExecutor
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
    """Shared bookkeeping for one :func:`run_jobs` invocation."""

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
        self.by_id = {spec.job_id: spec for spec in self.order}
        self.dependents: dict[str, list[str]] = {
            spec.job_id: [] for spec in self.order
        }
        for spec in self.order:
            for dep in spec.after:
                self.dependents[dep].append(spec.job_id)
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
        """Record a terminal result and emit its event.

        A result carrying a worker telemetry delta (pool attempts) has
        it merged into the parent's registries here, exactly once.
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
        if self.cache is not None and result.status == STATUS_OK:
            self.cache.put(self.by_id[result.job_id], result)

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

    def deps_resolved(self, spec: JobSpec) -> bool:
        return all(dep in self.results for dep in spec.after)

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
    backend: ExecutionBackend | None = None
    executor_fn: Executor = execute
    choice: str | None = None
    if isinstance(executor, ExecutionBackend):
        backend = executor
    elif isinstance(executor, str):
        choice = executor
    elif executor is not None:
        executor_fn = executor
    # Resolve (and validate) the backend kind before any event fires.
    kind = (
        backend.name
        if backend is not None
        else resolve_executor_kind(choice, jobs)
    )
    if faults is None:
        # A malformed REPRO_FAULTS plan must fail the run up front,
        # not surface as a per-job failure at the first probe.
        faults_active()
    with active_faults(coerce_plan(faults)):
        run = _Run(
            spec_list, cache, observers, run_id=run_id,
            backoff_seed=backoff_seed,
        )
        if not run.order:
            return {}
        if backend is None and kind == KIND_SERIAL:
            _run_serial(run, SerialExecutor(executor_fn=executor_fn))
        elif isinstance(backend, SerialExecutor):
            _run_serial(run, backend)
        else:
            if backend is None:
                backend = make_executor(
                    kind, jobs=jobs, executor_fn=executor_fn
                )
            _run_dispatch(run, backend)
        return run.results


def _execute_with_retries(
    run: _Run, spec: JobSpec, backend: SerialExecutor
) -> None:
    """Serial path: attempt (with retries) and resolve one spec.

    One counter (``attempt``) drives the loop, the events, and the
    final result's ``attempts`` field — it can never disagree with
    itself the way a loop index plus a recomputed ``retries + 1``
    could.
    """
    error_text = ""
    duration = 0.0
    deadline = run.deadline_for(spec)
    attempt = 0
    while attempt <= spec.retries:
        attempt += 1
        run._event(EVENT_STARTED, spec.job_id, attempt=attempt)
        timed_out = False
        try:
            value, duration, pid = backend.run_attempt(
                spec, attempt, deadline
            )
        except DeadlineExceeded:
            error_text = run.timed_out(spec, attempt)
            timed_out = True
        except Exception as error:  # noqa: BLE001 - jobs may raise anything
            error_text = f"{type(error).__name__}: {error}"
        else:
            run.resolve(
                JobResult(
                    job_id=spec.job_id,
                    key=spec.key,
                    status=STATUS_OK,
                    value=value,
                    attempts=attempt,
                    duration_s=duration,
                    worker_pid=pid,
                )
            )
            return
        if attempt <= spec.retries:
            run._event(
                EVENT_RETRY, spec.job_id, attempt=attempt,
                error=error_text,
            )
            if timed_out:
                # No backoff, as on the pool path: a hung attempt
                # already waited out its deadline.
                continue
            delay = run.backoff_delay(spec, attempt)
            if delay > 0:
                time.sleep(delay)
    run.resolve(
        JobResult(
            job_id=spec.job_id,
            key=spec.key,
            status=STATUS_FAILED,
            error=error_text,
            attempts=attempt,
        )
    )


def _run_serial(run: _Run, backend: SerialExecutor) -> None:
    for spec in run.order:
        failed = run.failed_dep(spec)
        if failed is not None:
            run.skip(spec, failed)
            continue
        if run.from_cache(spec):
            continue
        _execute_with_retries(run, spec, backend)


def _submit_ready(
    run: _Run,
    backend: ExecutionBackend,
    pending: list[JobSpec],
    tickets: dict[str, JobSpec],
    attempts: dict[str, int],
    not_before: dict[str, float],
) -> None:
    """Dispatch every runnable pending spec, capacity permitting.

    Mutates ``pending`` in place.  Capacity capping is what fixes the
    historical ``_abandon_pool`` unfairness: a job is only ever handed
    to the backend when a worker slot exists for it, so a broken pool
    can never take down jobs that were merely queued behind the
    casualties.  The skip/cache cascade keeps running at capacity —
    only actual dispatch is gated.
    """
    capacity = backend.capacity()
    inflight_keys = {spec.key for spec in tickets.values()}
    progress = True
    while progress:
        progress = False
        now = time.monotonic()
        still_pending: list[JobSpec] = []
        for spec in pending:
            if spec.job_id in run.results:
                # Already resolved (e.g. skipped by an earlier cascade
                # pass that left a stale entry in the pending list).
                continue
            if not run.deps_resolved(spec):
                still_pending.append(spec)
                continue
            failed = run.failed_dep(spec)
            if failed is not None:
                run.skip(spec, failed)
                progress = True  # may unblock dependents' skip cascade
                continue
            if run.from_cache(spec):
                progress = True  # cached result may ready dependents
                continue
            if spec.key in inflight_keys:
                # A same-key job is already executing; hold this one
                # back so it resolves as "cached" like in serial mode.
                still_pending.append(spec)
                continue
            if not_before.get(spec.job_id, 0.0) > now:
                # Backoff window still open; retry later.
                still_pending.append(spec)
                continue
            if len(tickets) >= capacity:
                still_pending.append(spec)
                continue
            not_before.pop(spec.job_id, None)
            attempts[spec.job_id] = attempts.get(spec.job_id, 0) + 1
            run._event(
                EVENT_STARTED, spec.job_id, attempt=attempts[spec.job_id]
            )
            ticket = backend.submit(
                spec, attempts[spec.job_id], run.deadline_for(spec)
            )
            tickets[ticket] = spec
            inflight_keys.add(spec.key)
        pending[:] = still_pending
    metrics().gauge("queue.depth", len(pending))
    metrics().gauge_max("queue.active", len(tickets))


def _dispatch_outcome(
    run: _Run,
    spec: JobSpec,
    outcome: AttemptOutcome,
    attempts: dict[str, int],
    pending: list[JobSpec],
    not_before: dict[str, float],
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
            pending.append(spec)
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
        # attempt (never started, or evicted as an innocent) re-runs
        # as if it had never been dispatched.
        run._event(
            EVENT_LOST, spec.job_id, attempt=attempt, error=outcome.error
        )
        if not outcome.charge:
            attempts[spec.job_id] -= 1
        run._event(
            EVENT_REQUEUED, spec.job_id,
            attempt=attempts[spec.job_id], error=outcome.error,
        )
        pending.append(spec)
        return
    # OUTCOME_ERROR: an ordinary job failure, retried under budget.
    if attempt <= spec.retries:
        run._event(
            EVENT_RETRY, spec.job_id, attempt=attempt, error=outcome.error
        )
        delay = run.backoff_delay(spec, attempt)
        if delay > 0:
            not_before[spec.job_id] = time.monotonic() + delay
        pending.append(spec)
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
    """Drive one run over an asynchronous execution backend.

    The loop: dispatch every runnable spec (capacity-capped), poll the
    backend for finished attempts, apply retry/requeue policy, repeat.
    The backend owns worker processes and loss detection; this loop
    owns everything observable (events, budgets, results).
    """
    pending = list(run.order)
    attempts: dict[str, int] = {}
    tickets: dict[str, JobSpec] = {}
    not_before: dict[str, float] = {}
    order_index = {spec.job_id: i for i, spec in enumerate(run.order)}
    try:
        while pending or tickets:
            _submit_ready(
                run, backend, pending, tickets, attempts, not_before
            )
            if not tickets:
                if not pending:
                    return
                # Nothing executing, yet work remains: every runnable
                # spec is inside a backoff window (dep-blocked specs
                # need in-flight work to unblock, which there is none
                # of).  Sleep the shortest window out.
                waits = [
                    not_before[spec.job_id] - time.monotonic()
                    for spec in pending
                    if spec.job_id in not_before
                ]
                if not waits:
                    return
                pause = max(0.0, min(waits))
                if pause > 0:
                    time.sleep(pause)
                continue
            waits = [
                not_before[spec.job_id] - time.monotonic()
                for spec in pending
                if spec.job_id in not_before
            ]
            timeout = max(0.0, min(waits)) if waits else None
            for tid in backend.poll(timeout):
                spec = tickets.pop(tid)
                _dispatch_outcome(
                    run, spec, backend.collect(tid), attempts, pending,
                    not_before,
                )
            # Requeues append out of order; restore the stable
            # topological order the whole scheduler guarantees.
            pending.sort(key=lambda spec: order_index[spec.job_id])
    finally:
        backend.shutdown()

