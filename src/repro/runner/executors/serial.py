"""In-process execution backend: one attempt at a time, no pickling.

The serial backend is the debugging baseline — everything runs in the
calling process, so breakpoints, profilers, and non-picklable specs
all work.  The deadline watchdog is the one concession to resilience:
an attempt that outlives its wall-clock budget is abandoned on its
daemon thread (it cannot be killed, but it no longer blocks the
campaign) and surfaces as :class:`~.base.DeadlineExceeded`.
"""

from __future__ import annotations

import threading
from typing import Any

from ..jobs import JobSpec, execute
from .base import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AttemptOutcome,
    DeadlineExceeded,
    ExecutionBackend,
    ExecutorFn,
    run_one_attempt,
)


def run_attempt_with_deadline(
    spec: JobSpec,
    executor_fn: ExecutorFn,
    deadline: float | None,
    attempt: int = 0,
) -> tuple[Any, float, int]:
    """One in-process attempt under a wall-clock watchdog.

    With no deadline this is :func:`~.base.run_one_attempt` unchanged
    (no thread).  Otherwise the attempt runs on a daemon thread the
    caller waits on for at most ``deadline`` seconds; on expiry the
    thread is abandoned and :class:`~.base.DeadlineExceeded` is
    raised.  A late result from an abandoned attempt is discarded,
    never resolved.
    """
    if deadline is None:
        return run_one_attempt(spec, executor_fn, attempt)
    box: list[tuple[str, Any]] = []

    def _target() -> None:
        try:
            box.append(("ok", run_one_attempt(spec, executor_fn, attempt)))
        except BaseException as error:  # noqa: BLE001 - relayed to caller
            box.append(("err", error))

    watchdog = threading.Thread(
        target=_target, name=f"attempt-{spec.job_id}", daemon=True
    )
    watchdog.start()
    watchdog.join(deadline)
    if watchdog.is_alive() or not box:
        raise DeadlineExceeded(deadline)
    status, payload = box[0]
    if status == "err":
        raise payload
    return payload


class SerialExecutor(ExecutionBackend):
    """Runs attempts synchronously in the calling process.

    ``submit`` executes the attempt before returning (there is nowhere
    to defer it to), so ``poll``/``collect`` simply hand the queued
    outcome back.  The scheduler's serial fast path calls
    :meth:`run_attempt` directly and keeps its own retry loop.
    """

    name = "serial"

    def __init__(self, *, executor_fn: ExecutorFn = execute):
        self._fn = executor_fn
        self._ready: dict[str, AttemptOutcome] = {}
        self._seq = 0

    def capacity(self) -> int:
        return 1

    def run_attempt(
        self, spec: JobSpec, attempt: int, deadline_s: float | None
    ) -> tuple[Any, float, int]:
        """One attempt now: ``(value, duration_s, pid)`` or raises."""
        return run_attempt_with_deadline(spec, self._fn, deadline_s, attempt)

    def submit(
        self, spec: JobSpec, attempt: int, deadline_s: float | None
    ) -> str:
        self._seq += 1
        ticket = f"s{self._seq}"
        try:
            value, duration, pid = self.run_attempt(spec, attempt, deadline_s)
        except DeadlineExceeded:
            outcome = AttemptOutcome(
                ticket, spec.job_id, attempt, OUTCOME_TIMEOUT,
                duration_s=float(deadline_s or 0.0),
            )
        except Exception as error:  # noqa: BLE001 - jobs may raise anything
            outcome = AttemptOutcome(
                ticket, spec.job_id, attempt, OUTCOME_ERROR,
                error=f"{type(error).__name__}: {error}",
            )
        else:
            outcome = AttemptOutcome(
                ticket, spec.job_id, attempt, OUTCOME_OK,
                value=value, duration_s=duration, worker_pid=pid,
            )
        self._ready[ticket] = outcome
        return ticket

    def poll(self, timeout: float | None) -> list[str]:
        return list(self._ready)

    def collect(self, ticket: str) -> AttemptOutcome:
        return self._ready.pop(ticket)

    def shutdown(self) -> None:
        self._ready.clear()
