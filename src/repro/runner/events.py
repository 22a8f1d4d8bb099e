"""Typed, versioned event protocol for the campaign pipeline.

One stream of structured events that the queue emits and any number
of subscribers — the progress monitor, the telemetry capture — consume,
instead of each layer growing its own ad-hoc callback shape.

Two dataclasses:

* :class:`JobEvent` is the minimal lifecycle notification the
  scheduler has always emitted (kind, job id, attempt, duration,
  error, totals).  It remains the observer-facing compatibility type —
  anything that accepted a ``JobEvent`` keeps working.
* :class:`Event` extends it with the envelope a *protocol* needs:
  schema id (:data:`EVENT_SCHEMA`), per-run monotonic sequence number,
  wall-clock and monotonic timestamps, emitting pid, and the run id —
  enough to order, correlate, and replay a stream across processes and
  files.  :func:`event_to_json` / :func:`event_from_json` round-trip
  it bit-exactly (canonical sorted-key compact JSON).

:class:`EventBus` owns the stamping: ``publish()`` builds the
``Event``, assigns the next sequence number, and fans it out to every
subscriber.  Subscribers are plain callables; a subscriber raising
does not stop delivery to the others (the error is rethrown after
delivery completes, so bugs stay loud without corrupting the stream).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Mapping

#: Schema identifier stamped into every :class:`Event`.
EVENT_SCHEMA = "repro.event/1"

#: Event kinds emitted to observers, in lifecycle order.
EVENT_SCHEDULED = "scheduled"
EVENT_STARTED = "started"
EVENT_TIMEOUT = "timeout"
EVENT_RETRY = "retry"
#: The attempt's worker vanished (crash, broken pool, deadline
#: eviction) before producing a result.
EVENT_LOST = "lost"
#: A lost attempt's job went back in the queue (follows ``lost``).
EVENT_REQUEUED = "requeued"
EVENT_FINISHED = "finished"
EVENT_FAILED = "failed"
EVENT_SKIPPED = "skipped"
EVENT_CACHED = "cached"

#: Terminal event kinds (the job will not be seen again).
TERMINAL_EVENTS = (EVENT_FINISHED, EVENT_FAILED, EVENT_SKIPPED, EVENT_CACHED)


@dataclass(frozen=True)
class JobEvent:
    """One scheduler lifecycle notification.

    Attributes
    ----------
    kind:
        One of the ``EVENT_*`` constants.
    job_id:
        The affected job.
    attempt:
        1-based attempt number for started/timeout/retry/finished/
        failed events.
    duration_s:
        Wall time of the attempt, for finished/failed events (the
        exceeded deadline, for timeout events).
    error:
        Error text for timeout/retry/failed/skipped events.
    total:
        Total number of jobs in the batch (constant per run).
    done:
        Jobs resolved so far, including this event if it is terminal.
    """

    kind: str
    job_id: str
    attempt: int = 0
    duration_s: float = 0.0
    error: str | None = None
    total: int = 0
    done: int = 0


@dataclass(frozen=True)
class Event(JobEvent):
    """A :class:`JobEvent` wrapped in the versioned protocol envelope.

    Every field the base class defines keeps its meaning; the envelope
    adds stream identity:

    Attributes
    ----------
    schema:
        Protocol version tag (:data:`EVENT_SCHEMA`).
    seq:
        1-based monotonic sequence number within the emitting run.
    ts:
        Wall-clock emission time (``time.time()``), for humans and
        cross-run correlation.
    mono:
        Monotonic emission time (``time.monotonic()``), for intra-run
        ordering and durations unaffected by clock steps.
    pid:
        Pid of the emitting process (the scheduler parent; worker pids
        travel on results, not events).
    run_id:
        Identifier of the campaign/sweep run this event belongs to.
    """

    schema: str = EVENT_SCHEMA
    seq: int = 0
    ts: float = 0.0
    mono: float = 0.0
    pid: int = 0
    run_id: str = ""


def event_to_json(event: JobEvent) -> str:
    """Canonical JSON line for one event (sorted keys, compact).

    Canonical form makes the round-trip bit-exact:
    ``event_to_json(event_from_json(s)) == s`` for any ``s`` this
    function produced, and ``event_from_json(event_to_json(e)) == e``.
    """
    return json.dumps(asdict(event), sort_keys=True, separators=(",", ":"))


def event_from_json(line: str) -> Event:
    """Rebuild an :class:`Event` from its JSON form.

    A plain :class:`JobEvent` rendering (no ``schema`` field) loads
    too — the envelope fields take their defaults.  An unknown schema
    tag raises :class:`ValueError` rather than mis-parsing.
    """
    data = json.loads(line)
    if not isinstance(data, Mapping):
        raise ValueError("event JSON must be an object")
    schema = data.get("schema", EVENT_SCHEMA)
    if schema != EVENT_SCHEMA:
        raise ValueError(f"unsupported event schema {schema!r}")
    known = {
        field: data[field]
        for field in (
            "kind", "job_id", "attempt", "duration_s", "error",
            "total", "done", "schema", "seq", "ts", "mono", "pid",
            "run_id",
        )
        if field in data
    }
    return Event(**known)


#: Anything that consumes events — monitors and telemetry captures.
Subscriber = Callable[[JobEvent], None]


class EventBus:
    """Fans one event stream out to N subscribers, stamping envelopes.

    The bus is the single emission point for a run: ``publish()``
    assigns the next sequence number, stamps timestamps/pid/run id,
    and delivers the frozen :class:`Event` to every subscriber in
    subscription order.
    """

    def __init__(
        self,
        run_id: str = "",
        subscribers: Iterable[Subscriber] = (),
    ) -> None:
        self.run_id = run_id
        self._subscribers: list[Subscriber] = list(subscribers)
        self._seq = 0

    def subscribe(self, subscriber: Subscriber) -> None:
        """Add one subscriber (receives every subsequent event)."""
        self._subscribers.append(subscriber)

    @property
    def subscribers(self) -> tuple[Subscriber, ...]:
        return tuple(self._subscribers)

    @property
    def seq(self) -> int:
        """Sequence number of the most recently published event."""
        return self._seq

    def publish(self, kind: str, job_id: str, **fields: Any) -> Event:
        """Build, stamp, and deliver one event; returns it.

        Delivery reaches every subscriber even when one raises; the
        first error is re-raised afterwards so subscriber bugs stay
        visible without desynchronising later subscribers' streams.
        """
        self._seq += 1
        event = Event(
            kind,
            job_id,
            schema=EVENT_SCHEMA,
            seq=self._seq,
            ts=time.time(),
            mono=time.monotonic(),
            pid=os.getpid(),
            run_id=self.run_id,
            **fields,
        )
        first_error: BaseException | None = None
        # Snapshot: a subscriber that subscribes another one mid-fanout
        # must not extend this event's delivery; the newcomer sees the
        # next event first.
        for subscriber in tuple(self._subscribers):
            try:
                subscriber(event)
            except BaseException as error:  # noqa: BLE001 - keep delivering
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return event
