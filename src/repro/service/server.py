"""The campaign service: a long-running experiment server.

:class:`CampaignServer` turns the campaign engine into a daemon: an
asyncio HTTP/1.1 + WebSocket listener (stdlib only, see
:mod:`~repro.service.protocol`) running in its own thread, executing
each submitted campaign or sharded sweep on the existing scheduler in
a dedicated worker thread against the server's persistent result
store.

REST surface (all JSON, one request per connection):

========  ===============================  =================================
Method    Path                             Meaning
========  ===============================  =================================
POST      ``/campaigns``                   submit a spec, get a run id
GET       ``/campaigns``                   list runs (live + stored)
GET       ``/campaigns/{id}``              one run's status + summary
GET       ``/campaigns/{id}/points``       page merged sweep points
DELETE    ``/campaigns/{id}``              cooperative cancel
GET       ``/campaigns/{id}/events``       WebSocket event stream
GET       ``/healthz``                     liveness + hub counters
========  ===============================  =================================

Every run publishes its scheduler events on a private
:class:`~repro.runner.events.EventBus` with two subscribers wired in:
a JSONL sidecar writer (one :func:`~repro.runner.events.event_to_json`
line per event — the stream of record) and a thread-safe bridge into
the :class:`~repro.service.hub.EventHub`, which fans the same
envelopes out to WebSocket watchers.  A WS text frame's payload is the
exact canonical JSON line the sidecar holds, so a client transcript
can be diffed against the sidecar byte for byte; ``?after_seq=N``
replays from the hub log (live runs) or the sidecar (finished runs),
which also makes reconnects and server restarts resumable.

The store stays the source of truth: each run writes a
``service.run/<run_id>`` record (schema :data:`RUN_SCHEMA`) at submit
and again at exit, so a restarted server re-lists every previously
finished run with nothing but the store file.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError, ReproError
from ..faults import ACTION_DROP, fault_site
from ..runner.campaign import Campaign, run_campaign
from ..runner.events import Event, EventBus, event_from_json, event_to_json
from ..runner.executors.base import resolve_executor_kind
from ..runner.jobs import json_safe
from ..runner.sharding import (
    MERGE_TARGET,
    SHARD_TARGET,
    collect_points,
    sharded_sweep_campaign,
)
from ..runner.store import ResultStore
from ..telemetry import RunCapture, metrics
from . import protocol
from .hub import DEFAULT_QUEUE_SIZE, EventHub, STREAM_END, Subscription

#: Schema tag of the per-run store records the service appends.
RUN_SCHEMA = "repro.campaign-run/1"

#: Content-key prefix of those records (a query surface, like the
#: sweep block keys — never a cache entry for a schedulable job).
RUN_KEY_PREFIX = "service.run/"

#: Run lifecycle states.
STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
#: Reported (never stored) for runs whose server died mid-flight.
STATE_INTERRUPTED = "interrupted"

TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)

#: Spec kinds :func:`build_campaign` accepts.
KIND_SWEEP = "sweep"
KIND_CAMPAIGN = "campaign"

#: Default page size of ``GET /campaigns/{id}/points``.
POINTS_PAGE = 10_000


def run_key(run_id: str) -> str:
    """The store content key of one run's service record."""
    return RUN_KEY_PREFIX + run_id


def new_service_run_id() -> str:
    """A sortable, collision-free run id (UTC stamp + random suffix).

    :func:`~repro.telemetry.new_run_id` is pid-suffixed, which can
    collide for two submissions inside one second of one server —
    hence the random tail.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def build_campaign(
    spec: Mapping[str, Any],
    store_path: str,
    store_backend: str | None = None,
) -> Campaign:
    """A :class:`Campaign` from one submitted JSON spec.

    Two spec kinds:

    * ``{"kind": "sweep", "name", "target", "parameter", "values",
      "shards"?, "common"?, "batch"?, "flush_chunk"?, "codec"?}`` —
      one sharded sweep (``values`` is an explicit list or a grid
      descriptor mapping);
    * ``{"kind": "campaign", "name", "specs": [{"kind": "call"|
      "experiment", ...}]}`` — an explicit job batch, mirroring the
      :class:`~repro.runner.campaign.Campaign` builder methods.

    Deterministic: the same spec always rebuilds the same campaign
    (same content keys), which is what lets a restarted server page a
    finished sweep's points from nothing but the stored spec.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError("campaign spec must be a JSON object")
    kind = spec.get("kind", KIND_SWEEP)
    name = spec.get("name")
    if not name or not isinstance(name, str):
        raise ConfigurationError("campaign spec needs a string 'name'")
    if kind == KIND_SWEEP:
        for required in ("target", "parameter", "values"):
            if required not in spec:
                raise ConfigurationError(
                    f"sweep spec needs {required!r}"
                )
        return sharded_sweep_campaign(
            name,
            str(spec["target"]),
            str(spec["parameter"]),
            spec["values"],
            store_path=store_path,
            shards=int(spec.get("shards", 8)),
            store_backend=store_backend,
            common=spec.get("common"),
            retries=int(spec.get("retries", 0)),
            batch=bool(spec.get("batch", True)),
            flush_chunk=spec.get("flush_chunk"),
            codec=spec.get("codec"),
        )
    if kind == KIND_CAMPAIGN:
        jobs = spec.get("specs")
        if not isinstance(jobs, list) or not jobs:
            raise ConfigurationError(
                "campaign spec needs a non-empty 'specs' list"
            )
        campaign = Campaign(name)
        for entry in jobs:
            if not isinstance(entry, Mapping):
                raise ConfigurationError("each job spec must be an object")
            job_kind = entry.get("kind", "call")
            if job_kind == "experiment":
                campaign.experiment(
                    str(entry["experiment_id"]),
                    job_id=entry.get("job_id"),
                    after=entry.get("after", ()),
                    retries=int(entry.get("retries", 0)),
                    **dict(entry.get("params", {})),
                )
            elif job_kind == "call":
                campaign.call(
                    str(entry["job_id"]),
                    str(entry["target"]),
                    after=entry.get("after", ()),
                    retries=int(entry.get("retries", 0)),
                    **dict(entry.get("params", {})),
                )
            else:
                raise ConfigurationError(
                    f"unknown job kind {job_kind!r} "
                    "(expected 'call' or 'experiment')"
                )
        return campaign
    raise ConfigurationError(
        f"unknown spec kind {kind!r} (expected 'sweep' or 'campaign')"
    )


@dataclass
class _RunState:
    """Server-side state of one submitted run."""

    run_id: str
    spec: dict[str, Any]
    events_path: str
    state: str = STATE_PENDING
    created_ts: float = field(default_factory=time.time)
    finished_ts: float | None = None
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    summary: dict[str, Any] | None = None
    cancel: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None

    def record_value(self) -> dict[str, Any]:
        """The JSON value of this run's ``service.run/`` store record."""
        return {
            "schema": RUN_SCHEMA,
            "run_id": self.run_id,
            "state": self.state,
            "spec": self.spec,
            "created_ts": self.created_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "counts": self.counts,
            "summary": json_safe(self.summary)
            if self.summary is not None
            else None,
            "events_path": self.events_path,
        }


class CampaignServer:
    """Long-running campaign service bound to one result store.

    Parameters
    ----------
    store_path:
        The persistent :class:`~repro.runner.store.ResultStore` every
        run executes against — and the restart source of truth.
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (read the
        bound one from :attr:`port` after :meth:`start`).
    store_backend:
        Store backend override, as everywhere else.
    jobs:
        Default worker processes per run (a spec's ``"jobs"`` wins).
    executor:
        Default execution backend kind per run (``"serial"`` or
        ``"pool"``; a spec's ``"executor"`` wins).
        ``None`` resolves from ``REPRO_EXECUTOR`` then the jobs count.
    runs_dir:
        Directory of per-run event sidecars
        (``<runs_dir>/<run_id>.jsonl``); default ``store_path +
        ".events"``.
    trace_dir:
        When set, each finished run exports a Chrome trace to
        ``<trace_dir>/<run_id>.trace.json``.
    queue_size:
        Per-WebSocket-client queue bound (see
        :class:`~repro.service.hub.EventHub`).
    drain_grace_s:
        How long :meth:`stop` lets in-flight WebSocket streams finish
        naturally (deliver their ``STREAM_END`` tail and close frame)
        before cancelling them.  Run threads are always joined first,
        so run records and sidecars are flushed regardless.
    """

    def __init__(
        self,
        store_path: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store_backend: str | None = None,
        jobs: int = 1,
        executor: str | None = None,
        runs_dir: str | None = None,
        trace_dir: str | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        drain_grace_s: float = 2.0,
    ) -> None:
        self.store_path = str(store_path)
        self.store_backend = store_backend
        self.host = host
        self.port = port
        self.jobs = jobs
        self.executor = executor
        self.runs_dir = runs_dir or self.store_path + ".events"
        self.trace_dir = trace_dir
        self.drain_grace_s = drain_grace_s
        self.hub = EventHub(queue_size=queue_size)
        self._runs: dict[str, _RunState] = {}
        self._runs_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop: asyncio.Event | None = None
        self._connections: set[asyncio.Task[None]] = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CampaignServer":
        """Bind and serve on a background thread; returns self."""
        if self._thread is not None:
            raise ReproError("server already started")
        os.makedirs(self.runs_dir, exist_ok=True)
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Cancel every live run, close the listener, join the thread.

        Idempotent: an explicit ``stop()`` inside a ``with`` block (or
        any repeated call) is a no-op the second time around.
        """
        with self._runs_lock:
            runs = list(self._runs.values())
        for run in runs:
            run.cancel.set()
        for run in runs:
            if run.thread is not None:
                run.thread.join()
        if self._loop is not None and self._stop is not None:
            if not self._loop.is_closed():
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._loop = None
        self._stop = None

    def __enter__(self) -> "CampaignServer":
        # idempotent so `with api.serve(...)` (already started) works
        if self._thread is None:
            return self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()
            else:
                raise

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._connections: set[asyncio.Task[None]] = set()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        try:
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Graceful drain: stop() has already joined every run
            # thread, so each live channel has its STREAM_END queued
            # and each sidecar/run record is on disk.  Give in-flight
            # streams a grace window to deliver that tail and their
            # close frame before cancelling whatever remains (idle
            # keep-alive connections, pathologically slow clients).
            if self._connections and self.drain_grace_s > 0:
                await asyncio.wait(
                    self._connections, timeout=self.drain_grace_s
                )
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.wait(self._connections, timeout=2.0)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                request = await protocol.read_request(reader.read)
            except protocol.ProtocolError as error:
                writer.write(protocol.json_error(400, str(error)))
                await writer.drain()
                return
            if request is None:
                return
            metrics().count("service.requests")
            metrics().count(f"service.requests.{request.method.lower()}")
            if request.wants_websocket:
                await self._handle_websocket(request, reader, writer)
                return
            response = await self._route(request)
            writer.write(response)
            await writer.drain()
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # Loop shutdown: end quietly (the transport closes below).
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _route(self, request: protocol.HttpRequest) -> bytes:
        parts = [p for p in request.path.split("/") if p]
        try:
            if request.path == "/healthz" and request.method == "GET":
                return self._healthz()
            if parts[:1] == ["campaigns"]:
                if len(parts) == 1:
                    if request.method == "POST":
                        return await self._submit(request)
                    if request.method == "GET":
                        return await self._list_runs()
                    return protocol.json_error(405, "use GET or POST")
                run_id = parts[1]
                if len(parts) == 2:
                    if request.method == "GET":
                        return await self._status(run_id)
                    if request.method == "DELETE":
                        return self._cancel(run_id)
                    return protocol.json_error(405, "use GET or DELETE")
                if len(parts) == 3 and parts[2] == "points":
                    if request.method != "GET":
                        return protocol.json_error(405, "use GET")
                    return await self._points(run_id, request)
                if len(parts) == 3 and parts[2] == "events":
                    return protocol.json_error(
                        426, "events endpoint requires a WebSocket upgrade"
                    )
            return protocol.json_error(404, f"no route {request.path!r}")
        except ConfigurationError as error:
            return protocol.json_error(400, str(error))
        except ReproError as error:
            return protocol.json_error(500, str(error))

    # -- REST endpoints ----------------------------------------------------

    def _healthz(self) -> bytes:
        with self._runs_lock:
            live = sum(
                1
                for run in self._runs.values()
                if run.state in (STATE_PENDING, STATE_RUNNING)
            )
        return protocol.response_bytes(
            200,
            {
                "status": "ok",
                "store": self.store_path,
                "live_runs": live,
                "hub": self.hub.stats(),
            },
        )

    async def _submit(self, request: protocol.HttpRequest) -> bytes:
        try:
            spec = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return protocol.json_error(400, "body must be a JSON object")
        # Validate eagerly: a bad spec fails the POST, not the run.
        build_campaign(spec, self.store_path, self.store_backend)
        if spec.get("executor") is not None:
            resolve_executor_kind(spec["executor"], 1)
        jobs = spec.get("jobs", 1)
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ConfigurationError(
                f"spec 'jobs' must be an integer >= 1, got {jobs!r}"
            )
        run_id = new_service_run_id()
        run = _RunState(
            run_id=run_id,
            spec=dict(spec),
            events_path=os.path.join(self.runs_dir, f"{run_id}.jsonl"),
        )
        with self._runs_lock:
            self._runs[run_id] = run
        self.hub.open(run_id)
        await asyncio.to_thread(self._write_run_record, run)
        run.thread = threading.Thread(
            target=self._execute_run,
            args=(run,),
            name=f"repro-run-{run_id}",
            daemon=True,
        )
        run.thread.start()
        metrics().count("service.runs.submitted")
        return protocol.response_bytes(
            201, {"run_id": run_id, "state": run.state}
        )

    async def _list_runs(self) -> bytes:
        stored = await asyncio.to_thread(self._stored_runs)
        with self._runs_lock:
            live = {
                run_id: self._status_dict(run)
                for run_id, run in self._runs.items()
            }
        merged = {**stored, **live}
        runs = [merged[run_id] for run_id in sorted(merged)]
        return protocol.response_bytes(200, {"runs": runs})

    async def _status(self, run_id: str) -> bytes:
        with self._runs_lock:
            run = self._runs.get(run_id)
            status = self._status_dict(run) if run is not None else None
        if status is None:
            stored = await asyncio.to_thread(self._stored_runs)
            status = stored.get(run_id)
        if status is None:
            return protocol.json_error(404, f"no run {run_id!r}")
        return protocol.response_bytes(200, status)

    def _cancel(self, run_id: str) -> bytes:
        with self._runs_lock:
            run = self._runs.get(run_id)
        if run is None:
            return protocol.json_error(404, f"no run {run_id!r}")
        if run.state in TERMINAL_STATES:
            return protocol.response_bytes(
                200, {"run_id": run_id, "state": run.state}
            )
        run.cancel.set()
        metrics().count("service.runs.cancelled")
        return protocol.response_bytes(
            202, {"run_id": run_id, "state": run.state, "cancelling": True}
        )

    async def _points(
        self, run_id: str, request: protocol.HttpRequest
    ) -> bytes:
        try:
            offset = int(request.query.get("offset", "0"))
            limit = int(request.query.get("limit", str(POINTS_PAGE)))
        except ValueError:
            return protocol.json_error(400, "offset/limit must be integers")
        if offset < 0 or limit < 1:
            return protocol.json_error(
                400, "need offset >= 0 and limit >= 1"
            )
        spec = await self._spec_for(run_id)
        if spec is None:
            return protocol.json_error(404, f"no run {run_id!r}")
        if spec.get("kind", KIND_SWEEP) != KIND_SWEEP:
            return protocol.json_error(
                400, f"run {run_id!r} is not a sweep; no point series"
            )
        page = await asyncio.to_thread(
            self._read_points, spec, offset, limit
        )
        page["run_id"] = run_id
        return protocol.response_bytes(200, page)

    # -- run execution (worker thread) -------------------------------------

    def _execute_run(self, run: _RunState) -> None:
        bus = EventBus(run_id=run.run_id)
        capture: RunCapture | None = None
        if self.trace_dir:
            capture = RunCapture(run_id=run.run_id)
            bus.subscribe(capture)
        loop = self._loop
        assert loop is not None

        def bridge(event: Event) -> None:
            loop.call_soon_threadsafe(self.hub.dispatch, run.run_id, event)

        run.state = STATE_RUNNING
        try:
            campaign = build_campaign(
                run.spec, self.store_path, self.store_backend
            )
            with open(
                run.events_path, "a", buffering=1, encoding="utf-8"
            ) as sidecar:

                def persist(event: Event) -> None:
                    sidecar.write(event_to_json(event) + "\n")

                bus.subscribe(persist)
                bus.subscribe(bridge)
                result = run_campaign(
                    campaign,
                    jobs=int(run.spec.get("jobs", self.jobs)),
                    store_path=self.store_path,
                    store_backend=self.store_backend,
                    strict=False,
                    bus=bus,
                    cancel=run.cancel.is_set,
                    executor=run.spec.get("executor", self.executor),
                )
            run.counts = result.status_counts()
            if run.cancel.is_set():
                run.state = STATE_CANCELLED
            elif result.ok:
                run.state = STATE_DONE
            else:
                run.state = STATE_FAILED
                failures = result.failures
                run.error = (
                    f"{len(failures)} job(s) did not succeed "
                    f"(first: {result.results[failures[0]].error})"
                )
            merge = result.results.get(f"{campaign.name}/merge")
            if merge is not None and merge.succeeded:
                run.summary = merge.value
        except BaseException as error:  # noqa: BLE001 - recorded, not lost
            run.state = STATE_FAILED
            run.error = f"{type(error).__name__}: {error}"
        finally:
            run.finished_ts = time.time()
            try:
                self._write_run_record(run)
            except Exception as error:  # noqa: BLE001
                run.error = (run.error or "") + (
                    f"; run record write failed: {error}"
                )
            if capture is not None:
                with contextlib.suppress(Exception):
                    capture.export(
                        trace=os.path.join(
                            self.trace_dir or ".",
                            f"{run.run_id}.trace.json",
                        )
                    )
            loop.call_soon_threadsafe(self.hub.finish, run.run_id)
            metrics().count(f"service.runs.{run.state}")

    # -- store access (always short-lived, thread-local) --------------------

    def _write_run_record(self, run: _RunState) -> None:
        store = ResultStore(self.store_path, backend=self.store_backend)
        try:
            store.append(
                {
                    "key": run_key(run.run_id),
                    "job_id": f"service/{run.run_id}",
                    "status": "ok",
                    "value": run.record_value(),
                }
            )
        finally:
            store.close()

    def _stored_runs(self) -> dict[str, dict[str, Any]]:
        """Latest service record per run id, straight from the store."""
        if not os.path.exists(self.store_path):
            return {}
        store = ResultStore(self.store_path, backend=self.store_backend)
        runs: dict[str, dict[str, Any]] = {}
        try:
            for record in store.iter_latest_by_key("ok"):
                key = record.get("key", "")
                if not key.startswith(RUN_KEY_PREFIX):
                    continue
                value = dict(record.get("value") or {})
                if value.get("schema") != RUN_SCHEMA:
                    continue
                # A non-terminal stored state with no live run behind it
                # means the serving process died mid-run.
                if value.get("state") not in TERMINAL_STATES:
                    with self._runs_lock:
                        live = value.get("run_id") in self._runs
                    if not live:
                        value["state"] = STATE_INTERRUPTED
                runs[value.get("run_id", key[len(RUN_KEY_PREFIX):])] = value
        finally:
            store.close()
        return runs

    def _status_dict(self, run: _RunState) -> dict[str, Any]:
        status = run.record_value()
        status["last_seq"] = self.hub.last_seq(run.run_id)
        return status

    async def _spec_for(self, run_id: str) -> dict[str, Any] | None:
        with self._runs_lock:
            run = self._runs.get(run_id)
            if run is not None:
                return run.spec
        stored = await asyncio.to_thread(self._stored_runs)
        value = stored.get(run_id)
        return dict(value["spec"]) if value and value.get("spec") else None

    def _read_points(
        self, spec: Mapping[str, Any], offset: int, limit: int
    ) -> dict[str, Any]:
        """One page of a merged sweep's points (worker-thread body).

        Walks the sweep's columnar block records in order, decoding
        only the blocks that overlap ``[offset, offset + limit)``;
        falls back to :func:`~repro.runner.sharding.collect_points`
        for stores merged with ``codec="json"`` (no block records).
        """
        import numpy as np

        from ..runner import codec as _codec
        from ..runner.sharding import block_key

        def listed(column: Any) -> list[Any]:
            # json_safe degrades unknown types (ndarrays included) to
            # repr; decode columns need a real element list.
            if isinstance(column, np.ndarray):
                return column.tolist()
            return list(json_safe(column))

        campaign = build_campaign(spec, self.store_path, self.store_backend)
        shard_keys = [
            s.key for s in campaign.specs if s.target == SHARD_TARGET
        ]
        merges = [s for s in campaign.specs if s.target == MERGE_TARGET]
        if not merges:
            raise ConfigurationError("spec built no merge job")
        params = merges[0].params_dict()
        target = params["sweep_target"]
        parameter = params["parameter"]
        common = params.get("common") or {}
        store = ResultStore(self.store_path, backend=self.store_backend)
        values: list[Any] = []
        columns: dict[str, list[Any]] = {}
        points_kind = ""
        seen = 0
        done = False
        try:
            index = 0
            while len(values) < limit:
                record = store.get(
                    block_key(target, parameter, shard_keys, index, common)
                )
                if record is None:
                    done = True
                    break
                index += 1
                block_values, block_columns, points_kind = (
                    _codec.unpack_columns(record["value"])
                )
                size = len(block_values)
                lo = max(0, offset - seen)
                seen += size
                if lo >= size:
                    continue
                hi = min(size, lo + (limit - len(values)))
                values.extend(listed(block_values[lo:hi]))
                for name, column in block_columns.items():
                    columns.setdefault(name, []).extend(
                        listed(column[lo:hi])
                    )
            if not values and done and seen == 0:
                # No block records at all: legacy per-point store.
                all_values, all_points = collect_points(
                    self.store_path, campaign, self.store_backend
                )
                page_values = all_values[offset : offset + limit]
                page_points = all_points[offset : offset + limit]
                done = offset + limit >= len(all_values)
                return {
                    "offset": offset,
                    "count": len(page_values),
                    "values": json_safe(page_values),
                    "points": json_safe(page_points),
                    "done": done,
                }
        finally:
            store.close()
        return {
            "offset": offset,
            "count": len(values),
            "values": values,
            "columns": columns,
            "points_kind": points_kind,
            "done": done,
        }

    # -- WebSocket streaming -----------------------------------------------

    async def _handle_websocket(
        self,
        request: protocol.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        if (
            len(parts) != 3
            or parts[0] != "campaigns"
            or parts[2] != "events"
        ):
            writer.write(
                protocol.json_error(404, f"no WS route {request.path!r}")
            )
            await writer.drain()
            return
        key = request.header("sec-websocket-key")
        if not key:
            writer.write(
                protocol.json_error(400, "missing Sec-WebSocket-Key")
            )
            await writer.drain()
            return
        run_id = parts[1]
        try:
            after_seq = int(request.query.get("after_seq", "0"))
            throttle_s = float(request.query.get("throttle_s", "0"))
        except ValueError:
            writer.write(
                protocol.json_error(
                    400, "after_seq/throttle_s must be numeric"
                )
            )
            await writer.drain()
            return
        subscription = self.hub.subscribe(run_id, after_seq)
        replay: list[str] | None = None
        if subscription is None:
            # Not a live channel: a finished (possibly pre-restart) run
            # streams from its sidecar, the file the frames were
            # written next to in the first place.
            replay = await asyncio.to_thread(
                self._sidecar_lines, run_id, after_seq
            )
            if replay is None:
                writer.write(
                    protocol.json_error(404, f"no run {run_id!r}")
                )
                await writer.drain()
                return
        writer.write(protocol.handshake_response(key))
        await writer.drain()
        try:
            await self._stream_events(
                writer, reader, subscription, replay, throttle_s, run_id
            )
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            if subscription is not None and subscription.queue is not None:
                self.hub.unsubscribe(run_id, subscription.client_id)

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        reader: asyncio.StreamReader,
        subscription: Subscription | None,
        replay: list[str] | None,
        throttle_s: float,
        run_id: str,
    ) -> None:
        async def send_line(line: str) -> None:
            fired = fault_site("service.ws.send", run_id)
            if fired is not None and fired.action == ACTION_DROP:
                # Injected network partition: kill the transport with
                # no close frame, exactly what a yanked cable looks
                # like to the client (ServiceError 502 → reconnect).
                writer.transport.abort()
                raise ConnectionResetError(
                    f"injected WS drop for run {run_id}"
                )
            writer.write(protocol.text_frame(line))
            await writer.drain()
            if throttle_s > 0:
                # Documented test hook: a deliberately slow client.
                # Sleeping with the frame "in flight" lets the hub
                # queue fill deterministically regardless of kernel
                # socket buffering.
                await asyncio.sleep(throttle_s)

        client_gone = asyncio.ensure_future(self._drain_client(reader, writer))
        try:
            if replay is not None:
                for line in replay:
                    if client_gone.done():
                        return
                    await send_line(line)
            else:
                assert subscription is not None
                for event in subscription.backlog:
                    if client_gone.done():
                        return
                    await send_line(event_to_json(event))
                queue = subscription.queue
                while queue is not None and not client_gone.done():
                    getter = asyncio.ensure_future(queue.get())
                    await asyncio.wait(
                        {getter, client_gone},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if not getter.done():
                        getter.cancel()
                        return
                    item = getter.result()
                    if item is STREAM_END:
                        break
                    await send_line(event_to_json(item))
            writer.write(protocol.close_frame())
            await writer.drain()
        finally:
            client_gone.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await client_gone

    async def _drain_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer pings; return when the client closes or disconnects."""
        with contextlib.suppress(
            protocol.ProtocolError, ConnectionError, BrokenPipeError
        ):
            async for frame in protocol.iter_frames(reader.read):
                if frame.opcode == protocol.OP_PING:
                    writer.write(
                        protocol.encode_frame(protocol.OP_PONG, frame.payload)
                    )
                    await writer.drain()
                elif frame.opcode == protocol.OP_CLOSE:
                    return

    def _sidecar_lines(
        self, run_id: str, after_seq: int
    ) -> list[str] | None:
        """A finished run's sidecar lines with ``seq > after_seq``.

        ``None`` when this server's store knows no such run at all
        (a missing sidecar for a known run yields an empty replay).
        """
        path = os.path.join(self.runs_dir, f"{run_id}.jsonl")
        if not os.path.exists(path):
            known = self._stored_runs()
            return [] if run_id in known else None
        lines: list[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.rstrip("\n")
                if not line:
                    continue
                try:
                    event = event_from_json(line)
                except ValueError:
                    continue
                if event.seq > after_seq:
                    lines.append(line)
        return lines


def serve_forever(server: CampaignServer) -> None:
    """Run a started server until interrupted (the CLI entry body)."""
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
