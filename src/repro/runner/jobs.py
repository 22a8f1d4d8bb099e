"""Job specifications and results for the campaign engine.

A :class:`JobSpec` names one unit of work — an experiment from the
registry or an importable callable — together with its parameters,
dependencies, and retry budget.  Its :attr:`~JobSpec.key` is a
deterministic content hash of *what* the job computes (kind, target,
parameters), so two specs that would compute the same thing share a key
regardless of their display ids, which is what makes the result cache
content-addressed and stable across processes and interpreter restarts.

A :class:`JobResult` records *how* one execution of a spec went: status,
produced value, error text, attempts, and wall time.  Results convert to
and from plain-JSON records so the persistent store can hold them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError

#: Job kinds understood by :func:`execute`.
KIND_EXPERIMENT = "experiment"
KIND_CALLABLE = "callable"
KNOWN_KINDS = (KIND_EXPERIMENT, KIND_CALLABLE)

#: Job statuses a :class:`JobResult` can carry.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"

#: Internal markers used by :func:`freeze_params` to keep frozen
#: parameters reversible (a mapping is not a plain tuple of pairs).
_MAP_MARKER = "@map"
_SEQ_MARKER = "@seq"


def freeze_params(value: Any) -> Any:
    """Recursively convert ``value`` into an immutable, picklable form.

    Mappings become sorted ``(@map, ((key, value), ...))`` tuples, lists
    and tuples become ``(@seq, (...))`` tuples, and scalars pass through.
    :func:`thaw_params` inverts the transformation.
    """
    if isinstance(value, Mapping):
        try:
            items = sorted(value.items())
        except TypeError as error:
            raise ConfigurationError(
                f"job params need sortable string keys: {error}"
            ) from None
        return (_MAP_MARKER, tuple((k, freeze_params(v)) for k, v in items))
    if isinstance(value, (list, tuple)):
        return (_SEQ_MARKER, tuple(freeze_params(v) for v in value))
    if isinstance(value, set):
        try:
            ordered = sorted(freeze_params(v) for v in value)
        except TypeError as error:
            raise ConfigurationError(
                f"set params need mutually sortable elements: {error}"
            ) from None
        return (_SEQ_MARKER, tuple(ordered))
    return value


def thaw_params(value: Any) -> Any:
    """Invert :func:`freeze_params` (mappings back to dicts, seqs to lists)."""
    if isinstance(value, tuple) and len(value) == 2:
        marker, payload = value
        if marker == _MAP_MARKER:
            return {k: thaw_params(v) for k, v in payload}
        if marker == _SEQ_MARKER:
            return [thaw_params(v) for v in payload]
    return value


def _jsonable(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types, deterministically.

    Frozen config dataclasses are expanded with their qualified class
    name so e.g. a MEMS device and a generic mechanical device with the
    same fields hash differently.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "@dataclass": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        out = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"job params need string keys, got {key!r}"
                )
            out[key] = _jsonable(val)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, set):
        try:
            return sorted(_jsonable(v) for v in value)
        except TypeError as error:
            raise ConfigurationError(
                f"set params need mutually sortable elements: {error}"
            ) from None
    raise ConfigurationError(
        f"value of type {type(value).__name__} cannot enter a job key"
    )


def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON used for content hashing."""
    return json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":")
    )


def content_key(kind: str, target: str, params: Any) -> str:
    """SHA-256 content hash of one job's identity.

    Stable across processes and interpreter restarts: it hashes a
    canonical JSON rendering, never ``hash()`` (which is salted).
    """
    payload = canonical_json(
        {"kind": kind, "target": target, "params": thaw_params(params)}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work.

    Attributes
    ----------
    job_id:
        Display id, unique within a campaign (``"fig2a"``,
        ``"sweep[1024]"``).
    kind:
        ``"experiment"`` (``target`` is a registry experiment id) or
        ``"callable"`` (``target`` is a ``"pkg.module:function"`` path).
    target:
        What to run; defaults to ``job_id`` for experiment jobs.
    params:
        Keyword arguments for the target.  Mappings/sequences are frozen
        on construction so the spec stays hashable and picklable.
    after:
        Ids of jobs that must succeed before this one may start.
    retries:
        How many times a failed execution is retried before giving up.
    deadline_s:
        Per-attempt wall-clock budget, seconds.  An attempt still
        running when it expires is abandoned (the scheduler emits a
        ``timeout`` event) and charged against the retry budget.
        ``None`` defers to the ``REPRO_JOB_DEADLINE_S`` environment
        default, if set.
    retry_backoff_s:
        Base delay for exponential backoff between retries.  Each
        retry waits a uniformly jittered ``[0, base * 2**(attempt-1)]``
        seconds (capped), so a flapping shared resource is not hammered
        in lockstep.  ``0`` retries immediately (the historical
        behaviour).

    Neither resilience knob enters :attr:`key` — *what* a job computes
    is independent of how patiently it is executed, so changing a
    deadline never invalidates cached results.
    """

    job_id: str
    kind: str = KIND_EXPERIMENT
    target: str = ""
    params: Any = field(default_factory=dict)
    after: tuple[str, ...] = ()
    retries: int = 0
    deadline_s: float | None = None
    retry_backoff_s: float = 0.0
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be a non-empty string")
        if self.kind not in KNOWN_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; known: {KNOWN_KINDS}"
            )
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError("deadline_s must be positive")
        if self.retry_backoff_s < 0:
            raise ConfigurationError("retry_backoff_s must be >= 0")
        if not self.target:
            if self.kind != KIND_EXPERIMENT:
                raise ConfigurationError(
                    f"job {self.job_id!r}: {self.kind} jobs need a target"
                )
            object.__setattr__(self, "target", self.job_id)
        object.__setattr__(self, "params", freeze_params(self.params))
        object.__setattr__(self, "after", tuple(self.after))
        # Cached eagerly: the scheduler reads .key in its hot loop.
        object.__setattr__(
            self, "_key", content_key(self.kind, self.target, self.params)
        )

    @property
    def key(self) -> str:
        """Deterministic content-hash key (kind + target + params)."""
        return self._key

    def params_dict(self) -> dict[str, Any]:
        """The frozen params as a plain keyword-argument dict."""
        thawed = thaw_params(self.params)
        if thawed is None:
            return {}
        if not isinstance(thawed, dict):
            raise ConfigurationError(
                f"job {self.job_id!r}: params must be a mapping"
            )
        return thawed


def resolve_callable(target: str) -> Callable[..., Any]:
    """Import a ``"pkg.module:function"`` target."""
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"callable target must look like 'pkg.module:function', "
            f"got {target!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ConfigurationError(
            f"cannot import module {module_name!r}: {error}"
        ) from error
    func = module
    for part in attr.split("."):
        try:
            func = getattr(func, part)
        except AttributeError:
            raise ConfigurationError(
                f"module {module_name!r} has no attribute {attr!r}"
            ) from None
    if not callable(func):
        raise ConfigurationError(f"target {target!r} is not callable")
    return func


def execute(spec: JobSpec) -> Any:
    """Run one job spec in the current process and return its value.

    Experiment jobs return the full
    :class:`~repro.experiments.base.ExperimentResult`; callable jobs
    return whatever the target returns.  Imports are deferred so this
    module can be loaded by the registry without a cycle, and so worker
    processes resolve targets against their own interpreter.
    """
    params = spec.params_dict()
    if spec.kind == KIND_EXPERIMENT:
        from ..experiments import run_experiment

        return run_experiment(spec.target, **params)
    return resolve_callable(spec.target)(**params)


def json_safe(value: Any) -> Any:
    """Reduce a job value to JSON-storable types for the result store.

    Experiment results keep their id, title, headline scalars, notes,
    and rendered text; other dataclasses store their fields; tuples
    and numpy arrays become lists and numpy scalars Python scalars;
    anything else degrades to its ``repr``.  Lossy by
    design — the store holds the *findings* (headline scalars), not
    live model objects, and must never fail to persist a result that
    already succeeded.
    """
    from ..experiments.base import ExperimentResult

    if isinstance(value, ExperimentResult):
        return {
            "experiment_id": value.experiment_id,
            "title": value.title,
            "headline": json_safe(value.headline),
            "notes": list(value.notes),
            "rendered": value.render(),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: json_safe(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, set):
        return sorted(json_safe(v) for v in value)
    if type(value).__module__ == "numpy" and hasattr(value, "tolist"):
        # Arrays become lists and scalars Python scalars, e.g. the
        # columns of repro.core.batch targets.  Recognised by module so
        # that a cached campaign, which never holds one, never imports
        # numpy.
        return json_safe(value.tolist())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        # Binary column payloads (repro.runner.codec) pass through as
        # real bytes; the store backends own their encoding (base64 in
        # JSONL lines, native BLOBs in SQLite).
        return bytes(value)
    return repr(value)


@dataclass(frozen=True)
class JobResult:
    """Outcome of executing (or cache-resolving) one :class:`JobSpec`.

    Attributes
    ----------
    job_id, key:
        Echo of the spec's display id and content key.
    status:
        ``"ok"``, ``"cached"``, ``"failed"``, or ``"skipped"``.
    value:
        The produced value (an ``ExperimentResult`` for fresh experiment
        jobs; the stored JSON payload for cached results).
    error:
        Error text for failed/skipped jobs.
    attempts:
        Executions performed (0 for cached/skipped results).
    duration_s:
        Wall time of the final attempt, seconds.
    worker_pid:
        Pid of the process that ran the job (``None`` if not executed).
    telemetry:
        Metrics/spans delta recorded by the worker process during this
        attempt (``None`` for serial runs, where telemetry lands in
        the parent's registries directly).  Transport-only: excluded
        from comparisons, ``repr``, and stored records — the scheduler
        merges and drops it when the result resolves.
    """

    job_id: str
    key: str
    status: str
    value: Any = None
    error: str | None = None
    attempts: int = 0
    duration_s: float = 0.0
    worker_pid: int | None = None
    telemetry: Any = field(default=None, repr=False, compare=False)

    @property
    def succeeded(self) -> bool:
        """Whether the job's value is usable (fresh or cached)."""
        return self.status in (STATUS_OK, STATUS_CACHED)

    def headline(self) -> dict[str, Any]:
        """Headline scalars of an experiment value (``{}`` otherwise)."""
        value = self.value
        if hasattr(value, "headline"):
            return dict(value.headline)
        if isinstance(value, Mapping) and "headline" in value:
            return dict(value["headline"])
        return {}

    def to_record(self, spec: JobSpec | None = None) -> dict[str, Any]:
        """A plain-JSON record of this result for the persistent store."""
        record = {
            "job_id": self.job_id,
            "key": self.key,
            "status": self.status,
            "value": json_safe(self.value),
            "error": self.error,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "stored_at": time.time(),
        }
        if spec is not None:
            record["kind"] = spec.kind
            record["target"] = spec.target
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JobResult":
        """Rebuild a result from a store record."""
        return cls(
            job_id=record["job_id"],
            key=record["key"],
            status=record["status"],
            value=record.get("value"),
            error=record.get("error"),
            attempts=int(record.get("attempts", 0)),
            duration_s=float(record.get("duration_s", 0.0)),
        )
