"""Sharded sweeps: million-point grids as resumable, cached campaigns.

A sweep evaluates one target over a grid of one parameter.  Sharding
splits the grid into contiguous shards and expresses the sweep *as a
campaign*: one content-hash-keyed
:class:`~repro.runner.jobs.JobSpec` per shard plus an ``after``-merge
job, all streamed through the persistent
:class:`~repro.runner.store.ResultStore`.  That buys, for free, every
property the campaign engine already has:

* **resumable** — each completed shard is cache-put under its content
  key the moment it finishes, so re-running an interrupted sweep
  resolves finished shards from cache and computes only the rest;
* **cached** — an unchanged grid re-run is pure cache hits, and a grid
  edit re-computes only the shards whose values changed (content keys
  hash the shard's values, not its position);
* **parallel** — shards fan out across the worker pool like any other
  jobs.

Grids travel two ways.  An explicit value list is chunked, and
each shard job carries (and hashes) its own values.  A *grid
descriptor* (``{"kind": "geomspace", "start": ..., "stop": ...,
"num": ...}``) ships only ``(descriptor, shard index, shard count)``
per job: each worker builds the grid once (:func:`materialise_grid`)
and slices out its shards, so scheduling a million-point sweep pickles
a few dozen bytes per job instead of 125k floats, and content keys
hash O(1) descriptors instead of O(n) value lists.

Shard results move through the store in the **columnar binary codec**
(:mod:`repro.runner.codec`) by default: a batch target hands back one
numpy column per metric, :func:`evaluate_shard` packs those columns as
they are into one blob, and that shard record is the sweep's one
stored copy of its points.  The merge job only folds the metric
summary from the shard payloads; :func:`collect_arrays` decodes them
straight to numpy, :func:`collect_points` / :func:`iter_points` to
exact Python values, and :func:`lookup_point` answers one grid point.
``codec="json"`` (or ``REPRO_POINT_CODEC=json``) keeps the legacy
per-point path, whose merge also files one JSON record per point,
and every reader transparently accepts payloads in either format, so
stores written before the codec existed keep working.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, InfeasibleDesignError
from ..faults import fault_site
from ..telemetry import metrics, span
from . import codec as _codec
from .campaign import Campaign
from .codec import (
    CODEC_COLUMNAR,
    KIND_MAPPING,
    KIND_SCALAR,
    SCALAR_COLUMN,
    check_codec,
    default_codec,
)
from .jobs import content_key, json_safe, resolve_callable
from .store import ResultStore

#: Dotted paths the shard and merge jobs resolve in worker processes.
SHARD_TARGET = "repro.runner.sharding:evaluate_shard"
MERGE_TARGET = "repro.runner.sharding:merge_shards"

#: Pseudo-kind hashed into per-point record keys.  Deliberately NOT a
#: schedulable job kind: a point record holds one point's metrics, not
#: what a single-point *job* of the target would return (that job sees
#: a scalar argument and may shape its output differently), so these
#: records must never be served as cache hits for real jobs.
POINT_KIND = "point"

#: Grid-descriptor kinds workers know how to materialise.
GRID_KINDS = ("geomspace", "linspace")

#: The ``codec="json"`` merge flushes its point records to the store in
#: batches of this many, so a million-point merge never holds more than
#: one batch of JSON lines / SQL rows beyond the one shard payload
#: currently being drained.  Override per merge with ``flush_chunk=`` or
#: globally via :data:`FLUSH_CHUNK_ENV_VAR`.
FLUSH_CHUNK = 50_000
#: Environment variable overriding :data:`FLUSH_CHUNK`.
FLUSH_CHUNK_ENV_VAR = "REPRO_MERGE_FLUSH_CHUNK"


def _env_flush_chunk() -> int:
    """The :data:`FLUSH_CHUNK_ENV_VAR` merge chunk, validated."""
    raw = os.environ.get(FLUSH_CHUNK_ENV_VAR, "").strip()
    if not raw:
        return FLUSH_CHUNK
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{FLUSH_CHUNK_ENV_VAR} must be a whole number of points, "
            f"got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{FLUSH_CHUNK_ENV_VAR} must be >= 1, got {raw!r}"
        )
    return value


def shard_grid(values: Sequence[Any], shards: int) -> list[list[Any]]:
    """Split a grid into at most ``shards`` contiguous, non-empty chunks.

    Chunk sizes differ by at most one and concatenate back to the
    original grid in order.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    count = len(values)
    if count == 0:
        raise ConfigurationError("cannot shard an empty grid")
    shards = min(shards, count)
    return [
        list(values[index * count // shards : (index + 1) * count // shards])
        for index in range(shards)
    ]


# -- grid descriptors ------------------------------------------------------


def grid_descriptor(
    kind: str, start: float, stop: float, num: int
) -> dict[str, Any]:
    """A validated grid descriptor shard jobs can materialise themselves.

    Descriptors replace explicit value lists in job parameters: content
    keys hash four scalars instead of the whole grid, and each worker
    rebuilds only its own contiguous slice.
    """
    if kind not in GRID_KINDS:
        known = ", ".join(GRID_KINDS)
        raise ConfigurationError(
            f"unknown grid kind {kind!r}; known: {known}"
        )
    num = int(num)
    if num < 1:
        raise ConfigurationError(f"grid num must be >= 1, got {num}")
    start = float(start)
    stop = float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigurationError(
            f"grid start and stop must be finite, got {start!r}, {stop!r}"
        )
    if kind == "geomspace" and (start <= 0 or stop <= 0):
        raise ConfigurationError(
            "geomspace grids need start > 0 and stop > 0"
        )
    return {"kind": kind, "start": start, "stop": stop, "num": num}


def _coerce_grid(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """Validate an arbitrary mapping as a grid descriptor."""
    return grid_descriptor(
        str(mapping.get("kind")),
        mapping.get("start", 0.0),
        mapping.get("stop", 0.0),
        mapping.get("num", 0),
    )


def materialise_grid(grid: Mapping[str, Any]) -> np.ndarray:
    """The full value array of a grid descriptor (read-only, memoised).

    Every shard job of a descriptor sweep slices the same grid, so a
    process builds it once and keeps the last descriptor's array.
    """
    grid = _coerce_grid(grid)
    return _grid_values(
        grid["kind"], grid["start"].hex(), grid["stop"].hex(), grid["num"]
    )


@lru_cache(maxsize=1)
def _grid_values(kind: str, start: str, stop: str, num: int) -> np.ndarray:
    # Keyed by the ends' bit patterns (float.hex), so -0.0 and 0.0
    # stay two grids.
    space = np.geomspace if kind == "geomspace" else np.linspace
    values = space(float.fromhex(start), float.fromhex(stop), num)
    values.setflags(write=False)
    return values


def shard_values(
    grid: Mapping[str, Any], shard_index: int, shard_count: int
) -> np.ndarray:
    """One shard's contiguous slice of a grid descriptor's values.

    A read-only view of :func:`materialise_grid`, sliced with the same
    arithmetic as :func:`shard_grid`, so descriptor sweeps are
    value-for-value identical to explicit-list sweeps of the same grid.
    """
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    if not 0 <= shard_index < shard_count:
        raise ConfigurationError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )
    full = materialise_grid(grid)
    count = len(full)
    lo = shard_index * count // shard_count
    hi = (shard_index + 1) * count // shard_count
    return full[lo:hi]


def _check_series(result: Mapping[str, Any], count: int) -> dict[str, Any]:
    """Validate a batch target's per-metric series lengths.

    Numpy columns (what :mod:`repro.core.batch` targets return) pass
    through as one-dimensional arrays, so the codec packs them by dtype
    with no per-value type scan; any other series becomes a list.
    """
    series: dict[str, Any] = {}
    for name, column in result.items():
        if not isinstance(column, np.ndarray):
            column = list(column)
        elif column.ndim != 1:
            raise ConfigurationError(
                f"batch target metric {name!r} returned a "
                f"{column.ndim}-dimensional array, expected one value "
                "per point"
            )
        if len(column) != count:
            raise ConfigurationError(
                f"batch target metric {name!r} returned {len(column)} "
                f"values for a {count}-point shard"
            )
        series[str(name)] = column
    return series


def evaluate_shard(
    sweep_target: str,
    parameter: str,
    values: Sequence[Any] | None = None,
    common: Mapping[str, Any] | None = None,
    batch: bool = True,
    grid: Mapping[str, Any] | None = None,
    shard_index: int | None = None,
    shard_count: int | None = None,
    codec: str | None = None,
) -> dict[str, Any]:
    """Evaluate one contiguous shard of a sweep grid (worker entry point).

    Exactly one of ``values`` (an explicit list) and ``grid`` (a
    descriptor, with ``shard_index``/``shard_count``) names the shard's
    points.  A batch target gets them in one call: the list, or for a
    descriptor the read-only float64 slice of :func:`shard_values`; a
    scalar target (``batch=False``) gets one Python value per call.
    Returns the shard payload: with the columnar codec (the default), a
    batch target's per-metric series are packed straight into binary
    columns (numpy columns by dtype, with no per-value type scan) and
    no per-point dict is ever built; with ``codec="json"`` (or for
    results the binary dtypes cannot represent exactly) the payload is
    the legacy ``{"values": [...], "points": [...]}`` form.
    """
    if (values is None) == (grid is None):
        raise ConfigurationError(
            "pass exactly one of values= or grid= to evaluate_shard"
        )
    shard: Any
    if grid is not None:
        if shard_index is None or shard_count is None:
            raise ConfigurationError(
                "grid descriptors need shard_index and shard_count"
            )
        shard = shard_values(grid, shard_index, shard_count)
        if not batch:
            shard = shard.tolist()
    else:
        shard = list(values)  # type: ignore[arg-type]
    chosen = check_codec(codec) if codec is not None else default_codec()
    func = resolve_callable(sweep_target)
    kwargs = dict(common or {})
    count = len(shard)
    with span(
        "shard.evaluate",
        cat="sweep",
        target=sweep_target,
        points=count,
        shard=shard_index,
    ):
        return _evaluate_shard_points(
            func, parameter, shard, kwargs, batch, chosen, count
        )


def _evaluate_shard_points(
    func: Any,
    parameter: str,
    values: Sequence[Any],
    kwargs: dict[str, Any],
    batch: bool,
    chosen: str,
    count: int,
) -> dict[str, Any]:
    """The compute + pack body of :func:`evaluate_shard`."""
    if batch:
        result = func(**{parameter: values}, **kwargs)
        if isinstance(result, Mapping):
            series = _check_series(result, count)
            if chosen == CODEC_COLUMNAR:
                payload = _codec.pack_series(values, series, KIND_MAPPING)
                return {"parameter": parameter, **payload}
            lists = {
                name: (
                    column.tolist()
                    if isinstance(column, np.ndarray)
                    else column
                )
                for name, column in series.items()
            }
            points: list[Any] = [
                {name: lists[name][index] for name in lists}
                for index in range(count)
            ]
        elif (
            chosen == CODEC_COLUMNAR
            and isinstance(result, np.ndarray)
            and result.ndim == 1
        ):
            # One array of point values packs by its dtype; listing it
            # would give numpy scalars, which the codec stores as JSON.
            series = _check_series({SCALAR_COLUMN: result}, count)
            payload = _codec.pack_series(values, series, KIND_SCALAR)
            return {"parameter": parameter, **payload}
        else:
            points = list(result)
            if len(points) != count:
                raise ConfigurationError(
                    f"batch target returned {len(points)} values for a "
                    f"{count}-point shard"
                )
    else:
        points = []
        for value in values:
            try:
                points.append(func(**{parameter: value}, **kwargs))
            except InfeasibleDesignError:
                points.append(math.inf)
    if chosen == CODEC_COLUMNAR:
        packed = _codec.pack_points(values, points)
        if packed is not None:
            return {"parameter": parameter, **packed}
    return {
        "parameter": parameter,
        "values": json_safe(values),
        "points": json_safe(points),
    }


class _PointSummary:
    """Streaming finite-count/min/max accumulator per numeric metric.

    Replaces the materialise-then-reduce summary so the merge job can
    fold points in as they stream past — state is three scalars per
    metric name, never the point series itself.  Columnar shards fold
    in as whole arrays (:meth:`add_columns`), producing bit-identical
    statistics to the per-point path.
    """

    def __init__(self) -> None:
        self._stats: dict[str, dict[str, Any]] = {}

    def _fold(self, name: str, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        stats = self._stats.setdefault(
            name, {"finite": 0, "min": None, "max": None}
        )
        value = float(value)
        if not math.isfinite(value):
            return
        stats["finite"] += 1
        if stats["min"] is None or value < stats["min"]:
            stats["min"] = value
        if stats["max"] is None or value > stats["max"]:
            stats["max"] = value

    def add(self, point: Any) -> None:
        items = (
            point.items()
            if isinstance(point, Mapping)
            else [(SCALAR_COLUMN, point)]
        )
        for name, value in items:
            self._fold(name, value)

    def add_columns(self, columns: Mapping[str, Any]) -> None:
        """Fold whole decoded columns in one vectorised pass each."""
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                if column.dtype.kind not in "fi":
                    continue  # bools and categories, like the dict path
                stats = self._stats.setdefault(
                    name, {"finite": 0, "min": None, "max": None}
                )
                array = np.asarray(column, dtype=float)
                finite = array[np.isfinite(array)]
                if finite.size == 0:
                    continue
                stats["finite"] += int(finite.size)
                low = float(finite.min())
                high = float(finite.max())
                if stats["min"] is None or low < stats["min"]:
                    stats["min"] = low
                if stats["max"] is None or high > stats["max"]:
                    stats["max"] = high
            else:
                for value in column:
                    self._fold(name, value)

    def as_dict(self) -> dict[str, dict[str, Any]]:
        return self._stats


def _iter_shard_payloads(
    store: ResultStore, shard_keys: Sequence[str], store_path: str
) -> Iterator[dict[str, Any]]:
    """Yield each shard's stored payload, one at a time.

    Only one shard payload is ever decoded at once — the caller drains
    it before the next ``store.get`` — which is what keeps the merge
    worker's footprint O(shard + chunk) instead of O(points).  Raises
    :class:`~repro.errors.ConfigurationError` when a shard has no
    ``ok`` record — the sweep was not (fully) run against this store.
    """
    for key in shard_keys:
        record = store.get(key)
        if record is None:
            raise ConfigurationError(
                f"shard {key} has no ok record in {store_path!r}; "
                "run the sweep campaign against this store first"
            )
        yield record["value"]


def _payload_points(payload: Mapping[str, Any]) -> tuple[list[Any], list[Any]]:
    """A shard payload as ``(values, points)``, whatever its codec."""
    if _codec.is_columnar(payload):
        return _codec.unpack_points(payload)
    return payload["values"], payload["points"]


def _payload_columns(
    payload: Mapping[str, Any],
) -> tuple[Any, dict[str, Any], str] | None:
    """A shard payload as ``(values, columns, points_kind)`` arrays.

    Columnar payloads decode straight to numpy; legacy JSON payloads
    are columnised when their points are uniform (``None`` when they
    are not — the caller falls back to the per-point path).
    """
    if _codec.is_columnar(payload):
        return _codec.unpack_columns(payload)
    columnised = _codec.series_from_points(payload["points"])
    if columnised is None:
        return None
    points_kind, series = columnised
    return (
        _codec.column_to_array(payload["values"]),
        {
            name: _codec.column_to_array(column)
            for name, column in series.items()
        },
        points_kind,
    )


def point_key(
    sweep_target: str,
    parameter: str,
    value: Any,
    common: Mapping[str, Any] | None = None,
) -> str:
    """Deterministic content key of one grid point of one sweep.

    The legacy (``codec="json"``) merge files every grid point under
    this key, so any point of an already-swept grid is one indexed
    ``store.get`` away.  The key hashes :data:`POINT_KIND`, never a
    schedulable job kind — point records are a query surface, not
    cache entries for real jobs.
    """
    return content_key(
        POINT_KIND, sweep_target, {parameter: value, **dict(common or {})}
    )


def merge_shards(
    store_path: str,
    shard_keys: Sequence[str],
    sweep_target: str,
    parameter: str,
    prefix: str,
    common: Mapping[str, Any] | None = None,
    store_backend: str | None = None,
    flush_chunk: int | None = None,
    codec: str | None = None,
) -> dict[str, Any]:
    """Fold a finished sweep's shard payloads into its summary.

    Streams shard payloads one at a time (every shard record is in the
    store by the time this job is scheduled — the scheduler cache-puts
    results before releasing dependents) and folds the finite count,
    minimum and maximum of each numeric metric.  The shard records are
    the sweep's one stored copy of its points, so with the columnar
    codec (the default) the merge writes nothing: each payload decodes
    straight to column arrays and folds in one vectorised pass per
    metric.  With ``codec="json"`` the merge also files one JSON record
    per point under :func:`point_key`, flushed in ``append_many``
    batches of ``flush_chunk`` points.  Either way the full point list
    is never materialised: peak merge memory is O(shard + chunk), not
    O(points).  Re-merging after an interrupt may append duplicate
    point records; latest-wins store semantics make that harmless and
    ``compact()`` reclaims them.
    """
    chunk_size = (
        flush_chunk if flush_chunk is not None else _env_flush_chunk()
    )
    if chunk_size < 1:
        raise ConfigurationError(
            f"flush_chunk must be >= 1, got {chunk_size}"
        )
    chosen = check_codec(codec) if codec is not None else default_codec()
    store = ResultStore(store_path, backend=store_backend)
    summary = _PointSummary()
    merged = 0
    point_records = 0
    try:
        chunk: list[dict[str, Any]] = []

        def flush_points() -> None:
            nonlocal chunk, point_records
            if not chunk:
                return
            fault_site("merge.flush")
            with metrics().timer("merge.flush_s"):
                store.append_many(chunk)
            point_records += len(chunk)
            chunk = []

        with span(
            "merge",
            cat="sweep",
            target=sweep_target,
            shards=len(shard_keys),
        ):
            for payload in _iter_shard_payloads(
                store, shard_keys, store_path
            ):
                columns = (
                    _payload_columns(payload)
                    if chosen == CODEC_COLUMNAR
                    else None
                )
                if columns is not None:
                    values, series, _ = columns
                    summary.add_columns(series)
                    merged += len(values)
                    continue
                # Per-point path: codec="json", which also files the
                # point records, or a payload that will not columnise.
                values, points = _payload_points(payload)
                for value, point in zip(values, points):
                    summary.add(point)
                    merged += 1
                    if chosen == CODEC_COLUMNAR:
                        continue
                    chunk.append(
                        {
                            "key": point_key(
                                sweep_target, parameter, value, common
                            ),
                            "job_id": f"{prefix}[{value}]",
                            "status": "ok",
                            "value": point,
                        }
                    )
                    if len(chunk) >= chunk_size:
                        flush_points()
            flush_points()
    finally:
        store.close()
    return {
        "parameter": parameter,
        "points": merged,
        "shards": len(shard_keys),
        "point_records": point_records,
        "metrics": summary.as_dict(),
    }


def sharded_sweep_campaign(
    name: str,
    target: str,
    parameter: str,
    values: Sequence[Any] | Mapping[str, Any],
    *,
    store_path: str,
    shards: int = 8,
    store_backend: str | None = None,
    common: Mapping[str, Any] | None = None,
    retries: int = 0,
    batch: bool = True,
    flush_chunk: int | None = None,
    codec: str | None = None,
) -> Campaign:
    """Build the campaign for one sharded sweep.

    Jobs ``{name}/shard0000 ... {name}/shardNNNN`` each evaluate one
    contiguous chunk of ``values`` via :func:`evaluate_shard`;
    ``{name}/merge`` runs ``after`` all of them and folds their payloads
    from the store at ``store_path`` into the sweep's summary.  ``values``
    is either an explicit sequence — chunked into the job parameters —
    or a grid descriptor mapping (:func:`grid_descriptor`), in which
    case each shard job ships only ``(descriptor, shard index, shard
    count)`` and materialises its own slice.  Run it with
    ``run_campaign(campaign, store_path=store_path, jobs=N)`` — the
    same store makes the sweep resumable and re-runs cached.
    ``flush_chunk`` bounds the ``codec="json"`` merge's point-record
    batches (default :data:`FLUSH_CHUNK`, or :data:`FLUSH_CHUNK_ENV_VAR`,
    which is validated here so a bad value fails before any shard
    runs); like
    ``codec``, it is left out of job content keys when unset so
    existing stores keep resolving from cache.
    """
    if flush_chunk is None:
        _env_flush_chunk()
    common = dict(common or {})
    campaign = Campaign(name)
    shard_ids: list[str] = []
    shard_keys: list[str] = []
    extra: dict[str, Any] = {}
    if codec is not None:
        extra["codec"] = check_codec(codec)
    if isinstance(values, Mapping):
        grid = _coerce_grid(values)
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards}"
            )
        shard_count = min(shards, grid["num"])
        chunks: list[dict[str, Any]] = [
            dict(grid=grid, shard_index=index, shard_count=shard_count)
            for index in range(shard_count)
        ]
    else:
        chunks = [
            dict(values=chunk) for chunk in shard_grid(values, shards)
        ]
    for index, chunk_params in enumerate(chunks):
        job_id = f"{name}/shard{index:04d}"
        campaign.call(
            job_id,
            SHARD_TARGET,
            retries=retries,
            sweep_target=target,
            parameter=parameter,
            common=common,
            batch=batch,
            **chunk_params,
            **extra,
        )
        shard_ids.append(job_id)
        shard_keys.append(campaign.specs[-1].key)
    merge_params: dict[str, Any] = dict(
        store_path=str(store_path),
        shard_keys=shard_keys,
        sweep_target=target,
        parameter=parameter,
        prefix=name,
        common=common,
        store_backend=store_backend,
        **extra,
    )
    if flush_chunk is not None:
        merge_params["flush_chunk"] = flush_chunk
    campaign.call(
        f"{name}/merge",
        MERGE_TARGET,
        after=shard_ids,
        retries=retries,
        **merge_params,
    )
    return campaign


def run_sharded_sweep(
    name: str,
    target: str,
    parameter: str,
    values: Sequence[Any] | Mapping[str, Any],
    *,
    store_path: str,
    shards: int = 8,
    jobs: int = 1,
    store_backend: str | None = None,
    common: Mapping[str, Any] | None = None,
    retries: int = 0,
    batch: bool = True,
    flush_chunk: int | None = None,
    codec: str | None = None,
    monitor: Any = None,
    strict: bool = True,
    observers: Sequence[Any] = (),
    run_id: str = "",
    executor: Any = None,
):
    """Build and execute a sharded sweep; return its ``CampaignResult``.

    The merge summary is at ``result.results[f"{name}/merge"].value``;
    the full per-point series reassembles with :func:`collect_points`
    (or streams through :func:`iter_points`, or decodes straight to
    numpy with :func:`collect_arrays`).  The campaign's cache preloads
    only the campaign's own content keys, so re-running against a
    store already holding millions of point records never loads them
    into memory.  ``executor`` picks the execution backend
    (``"serial"``/``"pool"`` or a backend instance), forwarded through
    :func:`~repro.runner.campaign.run_campaign`.
    """
    from .campaign import run_campaign

    campaign = sharded_sweep_campaign(
        name,
        target,
        parameter,
        values,
        store_path=store_path,
        shards=shards,
        store_backend=store_backend,
        common=common,
        retries=retries,
        batch=batch,
        flush_chunk=flush_chunk,
        codec=codec,
    )
    return run_campaign(
        campaign,
        jobs=jobs,
        store_path=store_path,
        store_backend=store_backend,
        observers=observers,
        monitor=monitor,
        strict=strict,
        run_id=run_id,
        executor=executor,
    )


def _campaign_shard_keys(campaign: Campaign) -> list[str]:
    return [
        spec.key for spec in campaign.specs if spec.target == SHARD_TARGET
    ]


def collect_points(
    store_path: str,
    campaign: Campaign,
    store_backend: str | None = None,
) -> tuple[list[Any], list[Any]]:
    """Reassemble a sharded sweep's full ``(values, points)`` from its store.

    Streams shard records in shard order, so the caller gets the same
    series a monolithic sweep would have produced — columnar payloads
    are decoded back to exact per-point Python values, bit-identical
    to the JSON-dict path.  Materialises the whole grid by contract;
    use :func:`iter_points` to stream, or :func:`collect_arrays` to
    skip per-point objects entirely.
    """
    shard_keys = _campaign_shard_keys(campaign)
    store = ResultStore(store_path, backend=store_backend)
    values: list[Any] = []
    points: list[Any] = []
    try:
        for payload in _iter_shard_payloads(store, shard_keys, store_path):
            shard_vals, shard_points = _payload_points(payload)
            values.extend(shard_vals)
            points.extend(shard_points)
    finally:
        store.close()
    return values, points


def iter_points(
    store_path: str,
    campaign: Campaign,
    store_backend: str | None = None,
) -> Iterator[tuple[Any, Any]]:
    """Stream a sharded sweep's ``(value, point)`` pairs in grid order.

    The lazy twin of :func:`collect_points`: one shard payload is
    decoded at a time and released as soon as it drains, so walking a
    10M-point sweep costs one shard of memory, not the grid.
    """
    shard_keys = _campaign_shard_keys(campaign)
    store = ResultStore(store_path, backend=store_backend)
    try:
        for payload in _iter_shard_payloads(store, shard_keys, store_path):
            values, points = _payload_points(payload)
            yield from zip(values, points)
    finally:
        store.close()


@dataclass(frozen=True)
class SweepColumns:
    """A sharded sweep decoded straight to arrays.

    ``values`` is the grid; ``columns`` maps metric name to one entry
    per grid point (numpy arrays for binary columns, lists for inline
    JSON columns).  ``points_kind`` records whether the sweep target
    produced mappings (one column per metric) or plain scalars (a
    single :data:`~repro.runner.codec.SCALAR_COLUMN` column).
    """

    values: Any
    columns: dict[str, Any]
    points_kind: str


def collect_arrays(
    store_path: str,
    campaign: Campaign,
    store_backend: str | None = None,
) -> SweepColumns:
    """Decode a sharded sweep's store records straight to numpy arrays.

    The array-native twin of :func:`collect_points`: columnar shard
    payloads are ``np.frombuffer``-decoded and concatenated with no
    per-point Python-object hop; legacy JSON payloads are columnised
    on the fly.  Raises :class:`~repro.errors.ConfigurationError` for
    sweeps whose points will not columnise (ragged mappings) — those
    need :func:`collect_points`.
    """
    shard_keys = _campaign_shard_keys(campaign)
    store = ResultStore(store_path, backend=store_backend)
    values_segments: list[Any] = []
    column_segments: dict[str, list[Any]] = {}
    points_kind: str | None = None
    try:
        for payload in _iter_shard_payloads(store, shard_keys, store_path):
            columns = _payload_columns(payload)
            if columns is None:
                raise ConfigurationError(
                    "sweep points will not columnise (ragged point "
                    "mappings?); use collect_points instead"
                )
            shard_values, shard_columns, shard_kind = columns
            if points_kind is None:
                points_kind = shard_kind
                column_segments = {name: [] for name in shard_columns}
            elif shard_kind != points_kind or set(shard_columns) != set(
                column_segments
            ):
                raise ConfigurationError(
                    "shard payloads disagree on columns; was the sweep "
                    "target changed between shards?"
                )
            values_segments.append(shard_values)
            for name, column in shard_columns.items():
                column_segments[name].append(column)
    finally:
        store.close()
    return SweepColumns(
        values=_codec.concat_columns(values_segments),
        columns={
            name: _codec.concat_columns(segments)
            for name, segments in column_segments.items()
        },
        points_kind=points_kind or KIND_SCALAR,
    )


def lookup_point(
    store_path: str,
    campaign: Campaign,
    value: Any,
    store_backend: str | None = None,
) -> Any:
    """One grid point's metrics from a finished sweep's store.

    Searches the campaign's shard payloads in shard order, one indexed
    ``get`` each, and decodes the first holding ``value``; a shard
    without a stored record is passed over.  Shard payloads are in
    every sweep store, whatever codec or build wrote it.  Returns the
    point's metrics as exact Python values (a mapping or scalar,
    matching the sweep target's shape) or ``None`` when the value is
    not a stored grid point.
    """
    shard_keys = _campaign_shard_keys(campaign)
    if not shard_keys:
        raise ConfigurationError(
            "campaign holds no sharded sweep (no shard jobs)"
        )
    store = ResultStore(store_path, backend=store_backend)
    try:
        for key in shard_keys:
            record = store.get(key)
            if record is None:
                continue
            payload = record["value"]
            if not _codec.is_columnar(payload):
                try:
                    position = payload["values"].index(value)
                except ValueError:
                    continue
                return payload["points"][position]
            values, columns, points_kind = _codec.unpack_columns(payload)
            if isinstance(values, np.ndarray):
                hits = np.flatnonzero(values == value)
                if not hits.size:
                    continue
                position = int(hits[0])
            else:
                try:
                    position = values.index(value)
                except ValueError:
                    continue
            point: dict[str, Any] = {}
            for name, column in columns.items():
                entry = column[position]
                point[name] = (
                    entry.item() if isinstance(entry, np.generic) else entry
                )
            if points_kind == KIND_SCALAR:
                return point[SCALAR_COLUMN]
            return point
        return None
    finally:
        store.close()
