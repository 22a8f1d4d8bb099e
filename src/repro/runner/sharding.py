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

Sweep targets are batch targets: each gets a whole shard of values in
one call.  Shard results move through the store in the **columnar
binary codec** (:mod:`repro.runner.codec`): a target hands back one
numpy column per metric (or one column of point values),
:func:`evaluate_shard` packs those columns as they are into one blob,
and that shard record is the sweep's one stored copy of its points.
The merge job only folds the metric summary from the shard payloads,
and :func:`collect_arrays` decodes them straight to numpy.  Both read
columnar payloads only: a shard record in a form older builds wrote
fails with an error naming ``repro store migrate``, which converts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..telemetry import span
from . import codec as _codec
from .campaign import Campaign
from .codec import KIND_MAPPING, KIND_SCALAR, SCALAR_COLUMN
from .jobs import resolve_callable
from .store import ResultStore

#: Dotted paths the shard and merge jobs resolve in worker processes.
SHARD_TARGET = "repro.runner.sharding:evaluate_shard"
MERGE_TARGET = "repro.runner.sharding:merge_shards"

#: Grid-descriptor kinds workers know how to materialise.
GRID_KINDS = ("geomspace", "linspace")


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
    with no per-value type scan; any other series becomes a list, which
    the codec packs by its values' Python types.
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
) -> dict[str, Any]:
    """Evaluate one contiguous shard of a sweep grid (worker entry point).

    Exactly one of ``values`` (an explicit list) and ``grid`` (a
    descriptor, with ``shard_index``/``shard_count``) names the shard's
    points.  The batch target gets them in one call: the list, or for a
    descriptor the read-only float64 slice of :func:`shard_values`.
    Returns the shard's columnar payload: a mapping result packs as one
    column per metric, any other result as the single
    :data:`~repro.runner.codec.SCALAR_COLUMN` column, numpy columns by
    dtype with no per-value type scan.  ``batch`` is not read; it stays
    a parameter because shard jobs hash it into their content keys,
    which keeps existing stores resolving from cache.
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
    else:
        shard = list(values)  # type: ignore[arg-type]
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
        return _evaluate_shard_points(func, parameter, shard, kwargs, count)


def _evaluate_shard_points(
    func: Any,
    parameter: str,
    values: Sequence[Any],
    kwargs: dict[str, Any],
    count: int,
) -> dict[str, Any]:
    """The compute + pack body of :func:`evaluate_shard`."""
    result = func(**{parameter: values}, **kwargs)
    if isinstance(result, Mapping):
        points_kind, series = KIND_MAPPING, _check_series(result, count)
    else:
        points_kind = KIND_SCALAR
        series = _check_series({SCALAR_COLUMN: result}, count)
    payload = _codec.pack_series(values, series, points_kind)
    return {"parameter": parameter, **payload}


class _PointSummary:
    """Streaming finite-count/min/max accumulator per numeric metric.

    The merge job folds each shard's decoded columns in as they stream
    past (:meth:`add_columns`), so its state is three scalars per
    metric name, never the point series itself.
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

    def add_columns(self, columns: Mapping[str, Any]) -> None:
        """Fold whole decoded columns in one vectorised pass each.

        Binary numeric columns fold as arrays; bools and categories are
        skipped; inline ``json`` columns fold value by value.
        """
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                if column.dtype.kind not in "fi":
                    continue  # bools and categories
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
    worker's footprint O(shard) instead of O(points).  Raises
    :class:`~repro.errors.ConfigurationError` when a shard has no
    ``ok`` record — the sweep was not (fully) run against this store —
    or when its payload is not columnar, the form only ``repro store
    migrate`` reads.
    """
    for key in shard_keys:
        record = store.get(key)
        if record is None:
            raise ConfigurationError(
                f"shard {key} has no ok record in {store_path!r}; "
                "run the sweep campaign against this store first"
            )
        payload = record["value"]
        if not _codec.is_columnar(payload):
            raise ConfigurationError(
                f"shard {key} in {store_path!r} holds a "
                f"{_codec.payload_kind(record)} payload an older build "
                "wrote; convert the store with 'repro store migrate "
                f"{store_path} NEW' and sweep into NEW"
            )
        yield payload


def merge_shards(
    store_path: str,
    shard_keys: Sequence[str],
    sweep_target: str,
    parameter: str,
    prefix: str,
    common: Mapping[str, Any] | None = None,
    store_backend: str | None = None,
) -> dict[str, Any]:
    """Fold a finished sweep's shard payloads into its summary.

    Streams shard payloads one at a time (every shard record is in the
    store by the time this job is scheduled — the scheduler cache-puts
    results before releasing dependents) and folds the finite count,
    minimum and maximum of each numeric metric.  The shard records are
    the sweep's one stored copy of its points, so the merge writes
    nothing: each payload decodes straight to column arrays and folds
    in one vectorised pass per metric.  The full point list is never
    materialised: peak merge memory is O(shard), not O(points).
    ``prefix`` and
    ``common`` are not read; they stay parameters because they are
    hashed into the merge job's content key, which keeps existing
    stores resolving from cache.
    """
    store = ResultStore(store_path, backend=store_backend)
    summary = _PointSummary()
    merged = 0
    try:
        with span(
            "merge",
            cat="sweep",
            target=sweep_target,
            shards=len(shard_keys),
        ):
            for payload in _iter_shard_payloads(
                store, shard_keys, store_path
            ):
                values, series, _ = _codec.unpack_columns(payload)
                summary.add_columns(series)
                merged += len(values)
    finally:
        store.close()
    return {
        "parameter": parameter,
        "points": merged,
        "shards": len(shard_keys),
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
    """
    common = dict(common or {})
    campaign = Campaign(name)
    shard_ids: list[str] = []
    shard_keys: list[str] = []
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
            batch=True,
            **chunk_params,
        )
        shard_ids.append(job_id)
        shard_keys.append(campaign.specs[-1].key)
    campaign.call(
        f"{name}/merge",
        MERGE_TARGET,
        after=shard_ids,
        retries=retries,
        store_path=str(store_path),
        shard_keys=shard_keys,
        sweep_target=target,
        parameter=parameter,
        prefix=name,
        common=common,
        store_backend=store_backend,
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
    monitor: Any = None,
    strict: bool = True,
    observers: Sequence[Any] = (),
    run_id: str = "",
    executor: Any = None,
):
    """Build and execute a sharded sweep; return its ``CampaignResult``.

    The merge summary is at ``result.results[f"{name}/merge"].value``;
    the full series decodes straight to numpy with
    :func:`collect_arrays`.  ``target`` is a batch target: it takes the
    ``parameter`` keyword as a sequence of values and returns a mapping
    of per-metric columns or one column of point values.  The
    campaign's cache preloads only the campaign's own content keys, so
    re-running against a store that holds millions of other records
    never loads them into memory.  ``executor`` picks the execution
    backend (``"serial"``/``"pool"`` or a backend instance), forwarded
    through :func:`~repro.runner.campaign.run_campaign`.
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

    Shard payloads are ``np.frombuffer``-decoded and concatenated in
    shard order with no per-point Python-object hop, so the caller gets
    the series one unsharded evaluation of the grid would have given.
    Raises :class:`~repro.errors.ConfigurationError` for a shard that
    is missing or not columnar (see :func:`_iter_shard_payloads`).
    """
    shard_keys = _campaign_shard_keys(campaign)
    store = ResultStore(store_path, backend=store_backend)
    values_segments: list[Any] = []
    column_segments: dict[str, list[Any]] = {}
    points_kind: str | None = None
    try:
        for payload in _iter_shard_payloads(store, shard_keys, store_path):
            shard_values, shard_columns, shard_kind = (
                _codec.unpack_columns(payload)
            )
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
