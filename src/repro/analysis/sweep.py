"""Generic one-parameter sweeps.

A tiny harness shared by the sensitivity module and the ablation
benchmarks: vary one knob, collect one or more scalar metrics, keep the
result queryable.  Metrics that raise
:class:`~repro.errors.InfeasibleDesignError` record ``inf`` — the sweep
keeps going (infeasibility is a *result* in this design space, not an
error).

Metrics come in two flavours: a plain callable is evaluated per grid
point (optionally across a process pool), while a :class:`BatchMetric`
wraps an array-in/array-out fast path — e.g. the vectorised model-core
methods — and is evaluated once for the whole grid.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, InfeasibleDesignError


@dataclass(frozen=True)
class BatchMetric:
    """An array-in/array-out metric for :func:`sweep_parameter`.

    ``func`` receives the whole grid (as a list) and must return one
    float per grid point, encoding infeasible points as ``inf`` (the
    batch model layer already does); a blanket
    :class:`~repro.errors.InfeasibleDesignError` marks every point
    infeasible.  Calling the wrapper with a single value still works,
    so a ``BatchMetric`` drops into any scalar-metric slot.
    """

    func: Callable[[Sequence[Any]], Any]

    def series(self, values: Sequence[Any]) -> tuple[float, ...]:
        """Evaluate the whole grid in one vectorised call."""
        try:
            out = np.asarray(self.func(list(values)), dtype=float)
        except InfeasibleDesignError:
            return tuple(math.inf for _ in values)
        if out.shape != (len(values),):
            raise ConfigurationError(
                f"batch metric returned shape {out.shape}, expected "
                f"({len(values)},)"
            )
        return tuple(float(v) for v in out)

    def __call__(self, value: Any) -> float:
        return self.series([value])[0]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of :func:`sweep_parameter`."""

    parameter: str
    values: tuple[Any, ...]
    metrics: dict[str, tuple[float, ...]]

    def metric(self, name: str) -> tuple[float, ...]:
        """One metric's series across the sweep."""
        return self.metrics[name]

    @classmethod
    def from_arrays(
        cls,
        parameter: str,
        values: Any,
        metrics: Mapping[str, Any],
    ) -> "SweepResult":
        """Build a result around existing arrays, seeding the cache.

        The array-native constructor for the columnar sweep pipeline:
        the arrays become the :meth:`as_arrays` view directly (so
        analysis code that consumes arrays never touches the tuple
        fields), and the tuple fields are materialised with one
        C-level ``tolist`` per series.
        """
        values_array = np.array(values)
        metric_arrays = {
            name: np.array(series, dtype=float)
            for name, series in metrics.items()
        }
        result = cls(
            parameter=parameter,
            values=tuple(values_array.tolist()),
            metrics={
                name: tuple(array.tolist())
                for name, array in metric_arrays.items()
            },
        )
        values_array.setflags(write=False)
        for array in metric_arrays.values():
            array.setflags(write=False)
        object.__setattr__(
            result, "_arrays", (values_array, metric_arrays)
        )
        return result

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The sweep as ``(values, {metric: np.ndarray})``, built once.

        Arrays are cached on the result, so analysis/plotting code can
        call this freely instead of rebuilding tuples per access.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            values = np.asarray(self.values)
            metrics = {
                name: np.asarray(series, dtype=float)
                for name, series in self.metrics.items()
            }
            # Shared cache: hand out read-only views so an in-place
            # edit by one caller cannot corrupt every later access.
            values.setflags(write=False)
            for array in metrics.values():
                array.setflags(write=False)
            cached = (values, metrics)
            object.__setattr__(self, "_arrays", cached)
        return cached

    def finite_mask(self, name: str) -> np.ndarray:
        """Boolean mask of sweep points with a finite value for ``name``.

        Computed via :func:`np.isfinite` on the cached metric array —
        no per-point Python loop, no tuple rebuilding.
        """
        return np.isfinite(self.as_arrays()[1][name])

    def argmin(self, name: str) -> Any:
        """Parameter value minimising ``name`` (finite points only)."""
        best_value, best_metric = None, math.inf
        for value, metric in zip(self.values, self.metrics[name]):
            if math.isfinite(metric) and metric < best_metric:
                best_value, best_metric = value, metric
        if best_value is None:
            raise ValueError(f"metric {name!r} is nowhere finite")
        return best_value

    def argmax(self, name: str) -> Any:
        """Parameter value maximising ``name`` (finite points only)."""
        best_value, best_metric = None, -math.inf
        for value, metric in zip(self.values, self.metrics[name]):
            if math.isfinite(metric) and metric > best_metric:
                best_value, best_metric = value, metric
        if best_value is None:
            raise ValueError(f"metric {name!r} is nowhere finite")
        return best_value


def _evaluate_point(
    metrics: dict[str, Callable[[Any], float]], value: Any
) -> dict[str, float]:
    """All metrics at one grid point (module-level so workers can run it)."""
    point: dict[str, float] = {}
    for name, func in metrics.items():
        try:
            point[name] = float(func(value))
        except InfeasibleDesignError:
            point[name] = math.inf
    return point


def _parallelisable(metrics: dict[str, Callable[[Any], float]]) -> bool:
    """Whether the metric callables can cross a process boundary.

    O(1) in the grid size: grid values are probed lazily — a value that
    fails to pickle mid-flight falls back to serial in the caller.
    """
    try:
        pickle.dumps(metrics)
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False
    return True


def _sharded_sweep(
    parameter: str,
    values: Sequence[Any],
    metrics: Mapping[str, Any],
    *,
    shards: int,
    store: str | os.PathLike[str],
    store_backend: str | None,
    jobs: int,
) -> SweepResult:
    """Route a grid through :func:`~repro.runner.sharding.run_sharded_sweep`.

    One sharded campaign per metric; every metric must be an importable
    ``"pkg.module:function"`` batch target (content keys hash the
    target, so callables cannot ride along).  Series come back through
    :func:`~repro.runner.sharding.collect_arrays` — columnar store
    blocks decode straight to numpy with no per-point Python-object
    hop.  Targets returning per-point mappings contribute one series
    per numeric sub-key, named ``"{metric}.{sub}"``, while plain
    per-point numbers keep the metric's own name.  Non-numeric columns
    (e.g. dominance labels) are skipped — a :class:`SweepResult` holds
    float series by contract.
    """
    from ..runner.campaign import run_campaign
    from ..runner.codec import KIND_SCALAR, SCALAR_COLUMN
    from ..runner.sharding import collect_arrays, sharded_sweep_campaign

    store_path = os.fspath(store)
    series: dict[str, np.ndarray] = {}
    for name, target in metrics.items():
        if not isinstance(target, str):
            raise ConfigurationError(
                "sharded sweeps run metrics as campaign jobs, which need "
                f"importable 'pkg.module:function' targets; metric {name!r} "
                f"is a {type(target).__name__}"
            )
        campaign = sharded_sweep_campaign(
            f"sweep/{parameter}/{name}",
            target,
            parameter,
            list(values),
            store_path=store_path,
            shards=shards,
            store_backend=store_backend,
        )
        run_campaign(
            campaign,
            jobs=jobs,
            store_path=store_path,
            store_backend=store_backend,
            strict=True,
        )
        columns = collect_arrays(store_path, campaign, store_backend)
        numeric = columns.numeric()
        if columns.points_kind == KIND_SCALAR:
            if SCALAR_COLUMN not in numeric:
                raise ConfigurationError(
                    f"metric {name!r} returned non-numeric points; "
                    "sharded sweep metrics must yield numbers or "
                    "mappings of numbers"
                )
            series[name] = numeric[SCALAR_COLUMN]
        else:
            for sub, array in numeric.items():
                series[f"{name}.{sub}"] = array
    for name, metric_series in series.items():
        if len(metric_series) != len(values):
            raise ConfigurationError(
                f"metric {name!r} produced {len(metric_series)} values for "
                f"a {len(values)}-point grid (heterogeneous point mappings?)"
            )
    return SweepResult.from_arrays(
        parameter=parameter, values=tuple(values), metrics=series
    )


def sweep_parameter(
    parameter: str,
    values: Sequence[Any],
    metrics: dict[str, Callable[[Any], float]],
    jobs: int = 1,
    shards: int | None = None,
    store: str | os.PathLike[str] | None = None,
    store_backend: str | None = None,
) -> SweepResult:
    """Evaluate each metric at each parameter value.

    ``metrics`` maps a metric name to a callable of the parameter value.
    A callable raising :class:`~repro.errors.InfeasibleDesignError`
    records ``inf`` for that point.  :class:`BatchMetric` entries are
    evaluated once for the whole grid instead of per point.

    ``jobs > 1`` evaluates the grid points over a process pool (results
    stay in grid order, identical to serial).  Metrics or values that
    cannot be pickled — lambdas, closures — fall back to serial
    evaluation, so ``jobs`` is always safe to pass; batch metrics never
    enter the pool (one vectorised call needs no fan-out).

    ``shards``/``store`` route the grid through the campaign engine's
    sharded sweeps instead: each metric must then be an importable
    ``"pkg.module:function"`` batch target, the grid is split into
    content-hash-keyed shard jobs streaming through the result store at
    ``store`` (so interrupted sweeps resume and unchanged re-runs are
    pure cache hits), and the returned :class:`SweepResult` is
    assembled by streaming the store shard by shard — peak memory stays
    O(shard), not O(grid).  ``store`` alone implies the default shard
    count; ``shards`` alone is an error (there is nothing durable to
    resume from without a store).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if not values:
        raise ValueError("sweep needs at least one value")
    if not metrics:
        raise ValueError("sweep needs at least one metric")
    if shards is not None or store is not None:
        if store is None:
            raise ConfigurationError(
                "sharded sweeps need a result store (pass store=...)"
            )
        return _sharded_sweep(
            parameter,
            values,
            metrics,
            shards=shards if shards is not None else 8,
            store=store,
            store_backend=store_backend,
            jobs=jobs,
        )
    batch_series = {
        name: metric.series(values)
        for name, metric in metrics.items()
        if isinstance(metric, BatchMetric)
    }
    scalar_metrics = {
        name: metric
        for name, metric in metrics.items()
        if not isinstance(metric, BatchMetric)
    }
    points = None
    if scalar_metrics:
        if jobs > 1 and _parallelisable(scalar_metrics):
            from ..runner.queue import parallel_map

            try:
                points = parallel_map(
                    functools.partial(_evaluate_point, scalar_metrics),
                    values,
                    jobs=jobs,
                )
            except (pickle.PicklingError, TypeError, AttributeError):
                points = None  # an unpicklable grid value; go serial
        if points is None:
            points = [
                _evaluate_point(scalar_metrics, value) for value in values
            ]
    return SweepResult(
        parameter=parameter,
        values=tuple(values),
        metrics={
            name: (
                batch_series[name]
                if name in batch_series
                else tuple(point[name] for point in points)
            )
            for name in metrics
        },
    )
