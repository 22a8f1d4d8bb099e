"""Lightweight in-process metrics: counters, gauges, histograms.

No third-party dependencies, no background threads, no sampling — just
three dictionaries of scalars behind a tiny API, cheap enough to leave
on in every hot path the runner owns (store appends, cache lookups,
codec packs):

* **counters** are monotonically increasing floats (``count``),
* **gauges** are last-value-wins floats, with a ``gauge_max`` variant
  that keeps the peak (merge semantics: gauges merge by max, so a
  per-worker peak survives aggregation),
* **histograms** are four-scalar summaries (count / total / min / max)
  fed by ``observe`` or the ``timer`` context manager — enough for
  call-latency rollups without storing samples.

Cross-process aggregation is snapshot-based: a worker process runs its
own process-global registry, takes a :meth:`MetricsRegistry.snapshot`
before a job and a :meth:`MetricsRegistry.delta_since` after, and ships
the delta back piggybacked on the job's result.  The parent
:meth:`MetricsRegistry.merge`\\ s each delta — counters add, gauges
max, histograms fold — so a campaign's metrics aggregate across the
whole worker pool without any extra IPC.

The ``REPRO_TELEMETRY`` environment variable disables collection when
set to ``0``/``off``/``false``/``no`` (any other value — including a
sidecar path, see :mod:`repro.telemetry.sink` — leaves it on).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

#: Environment variable controlling telemetry collection.  ``0`` /
#: ``off`` / ``false`` / ``no`` disable it; a filesystem path names the
#: JSONL sidecar the CLI writes; anything else just means "on".
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

_OFF_VALUES = ("0", "off", "false", "no")


def telemetry_enabled() -> bool:
    """Whether telemetry collection is on (default) for this process."""
    value = os.environ.get(TELEMETRY_ENV_VAR, "").strip().lower()
    return value not in _OFF_VALUES or value == ""


def telemetry_sidecar_path() -> str | None:
    """The sidecar path named by ``REPRO_TELEMETRY``, if it names one."""
    value = os.environ.get(TELEMETRY_ENV_VAR, "").strip()
    if not value or value.lower() in _OFF_VALUES:
        return None
    return value


class Histogram:
    """Four-scalar summary of an observed distribution."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def fold(self, other: Mapping[str, Any]) -> None:
        """Merge another histogram's summary dict into this one."""
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total", 0.0))
        for name, better in (("min", min), ("max", max)):
            value = other.get(name)
            if value is None:
                continue
            current = getattr(self, name)
            setattr(
                self,
                name,
                float(value) if current is None
                else better(current, float(value)),
            )


class MetricsRegistry:
    """A process-local bag of counters, gauges, and histograms.

    All methods are no-ops while telemetry is disabled
    (``REPRO_TELEMETRY=off``), so instrumented hot paths cost one
    environment lookup and nothing else.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Worker pids whose deltas have been merged in (parent only).
        self.workers: set[int] = set()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter."""
        if not telemetry_enabled():
            return
        self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge."""
        if not telemetry_enabled():
            return
        self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise a peak-tracking gauge (keeps the maximum ever seen)."""
        if not telemetry_enabled():
            return
        value = float(value)
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one sample into a histogram."""
        if not telemetry_enabled():
            return
        self._histograms.setdefault(name, Histogram()).observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Observe the wall time of the enclosed block, in seconds."""
        if not telemetry_enabled():
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict[str, Any]:
        """A plain-JSON copy of everything currently recorded."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.as_dict()
                for name, hist in self._histograms.items()
            },
            "workers": sorted(self.workers),
        }

    def delta_since(self, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """What was recorded since ``snapshot`` (counters/hists subtract).

        Gauges are last-value-wins, so the delta simply carries their
        current values.  The result merges cleanly into another
        registry via :meth:`merge` — the worker-to-parent piggyback.
        """
        before_counters = snapshot.get("counters", {})
        counters = {}
        for name, value in self._counters.items():
            diff = value - float(before_counters.get(name, 0.0))
            if diff:
                counters[name] = diff
        before_hists = snapshot.get("histograms", {})
        histograms = {}
        for name, hist in self._histograms.items():
            before = before_hists.get(name)
            if before is None:
                histograms[name] = hist.as_dict()
                continue
            count = hist.count - int(before.get("count", 0))
            if count <= 0:
                continue
            # min/max cannot be un-merged; the delta keeps the current
            # extremes, which only widens the parent's summary.
            histograms[name] = {
                "count": count,
                "total": hist.total - float(before.get("total", 0.0)),
                "min": hist.min,
                "max": hist.max,
            }
        return {
            "counters": counters,
            "gauges": dict(self._gauges),
            "histograms": histograms,
            "workers": sorted(self.workers),
        }

    def merge(
        self, snapshot: Mapping[str, Any], worker_pid: int | None = None
    ) -> None:
        """Fold another registry's snapshot (or delta) into this one.

        Counters add, gauges keep the maximum (so per-worker peaks
        survive), histograms fold their four-scalar summaries.
        """
        if not telemetry_enabled():
            return
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = (
                self._counters.get(name, 0.0) + float(value)
            )
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge_max(name, float(value))
        for name, summary in snapshot.get("histograms", {}).items():
            self._histograms.setdefault(name, Histogram()).fold(summary)
        for pid in snapshot.get("workers", []):
            self.workers.add(int(pid))
        if worker_pid is not None:
            self.workers.add(int(worker_pid))

    def reset(self) -> None:
        """Drop everything (tests and fresh CLI runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.workers.clear()


#: The process-global registry every instrumented layer records into.
_REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """This process's global :class:`MetricsRegistry`."""
    return _REGISTRY
