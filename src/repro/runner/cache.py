"""Content-addressed memoization of job results.

The cache maps a :class:`~repro.runner.jobs.JobSpec` content key to its
latest successful record.  A hit short-circuits execution entirely — the
queue resolves the job as ``"cached"`` without touching a worker — which
is what makes an unchanged campaign re-run near-instant and an
interrupted campaign resumable from its persisted prefix.

Backed by an optional :class:`~repro.runner.store.ResultStore`: with a
store the cache survives process restarts; without one it still
deduplicates identical jobs within a single run.

Stored records carry a provenance stamp
(:mod:`repro.runner.provenance`: package version + reference-config
content hash).  Wherever a record enters the in-memory view — eager
preload, key-filtered preload, or a lazy on-demand fetch — the cache
drops records whose stamp differs from the running interpreter's:
results computed by older model code are *stale* and re-executed
rather than served, which is what makes a version bump or a Table I
constant change safely invalidate history.

Preload is configurable (``preload="all" | "lazy" | iterable of
keys``) so a store that also holds millions of per-point sweep records
never has to be materialised just to resolve a campaign's handful of
content keys.

Payload formats are transparent here: the backends hand records back
with binary column payloads (:mod:`repro.runner.codec`) restored to
real ``bytes``, so a columnar shard record caches, round-trips, and
re-serves exactly like a JSON-dict one.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..errors import ConfigurationError
from ..telemetry import metrics
from .jobs import STATUS_CACHED, STATUS_OK, JobResult, JobSpec
from .provenance import is_current, stamp_record
from .store import ResultStore

#: Preload the store's whole latest-``ok``-per-key view (the default).
PRELOAD_ALL = "all"
#: Preload nothing; resolve keys against the store on first lookup.
PRELOAD_LAZY = "lazy"


class ResultCache:
    """In-memory content-addressed cache, optionally store-backed.

    Parameters
    ----------
    store:
        Persistent backing store.  On :meth:`put` the cache appends the
        new record so the next process sees it.
    check_provenance:
        When true (the default), records with a missing or mismatched
        provenance stamp are discarded as stale instead of served as
        hits.  Pass ``False`` to trust every stored record, e.g. when
        replaying archived histories read-only.
    preload:
        What to pull into memory up front:

        * ``"all"`` (default) — the store's latest ``ok`` record per
          key, streamed once; matches the historical behaviour,
        * ``"lazy"`` — nothing; each first lookup of a key consults the
          store directly (an O(log n) indexed get on SQLite) and
          memoizes the answer, so a store holding millions of
          per-point sweep records costs nothing until a key is asked
          for,
        * an iterable of content keys — only those keys are resolved
          (the *point-range* mode: a campaign preloads exactly its own
          spec keys and skips every other record in the history).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        check_provenance: bool = True,
        preload: str | Iterable[str] = PRELOAD_ALL,
    ):
        self._store = store
        self._records: dict[str, dict[str, Any]] = {}
        self._check_provenance = check_provenance
        self._lazy = False
        #: Keys already resolved against the store without a usable
        #: record (absent, stale, or forgotten) — never re-fetched.
        self._missing: set[str] = set()
        self.stale = 0
        if store is None:
            if isinstance(preload, str) and preload not in (
                PRELOAD_ALL,
                PRELOAD_LAZY,
            ):
                raise ConfigurationError(
                    f"unknown cache preload mode {preload!r}"
                )
        elif preload == PRELOAD_ALL:
            for record in store.iter_latest_by_key():
                self._admit(record["key"], record)
        elif preload == PRELOAD_LAZY:
            self._lazy = True
        elif isinstance(preload, str):
            raise ConfigurationError(
                f"unknown cache preload mode {preload!r}"
            )
        else:
            self._preload_keys(set(preload))
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _admit(self, key: str, record: dict[str, Any] | None) -> bool:
        """Accept one store record into the in-memory view (or not)."""
        if record is None:
            return False
        if self._check_provenance and not is_current(record):
            self.stale += 1
            metrics().count("cache.invalidated")
            return False
        self._records[key] = record
        return True

    def _preload_keys(self, wanted: set[str]) -> None:
        """Resolve exactly ``wanted`` from the store, nothing else.

        SQLite answers each key from its covering index; the JSONL
        backend streams the history once, skipping every unwanted line
        before verifying or decoding it — either way memory is bounded
        by ``wanted``, not by the store.
        """
        if self._store is None or not wanted:
            return
        for record in self._store.iter_latest_by_key(keys=wanted):
            self._admit(record["key"], record)

    @property
    def store(self) -> ResultStore | None:
        """The backing store, if any."""
        return self._store

    def __len__(self) -> int:
        """Records currently held in memory (not the store's key count)."""
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is in the in-memory view (lazy keys appear
        only after their first successful lookup)."""
        return key in self._records

    def lookup(self, spec: JobSpec) -> JobResult | None:
        """Cached result for ``spec``'s content key, or ``None``.

        A hit is returned with status ``"cached"``, zero attempts, and
        the *stored* (JSON-safe) value — the scalars are bit-identical
        to the original because JSON round-trips floats exactly.  In
        lazy mode a first miss consults the backing store and memoizes
        whatever it finds (including the absence).
        """
        record = self._records.get(spec.key)
        if (
            record is None
            and self._lazy
            and self._store is not None
            and spec.key not in self._missing
        ):
            if self._admit(spec.key, self._store.get(spec.key)):
                record = self._records[spec.key]
            else:
                self._missing.add(spec.key)
        if record is None:
            self.misses += 1
            metrics().count("cache.miss")
            return None
        self.hits += 1
        metrics().count("cache.hit")
        return JobResult(
            job_id=spec.job_id,
            key=spec.key,
            status=STATUS_CACHED,
            value=record.get("value"),
        )

    def put(self, spec: JobSpec, result: JobResult) -> None:
        """Memoize a successful result (failures are never cached)."""
        if result.status != STATUS_OK:
            return
        record = stamp_record(result.to_record(spec))
        self._records[spec.key] = record
        self._missing.discard(spec.key)
        self.puts += 1
        metrics().count("cache.put")
        if self._store is not None:
            self._store.append(record)

    def forget(self, key: str) -> None:
        """Drop one key from the in-memory view (store is append-only).

        In lazy mode the key is also pinned as missing, so a later
        lookup does not quietly resurrect the forgotten record from the
        store.
        """
        self._records.pop(key, None)
        if self._lazy:
            self._missing.add(key)

    def stats(self) -> dict[str, int]:
        """Hit/miss/put/stale counters plus current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "stale": self.stale,
            "size": len(self._records),
        }
