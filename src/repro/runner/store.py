"""Persistent result store: a facade over pluggable backends.

:class:`ResultStore` keeps the dumb records-in/records-out contract the
campaign engine was built on, but delegates persistence to a
:class:`~repro.runner.backends.base.StoreBackend`:

* ``backend="jsonl"`` — one append-only JSON-Lines file; appends are
  flush+fsync durable and atomic at line granularity, so a killed
  campaign leaves at most one torn trailing line (skipped on load),
* ``backend="sqlite"`` — a WAL-mode SQLite database with key/job/time
  indexes, so ``get``/``latest_by_key`` stay O(log n) at
  million-record campaign-history scale.

With no explicit ``backend`` the store recognises the on-disk format
of an existing file, then honours the ``REPRO_STORE_BACKEND``
environment variable, then the path extension (``.sqlite``/``.db`` →
SQLite), defaulting to JSONL.

Every appended record is stamped with the package version and the
reference-config content hash (:mod:`repro.runner.provenance`) so the
cache can detect and invalidate results produced by older model code.
Content-addressed lookup semantics (latest ``ok`` record per key) live
in :mod:`repro.runner.cache`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterable, Iterator, Mapping

from ..errors import ConfigurationError
from ..telemetry import metrics, span
from .backends import StoreBackend, make_backend
from .provenance import stamp_record


class ResultStore:
    """Append-only store of job-result records behind a backend.

    Parameters
    ----------
    path:
        File the backend persists to; parent directories are created.
        Conventional extensions are ``.jsonl`` and ``.sqlite``.
    backend:
        ``"jsonl"``, ``"sqlite"``, or ``None`` to resolve automatically
        (existing format > ``REPRO_STORE_BACKEND`` > extension > jsonl).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        backend: str | None = None,
    ):
        self.path = os.fspath(path)
        if os.path.isdir(self.path):
            raise ConfigurationError(
                f"store path {self.path!r} is a directory, need a file"
            )
        self._backend = make_backend(self.path, backend)

    @property
    def backend(self) -> StoreBackend:
        """The persistence backend instance."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend."""
        return self._backend.name

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        self._backend.close()

    # -- telemetry ---------------------------------------------------------

    def _metric(self, op: str) -> str:
        """Backend-qualified metric name, e.g. ``store.sqlite.append``."""
        return f"store.{self.backend_name}.{op}"

    def _instrumented_iter(
        self, source: Iterable[Any], op: str, sized: bool = False
    ) -> Iterator[Any]:
        """Wrap a backend iterator with call/record/duration metrics.

        Per-item cost is two local increments; the metric writes happen
        once, in a ``finally``, so million-record streams pay one
        counter add, not a million.  The observed duration is the wall
        time the iterator was open — it includes consumer time between
        pulls, which is the number that matters for pipeline rollups.
        """
        name = self._metric(op)
        metrics().count(name)
        records = 0
        byte_count = 0
        start = time.perf_counter()
        try:
            for item in source:
                records += 1
                if sized:
                    byte_count += item[1]
                yield item
        finally:
            metrics().count(f"{name}.records", records)
            if sized:
                metrics().count(f"{name}.bytes", byte_count)
            metrics().observe(f"{name}_s", time.perf_counter() - start)

    # -- writes ------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one record, stamped with current provenance."""
        self.append_many([dict(record)])

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Append a stamped batch (one durability barrier per batch)."""
        if not records:
            return
        stamped = [stamp_record(record) for record in records]
        name = self._metric("append")
        metrics().count(name)
        metrics().count(f"{name}.records", len(stamped))
        with span(
            "store.flush",
            cat="store",
            backend=self.backend_name,
            records=len(stamped),
        ):
            with metrics().timer(f"{name}_s"):
                self._backend.append_many(stamped)

    # -- reads -------------------------------------------------------------

    def load(self) -> list[dict[str, Any]]:
        """All readable records, in append order."""
        return self._backend.load()

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream records in append order without materialising them."""
        return self._instrumented_iter(
            self._backend.iter_records(), "iter"
        )

    def iter_records_with_size(
        self,
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """Stream ``(record, stored_bytes)`` pairs in append order."""
        return self._instrumented_iter(
            self._backend.iter_records_with_size(), "iter", sized=True
        )

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._backend)

    def latest_by_key(
        self, status: str | None = "ok"
    ) -> dict[str, dict[str, Any]]:
        """Latest record per content key, optionally filtered by status.

        Later appends win, so a job re-run after a failure supersedes
        the failed record.
        """
        return self._backend.latest_by_key(status)

    def iter_latest_by_key(
        self,
        status: str | None = "ok",
        keys: Iterable[str] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream the latest record per key without materialising them.

        Same winners as :meth:`latest_by_key`, in the winning records'
        append order; peak memory is bounded by per-key bookkeeping
        (JSONL byte offsets / a SQLite index walk), not by history size.
        ``keys`` restricts the winners to those content keys: JSONL
        skips every other line before verifying it, and SQLite answers
        each key from its ``(key, id)`` index.
        """
        return self._instrumented_iter(
            self._backend.iter_latest_by_key(status, keys=keys),
            "iter_latest",
        )

    def get(self, key: str) -> dict[str, Any] | None:
        """Latest ``ok`` record for one content key (``None`` if absent)."""
        metrics().count(self._metric("get"))
        with metrics().timer(self._metric("get_s")):
            return self._backend.get(key)

    def for_job(self, job_id: str) -> list[dict[str, Any]]:
        """All records for one display id, in append order."""
        return self._backend.for_job(job_id)

    def keys(self) -> set[str]:
        """Content keys with at least one ``ok`` record."""
        return self._backend.keys()

    # -- maintenance -------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Integrity-scan the whole history (see backend ``verify``).

        Read-only: damaged records are reported, not rewritten — they
        stay quarantined on every read path, and recomputing their
        jobs (the content key now reads as missing) restores the data.
        """
        name = self._metric("verify")
        metrics().count(name)
        with metrics().timer(f"{name}_s"):
            stats = self._backend.verify()
        return stats

    def compact(self) -> int:
        """Drop superseded history (keep latest + latest-``ok`` per key).

        Returns how many records were removed.  ``get``, ``keys``, and
        ``latest_by_key`` answer identically before and after, so a
        campaign re-run against a compacted store still resolves
        entirely from cache.
        """
        name = self._metric("compact")
        metrics().count(name)
        with metrics().timer(f"{name}_s"):
            dropped = self._backend.compact()
        metrics().count(f"{name}.dropped", dropped)
        return dropped


def _migration_target_backend(dst: str, src_name: str) -> str:
    """Destination backend when none was given, ignoring the env var.

    An existing destination keeps its on-disk format, a recognised
    extension wins for fresh files, and otherwise the migration
    converts to the *other* backend — the whole point of migrating.
    """
    from .backends import SQLITE_EXTENSIONS, detect_format

    detected = detect_format(dst)
    if detected is not None:
        return detected
    lowered = dst.lower()
    if lowered.endswith(SQLITE_EXTENSIONS):
        return "sqlite"
    if lowered.endswith((".jsonl", ".json")):
        return "jsonl"
    return "sqlite" if src_name == "jsonl" else "jsonl"


def migrate_store(
    src_path: str | os.PathLike[str],
    dst_path: str | os.PathLike[str],
    src_backend: str | None = None,
    dst_backend: str | None = None,
) -> int:
    """Copy every record of one store into a fresh store, verbatim.

    Records keep their original provenance stamps (an old result does
    not become "current" by being moved), and append order — and
    therefore every latest-wins query — is preserved.  The destination
    must not already contain records.  Returns the number migrated.

    Backend resolution: the source is recognised from its on-disk
    format; the destination follows its extension, falling back to the
    *other* backend so ``migrate_store("r.jsonl", "r.sqlite")`` does
    the conversion both directions without explicit arguments.
    """
    src = os.fspath(src_path)
    dst = os.fspath(dst_path)
    if os.path.abspath(src) == os.path.abspath(dst):
        raise ConfigurationError(
            "migration needs distinct source and destination paths"
        )
    if not os.path.exists(src):
        raise ConfigurationError(f"source store {src!r} does not exist")
    source = make_backend(src, src_backend)
    if dst_backend is None:
        dst_backend = _migration_target_backend(dst, source.name)
    destination = make_backend(dst, dst_backend)
    if len(destination) > 0:
        raise ConfigurationError(
            f"destination store {dst!r} already holds records; "
            f"refusing to mix histories"
        )
    # Stream in batches so a million-record history never has to fit
    # in memory (the whole point of migrating to the indexed backend).
    migrated = 0
    batch: list[dict[str, Any]] = []
    for record in source.iter_records():
        batch.append(record)
        if len(batch) >= 5000:
            destination.append_many(batch)
            migrated += len(batch)
            batch = []
    destination.append_many(batch)
    migrated += len(batch)
    destination.close()
    source.close()
    return migrated
