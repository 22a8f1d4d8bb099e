"""The storage abstraction behind :class:`~repro.runner.store.ResultStore`.

A backend persists plain-JSON job-result records and answers the small
query vocabulary the cache and campaign layers need.  Keeping the
protocol this narrow is what lets an append-only JSONL file and an
indexed SQLite database sit behind the same :class:`ResultStore` facade
— and what will let a remote/distributed backend slot in later without
another store rewrite.

Semantics shared by every backend:

* **append order is the log order** — ``load()`` returns records in the
  order they were appended, and "latest" always means "appended last",
* **latest ``ok`` wins** — ``get(key)`` returns the newest record for
  ``key`` whose status is ``"ok"`` (a re-run supersedes a failure),
* **compaction is lossy but cache-preserving** — ``compact()`` keeps,
  per key, the newest record overall plus the newest ``ok`` record, so
  ``get``/``keys``/``latest_by_key`` answer identically before and
  after compaction while superseded history is dropped.
"""

from __future__ import annotations

from typing import (
    Any,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    runtime_checkable,
)

from ...errors import ConfigurationError

#: Fields every record must carry (enforced on append by all backends).
REQUIRED_FIELDS = ("key", "status")


def validate_record(record: Mapping[str, Any]) -> dict[str, Any]:
    """Check required fields and return a plain-dict copy of ``record``."""
    for field in REQUIRED_FIELDS:
        if field not in record:
            raise ConfigurationError(
                "store records need at least 'key' and 'status' fields"
            )
    return dict(record)


def surviving_indices(records: Iterable[Mapping[str, Any]]) -> list[int]:
    """Indices that :meth:`StoreBackend.compact` keeps, in append order.

    Per key: the newest record overall and the newest ``ok`` record
    (usually the same one).  Shared by both concrete backends so their
    compaction semantics cannot drift apart.  Accepts any iterable —
    streaming a backend's ``iter_records()`` through it costs an
    integer or two per key, never the decoded history.
    """
    latest: dict[str, int] = {}
    latest_ok: dict[str, int] = {}
    for index, record in enumerate(records):
        key = record["key"]
        latest[key] = index
        if record.get("status") == "ok":
            latest_ok[key] = index
    return sorted(set(latest.values()) | set(latest_ok.values()))


@runtime_checkable
class StoreBackend(Protocol):
    """What a result-store persistence layer must provide.

    Concrete implementations: :class:`~repro.runner.backends.jsonl
    .JsonlBackend` (append-only file, O(n) scans) and
    :class:`~repro.runner.backends.sqlite.SqliteBackend` (WAL-mode
    SQLite, O(log n) indexed lookups).
    """

    #: Registry name of the backend (``"jsonl"`` / ``"sqlite"``).
    name: str
    #: Filesystem path the backend persists to.
    path: str

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one validated record to the log."""
        ...

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Append a batch in order, amortising durability costs."""
        ...

    def load(self) -> list[dict[str, Any]]:
        """Every readable record, in append order."""
        ...

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream records in append order without materialising them."""
        ...

    def iter_records_with_size(
        self,
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """Stream ``(record, stored_bytes)`` pairs in append order.

        ``stored_bytes`` is the record's persisted footprint (JSONL:
        line bytes; SQLite: JSON text plus native blob), which is what
        lets ``repro store info`` attribute disk usage per payload
        kind without re-encoding anything.
        """
        ...

    def get(self, key: str) -> dict[str, Any] | None:
        """Latest ``ok`` record for one content key (``None`` if absent)."""
        ...

    def latest_by_key(
        self, status: str | None = "ok"
    ) -> dict[str, dict[str, Any]]:
        """Latest record per key, optionally filtered by status."""
        ...

    def iter_latest_by_key(
        self,
        status: str | None = "ok",
        keys: Iterable[str] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream the latest record per key without materialising them.

        Same winners as :meth:`latest_by_key`, yielded in the append
        order of the winning records; peak memory stays O(keys) of
        bookkeeping (JSONL: byte offsets) or O(1) (SQLite: an index
        walk), never the decoded record set.  ``keys`` restricts the
        winners to those content keys.
        """
        ...

    def for_job(self, job_id: str) -> list[dict[str, Any]]:
        """All records for one display id, in append order."""
        ...

    def keys(self) -> set[str]:
        """Content keys with at least one ``ok`` record."""
        ...

    def compact(self) -> int:
        """Drop superseded history; return how many records were removed."""
        ...

    def verify(self) -> dict[str, Any]:
        """Full integrity pass over the persisted history (read-only).

        Returns the :func:`~repro.runner.integrity.new_verify_stats`
        shape: total records, checksum-verified / legacy-unchecked
        counts, corrupt records per payload kind, and unreadable
        entries.  Scans never crash on damage — corrupt records are
        quarantined (skipped and counted) here and on every read path.
        """
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...

    def __len__(self) -> int:
        ...

    def __iter__(self) -> Iterator[dict[str, Any]]:
        ...
