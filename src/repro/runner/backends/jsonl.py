"""Append-only JSON-Lines backend.

One line per record, appended with ``flush`` + ``fsync`` so a killed
campaign never loses an acknowledged append, plus a directory fsync
when the file is first created so the *name* survives a crash too.
Appends are atomic at line granularity: a writer killed mid-``write``
leaves at most one truncated trailing line, which :meth:`load`
tolerates and skips — that is what makes interrupted campaigns
resumable.

Every query is a full-file scan (O(n) in history size).  That is fine
for thousands of records and the reason the indexed
:class:`~repro.runner.backends.sqlite.SqliteBackend` exists for
millions.

Records are encoded with compact separators (no space after ``,`` or
``:``) — byte-for-byte smaller logs, decoder-compatible either way.
Binary column payloads (``bytes`` values, see
:mod:`repro.runner.codec`) are base64-wrapped on write and restored to
real ``bytes`` on read, so columnar records round-trip through the
text log unchanged.

Integrity: every line embeds a ``"check"`` CRC-32 token computed over
the rest of the line (see :mod:`repro.runner.integrity`).  Scans
verify it and *quarantine* mismatches — the damaged record is skipped
and counted (``store.jsonl.corrupt``), never yielded — so corruption
degrades to a cache miss instead of wrong data.  Lines written before
checksums existed carry no token and pass unchecked.
"""

from __future__ import annotations

import json
import os
from typing import Any, Collection, Iterable, Iterator, Mapping

from ...errors import ConfigurationError
from ...faults import ACTION_TORN_WRITE, InjectedFault, fault_site
from ...telemetry import metrics
from ..codec import jsonable_bytes, payload_kind, restore_bytes
from ..integrity import (
    count_corrupt,
    new_verify_stats,
    stamp_check,
    verify_jsonable,
)
from .base import surviving_indices, validate_record

#: Compact JSON encoding shared by every write path.
_SEPARATORS = (",", ":")


def _dump(record: Mapping[str, Any]) -> str:
    """One record as a compact, sorted, checksummed JSON line body."""
    payload = jsonable_bytes(record)
    if payload is record:
        payload = dict(payload)
    return json.dumps(
        stamp_check(payload), sort_keys=True, separators=_SEPARATORS
    )


def _fsync_dir(path: str) -> None:
    """Fsync the directory containing ``path`` (no-op where unsupported)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all filesystems allow it
        pass
    finally:
        os.close(fd)


class JsonlBackend:
    """Append-only JSONL persistence (see module docstring)."""

    name: str = "jsonl"

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        if os.path.isdir(self.path):
            raise ConfigurationError(
                f"store path {self.path!r} is a directory, need a file"
            )
        os.makedirs(
            os.path.dirname(os.path.abspath(self.path)), exist_ok=True
        )

    # -- writes ------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        self.append_many([validate_record(record)])

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Append a batch with one flush+fsync for the whole batch."""
        if not records:
            return
        fired = fault_site("store.append", records[0].get("job_id"))
        lines = "".join(
            _dump(validate_record(record)) + "\n" for record in records
        )
        if fired is not None and fired.action == ACTION_TORN_WRITE:
            # Injected power-loss model: persist a truncated batch,
            # then fail the append like the crashed writer would have.
            lines = lines[: max(0, len(lines) - fired.torn_bytes)]
        # json.dumps emits pure ASCII (ensure_ascii), so the string
        # length IS the on-disk byte count — no second encode needed.
        metrics().count("store.jsonl.append.bytes", len(lines))
        created = not os.path.exists(self.path)
        with open(self.path, "a", encoding="utf-8") as handle:
            if handle.tell() > 0 and not self._ends_with_newline():
                # A previous writer was killed mid-line; start fresh so
                # the torn fragment doesn't swallow this record too.
                handle.write("\n")
            handle.write(lines)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            # Make the new directory entry itself durable.
            _fsync_dir(self.path)
        if fired is not None:
            raise InjectedFault(
                f"injected torn write ({fired.torn_bytes} bytes lost) "
                f"at {self.path}"
            )

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) == b"\n"

    # -- reads -------------------------------------------------------------

    def load(self) -> list[dict[str, Any]]:
        """All readable records; a torn trailing line is skipped."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream readable records without materialising the history."""
        for record, _ in self.iter_records_with_size():
            yield record

    def iter_records_with_size(
        self,
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """Stream ``(record, stored_bytes)`` pairs in append order.

        ``stored_bytes`` is the on-disk footprint of the record's line
        (newline included) — what ``repro store info`` charges each
        payload kind with.
        """
        if not os.path.exists(self.path):
            return
        fault_site("store.iter")
        with open(self.path, "rb") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # interrupted append; partial line
                except UnicodeDecodeError as error:
                    # e.g. the jsonl backend forced onto a SQLite file.
                    raise ConfigurationError(
                        f"store path {self.path!r} is not a JSONL "
                        f"result store: {error}"
                    ) from error
                if not isinstance(record, dict):
                    continue
                if verify_jsonable(record) is False:
                    # Quarantine: checksum mismatch — skip and count,
                    # never surface damaged data.
                    metrics().count("store.jsonl.corrupt")
                    metrics().count("store.jsonl.quarantined")
                    continue
                yield restore_bytes(record), len(raw)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_records())

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self.iter_records()

    def _iter_winning_offsets(
        self, status: str | None, keys: Collection[str] | None = None
    ) -> list[int]:
        """Byte offsets of the latest record per key, in append order.

        The memory-bounded half of :meth:`iter_latest_by_key`: one scan
        keeps an integer per key instead of the decoded records, so a
        million-point sweep history costs a dict of offsets, not its
        payloads.  With ``keys``, a line of any other key is dropped
        before its checksum is verified.
        """
        winners: dict[str, int] = {}
        offset = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                line_at = offset
                offset += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # interrupted append; partial line
                except UnicodeDecodeError as error:
                    # e.g. the jsonl backend forced onto a SQLite file —
                    # fail loudly like iter_records, never "empty store".
                    raise ConfigurationError(
                        f"store path {self.path!r} is not a JSONL result "
                        f"store: {error}"
                    ) from error
                if not isinstance(record, dict):
                    continue
                if keys is not None and record.get("key") not in keys:
                    continue
                if verify_jsonable(record) is False:
                    metrics().count("store.jsonl.corrupt")
                    metrics().count("store.jsonl.quarantined")
                    continue
                if status is not None and record.get("status") != status:
                    continue
                winners[record["key"]] = line_at
        return sorted(winners.values())

    def iter_latest_by_key(
        self,
        status: str | None = "ok",
        keys: Iterable[str] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream the latest record per key without materialising them.

        Two passes over the file: the first keeps only a byte offset per
        key (latest wins), the second seeks to each winning line and
        decodes just those — peak memory is O(keys), independent of how
        much superseded history or payload the log carries.  ``keys``
        restricts the winners to those content keys: the first pass
        skips every other line before verifying its checksum, and the
        second never decodes it.
        """
        if not os.path.exists(self.path):
            return
        fault_site("store.iter")
        offsets = self._iter_winning_offsets(
            status, None if keys is None else frozenset(keys)
        )
        if not offsets:
            return
        with open(self.path, "rb") as handle:
            for line_at in offsets:
                handle.seek(line_at)
                record = json.loads(handle.readline())
                if isinstance(record, dict):
                    # Winners were checksum-verified in the offset
                    # pass; just strip the storage-internal token.
                    record.pop("check", None)
                    yield restore_bytes(record)

    def latest_by_key(
        self, status: str | None = "ok"
    ) -> dict[str, dict[str, Any]]:
        return {
            record["key"]: record
            for record in self.iter_latest_by_key(status)
        }

    def get(self, key: str) -> dict[str, Any] | None:
        fault_site("store.get", key)
        found: dict[str, Any] | None = None
        for record in self.iter_records():
            if record["key"] == key and record.get("status") == "ok":
                found = record
        return found

    def for_job(self, job_id: str) -> list[dict[str, Any]]:
        return [
            r for r in self.iter_records() if r.get("job_id") == job_id
        ]

    def keys(self) -> set[str]:
        return {
            r["key"]
            for r in self.iter_records()
            if r.get("status") == "ok"
        }

    # -- maintenance -------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Full-file integrity pass (see :mod:`repro.runner.integrity`).

        Counts every line: verified, unchecked (pre-checksum legacy),
        corrupt (parseable but failing its checksum, charged to its
        payload kind), and unreadable (not JSON — e.g. a torn trailing
        line).  Read-only; quarantined records stay in place.
        """
        stats = new_verify_stats(self.name)
        if not os.path.exists(self.path):
            return stats
        with open(self.path, "rb") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                stats["records"] += 1
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    stats["unreadable"] += 1
                    continue
                if not isinstance(record, dict):
                    stats["unreadable"] += 1
                    continue
                verdict = verify_jsonable(record)
                if verdict is None:
                    stats["unchecked"] += 1
                elif verdict:
                    stats["checked"] += 1
                else:
                    count_corrupt(stats, payload_kind(record))
        return stats

    def compact(self) -> int:
        """Atomically rewrite the file keeping only surviving records.

        Two streaming passes: the first keeps only the surviving record
        *indices* (an int or two per key), the second re-reads the log
        and copies just those lines — the history is never materialised.
        The replacement is written to a sibling temp file, fsynced, and
        renamed over the original, so a crash mid-compaction leaves
        either the full old log or the full new one — never a mix.
        """
        total = 0

        def counted() -> Iterator[dict[str, Any]]:
            nonlocal total
            for record in self.iter_records():
                total += 1
                yield record

        keep = set(surviving_indices(counted()))
        dropped = total - len(keep)
        if dropped == 0:
            return 0
        tmp_path = self.path + ".compact.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.iter_records()):
                if index in keep:
                    handle.write(_dump(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        _fsync_dir(self.path)
        return dropped

    def close(self) -> None:
        """Nothing held open between calls."""
